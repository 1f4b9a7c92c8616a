"""`kernel._int_slack`, the one evaluation of an integer row at a point,
against Fraction dot products; and `HPoly._holds`, which reads every row at
once in one packed big-integer sum, against the `_int_slack` row loop.

`HPoly.contains` and `slack._slacks` read rows through them, so a
membership verdict, a lift-hint check and a slack-matrix entry all rest on
the same few lines.  The Fraction reference shares nothing with them: it
takes each row as given, in Fractions, and each point as given.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import kernel
from polylift.kernel import HPoly, _int_slack
from polylift.linalg import homogeneous
from polylift.slack import _slacks

F = Fraction

values = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6))


def ref_slack(a, b, x):
    return b - sum((ai * xi for ai, xi in zip(a, x)), F(0))


def ref_contains(poly, x):
    return (all(ref_slack(a, b, x) >= 0 for a, b in poly.ineqs)
            and all(ref_slack(c, d, x) == 0 for c, d in poly.eqs))


@st.composite
def systems_and_points(draw):
    """A system of rational rows in dimension 0-4 and points with
    denominators.  Some rows are made tight at the first point, some
    equations hold there and some miss it by a little, so verdicts on, just
    inside and just outside a row all occur."""
    dim = draw(st.integers(0, 4))
    points = draw(st.lists(st.tuples(*[values] * dim), min_size=1, max_size=4, unique=True))
    x0 = points[0]

    def row():
        a = tuple(draw(values) for _ in range(dim))
        kind = draw(st.sampled_from(["tight", "near", "free"]))
        if kind == "free":
            return a, draw(values)
        nudge = F(0) if kind == "tight" else draw(st.sampled_from([F(-1, 7), F(1, 7)]))
        return a, sum((ai * xi for ai, xi in zip(a, x0)), F(0)) + nudge

    ineqs = [row() for _ in range(draw(st.integers(0, 5)))]
    eqs = [row() for _ in range(draw(st.integers(0, 2)))]
    return HPoly(dim, ineqs, eqs), points


@settings(max_examples=300, deadline=None, derandomize=True)
@given(systems_and_points())
def test_contains_and_slacks_match_fraction_dot_products(case):
    poly, points = case
    for x in points:
        assert poly.contains(x) == ref_contains(poly, x)
        hom = homogeneous(x)
        for (a, b), (nz, bi, d) in zip(poly.ineqs + poly.eqs, poly._int_rows()[0] + poly._int_rows()[1]):
            # d·w times the true slack, exactly
            assert F(_int_slack(nz, bi, hom), d * hom[-1]) == ref_slack(a, b, x)
    assert _slacks(poly, points) == [tuple(ref_slack(a, b, x) for x in points) for a, b in poly.ineqs]


def test_verdicts_on_inside_and_outside_a_row():
    assert HPoly(0, [((), F(0))]).contains(())
    assert not HPoly(0, [((), F(-1))]).contains(())
    assert not HPoly(0, (), [((), F(1, 2))]).contains(())
    h = HPoly(2, [((F(1, 2), F(-1, 3)), F(1, 6))], [((F(2, 3), F(0)), F(1, 3))])
    assert h.contains((F(1, 2), F(1, 4)))  # on both rows
    assert h.contains((F(1, 2), F(1, 2)))  # 1/4 - 1/6 < 1/6
    assert not h.contains((F(1, 2), F(-1, 2)))  # 1/4 + 1/6 > 1/6
    assert not h.contains((F(1, 3), F(1, 2)))  # off the equation
    assert _slacks(h, [(F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))]) == [(F(0), F(1, 12))]


# ---------------------------------------------------------------------------
# The packed check of `HPoly._holds` against the `_int_slack` row loop
# ---------------------------------------------------------------------------

LIMIT = 1 << 16  # a point with an entry this large takes the row loop
EDGE = [LIMIT - 1, LIMIT, LIMIT + 1]


def row_loop(poly, hom):
    """`_holds` as one `_int_slack` per row."""
    ineqs, eqs = poly._int_rows()
    return (all(_int_slack(nz, b, hom) >= 0 for nz, b, _ in ineqs)
            and not any(_int_slack(nz, b, hom) for nz, b, _ in eqs))


def sign(x):
    return (x > 0) - (x < 0)


entries = st.one_of(st.integers(-3, 3), st.sampled_from(EDGE + [2**20]).flatmap(lambda x: st.sampled_from([x, -x])))
scales = st.one_of(st.integers(1, 3), st.sampled_from(EDGE + [2**20]))
coefficients = st.one_of(st.integers(-3, 3), st.sampled_from([2**16 - 1, 2**20 + 1, 3 << 40, 5**30]).flatmap(
    lambda x: st.sampled_from([x, -x])))


@st.composite
def packed_cases(draw):
    """Integer rows in dimension 0-5 and homogeneous points (X..., w).
    Rows are built around the first point: tight or off by one there
    (exactly when w = 1), free, or at an extreme, where the slack is
    max|entry| times the row's reach, up or down."""
    dim = draw(st.integers(0, 5))
    homs = draw(st.lists(st.tuples(*[entries] * dim, scales), min_size=1, max_size=4))
    *x0, w0 = homs[0]

    def row():
        a = [draw(coefficients) for _ in range(dim)]
        kind = draw(st.sampled_from(["tight", "free", "up", "down"]))
        if kind == "free":
            return a, draw(coefficients)
        if kind == "tight":
            return a, (sum(ai * xi for ai, xi in zip(a, x0)) + draw(st.integers(-1, 1))) // w0
        c, up = abs(draw(coefficients)) or 1, kind == "up"
        a = [-c * sign(xi) if up else c * sign(xi) for xi in x0]
        return a, c if up else -c

    ineqs = [row() for _ in range(draw(st.integers(0, 4)))]
    eqs = [row() for _ in range(draw(st.integers(0, 3)))]
    return HPoly(dim, ineqs, eqs), homs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(packed_cases())
def test_packed_check_matches_row_loop(case):
    poly, homs = case
    for hom in homs:
        assert poly._holds(hom) == row_loop(poly, hom), hom


@pytest.mark.parametrize("c", [1, 3, 2**16 - 1, 2**16 + 1, 3 << 40])
@pytest.mark.parametrize("x", EDGE)
def test_packed_check_at_the_largest_slacks(c, x):
    # at X = (x, ..., x), w = x, the row -c·Σy <= c has slack x·reach, the
    # most a field holds below the limit, and c·Σy <= -c has -x·reach; each
    # alone, among others and as an equation (at x = LIMIT - 1 they are
    # packed, from LIMIT on read by the row loop)
    for dim in (1, 3):
        hom = (x,) * dim + (x,)
        up, down, tight = ([-c] * dim, c), ([c] * dim, -c), ([1] * dim, dim)
        for ineqs, eqs in (([up], []), ([down], []), ([up, down, up], []), ([tight, up, tight], [down]),
                           ([down], [tight]), ([up], [up]), ([tight], [tight]), ([], [([c] * dim, c * dim)])):
            poly = HPoly(dim, ineqs, eqs)
            assert poly._holds(hom) == row_loop(poly, hom), (ineqs, eqs, hom)


def _count_row_reads(monkeypatch):
    count = [0]

    def counted(*args):
        count[0] += 1
        return _int_slack(*args)

    monkeypatch.setattr(kernel, "_int_slack", counted)
    return count


@pytest.mark.parametrize("hom", [(e, 0, 1) for e in (LIMIT - 1, -(LIMIT - 1), LIMIT, -LIMIT)]
                         + [(0, e, 1) for e in (LIMIT - 1, -(LIMIT - 1), LIMIT, -LIMIT)]
                         + [(0, 0, LIMIT - 1), (0, 0, LIMIT), (1, 1, LIMIT + 1)])
def test_points_with_an_entry_of_2_to_16_take_the_row_loop(monkeypatch, hom):
    poly = HPoly(2, [((1, 0), LIMIT), ((0, -1), LIMIT)], [((1, 1), 2 * LIMIT)])
    count = _count_row_reads(monkeypatch)
    got = poly._holds(hom)
    monkeypatch.undo()
    assert got == row_loop(poly, hom)
    assert (count[0] > 0) == (max(map(abs, hom)) >= LIMIT)


def test_packed_check_with_no_rows_only_equations_or_no_coordinates(monkeypatch):
    count = _count_row_reads(monkeypatch)
    assert HPoly(3)._holds((5, -7, 0, 3))
    assert HPoly(0)._holds((1,))
    eqs = HPoly(2, (), [((1, -1), 0), ((2, 1), 3)])
    assert eqs._holds((1, 1, 1)) and eqs._holds((2, 2, 2))
    assert not eqs._holds((1, 1, 2)) and not eqs._holds((2, 1, 1))
    assert HPoly(0, [((), 0)], [((), 0)])._holds((7,))
    assert not HPoly(0, [((), -1)])._holds((1,)) and not HPoly(0, (), [((), 1)])._holds((1,))
    assert count[0] == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(packed_cases(), st.lists(st.sampled_from([1, 2, 3, LIMIT - 1, LIMIT, LIMIT + 1]), min_size=1, max_size=3))
def test_contains_on_fraction_points(case, dens):
    # the point X/w with entries reduced: a denominator past 2^16 takes the
    # row loop, a small one the packed sum
    poly, homs = case
    for (*xs, w), den in zip(homs, dens):
        x = [F(xi, w * den) for xi in xs]
        assert poly.contains(x) == ref_contains(poly, x)
