"""`kernel._int_slack`, the one evaluation of an integer row at a point,
against Fraction dot products.

`HPoly.contains` and `slack._slacks` read every row through it, so a
membership verdict, a lift-hint check and a slack-matrix entry all rest on
the same few lines.  The reference below shares nothing with them: it takes
each row as given, in Fractions, and each point as given.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

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
