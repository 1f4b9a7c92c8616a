"""`kernel._nonredundant` and `remove_redundancy` against one LP per row.

The reference below is redundancy removal as it was before exact rays
certified rows: after one emptiness LP, every row in order takes one LP over
the kept rows so far, all later rows and the equations.  The ray step only
skips LPs whose answer it has proved, so the flags, rows and labels must be
identical, and every row a ray certifies must be one the reference keeps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import kernel, linalg
from polylift.errors import EmptyPolyhedronError
from polylift.kernel import HPoly, feasible_point, optimize

F = Fraction


def reference_nonredundant(poly):
    """Keep flags of a nonempty polyhedron's inequalities, one LP per row."""
    rows = poly.ineqs
    keep = [True] * len(rows)
    for i, (a, b) in enumerate(rows):
        others = [rows[j] for j in range(len(rows)) if keep[j] and j != i]
        r = optimize(HPoly(poly.dim, others, poly.eqs), a, "max")
        assert r.status != "infeasible", "relaxation of a nonempty polyhedron is empty"
        if r.status == "optimal" and r.optimum <= b:
            keep[i] = False
    return keep


def reference_remove_redundancy(poly):
    if feasible_point(poly) is None:
        raise EmptyPolyhedronError("polyhedron is empty")
    keep = reference_nonredundant(poly)
    labels = poly.ineq_labels
    if labels is not None:
        labels = tuple(label for label, k in zip(labels, keep) if k)
    return HPoly(poly.dim, tuple(row for row, k in zip(poly.ineqs, keep) if k), poly.eqs, labels, poly.eq_labels)


KINDS = (
    "duplicate",         # an exact copy of a row
    "scaled_duplicate",  # a positive multiple of a row
    "eq_multiple",       # a row plus a multiple of an equation
    "tight_implied",     # a combination of rows tight at the vertex x0
    "implicit_eq",       # a row and its negation through x0: eps = 0
    "unbounded",         # no row bounds the direction e_0
    "constant_on_aff",   # a multiple of an equation, loose or tight
    "empty",             # a row and its negation pushed past it
)


@st.composite
def systems(draw, kind):
    """A small system around the point x0 with the feature `kind` and
    perhaps two more, rows shuffled and sometimes labelled."""
    kinds = {kind} | draw(st.sets(st.sampled_from(KINDS), max_size=2))
    dim = draw(st.integers(2, 4))
    coef = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    x0 = [F(draw(st.integers(-2, 4)), 2) for _ in range(dim)]
    # with "unbounded" every row has a_0 <= 0 and every equation c_0 = 0,
    # so the ray x0 + t e_0 stays inside
    ray = "unbounded" in kinds

    def vector():
        a = [draw(coef) for _ in range(dim)]
        if ray:
            a[0] = -abs(a[0])
        return tuple(a)

    eqs = []
    for _ in range(draw(st.integers(1 if kinds & {"eq_multiple", "constant_on_aff"} else 0, 2))):
        c = list(vector())
        if ray:
            c[0] = F(0)
        c = tuple(c) if any(c) else linalg.unit(dim, dim - 1)
        eqs.append((c, linalg.dot(c, x0)))
    # the box around x0: x0 is its lower corner, a vertex, with "tight_implied"
    corner = "tight_implied" in kinds
    rows = []
    for i, x in enumerate(x0):
        rows.append((tuple(-u for u in linalg.unit(dim, i)), -x + (0 if corner else draw(st.integers(1, 2)))))
        if not (ray and i == 0):
            rows.append((linalg.unit(dim, i), x + draw(st.integers(1, 2))))
    for _ in range(draw(st.integers(0, 2))):
        a = vector()
        rows.append((a, linalg.dot(a, x0) + draw(st.integers(0, 2))))
    if "duplicate" in kinds:
        rows.append(draw(st.sampled_from(rows)))
    if "scaled_duplicate" in kinds:
        a, b = draw(st.sampled_from(rows))
        lam = draw(st.sampled_from([F(2), F(1, 2), F(3)]))
        rows.append((tuple(lam * x for x in a), lam * b))
    if "eq_multiple" in kinds:
        (a, b), (c, d) = draw(st.sampled_from(rows)), draw(st.sampled_from(eqs))
        lam = draw(st.sampled_from([F(-2), F(-1), F(1, 2), F(1), F(2)]))
        rows.append((tuple(x + lam * y for x, y in zip(a, c)), b + lam * d))
    if corner:
        # implied by the lower rows (and a tight random row), tight at x0
        mus = [draw(st.integers(0, 2)) for _ in range(dim)]
        mus[draw(st.integers(0, dim - 1))] += 1
        a = tuple(-m for m in mus)
        if draw(st.booleans()):
            extra = vector()
            rows.append((extra, linalg.dot(extra, x0)))
            a = tuple(x + y for x, y in zip(a, extra))
        rows.append((a, linalg.dot(a, x0)))
    if "implicit_eq" in kinds:
        a = list(vector())
        a[0] = F(0) if ray else a[0]
        a = tuple(a) if any(a) else linalg.unit(dim, dim - 1)
        rows += [(a, linalg.dot(a, x0)), (tuple(-x for x in a), -linalg.dot(a, x0))]
    if "constant_on_aff" in kinds:
        c, d = draw(st.sampled_from(eqs))
        lam = draw(st.sampled_from([F(-1), F(1), F(2)]))
        rows.append((tuple(lam * x for x in c), lam * d + draw(st.integers(0, 2))))
        rows.append(((F(0),) * dim, F(draw(st.integers(1, 2)))))
    if "empty" in kinds:
        a, b = draw(st.sampled_from(rows))
        rows.append((tuple(-x for x in a), -b - 1))
    rows = draw(st.permutations(rows))
    labels = [f"r{i}" for i in range(len(rows))] if draw(st.booleans()) else None
    eq_labels = [f"e{i}" for i in range(len(eqs))] if draw(st.booleans()) else None
    return HPoly(dim, rows, eqs, labels, eq_labels)


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, derandomize=True, max_examples=40)
@given(data=st.data())
def test_nonredundant_matches_one_lp_per_row(kind, data):
    poly = data.draw(systems(kind))
    if feasible_point(poly) is None:
        with pytest.raises(EmptyPolyhedronError) as expected:
            reference_remove_redundancy(poly)
        for fn in (lambda p: kernel._nonredundant(p.dim, *p._int_rows()), kernel.remove_redundancy):
            with pytest.raises(EmptyPolyhedronError) as got:
                fn(poly)
            assert str(got.value) == str(expected.value)
        return
    assert kind != "empty"
    flags = reference_nonredundant(poly)
    assert kernel._nonredundant(poly.dim, *poly._int_rows()) == flags
    out, expected = kernel.remove_redundancy(poly), reference_remove_redundancy(poly)
    assert out == expected and repr(out) == repr(expected)
    # the certificate alone: every row a ray certifies is one the LPs keep
    eps, z = kernel._max_common_slack(poly.dim, *poly._int_rows())
    if kind == "implicit_eq":
        assert eps == 0
    if eps > 0:
        assert all(flags[i] for i in kernel._ray_certified(poly.dim, *poly._int_rows(), z))
    if kind == "unbounded":
        assert optimize(poly, linalg.unit(poly.dim, 0), "max").status == "unbounded"
