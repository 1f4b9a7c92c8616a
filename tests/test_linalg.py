from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from polylift import linalg


F = Fraction


def test_rank_examples():
    assert linalg.rank(linalg.mat([[1, 2], [2, 4]])) == 1
    assert linalg.rank(linalg.mat([[1, 0], [0, 1]])) == 2
    assert linalg.rank(linalg.mat([[0, 0], [0, 0]])) == 0
    assert linalg.rank(linalg.mat([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])) == 1


def test_solve_and_nullspace():
    a = linalg.mat([[1, 1, 0], [0, 1, 1]])
    x = linalg.solve(a, linalg.vec([3, 5]))
    assert x is not None
    assert linalg.mat_vec(a, x) == linalg.vec([3, 5])
    ns = linalg.nullspace(a)
    assert len(ns) == 1
    assert linalg.mat_vec(a, ns[0]) == linalg.vec([0, 0])


def test_solve_inconsistent():
    a = linalg.mat([[1, 1], [1, 1]])
    assert linalg.solve(a, linalg.vec([1, 2])) is None


def test_inverse_and_left_inverse():
    m = linalg.mat([[2, 1], [1, 1]])
    inv = linalg.inverse(m)
    assert linalg.mat_mul(inv, m) == linalg.identity(2)
    tall = linalg.mat([[1, 0], [0, 1], [1, 1]])
    left = linalg.left_inverse(tall)
    assert linalg.mat_mul(left, tall) == linalg.identity(2)


def ref_canon_ineq(a, b):
    """Reference: a·x <= b scaled by a positive rational so that its entries
    are coprime integers (all zero stays zero), as Fractions."""
    row = [F(x) for x in (*a, b)]
    den = lcm(*[x.denominator for x in row])
    ints = [int(x * den) for x in row]
    g = gcd(*ints)
    if g == 0:
        return tuple(F(0) for _ in a), F(0)
    return tuple(F(x // g) for x in ints[:-1]), F(ints[-1] // g)


def ref_canon_eq(c, d):
    """Reference: `ref_canon_ineq` signed so that the first nonzero
    coefficient is positive (the right-hand side, when there is none)."""
    a, b = ref_canon_ineq(c, d)
    lead = next((x for x in a if x), b)
    if lead < 0:
        return tuple(-x for x in a), -b
    return a, b


def test_canon_rows():
    a, b = ref_canon_ineq(linalg.vec([F(2, 3), F(-4, 3)]), F(2))
    assert (a, b) == (linalg.vec([1, -2]), F(3))
    c, d = ref_canon_eq(linalg.vec([-2, 4]), F(-6))
    assert (c, d) == (linalg.vec([1, -2]), F(3))
    assert linalg._canonical_eq([-2, 4, -6]) == (1, -2, 3)
    assert linalg._canonical_eq([0, 0, -3, 6, 9]) == (0, 0, 1, -2, -3)
    assert linalg._canonical_eq((0, 5, 0)) == (0, 1, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7), min_size=1, max_size=5),
       st.fractions(min_value=-6, max_value=6, max_denominator=7))
def test_canonical_eq_matches_the_fraction_reference(c, d):
    if not any(c):
        return
    row = linalg.homogeneous([*c, d])[:-1]
    *a, b = linalg._canonical_eq(row)
    assert (tuple(F(x) for x in a), F(b)) == ref_canon_eq(c, d)
    # any positive or negative multiple of the row has the same form
    assert linalg._canonical_eq([-3 * x for x in row]) == linalg._canonical_eq(row)


def test_vec_returns_a_fraction_tuple_as_is():
    t = (F(1, 2), F(0), F(-3))
    assert linalg.vec(t) is t

    class Half(Fraction):
        pass

    # anything but a tuple of exact Fractions is coerced into a new tuple
    for xs in ([F(1, 2), F(0)], (F(1, 2), 0, "3/4"), (F(1), True), (Half(1, 2),)):
        out = linalg.vec(xs)
        assert out is not xs
        assert type(out) is tuple and out == tuple(F(x) for x in xs)
    assert all(type(x) is Fraction for x in linalg.vec((F(1, 2), 0, "3/4", True)))
    with pytest.raises(TypeError):
        linalg.vec((F(1), 0.5))


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@given(st.lists(st.lists(small_fracs, min_size=3, max_size=3), min_size=1, max_size=4))
def test_nullspace_property(rows):
    m = linalg.mat(rows)
    for v in linalg.nullspace(m):
        assert all(x == 0 for x in linalg.mat_vec(m, v))
    assert linalg.rank(m) + len(linalg.nullspace(m)) == 3


@given(small_fracs, small_fracs, small_fracs, small_fracs)
def test_fraction_arithmetic_stays_canonical(a, b, c, d):
    # Fraction keeps gcd(|num|, den) = 1 and den >= 1 under arithmetic
    for val in (a + b, a * b, a - c, (a + b) * (c - d)):
        from math import gcd

        assert val.denominator >= 1
        assert gcd(abs(val.numerator), val.denominator) == 1


# ---------------------------------------------------------------------------
# Differential test: the fraction-free routine against a Fraction Gauss-Jordan
# ---------------------------------------------------------------------------

def ref_rref(m):
    """Reference: in-place Fraction Gauss-Jordan; returns (rows, pivots)."""
    rows = [list(r) for r in m]
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_solve(a, b):
    ncols = len(a[0])
    rows, pivots = ref_rref([list(r) + [bi] for r, bi in zip(a, b)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return tuple(x)


def ref_nullspace(m):
    ncols = len(m[0])
    rows, pivots = ref_rref(m)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def ref_independent_rows(m):
    """Greedy: keep a row when it raises the rank of the rows kept so far."""
    kept = []
    for i, row in enumerate(m):
        if len(ref_rref([m[j] for j in kept] + [row])[1]) > len(kept):
            kept.append(i)
    return kept


def ref_inverse(m):
    n = len(m)
    rows, pivots = ref_rref([list(r) + list(linalg.unit(n, i)) for i, r in enumerate(m)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in rows)


def ref_left_inverse(m):
    ncols = len(m[0])
    idx = ref_independent_rows(m)
    if len(idx) != ncols:
        return None
    subinv = ref_inverse([m[i] for i in idx])
    out = []
    for r in range(ncols):
        row = [F(0)] * len(m)
        for k, i in enumerate(idx):
            row[i] = subinv[r][k]
        out.append(tuple(row))
    return tuple(out)


entries = st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=7))


@st.composite
def matrices(draw):
    """0-6 rows, 1-7 columns, with zero columns and zero, duplicate and
    dependent rows mixed in."""
    ncols = draw(st.integers(1, 7))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "duplicate", "combination"]))
        if kind == "zero":
            row = [F(0)] * ncols
        elif kind == "duplicate" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combination" and len(rows) >= 2:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            row = [a * x + b * y for x, y in zip(u, v)]
        else:
            row = [F(0) if j in zero_cols else draw(entries) for j in range(ncols)]
        rows.append(row)
    return linalg.mat(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.data())
def test_elimination_matches_fraction_gauss_jordan(m, data):
    ref_rows, ref_pivots = ref_rref(m)
    assert linalg.rref(m) == (tuple(tuple(r) for r in ref_rows), ref_pivots)
    assert linalg.rank(m) == len(ref_pivots)
    assert linalg.independent_rows(m) == ref_independent_rows(m)
    if not m:
        return
    ncols = len(m[0])
    assert linalg.nullspace(m) == ref_nullspace(m)
    # a consistent right-hand side, and one made inconsistent by a left
    # null vector y (y·b = y·y > 0) whenever the rows are dependent
    x = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    rhs = [linalg.mat_vec(m, x)]
    for y in ref_nullspace(linalg.transpose(m))[:1]:
        rhs.append(linalg.vadd(rhs[0], y))
    rhs.append(tuple(data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))))
    for b in rhs:
        sol = linalg.solve(m, b)
        assert sol == ref_solve(m, b)
    assert linalg.solve(m, rhs[0]) is not None
    if len(rhs) == 3:
        assert linalg.solve(m, rhs[1]) is None
    square = tuple(r[: len(m)] for r in m[:ncols])
    expected_inv = ref_inverse(square)
    if expected_inv is None:
        with pytest.raises(ValueError):
            linalg.inverse(square)
    else:
        assert linalg.inverse(square) == expected_inv
    expected_left = ref_left_inverse(m)
    if expected_left is None:
        with pytest.raises(ValueError):
            linalg.left_inverse(m)
    else:
        assert linalg.left_inverse(m) == expected_left
