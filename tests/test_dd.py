"""The integer double description core of `hull` and `vertices`.

The reference below is the Fraction implementation the integer core
replaced: every slack and edge point in Fraction, and each new vertex's
tight set recomputed by one dot product per earlier row (`tight_mask`).
Its linear algebra is `test_linalg`'s Fraction Gauss-Jordan, which shares
no code with the elimination `hull` reads its left inverse from.  Both must
give identical results, and so must any order of the input.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polylift import linalg, zoo
from polylift.errors import (
    EmptyPolyhedronError,
    InputError,
    InvariantViolationError,
    UnboundedPolyhedronError,
)
from polylift.kernel import (
    HPoly,
    VPoly,
    _affine_frame,
    _max_common_slack,
    _polar_seeds,
    hull,
    vertices,
)
from test_linalg import (
    ref_canon_eq,
    ref_canon_ineq,
    ref_independent_rows,
    ref_left_inverse,
    ref_nullspace,
    ref_solve,
)

F = Fraction
ONE = F(1)


# ---------------------------------------------------------------------------
# Fraction reference
# ---------------------------------------------------------------------------

def _row_value(a, v):
    s = F(0)
    for ai, vi in zip(a, v):
        if ai and vi:
            s += ai * vi
    return s


def _dd_run_reference(k, all_rows, verts, tights, start_idx):
    def tight_mask(v, upto):
        m = 0
        for idx in range(upto):
            a, b = all_rows[idx]
            if _row_value(a, v) == b:
                m |= 1 << idx
        return m

    kmin = k - 1
    for idx in range(start_idx, len(all_rows)):
        a, b = all_rows[idx]
        slacks = [b - _row_value(a, v) for v in verts]
        if all(s >= 0 for s in slacks):
            bit = 1 << idx
            for i, s in enumerate(slacks):
                if s == 0:
                    tights[i] |= bit
            continue
        inside = [i for i, s in enumerate(slacks) if s > 0]
        on = [i for i, s in enumerate(slacks) if s == 0]
        outside = [i for i, s in enumerate(slacks) if s < 0]
        new_pts = {}
        for i in inside:
            ti, si, vi = tights[i], slacks[i], verts[i]
            for j in outside:
                common = ti & tights[j]
                if common.bit_count() < kmin:
                    continue
                if any((tl & common) == common and l != i and l != j for l, tl in enumerate(tights)):
                    continue
                alpha = si / (si - slacks[j])
                pt = tuple(u + alpha * (w - u) for u, w in zip(vi, verts[j]))
                if pt not in new_pts:
                    new_pts[pt] = tight_mask(pt, idx + 1)
        keep_idx = sorted(inside + on)
        bit = 1 << idx
        tights[:] = [tights[i] | (bit if slacks[i] == 0 else 0) for i in keep_idx] + list(new_pts.values())
        verts[:] = [verts[i] for i in keep_idx] + list(new_pts)
    return verts


def _hull_reference(points):
    if not points.vertices:
        raise InputError("hull of an empty point list")
    dim = points.dim
    pts = list(points.vertices)
    if len(pts) == 1:
        p = pts[0]
        return HPoly(dim, (), tuple(ref_canon_eq(linalg.unit(dim, i), p[i]) for i in range(dim)))
    p0 = pts[0]
    diffs = [linalg.vsub(p, p0) for p in pts[1:]]
    basis_idx = ref_independent_rows(diffs)
    dirs = [diffs[i] for i in basis_idx]
    k = len(dirs)
    eqs = []
    if k < dim:
        for c in ref_nullspace(dirs):
            eqs.append(ref_canon_eq(c, linalg.dot(c, p0)))
    n_mat = linalg.mat([[dirs[j][i] for j in range(k)] for i in range(dim)])
    lmat = ref_left_inverse(n_mat)
    coords = []
    for p in pts:
        d = linalg.vsub(p, p0)
        t = linalg.mat_vec(lmat, d)
        if linalg.mat_vec(n_mat, t) != d:
            raise InvariantViolationError("point outside its own affine hull")
        coords.append(t)
    base_pts = [0] + [i + 1 for i in basis_idx]
    centroid = tuple(sum(coords[i][r] for i in base_pts) / (k + 1) for r in range(k))
    order = base_pts + [i for i in range(len(coords)) if i not in set(base_pts)]
    all_rows = [(linalg.vsub(coords[i], centroid), ONE) for i in order]
    init_verts, init_tights = [], []
    for leave in range(k + 1):
        y = ref_solve([all_rows[j][0] for j in range(k + 1) if j != leave], (ONE,) * k)
        if y is None:
            raise InvariantViolationError("polar simplex is degenerate")
        mask = 0
        for j in range(k + 1):
            val = _row_value(all_rows[j][0], y)
            if val == ONE:
                mask |= 1 << j
            elif val > ONE:
                raise InvariantViolationError("polar simplex vertex infeasible")
        init_verts.append(y)
        init_tights.append(mask)
    rows = []
    for y in _dd_run_reference(k, all_rows, init_verts, init_tights, k + 1):
        a_x = tuple(linalg.dot(y, col) for col in zip(*lmat)) if dim else ()
        rhs = ONE + linalg.dot(y, centroid) + linalg.dot(a_x, p0)
        rows.append(ref_canon_ineq(a_x, rhs))
    return HPoly(dim, tuple(sorted(rows)), tuple(sorted(eqs)))


def _vertices_reference(poly):
    _, x0, basis, den = _affine_frame(poly)
    null = [tuple(F(x, den) for x in v) for v in basis]
    dim, k = poly.dim, len(null)
    if k == 0:
        return VPoly(dim, (x0,))
    t_rows = []
    for a, b in poly.ineqs:
        at = tuple(linalg.dot(a, n) for n in null)
        bt = b - linalg.dot(a, x0)
        if not any(at):
            if bt < 0:
                raise InvariantViolationError("feasible point violates a row")
            continue
        row = ref_canon_ineq(at, bt)
        if row not in t_rows:
            t_rows.append(row)
    if not t_rows:
        raise UnboundedPolyhedronError("no inequality bounds the affine hull")
    eps, t_c = _max_common_slack(k, *HPoly(k, t_rows)._int_rows())
    if eps <= 0:
        raise InvariantViolationError("t-polytope has no interior point")
    polar = [tuple(ai / (b - linalg.dot(a, t_c)) for ai in a) for a, b in t_rows]
    facets = _hull_reference(VPoly(k, polar))
    if facets.eqs or any(rhs <= 0 for _, rhs in facets.ineqs):
        raise UnboundedPolyhedronError("the origin is not interior to the polar")
    out = []
    for a, rhs in facets.ineqs:
        x = list(x0)
        for tj, n in zip((tc + ai / rhs for tc, ai in zip(t_c, a)), null):
            x = [xi + tj * nj for xi, nj in zip(x, n)]
        out.append(tuple(x))
    return VPoly(dim, tuple(sorted(out)))


def _outcome(fn, arg):
    try:
        return fn(arg)
    except (EmptyPolyhedronError, UnboundedPolyhedronError) as e:
        return type(e), str(e)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@st.composite
def point_sets(draw):
    """Point sets of the kinds the DD must handle: full-dimensional,
    lower-dimensional (an integer image of a smaller point set plus an
    offset), degenerate (most points on the facet x_0 = 3), fractional, and a
    simplex, where the polar seed simplex is the whole answer."""
    kind = draw(st.sampled_from(["full", "lower", "facet", "fractional", "simplex"]))
    dim = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    if kind == "simplex":
        off = draw(st.lists(st.builds(F, small), min_size=dim, max_size=dim))
        scale = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        pts = [tuple(off)] + [tuple(o + c * u for o, u in zip(off, linalg.unit(dim, i))) for i, c in enumerate(scale)]
    elif kind == "lower":
        low = draw(st.integers(0, dim - 1))
        emb = draw(st.lists(st.lists(small, min_size=low, max_size=low), min_size=dim, max_size=dim))
        off = draw(st.lists(st.builds(F, small, st.sampled_from([1, 2])), min_size=dim, max_size=dim))
        src = draw(st.lists(st.lists(small, min_size=low, max_size=low), min_size=1, max_size=10))
        pts = [tuple(sum(F(e) * s for e, s in zip(row, p)) + o for row, o in zip(emb, off)) for p in src]
    else:
        if kind == "fractional":
            coord = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
        else:
            coord = st.builds(F, small)
        point = st.lists(coord, min_size=dim, max_size=dim)
        if kind == "facet":
            point = st.one_of(point.map(lambda p: [F(3)] + p[1:]), st.lists(st.builds(F, st.integers(-3, 3)), min_size=dim, max_size=dim))
        pts = [tuple(p) for p in draw(st.lists(point, min_size=1, max_size=12))]
    pts = list(dict.fromkeys(pts))
    return VPoly(dim, draw(st.permutations(pts)))


@st.composite
def h_polytopes(draw):
    """H-descriptions with fractional rows: a box with random extra rows, a
    possible equation, a possible implicit equality (a row and its negation),
    and a simplex of dim + 1 rows; some are empty or unbounded."""
    kind = draw(st.sampled_from(["box", "box", "simplex", "halfspaces"]))
    dim = draw(st.integers(1, 4))
    coef = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    rows = []
    if kind == "simplex":
        rows = [(tuple(-x for x in linalg.unit(dim, i)), F(0)) for i in range(dim)]
        rows.append(((ONE,) * dim, F(draw(st.integers(1, 3)))))
    elif kind == "box":
        for i in range(dim):
            rows.append((linalg.unit(dim, i), F(draw(st.integers(1, 3)))))
            rows.append((tuple(-x for x in linalg.unit(dim, i)), F(draw(st.integers(0, 3)))))
    extra = draw(st.lists(st.tuples(st.lists(coef, min_size=dim, max_size=dim), coef), max_size=4 if kind != "simplex" else 0))
    rows += [(tuple(a), b) for a, b in extra]
    if rows and draw(st.booleans()):
        a, b = rows[0]
        rows.append((tuple(-x for x in a), -b))
    eqs = []
    if dim > 1 and kind != "simplex" and draw(st.integers(0, 3)) == 0:
        eqs.append((tuple(draw(st.lists(coef, min_size=dim, max_size=dim))), F(0)))
    return HPoly(dim, draw(st.permutations(rows)), eqs)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@settings(deadline=None, derandomize=True, max_examples=200)
@given(point_sets())
def test_hull_matches_fraction_dd(points):
    expected = _hull_reference(points)
    assert hull(points) == expected
    if expected.ineqs:
        assert vertices(expected) == _vertices_reference(expected)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(h_polytopes())
def test_vertices_matches_fraction_dd(poly):
    assert _outcome(vertices, poly) == _outcome(_vertices_reference, poly)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(point_sets(), st.randoms(use_true_random=False))
def test_results_do_not_depend_on_insertion_order(points, rng):
    h = hull(points)
    pts = list(points.vertices)
    rng.shuffle(pts)
    assert hull(VPoly(points.dim, pts)) == h
    if h.ineqs:
        v = vertices(h)
        rows, eqs = list(h.ineqs), list(h.eqs)
        rng.shuffle(rows)
        rng.shuffle(eqs)
        assert vertices(HPoly(h.dim, rows, eqs)) == v


@st.composite
def integer_simplices(draw):
    """k+1 integer rows a_j·y <= b_j, k in 1..4, with [a_j | -b_j]
    nonsingular and every k of the a_j independent, so that each k of the
    rows meet in one point, as the rows of a nondegenerate simplex do."""
    k = draw(st.integers(1, 4))
    small = st.integers(-4, 4)
    row = st.tuples(st.lists(small, min_size=k, max_size=k), small)
    rows = draw(st.lists(row, min_size=k + 1, max_size=k + 1))
    assume(linalg.rank(linalg.mat([[*a, -b] for a, b in rows])) == k + 1)
    for leave in range(k + 1):
        assume(linalg.rank(linalg.mat([a for j, (a, _) in enumerate(rows) if j != leave])) == k)
    return rows


@settings(deadline=None, derandomize=True, max_examples=200)
@given(integer_simplices())
def test_adjugate_seeds_equal_one_solve_per_left_out_row(rows):
    expected = []
    for leave in range(len(rows)):
        rest = [r for j, r in enumerate(rows) if j != leave]
        y = ref_solve(linalg.mat([a for a, _ in rest]), linalg.vec([b for _, b in rest]))
        expected.append(linalg.homogeneous(y))
    assert _polar_seeds(rows) == expected


@pytest.mark.parametrize("points", [
    zoo.permutahedron_vrep(4),
    zoo.spanning_tree_vrep(4),
    zoo.matching_vrep(5),
    zoo.matching_vrep(6, 3),  # perfect matchings: lower-dimensional
], ids=["permutahedron(4)", "spanning_tree(4)", "matching(5)", "perfect_matching(6)"])
def test_zoo_hull_and_vertices_match_fraction_dd(points):
    h = hull(points)
    assert h == _hull_reference(points)
    assert vertices(h) == _vertices_reference(h)
