import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from polylift import kernel, linalg
from polylift.errors import EmptyPolyhedronError, InputError, UnboundedPolyhedronError
from polylift.kernel import (
    AffineMap,
    HPoly,
    PolyEqualResult,
    VPoly,
    affine_hull,
    fm_project,
    hull,
    is_vertex,
    poly_equal,
    remove_redundancy,
    vertices,
)
from test_linalg import ref_canon_eq

F = Fraction


def cube(n):
    rows = []
    for i in range(n):
        a = [0] * n
        a[i] = -1
        rows.append((a, 0))
        b = [0] * n
        b[i] = 1
        rows.append((b, 1))
    return HPoly(n, rows)


def rado(n):
    ineqs = []
    for k in range(1, n):
        for s in combinations(range(n), k):
            a = [0] * n
            for i in s:
                a[i] = -1
            ineqs.append((a, F(-k * (k + 1), 2)))
    return HPoly(n, ineqs, [([1] * n, F(n * (n + 1), 2))])


def edge_index(n):
    return {e: i for i, e in enumerate(combinations(range(n), 2))}


def matchings(n, size=None):
    """Brute-force matching enumeration used as an oracle."""
    edges = list(combinations(range(n), 2))
    out = []
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            used = [v for e in sub for v in e]
            if len(used) == len(set(used)):
                if size is None or len(sub) == size:
                    out.append(sub)
    return out


def matching_points(n, size=None):
    ei = edge_index(n)
    pts = []
    for m in matchings(n, size):
        x = [0] * len(ei)
        for e in m:
            x[ei[e]] = 1
        pts.append(tuple(x))
    return pts


def edmonds_matching_hpoly(n):
    ei = edge_index(n)
    m = len(ei)
    rows = []
    for e, i in ei.items():
        a = [0] * m
        a[i] = -1
        rows.append((a, 0))
    for v in range(n):
        a = [0] * m
        for e, i in ei.items():
            if v in e:
                a[i] = 1
        rows.append((a, 1))
    for k in range(3, n + 1, 2):
        for s in combinations(range(n), k):
            a = [0] * m
            for e, i in ei.items():
                if e[0] in s and e[1] in s:
                    a[i] = 1
            rows.append((a, (k - 1) // 2))
    return HPoly(m, rows)


def spanning_trees(n):
    edges = list(combinations(range(n), 2))
    out = []
    for sub in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in sub:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            out.append(sub)
    return out


def test_affine_hull_permutahedron():
    eqs = affine_hull(rado(3))
    assert len(eqs) == 1
    assert eqs[0] == (linalg.vec([1, 1, 1]), F(6))


def test_affine_hull_cube_full_dim():
    assert affine_hull(cube(3)) == []


def test_affine_hull_birkhoff():
    # 2n row/col sums for n=3 have rank 5
    n = 3
    rows = []
    for i in range(n * n):
        a = [0] * (n * n)
        a[i] = -1
        rows.append((a, 0))
    eqs = []
    for i in range(n):
        c = [0] * (n * n)
        for j in range(n):
            c[i * n + j] = 1
        eqs.append((c, 1))
    for j in range(n):
        c = [0] * (n * n)
        for i in range(n):
            c[i * n + j] = 1
        eqs.append((c, 1))
    assert len(affine_hull(HPoly(n * n, rows, eqs))) == 5


def test_affine_hull_empty_raises():
    with pytest.raises(EmptyPolyhedronError):
        affine_hull(HPoly(1, [([1], 0), ([-1], -1)]))


def test_vertices_square():
    v = vertices(cube(2))
    assert set(v.vertices) == {
        linalg.vec([0, 0]),
        linalg.vec([0, 1]),
        linalg.vec([1, 0]),
        linalg.vec([1, 1]),
    }


def test_vertices_matching_k3():
    v = vertices(edmonds_matching_hpoly(3))
    assert set(v.vertices) == set(map(linalg.vec, matching_points(3)))


def test_vertices_spanning_tree_k3():
    # T_3: nonneg + pair rows + equation
    rows = [([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0)]
    rows += [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1)]
    p = HPoly(3, rows, [([1, 1, 1], 2)])
    v = vertices(p)
    assert set(v.vertices) == {
        linalg.vec([1, 1, 0]),
        linalg.vec([1, 0, 1]),
        linalg.vec([0, 1, 1]),
    }


def test_vertices_errors():
    for unbounded in (
        HPoly(2, [([-1, 0], 0), ([0, -1], 0)]),
        # the origin lies on the boundary of the polar hull
        HPoly(2, [([-1, 0], 0), ([0, -1], 0), ([0, 1], 1)]),
        # a strip holds a line: the polar points have no full-dimensional hull
        HPoly(2, [([0, -1], 0), ([0, 1], 1)]),
        HPoly(2, [([1, 1], 1)]),
        HPoly(3, [([1, 0, 0], 1), ([-1, 0, 0], 1)], [([0, 0, 1], 2)]),
    ):
        with pytest.raises(UnboundedPolyhedronError):
            vertices(unbounded)
    with pytest.raises(EmptyPolyhedronError):
        vertices(HPoly(1, [([1], -1), ([-1], 0)]))


def test_vertices_point():
    v = vertices(HPoly(2, [([1, 0], 1)], [([1, 0], 1), ([0, 1], 2)]))
    assert v.vertices == (linalg.vec([1, 2]),)


def test_hull_segment():
    h = hull(VPoly(1, [(0,), (1,)]))
    assert len(h.ineqs) == 2
    assert poly_equal(h, HPoly(1, [([1], 1), ([-1], 0)]))


def test_hull_permutahedron_rado_counts():
    pts = [tuple(p) for p in permutations((1, 2, 3))]
    h = hull(VPoly(3, pts))
    assert len(h.eqs) == 1
    assert len(h.ineqs) == 6
    assert poly_equal(h, rado(3))


def test_hull_matching_k4_equals_edmonds():
    h = hull(VPoly(6, matching_points(4)))
    assert poly_equal(h, edmonds_matching_hpoly(4))


def test_remove_redundancy_simple():
    p = HPoly(1, [([1], 1), ([1], 2)])
    r = remove_redundancy(p)
    assert r.ineqs == ((linalg.vec([1]), F(1)),)


def test_remove_redundancy_edmonds_k3():
    # M(3) is a 3-simplex: its facets are the 3 nonnegativity rows plus the
    # odd-set row; the degree rows are implied (odd-set + nonnegativity), so
    # they must go.  The point set stays the same.
    p = edmonds_matching_hpoly(3)
    assert len(p.ineqs) == 7
    r = remove_redundancy(p)
    assert len(r.ineqs) == 4
    assert poly_equal(p, r).equal
    # the odd-set row is the only one violated by (1/2, 1/2, 1/2), so it stays
    half = linalg.vec([F(1, 2)] * 3)
    violated = [i for i, (a, b) in enumerate(p.ineqs) if linalg.dot(a, half) > b]
    assert len(violated) == 1
    assert p.ineqs[violated[0]] in r.ineqs


def test_poly_equal_vertex_outside_h_side():
    # conv{0, 2} strictly contains [0, 1]: the vertex 2 lies outside the H side
    seg = VPoly(1, [(0,), (2,)])
    unit_interval = HPoly(1, [([1], 1), ([-1], 0)])
    assert poly_equal(seg, unit_interval) == PolyEqualResult(False, (F(2),), 1)
    assert poly_equal(unit_interval, seg) == PolyEqualResult(False, (F(2),), 2)


def test_poly_equal_unbounded_h_side_walks_its_ray():
    # each first side is unbounded along a row of the second: the square's
    # x <= 1 over the quadrant, and the equation y = 0 over the half-plane
    quadrant = HPoly(2, [([-1, 0], 0), ([0, -1], 0)])
    half_plane = HPoly(2, [([-1, 0], 0)])
    half_line = HPoly(2, [([-1, 0], 0)], [([0, 1], 0)])
    for unbounded, other in ((quadrant, cube(2)), (half_plane, half_line)):
        for p1, p2, side in ((unbounded, other, 1), (other, unbounded, 2)):
            res = poly_equal(p1, p2)
            assert not res.equal and res.witness_side == side
            assert unbounded.contains(res.witness) and not other.contains(res.witness)


def test_remove_redundancy_edmonds_k4_unchanged():
    p = edmonds_matching_hpoly(4)
    assert len(p.ineqs) == 14
    r = remove_redundancy(p)
    assert r.ineqs == p.ineqs


def test_remove_redundancy_rado_pi3():
    p = rado(3)
    r = remove_redundancy(p)
    assert len(r.ineqs) == 6


def test_poly_equal_shapes_differ():
    # square vs scaled cross-polytope in the plane
    square = cube(2)
    diamond = hull(VPoly(2, [(0, F(1, 2)), (F(1, 2), 0), (1, F(1, 2)), (F(1, 2), 1)]))
    res = poly_equal(square, diamond)
    assert not res.equal
    assert res.witness_side == 1
    assert square.contains(res.witness) and not diamond.contains(res.witness)


def test_poly_equal_vpoly_sides():
    sq_pts = VPoly(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert poly_equal(sq_pts, cube(2)).equal
    assert poly_equal(cube(2), sq_pts).equal
    assert poly_equal(sq_pts, VPoly(2, [(0, 0), (1, 1), (0, 1), (1, 0)])).equal
    res = poly_equal(sq_pts, VPoly(2, [(0, 0), (0, 1), (1, 0)]))
    assert not res.equal
    assert res.witness == linalg.vec([1, 1])
    assert res.witness_side == 1


def test_is_vertex():
    pts = VPoly(2, [(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    assert is_vertex(pts, 0) and is_vertex(pts, 1) and is_vertex(pts, 2)
    assert not is_vertex(pts, 3)


def test_is_vertex_index_out_of_range():
    # a negative index once dropped no point, so (1, 1) tested against the
    # whole square read as no vertex; len(vertices) raised a bare IndexError
    square = VPoly(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert is_vertex(square, 3)
    for index in (-1, -4, 4, 5):
        with pytest.raises(InputError, match="vertex index out of range"):
            is_vertex(square, index)
    with pytest.raises(InputError, match="vertex index out of range"):
        is_vertex(VPoly(2, [(0, 0)]), 1)
    assert is_vertex(VPoly(2, [(0, 0)]), 0)


def test_fm_project_identity_coupling():
    p = HPoly(2, [([0, -1], 0), ([0, 1], 1)], [([1, -1], 0)])
    q = fm_project(p, [0])
    assert poly_equal(q, HPoly(1, [([1], 1), ([-1], 0)]))


def test_fm_project_birkhoff2():
    # lift p(y)_i = sum_j j*y_ij into equations, then eliminate the y block
    rows = []
    for i in range(4):
        a = [0] * 6
        a[i] = -1
        rows.append((a, 0))
    eqs = []
    for i in range(2):
        c = [0] * 6
        c[2 * i] = 1
        c[2 * i + 1] = 1
        eqs.append((c, 1))
    for j in range(2):
        c = [0] * 6
        c[j] = 1
        c[2 + j] = 1
        eqs.append((c, 1))
    for i in range(2):
        c = [0] * 6
        c[2 * i] = 1
        c[2 * i + 1] = 2
        c[4 + i] = -1
        eqs.append((c, 0))
    p = HPoly(6, rows, eqs)
    q = fm_project(p, [4, 5])
    expected = HPoly(2, [([1, 0], 2), ([-1, 0], -1)], [([1, 1], 3)])
    assert poly_equal(q, expected)


def test_fm_project_knapsack_oracle():
    # flow-free oracle: hull of the feasible 0/1 points for w=(2,3,4), W=6
    w, cap = (2, 3, 4), 6
    pts = [
        (x1, x2, x3)
        for x1 in (0, 1)
        for x2 in (0, 1)
        for x3 in (0, 1)
        if 2 * x1 + 3 * x2 + 4 * x3 <= cap
    ]
    assert len(pts) == 6
    target = hull(VPoly(3, pts))
    # project the 4-dim box-with-budget {0<=x<=1, w.x + s = W, s >= 0}
    p = HPoly(
        4,
        [
            ([-1, 0, 0, 0], 0),
            ([0, -1, 0, 0], 0),
            ([0, 0, -1, 0], 0),
            ([1, 0, 0, 0], 1),
            ([0, 1, 0, 0], 1),
            ([0, 0, 1, 0], 1),
            ([0, 0, 0, -1], 0),
        ],
        [([2, 3, 4, 1], 6)],
    )
    q = fm_project(p, [0, 1, 2])
    # the box section contains the 0/1 hull
    for pt in pts:
        assert q.contains(pt)
    # oracle check: projecting a lift of the hull returns the hull
    lifted_pts = [pt + (F(6 - 2 * pt[0] - 3 * pt[1] - 4 * pt[2]),) for pt in pts]
    p2 = hull(VPoly(4, lifted_pts))
    q2 = fm_project(p2, [0, 1, 2])
    assert poly_equal(q2, target)


def test_fm_project_empty_input():
    p = HPoly(2, [([1, 0], -1), ([-1, 0], 0)])
    q = fm_project(p, [1])
    # projection of the empty set is empty
    from polylift.kernel import feasible_point

    assert feasible_point(q) is None


def test_weyl_minkowski_roundtrip_random():
    rng = random.Random(777)
    for _ in range(25):
        dim = rng.randint(1, 3)
        rows = []
        for i in range(dim):
            a = [0] * dim
            a[i] = -1
            rows.append((a, rng.randint(0, 2)))
            b = [0] * dim
            b[i] = 1
            rows.append((b, rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            a = [rng.randint(-2, 2) for _ in range(dim)]
            rows.append((a, rng.randint(1, 5)))
        p = HPoly(dim, rows)
        v = vertices(p)
        h = hull(v)
        assert poly_equal(p, h).equal
        # every reported vertex really is one
        for i in range(len(v.vertices)):
            assert is_vertex(v, i)


def brute_vertices(poly):
    """Independent oracle: a vertex is a feasible point with dim independent
    tight rows; enumerate all row subsets of size dim and solve."""
    from itertools import combinations as combos

    rows = [(linalg.vec(a), b) for a, b in poly.ineqs] + [
        (linalg.vec(c), d) for c, d in poly.eqs
    ]
    out = set()
    for sub in combos(range(len(rows)), poly.dim):
        mat = linalg.mat([rows[i][0] for i in sub])
        if linalg.rank(mat) < poly.dim:
            continue
        x = linalg.solve(mat, linalg.vec([rows[i][1] for i in sub]))
        if x is not None and poly.contains(x):
            out.add(x)
    return out


def test_vertices_against_bruteforce_oracle():
    rng = random.Random(2718)
    for _ in range(20):
        dim = rng.randint(1, 3)
        rows = []
        for i in range(dim):
            a = [0] * dim
            a[i] = -1
            rows.append((a, rng.randint(0, 2)))
            b = [0] * dim
            b[i] = 1
            rows.append((b, rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            rows.append(([rng.randint(-2, 2) for _ in range(dim)], rng.randint(1, 5)))
        p = HPoly(dim, rows)
        got = set(vertices(p).vertices)
        assert got == brute_vertices(p)
    # lower-dimensional inputs: explicit equations, and implicit equalities
    # written as a pair x_i <= c, -x_i <= -c
    for _ in range(20):
        dim = rng.randint(2, 4)
        rows = []
        for i in range(dim):
            a = [0] * dim
            a[i] = -1
            rows.append((a, 0))
            b = [0] * dim
            b[i] = 1
            rows.append((b, rng.randint(1, 3)))
        rows.append(([rng.randint(-2, 2) for _ in range(dim)], rng.randint(1, 5)))
        eqs = []
        if rng.random() < 0.5:
            eqs.append(([rng.randint(0, 2) for _ in range(dim)], rng.randint(1, 3)))
        else:
            i = rng.randrange(dim)
            a = [0] * dim
            a[i] = 1
            rows += [(a, 1), ([-x for x in a], -1)]
        p = HPoly(dim, rows, eqs)
        try:
            got = vertices(p).vertices
        except EmptyPolyhedronError:
            assert not brute_vertices(p)
            continue
        assert got == tuple(sorted(brute_vertices(p)))


def test_lp_agrees_with_vertex_maximum():
    rng = random.Random(31415)
    for _ in range(15):
        dim = rng.randint(1, 3)
        rows = []
        for i in range(dim):
            a = [0] * dim
            a[i] = -1
            rows.append((a, rng.randint(0, 2)))
            b = [0] * dim
            b[i] = 1
            rows.append((b, rng.randint(1, 3)))
        p = HPoly(dim, rows)
        verts = vertices(p).vertices
        from polylift.kernel import lp_solve

        for _ in range(3):
            c = [F(rng.randint(-4, 4)) for _ in range(dim)]
            best = max(linalg.dot(linalg.vec(c), v) for v in verts)
            r = lp_solve(c, "max", p)
            assert r.status == "optimal" and r.optimum == best


def test_fm_matches_projected_vertices_random():
    rng = random.Random(4242)
    for _ in range(15):
        dim = rng.randint(2, 4)
        rows = []
        for i in range(dim):
            a = [0] * dim
            a[i] = -1
            rows.append((a, rng.randint(0, 1)))
            b = [0] * dim
            b[i] = 1
            rows.append((b, rng.randint(1, 2)))
        for _ in range(rng.randint(0, 2)):
            a = [rng.randint(-2, 2) for _ in range(dim)]
            rows.append((a, rng.randint(1, 4)))
        p = HPoly(dim, rows)
        keep = sorted(rng.sample(range(dim), rng.randint(1, dim)))
        q = fm_project(p, keep)
        vp = vertices(p)
        projected = sorted(set(tuple(pt[j] for j in keep) for pt in vp.vertices))
        oracle = hull(VPoly(len(keep), projected))
        assert poly_equal(q, oracle).equal


def _contains_dense(poly, x):
    """HPoly.contains as one dense Fraction dot product per row."""
    xv = linalg.vec(x)
    return all(linalg.dot(a, xv) <= b for a, b in poly.ineqs) and all(
        linalg.dot(c, xv) == d for c, d in poly.eqs)


def test_contains_matches_dense_dot_products():
    rng = random.Random(5)
    entry = lambda: F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else F(0)
    for _ in range(300):
        dim = rng.randint(1, 5)
        ineqs = [([entry() for _ in range(dim)], entry()) for _ in range(rng.randint(0, 5))]
        eqs = [([entry() for _ in range(dim)], entry()) for _ in range(rng.randint(0, 2))]
        poly = HPoly(dim, ineqs, eqs)
        for _ in range(5):
            x = [entry() for _ in range(dim)]
            # a point on an equation, so that some `==` tests hold
            if eqs and rng.random() < 0.5:
                c, d = eqs[0]
                j = next((j for j, cj in enumerate(c) if cj), None)
                if j is not None:
                    x[j] = (d - linalg.dot(c, x) + c[j] * x[j]) / c[j]
            assert poly.contains(x) == _contains_dense(poly, x)


def test_contains_cache_is_invisible():
    square = cube(2)
    fresh = cube(2)
    assert square.contains((F(1, 2), 1)) and not square.contains((2, 0))
    # equality, hashing and repr see only the dataclass fields
    assert square == fresh and hash(square) == hash(fresh) and repr(square) == repr(fresh)


def _apply_dense(m, y):
    """AffineMap.apply as one dense Fraction dot product per row."""
    yv = linalg.vec(y)
    return tuple(linalg.dot(row, yv) + o for row, o in zip(m.matrix, m.offset))


def test_apply_matches_dense_dot_products():
    rng = random.Random(11)
    entry = lambda: F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else F(0)
    for _ in range(300):
        in_dim, out_dim = rng.randint(1, 6), rng.randint(0, 4)
        # zero rows of the matrix as well as zero entries
        rows = [[entry() for _ in range(in_dim)] if rng.random() < 0.8 else [0] * in_dim
                for _ in range(out_dim)]
        m = AffineMap(rows, [entry() for _ in range(out_dim)])
        for _ in range(5):
            y = [entry() for _ in range(in_dim)]
            out = m.apply(y)
            assert out == _apply_dense(m, y)
            assert type(out) is tuple and all(type(x) is F for x in out)


def test_apply_cache_is_invisible():
    m = AffineMap([[1, 0], [F(1, 2), 3]], [0, 1])
    fresh = AffineMap([[1, 0], [F(1, 2), 3]], [0, 1])
    assert m.apply((2, F(1, 3))) == (F(2), F(3))
    # equality, hashing and repr see only the dataclass fields
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


entries = st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3), st.builds(F, st.integers(-4, 4), st.integers(1, 5)))


@st.composite
def maps_and_forms(draw):
    """(map, a) with zero rows and zero entries in the matrix and in a."""
    in_dim, out_dim = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    zero_row = st.just([0] * in_dim)
    rows = draw(st.lists(st.one_of(zero_row, st.lists(entries, min_size=in_dim, max_size=in_dim)),
                         min_size=out_dim, max_size=out_dim))
    m = AffineMap(rows, draw(st.lists(entries, min_size=out_dim, max_size=out_dim)))
    return m, linalg.vec(draw(st.lists(entries, min_size=out_dim, max_size=out_dim)))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(maps_and_forms())
def test_pull_back_matches_dense_dot_products(case):
    m, a = case
    out = m.pull_back(a)
    # the dense form: one dot product of a with each column of the matrix
    assert out == tuple(linalg.dot(a, col) for col in zip(*m.matrix))
    assert type(out) is tuple and all(type(x) is F for x in out)


big = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**9))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(maps_and_forms(), st.data())
def test_map_rows_read_as_integers_match_dense_fractions(case, data):
    # apply and pull_back read only the map's integer rows: the image is
    # matrix·y + offset (`linalg.mat_vec`), the pull-back the row sum
    # Σ a_i·row_i, for ints, Fractions and large denominators in y and a
    m, a = case
    y = data.draw(st.lists(st.one_of(entries, big), min_size=m.in_dim, max_size=m.in_dim))
    a = data.draw(st.one_of(st.just(a), st.lists(st.one_of(entries, big), min_size=m.out_dim, max_size=m.out_dim)))
    image = m.apply(y)
    assert image == linalg.vadd(linalg.mat_vec(m.matrix, linalg.vec(y)), m.offset)
    assert type(image) is tuple and all(type(x) is F for x in image)
    back = m.pull_back(a)
    assert back == tuple(sum((ai * row[j] for ai, row in zip(a, m.matrix)), F(0)) for j in range(m.in_dim))
    assert type(back) is tuple and all(type(x) is F for x in back)


def _fraction_frame(poly):
    """The Fraction route that `kernel._affine_frame` replaces: the RREF of
    the explicit and implicit equations, each nonzero row made canonical,
    and the nullspace of those rows from a second RREF (identity columns
    when there is no equation)."""
    eps, point = kernel._max_common_slack(poly.dim, *poly._int_rows())
    implicit = [] if eps > 0 else kernel._implicit_equalities(poly)
    rows = [(tuple(c), d) for c, d in poly.eqs] + implicit
    eqs = []
    if rows:
        reduced, _ = linalg.rref(linalg.mat([tuple(a) + (b,) for a, b in rows]))
        eqs = [ref_canon_eq(row[:-1], row[-1]) for row in reduced if any(row)]
    if not eqs:
        return eqs, point, [linalg.unit(poly.dim, i) for i in range(poly.dim)]
    m, pivots = linalg.rref(linalg.mat([a for a, _ in eqs]))
    basis = []
    for f in range(poly.dim):
        if f not in pivots:
            v = [F(0)] * poly.dim
            v[f] = F(1)
            for r, c in enumerate(pivots):
                v[c] = -m[r][f]
            basis.append(tuple(v))
    return eqs, point, basis


@st.composite
def frame_systems(draw):
    """Systems through a drawn point p: equations c·x = c·p, some of them
    combinations of earlier ones (dependent), implicit equalities a·x <= a·p
    with -a·x <= -a·p, and inequalities a·x <= a·p + s, s >= 0; or none of
    the equations (full-dimensional); sometimes a contradictory pair that
    makes the system empty."""
    dim = draw(st.integers(0, 4))
    vector = st.lists(entries, min_size=dim, max_size=dim).map(linalg.vec)
    p = draw(vector)
    eqs = []
    for _ in range(draw(st.integers(0, 3))):
        if eqs and draw(st.booleans()):
            (c1, _), (c2, _) = draw(st.sampled_from(eqs)), draw(st.sampled_from(eqs))
            s1, s2 = draw(entries), draw(entries)
            c = tuple(s1 * x + s2 * y for x, y in zip(c1, c2))
        else:
            c = draw(vector)
        eqs.append((c, linalg.dot(c, p)))
    ineqs = []
    for _ in range(draw(st.integers(0, 2))):
        a = draw(vector)
        ineqs += [(a, linalg.dot(a, p)), (tuple(-x for x in a), -linalg.dot(a, p))]
    for _ in range(draw(st.integers(0, 4))):
        a = draw(vector)
        ineqs.append((a, linalg.dot(a, p) + abs(draw(entries))))
    if dim and draw(st.integers(0, 4)) == 0:
        a = linalg.unit(dim, draw(st.integers(0, dim - 1)))
        if draw(st.booleans()):
            eqs += [(a, p[0]), (a, p[0] + 1)]
        else:
            ineqs += [(a, p[0]), (tuple(-x for x in a), -p[0] - 1)]
    rows = draw(st.permutations(ineqs))
    return HPoly(dim, rows, draw(st.permutations(eqs)))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(frame_systems())
def test_affine_frame_matches_the_fraction_route(poly):
    try:
        want_eqs, want_point, want_basis = _fraction_frame(poly)
    except EmptyPolyhedronError as want:
        with pytest.raises(EmptyPolyhedronError) as got:
            kernel._affine_frame(poly)
        assert str(got.value) == str(want)
        return
    eqs, point, basis, den = kernel._affine_frame(poly)
    # integer rows (c..., d), read as affine_hull reads them
    assert all(type(x) is int for row in eqs for x in row)
    assert [(tuple([F(x) for x in c]), F(d)) for *c, d in eqs] == want_eqs and point == want_point
    assert type(den) is int and den > 0 and all(type(x) is int for v in basis for x in v)
    assert [tuple(F(x, den) for x in v) for v in basis] == want_basis
    assert affine_hull(poly) == want_eqs
