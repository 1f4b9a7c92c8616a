from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from polylift import bounds as bd
from polylift import constructions as cx
from polylift import linalg, zoo
from polylift.errors import EmptyPolyhedronError, SizeLimitError, ValidationError
from polylift.kernel import AffineMap, HPoly, VPoly, hull, vertices
from polylift.slack import NonnegFactorization, SlackMatrix, slack_matrix
from polylift.slack import factorization_to_extension

F = Fraction


# ---------------------------------------------------------------------------
# References: the code that the closure enumeration, the class-by-class
# coloring and the integer face lattice replaced, kept to test against
# ---------------------------------------------------------------------------

def reference_maximal_rectangles(entries):
    """Every inclusion-maximal support rectangle, as (row mask, col mask), by
    closing every nonempty column subset of every row support, in the order
    first met."""
    m = len(entries)
    n = len(entries[0]) if m else 0
    row_support = [sum(1 << j for j in range(n) if entries[i][j]) for i in range(m)]
    seen = set()
    rects = []
    for i in range(m):
        cols = [j for j in range(n) if entries[i][j]]
        for sub in range(1, 1 << len(cols)):
            jmask = 0
            for bit, j in enumerate(cols):
                if sub >> bit & 1:
                    jmask |= 1 << j
            imask = 0
            for r in range(m):
                if row_support[r] & jmask == jmask:
                    imask |= 1 << r
            jfull = (1 << n) - 1
            for r in range(m):
                if imask >> r & 1:
                    jfull &= row_support[r]
            key = (imask, jfull)
            if key not in seen:
                seen.add(key)
                rects.append(key)
    return rects


def reference_fooling_set_max(slack, budget=500_000):
    """The search with the coloring placing each candidate in turn into the
    first class that admits it, and the compatibility graph built pair by
    pair: (entries, exact, nodes)."""
    entries = slack.entries
    support = slack.support()
    ne = len(support)
    if ne == 0:
        return (), True, 0
    compat = [0] * ne
    for a in range(ne):
        ia, ja = support[a]
        for b in range(a + 1, ne):
            ib, jb = support[b]
            if entries[ia][jb] == 0 or entries[ib][ja] == 0:
                compat[a] |= 1 << b
                compat[b] |= 1 << a
    best = [support.index(e) for e in bd._greedy_fooling(support, entries)]
    nodes = 0
    exceeded = False

    def color_bound(cand_mask):
        colors = []
        m = cand_mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            for cls in range(len(colors)):
                if not (colors[cls][1] >> v & 1):
                    colors[cls] = (colors[cls][0] | (1 << v), colors[cls][1] | compat[v])
                    break
            else:
                colors.append((1 << v, compat[v]))
        return len(colors)

    def bb(clique, cand_mask):
        nonlocal best, nodes, exceeded
        if exceeded:
            return
        nodes += 1
        if nodes > budget:
            exceeded = True
            return
        if not cand_mask:
            if len(clique) > len(best):
                best = list(clique)
            return
        if len(clique) + color_bound(cand_mask) <= len(best):
            return
        m = cand_mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            cand_mask &= ~(1 << v)
            if len(clique) + 1 + (cand_mask & compat[v]).bit_count() <= len(best):
                continue
            bb(clique + [v], cand_mask & compat[v])

    bb([], (1 << ne) - 1)
    return tuple(support[t] for t in sorted(best)), not exceeded, nodes


def reference_face_lattice(hrep, vrep):
    """(faces, dims) by closing the full face under the facet masks, with
    Fraction tightness tests and ranks of Fraction differences."""
    nv = len(vrep.vertices)
    full = (1 << nv) - 1
    facet_masks = [
        sum(1 << j for j, v in enumerate(vrep.vertices) if linalg.dot(a, v) == b)
        for a, b in hrep.ineqs
    ]
    faces = {full, 0}
    queue = [full]
    while queue:
        cur = queue.pop()
        for fm in facet_masks:
            if cur & fm not in faces:
                faces.add(cur & fm)
                queue.append(cur & fm)
    ordered = sorted(faces, key=lambda m: (m.bit_count(), m))
    dims = []
    for mask in ordered:
        pts = [vrep.vertices[j] for j in range(nv) if mask >> j & 1]
        if not pts:
            dims.append(-1)
        else:
            diffs = [linalg.vsub(p, pts[0]) for p in pts[1:]]
            dims.append(linalg.rank(linalg.mat(diffs)) if diffs else 0)
    return tuple(ordered), tuple(dims)


def square():
    h = zoo.cube_hrep(2)
    v = VPoly(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    return h, v


def simplex4():
    h = zoo.simplex_hrep(4)
    v = vertices(h)
    return h, v


def plain_slack(rows):
    m = linalg.mat(rows)
    return SlackMatrix(
        m,
        tuple(f"r{i}" for i in range(len(m))),
        tuple(f"c{j}" for j in range(len(m[0]) if m else 0)),
        (),
    )


def test_face_lattice_square():
    h, v = square()
    lat = bd.face_lattice(h, v)
    assert lat.face_count() == 10
    counts = lat.counts_by_dim()
    assert counts == {-1: 1, 0: 4, 1: 4, 2: 1}


def test_face_lattice_simplex_is_boolean():
    h, v = simplex4()
    lat = bd.face_lattice(h, v)
    assert lat.face_count() == 16  # all subsets of 4 vertices


def test_face_lattice_cross3():
    v = zoo.cross_polytope_vrep(3)
    h = hull(v)
    lat = bd.face_lattice(h, v)
    assert lat.face_count() == 28  # 3^3 + 1


def test_face_lattice_size_guard():
    v = zoo.permutahedron_vrep(4)  # 24 vertices
    h = zoo.permutahedron_hrep(4)  # 14 facets
    with pytest.raises(SizeLimitError):
        bd.face_lattice(h, v)


def test_face_lattice_intersection_closed_and_graded():
    h, v = square()
    lat = bd.face_lattice(h, v)
    faces = set(lat.faces)
    for f1 in faces:
        for f2 in faces:
            assert (f1 & f2) in faces
    # dimension is monotone along containment
    dimof = dict(zip(lat.faces, lat.dims))
    for f1 in faces:
        for f2 in faces:
            if f1 != f2 and f1 & f2 == f1:
                assert dimof[f1] < dimof[f2]


def test_log_face_bound_values():
    h, v = square()
    assert bd.log_face_bound(bd.face_lattice(h, v)) == 4  # ceil(log2 10)
    h4, v4 = simplex4()
    assert bd.log_face_bound(bd.face_lattice(h4, v4)) == 4  # 2^4 faces
    vc = zoo.cross_polytope_vrep(4)
    hc = hull(vc)
    lat = bd.face_lattice(hc, vc, max_facets=16)
    assert lat.face_count() == 82  # 3^4 + 1
    assert bd.log_face_bound(lat) == 7


def brute_min_cover(entries):
    """Exhaustive oracle: smallest number of support rectangles covering the
    support, enumerated by subset size over the maximal rectangles."""
    support = [
        (i, j) for i in range(len(entries)) for j in range(len(entries[0])) if entries[i][j]
    ]
    rects = reference_maximal_rectangles(entries)
    cover_sets = []
    for imask, jmask in rects:
        cover_sets.append(
            {
                (i, j)
                for (i, j) in support
                if imask >> i & 1 and jmask >> j & 1
            }
        )
    for size in range(0, len(rects) + 1):
        for combo in combinations(range(len(rects)), size):
            got = set()
            for c in combo:
                got |= cover_sets[c]
            if got == set(support):
                return size
    return None


def test_rectangle_cover_triangle():
    tri = HPoly(2, [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)])
    sm = slack_matrix(tri, VPoly(2, [(0, 0), (1, 0), (0, 1)]))
    res = bd.rectangle_cover_min(sm)
    assert res.is_exact() and res.size == 3
    assert brute_min_cover(sm.entries) == 3


def test_rectangle_cover_square():
    h, v = square()
    sm = slack_matrix(h, v)
    res = bd.rectangle_cover_min(sm)
    assert res.is_exact() and res.size == 4
    assert brute_min_cover(sm.entries) == 4


def test_rectangle_cover_all_positive():
    sm = plain_slack([[1, 2, 3], [4, 5, 6]])
    res = bd.rectangle_cover_min(sm)
    assert res.is_exact() and res.size == 1


def test_rectangle_cover_rectangles_stay_in_support():
    h, v = square()
    sm = slack_matrix(h, v)
    res = bd.rectangle_cover_min(sm)
    for rows, cols in res.cover.rectangles:
        for i in rows:
            for j in cols:
                assert sm.entries[i][j] != 0


def brute_max_fooling(entries):
    support = [
        (i, j) for i in range(len(entries)) for j in range(len(entries[0])) if entries[i][j]
    ]
    best = 0
    for size in range(len(support), 0, -1):
        for combo in combinations(support, size):
            ok = True
            for (i, j), (i2, j2) in combinations(combo, 2):
                if entries[i][j2] != 0 and entries[i2][j] != 0:
                    ok = False
                    break
            if ok:
                return size
    return best


def test_fooling_set_square_and_cubes():
    for n in (2, 3):
        h = zoo.cube_hrep(n)
        v = vertices(h)
        sm = slack_matrix(h, v)
        res = bd.fooling_set_max(sm)
        assert res.is_exact()
        assert res.size() == 2 * n
    # oracle agreement on the square (support is small enough)
    h, v = square()
    sm = slack_matrix(h, v)
    assert brute_max_fooling(sm.entries) == 4


def test_fooling_set_cube4():
    h = zoo.cube_hrep(4)
    v = vertices(h)
    sm = slack_matrix(h, v)
    res = bd.fooling_set_max(sm)
    assert res.is_exact()
    assert res.size() == 8


def test_fooling_set_all_positive():
    sm = plain_slack([[1, 1], [1, 1]])
    res = bd.fooling_set_max(sm)
    assert res.is_exact() and res.size() == 1


def test_fooling_entries_pairwise_conflicting():
    h = zoo.cube_hrep(3)
    sm = slack_matrix(h, vertices(h))
    res = bd.fooling_set_max(sm)
    ents = res.fooling.entries
    for (i, j), (i2, j2) in combinations(ents, 2):
        assert sm.entries[i][j2] == 0 or sm.entries[i2][j] == 0


def test_rank_bound():
    assert bd.rank_bound(plain_slack([[0, 0], [0, 0]])) == 0
    tri = HPoly(2, [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)])
    sm = slack_matrix(tri, VPoly(2, [(0, 0), (1, 0), (0, 1)]))
    assert bd.rank_bound(sm) == 3
    h, v = square()
    assert bd.rank_bound(slack_matrix(h, v)) == 3  # coplanar vertices drop rank


def test_xc_bounds_square_pinned():
    h, v = square()
    rep = bd.xc_bounds(h, v)
    assert rep.lower == 4 and rep.upper == 4
    assert rep.pinned()


def test_xc_bounds_simplex():
    for n in (3, 5):
        h = zoo.simplex_hrep(n)
        v = vertices(h)
        rep = bd.xc_bounds(h, v)
        assert rep.lower == rep.upper == n


def test_xc_bounds_pi3_with_birkhoff_upper():
    h = zoo.permutahedron_hrep(3)
    v = zoo.permutahedron_vrep(3)
    rep = bd.xc_bounds(h, v, [cx.birkhoff_extension(3)])
    assert rep.upper <= 6  # Pi_3 (a hexagon) is its own size-6 description
    assert ("birkhoff(3)", 9, True) in rep.extensions
    assert rep.lower >= bd.rank_bound(slack_matrix(h, v))


def test_xc_bounds_binding_rows_need_a_point_on_the_equations():
    # on the segment x + y = 1, 0 <= x, 0 <= y, the row x <= 2 has a zero
    # slack only at (2, 5), which is off the equation: it takes the LP,
    # whose maximum 1 shows that it is tight nowhere on P
    eq = [((1, 1), 1)]
    h = HPoly(2, [((-1, 0), 0), ((0, -1), 0), ((1, 0), 2)], eq)
    with pytest.raises(ValidationError, match="binding"):
        bd.xc_bounds(h, VPoly(2, [(0, 1), (1, 0), (2, 5)]))
    # an empty system is still reported as empty, not as a non-binding one
    empty = HPoly(2, [((-1, 0), 0), ((0, -1), 0), ((1, 0), 2)], [((1, 1), -1)])
    with pytest.raises(EmptyPolyhedronError):
        bd.xc_bounds(empty, VPoly(2, []))


def test_dominance_chain_on_zoo_polytopes():
    cases = []
    h, v = square()
    cases.append((h, v))
    cube3 = zoo.cube_hrep(3)
    cases.append((cube3, vertices(cube3)))
    cases.append((zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)))
    m3 = zoo.matching_hrep(3)
    cases.append((m3, zoo.matching_vrep(3)))
    s4 = zoo.simplex_hrep(4)
    cases.append((s4, vertices(s4)))
    for h, v in cases:
        sm = slack_matrix(h, v)
        cov = bd.rectangle_cover_min(sm)
        fool = bd.fooling_set_max(sm)
        rep = bd.xc_bounds(h, v)
        assert cov.is_exact() and fool.is_exact()
        assert fool.size() <= cov.size
        try:
            lat = bd.face_lattice(h, v)
            assert bd.log_face_bound(lat) <= cov.size
        except SizeLimitError:
            pass
        assert cov.size <= rep.upper
        assert rep.lower <= rep.upper


def test_embedding_identity_extension_is_isomorphism():
    h, v = square()
    ident = cx.Extension(h, AffineMap.linear(linalg.identity(2)), 2, "id")
    assert bd.embedding_check(h, v, ident, ext_vrep=v)


def test_embedding_cross3_into_trivial_simplex_extension():
    v = zoo.cross_polytope_vrep(3)
    h = hull(v)
    sm = slack_matrix(h, v)
    fact = NonnegFactorization(sm.entries, linalg.identity(6))
    ext = factorization_to_extension(fact, sm, h)
    qv = vertices(ext.q)
    lat_q = bd.face_lattice(ext.q, qv)
    assert lat_q.face_count() == 64  # Boolean lattice on 6 vertices
    assert bd.embedding_check(h, v, ext, ext_vrep=qv)


def test_embedding_birkhoff3_into_pi3():
    h = zoo.permutahedron_hrep(3)
    v = zoo.permutahedron_vrep(3)
    ext = cx.birkhoff_extension(3)
    assert bd.embedding_check(h, v, ext)


def test_embedding_rejects_wrong_projection():
    # shrink the projection so images leave the target: embedding must fail
    h, v = square()
    q = zoo.cube_hrep(2)
    bad = cx.Extension(q, AffineMap.linear([[2, 0], [0, 2]]), 2, "bad")
    assert not bd.embedding_check(h, v, bad, ext_vrep=vertices(q))


def test_embedding_shifted_projection():
    # the identity plus a shift maps the unit square off the unit square,
    # and onto the square shifted by the same amount
    h, v = square()
    q = zoo.cube_hrep(2)
    shifted = cx.Extension(q, AffineMap(linalg.identity(2), (1, 0)), 2, "shift")
    assert not bd.embedding_check(h, v, shifted, ext_vrep=vertices(q))
    h1 = HPoly(2, [((1, 0), 2), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)])
    v1 = VPoly(2, [(1, 0), (1, 1), (2, 0), (2, 1)])
    assert bd.embedding_check(h1, v1, shifted, ext_vrep=vertices(q))


def test_embedding_checks_each_projected_vertex_once(monkeypatch):
    h = zoo.permutahedron_hrep(3)
    v = zoo.permutahedron_vrep(3)
    calls = []
    contains = HPoly.contains
    monkeypatch.setattr(HPoly, "contains", lambda self, x: calls.append(self is h) or contains(self, x))
    assert bd.embedding_check(h, v, cx.birkhoff_extension(3))
    # P's face lattice checks its 6 vertices, then each of the 6 projected
    # vertices of Q is checked once, not once per face of P
    assert calls.count(True) == 6 + 6


# ---------------------------------------------------------------------------
# Differential tests against the references
# ---------------------------------------------------------------------------

@st.composite
def zero_one_matrices(draw, min_rows=0, max_rows=7, max_cols=9):
    """0/1 matrices of density 1/4, 1/2 or 3/4, with some rows and columns
    zeroed and some rows repeated."""
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(1, max_cols))
    k = draw(st.integers(1, 3))
    cell = st.integers(0, 3).map(lambda x: int(x >= k))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    if rows:
        zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=2))
        zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
        rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
        repeats = draw(st.lists(st.integers(0, m - 1), max_size=2))
        rows = draw(st.permutations(rows + [list(rows[i]) for i in repeats]))
    return rows[:max_rows]


@st.composite
def slack_supports(draw):
    """Slack matrices of 0/1 polytopes, or plain 0/1 matrices."""
    if draw(st.booleans()):
        return plain_slack(draw(zero_one_matrices(min_rows=1, max_rows=6, max_cols=7)))
    dim = draw(st.integers(2, 4))
    cube = [tuple((m >> i) & 1 for i in range(dim)) for m in range(1 << dim)]
    pts = draw(st.lists(st.sampled_from(cube), min_size=2, max_size=8, unique=True))
    v = VPoly(dim, pts)
    return slack_matrix(hull(v), v)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(zero_one_matrices())
def test_closed_set_rectangles_match_subset_enumeration(entries):
    got = bd._maximal_rectangles(entries)
    ref = reference_maximal_rectangles(entries)
    assert set(got) == set(ref)
    # in the same order too, so the cover search branches as before
    assert got == ref


def assert_fooling(sm, ents):
    assert all(sm.entries[i][j] != 0 for i, j in ents)
    for (i, j), (i2, j2) in combinations(ents, 2):
        assert sm.entries[i][j2] == 0 or sm.entries[i2][j] == 0


@settings(deadline=None, derandomize=True, max_examples=150)
@given(slack_supports())
def test_fooling_search_matches_reference(sm):
    res = bd.fooling_set_max(sm)
    assert (res.fooling.entries, res.is_exact(), res.nodes) == reference_fooling_set_max(sm)
    assert_fooling(sm, res.fooling.entries)
    if len(sm.support()) <= 12:
        assert res.size() == brute_max_fooling(sm.entries)
    # cut off early, near the root or in the middle of the tree: the same
    # best set so far, still a fooling set
    for budget in (3, 50, 500):
        cut = bd.fooling_set_max(sm, budget=budget)
        ref = reference_fooling_set_max(sm, budget=budget)
        assert (cut.fooling.entries, cut.is_exact(), cut.nodes) == ref
        assert_fooling(sm, cut.fooling.entries)


@st.composite
def larger_slack_supports(draw):
    """Slack matrices of 8 to 14 vertices of the 4- or 5-cube, whose full
    searches take up to 10^5 nodes."""
    dim = draw(st.integers(4, 5))
    cube = [tuple((m >> i) & 1 for i in range(dim)) for m in range(1 << dim)]
    v = VPoly(dim, draw(st.lists(st.sampled_from(cube), min_size=8, max_size=14, unique=True)))
    return slack_matrix(hull(v), v)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(larger_slack_supports())
def test_fooling_search_cut_mid_tree_matches_reference(sm):
    for budget in (50, 500):
        cut = bd.fooling_set_max(sm, budget=budget)
        ref = reference_fooling_set_max(sm, budget=budget)
        assert (cut.fooling.entries, cut.is_exact(), cut.nodes) == ref
        assert_fooling(sm, cut.fooling.entries)


@st.composite
def listed_points(draw):
    """0/1 or fractional point sets, not necessarily in convex position."""
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        coord = st.sampled_from([F(0), F(1)])
    else:
        coord = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    return VPoly(dim, draw(st.lists(point, min_size=1, max_size=8, unique=True)))


@st.composite
def descriptions(draw):
    """(hrep, vrep) of one polytope: the hull of listed points, or that hull
    with a duplicated row, a nonnegative combination of two rows loosened by
    0 or 1, and a row tight nowhere, in any order."""
    v = draw(listed_points())
    h = hull(v)
    if not draw(st.booleans()):
        return h, v
    rows = list(h.ineqs)
    if rows:
        rows.append(draw(st.sampled_from(h.ineqs)))
        (a1, b1), (a2, b2) = draw(st.sampled_from(h.ineqs)), draw(st.sampled_from(h.ineqs))
        lam, mu = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        loose = draw(st.integers(0, 1))
        rows.append((tuple(lam * x + mu * y for x, y in zip(a1, a2)), lam * b1 + mu * b2 + loose))
        a, b = draw(st.sampled_from(h.ineqs))
        rows.append((a, b + 1))
    else:
        rows.append(((F(0),) * v.dim, F(1)))
    return HPoly(v.dim, draw(st.permutations(rows)), h.eqs), v


@settings(deadline=None, derandomize=True, max_examples=200)
@given(descriptions())
def test_face_lattice_matches_fraction_reference(hv):
    h, v = hv
    lat = bd.face_lattice(h, v, max_facets=100, max_vertices=100)
    assert (lat.faces, lat.dims) == reference_face_lattice(h, v)
