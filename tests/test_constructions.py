import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from polylift import constructions as cx
from polylift import linalg, zoo
from polylift.errors import InputError
from polylift.kernel import HPoly, VPoly, hull, poly_equal, vertices

F = Fraction


def test_birkhoff_extension_projects_to_permutahedron():
    ext = cx.birkhoff_extension(3)
    assert ext.size() == 9
    rep = cx.verify_extension(
        zoo.permutahedron_hrep(3), ext, target_vrep=zoo.permutahedron_vrep(3)
    )
    assert rep.passed
    assert rep.lift_hits == 6  # all vertices certified by explicit lifts


def test_birkhoff_extension_trivial_and_vertex_images():
    e1 = cx.birkhoff_extension(1)
    assert e1.project_point((1,)) == (F(1),)
    ext = cx.birkhoff_extension(4)
    imgs = {ext.project_point(y) for y in vertices(ext.q).vertices}
    assert imgs == {tuple(map(F, p)) for p in permutations((1, 2, 3, 4))}


def test_martin_sizes_and_small_verification():
    assert cx.martin_size(3) == 9
    assert cx.martin_size(4) == 30
    assert cx.martin_size(5) == 70
    ext = cx.martin_spanning_tree_extension(4)
    assert ext.size() == 30
    rep = cx.verify_extension(
        zoo.spanning_tree_hrep(3),
        cx.martin_spanning_tree_extension(3),
        target_vrep=zoo.spanning_tree_vrep(3),
    )
    assert rep.passed
    with pytest.raises(InputError):
        cx.martin_spanning_tree_extension(2)


def test_martin_star_lift_is_feasible():
    # lifting the star at node 0 of K_4 by the component rule lands in Q
    n = 4
    ext = cx.martin_spanning_tree_extension(n)
    ei = zoo.GraphEdgeIndex(n)
    x = [F(0)] * len(ei)
    for w in range(1, n):
        x[ei.of(0, w)] = F(1)
    y = ext.lift(tuple(x))
    assert y is not None
    assert ext.q.contains(y)
    assert ext.project_point(y) == tuple(x)


def test_balas_union_segments():
    p1 = HPoly(1, [([1], 1), ([-1], 0)])
    p2 = HPoly(1, [([1], 3), ([-1], -2)])
    ext = cx.balas_union([p1, p2])
    assert ext.size() == 2 + 2 + 2
    target = HPoly(1, [([1], 3), ([-1], 0)])
    rep = cx.verify_extension(target, ext, target_vrep=VPoly(1, [(0,), (3,)]))
    assert rep.passed


def test_balas_union_single_part_and_triangle():
    p = HPoly(2, [([1, 0], 1), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)])
    ext = cx.balas_union([p])
    rep = cx.verify_extension(p, ext)
    assert rep.passed
    seg = hull(VPoly(2, [(0, 0), (1, 0)]))
    pt = hull(VPoly(2, [(0, 1)]))
    ext2 = cx.balas_union([seg, pt])
    tri = hull(VPoly(2, [(0, 0), (1, 0), (0, 1)]))
    rep2 = cx.verify_extension(tri, ext2, target_vrep=VPoly(2, [(0, 0), (1, 0), (0, 1)]))
    assert rep2.passed
    assert ext2.size() == len(seg.ineqs) + len(pt.ineqs) + 2


def test_balas_union_errors():
    with pytest.raises(InputError):
        cx.balas_union([])
    with pytest.raises(InputError):
        cx.balas_union([HPoly(1, [([1], 0), ([-1], -1)])])  # empty part
    with pytest.raises(InputError):
        cx.balas_union([HPoly(1, [([-1], 0)])])  # unbounded part
    with pytest.raises(InputError):
        cx.balas_union([HPoly(1, [([1], 1), ([-1], 0)]), HPoly(2, [([1, 0], 1)])])


def test_knapsack_network_example():
    net = cx.knapsack_network((2, 3, 4), 6)
    assert net.arc_count() == 11
    state_arcs = {(a[0], a[1]) for a in net.arcs if a[1] != "t"}
    assert state_arcs == {
        ((0, 0), (1, 2)),
        ((0, 0), (2, 3)),
        ((0, 0), (3, 4)),
        ((1, 2), (2, 5)),
        ((1, 2), (3, 6)),
    }
    t_arcs = [a for a in net.arcs if a[1] == "t"]
    assert len(t_arcs) == 6  # every node, including s, reaches t


def test_knapsack_flow_extension_trivial_and_cube():
    ext0 = cx.knapsack_flow_extension((1,), 0)
    assert ext0.size() == 1
    rep = cx.verify_extension(
        HPoly(1, [([1], 0), ([-1], 0)]), ext0, target_vrep=VPoly(1, [(0,)])
    )
    assert rep.passed
    ext = cx.knapsack_flow_extension((1, 1), 2)
    imgs = {ext.project_point(y) for y in vertices(ext.q).vertices}
    assert imgs == {(F(a), F(b)) for a in (0, 1) for b in (0, 1)}


def test_knapsack_flow_verifies_against_hull():
    v = zoo.knapsack_vrep((2, 3, 4), 6)
    ext = cx.knapsack_flow_extension((2, 3, 4), 6)
    assert ext.size() == 11
    rep = cx.verify_extension(hull(v), ext, target_vrep=v)
    assert rep.passed
    assert rep.lift_hits == len(v.vertices)


def test_knapsack_flow_vertices_are_paths():
    # total unimodularity: every vertex of Q is an s-t path indicator
    ext = cx.knapsack_flow_extension((2, 3), 4)
    for y in vertices(ext.q).vertices:
        assert all(val in (F(0), F(1)) for val in y)
        x = ext.project_point(y)
        assert all(val in (F(0), F(1)) for val in x)
        assert 2 * x[0] + 3 * x[1] <= 4


def test_bubble_network():
    net = cx.bubble_network(3)
    assert net.comparators == ((0, 1), (0, 2), (1, 2))
    assert net.sorts_all_binary()
    for n in range(1, 8):
        assert cx.bubble_network(n).sorts_all_binary()
        assert len(cx.bubble_network(n).comparators) == n * (n - 1) // 2


def test_batcher_network():
    assert len(cx.batcher_network(4).comparators) == 5
    for n in range(1, 13):
        assert cx.batcher_network(n).sorts_all_binary()
    assert cx.batcher_network(1).comparators == ()


def test_networks_sort_real_vectors():
    rng = random.Random(7)
    for n in (2, 4, 5, 7):
        for net in (cx.bubble_network(n), cx.batcher_network(n)):
            for _ in range(20):
                seq = [F(rng.randint(-10, 10)) for _ in range(n)]
                assert net.apply(seq) == sorted(seq)


def test_sorting_network_extension_n2():
    ext = cx.sorting_network_extension(2, cx.bubble_network(2))
    assert ext.size() == 2
    target = zoo.permutahedron_hrep(2)
    rep = cx.verify_extension(target, ext, target_vrep=zoo.permutahedron_vrep(2))
    assert rep.passed


def test_sorting_network_extension_n3_bubble():
    ext = cx.sorting_network_extension(3, cx.bubble_network(3))
    assert ext.size() == 6
    rep = cx.verify_extension(
        zoo.permutahedron_hrep(3), ext, target_vrep=zoo.permutahedron_vrep(3)
    )
    assert rep.passed
    assert rep.lift_hits == 6


def test_sorting_network_extension_n1():
    ext = cx.sorting_network_extension(1, cx.bubble_network(1))
    assert ext.size() == 0
    assert len(ext.q.eqs) == 1


def test_sorting_network_extension_rejects_non_sorting():
    bad = cx.SortingNetwork(3, ((0, 1),))
    with pytest.raises(InputError):
        cx.sorting_network_extension(3, bad)


def test_colorful_matchings_distinct_colors():
    zeta = cx.Coloring(4, 2, (0, 1, 2, 3))
    v = cx.colorful_matchings(4, 2, zeta)
    assert len(v.vertices) == 3  # the perfect matchings of K_4


def test_colorful_matchings_rejects_bad_coloring():
    with pytest.raises(InputError):
        cx.Coloring(4, 2, (0, 0, 1, 1))  # only 2 of 4 colors used


def test_colorful_matchings_n5_oracle():
    zeta = cx.Coloring(5, 2, (0, 1, 2, 3, 3))
    got = cx.colorful_matchings(5, 2, zeta)
    # oracle: enumerate 2-matchings, filter on endpoint colors by hand
    edges = list(combinations(range(5), 2))
    count = 0
    for e1, e2 in combinations(edges, 2):
        ends = set(e1) | set(e2)
        if len(ends) == 4:
            cols = [(0, 1, 2, 3, 3)[v] for v in ends]
            if len(set(cols)) == 4:
                count += 1
    assert len(got.vertices) == count == 6


def test_covering_family_identity_case():
    fam, cert = cx.covering_coloring_family(4, 2)
    assert len(fam) == 1
    assert cert.complete


def test_covering_family_n5_and_n6():
    for n in (5, 6):
        fam, cert = cx.covering_coloring_family(n, 2)
        assert cert.complete
        assert len(cert.subsets) == len(list(combinations(range(n), 4)))
        # independent exhaustive check
        for w in combinations(range(n), 4):
            assert any(z.rainbow(w) for z in fam)


def _reference_covering_family(n, k, seed=2024):
    """The greedy round of `covering_coloring_family` before it counted on
    bitmasks: every pool coloring tested against every uncovered subset,
    each round; (family assignments, witnesses)."""
    colors = 2 * k
    subsets = list(combinations(range(n), colors))
    rng = random.Random(seed)
    rainbow = lambda z, w: len({z[v] for v in w}) == len(w)
    family, witness = [], [None] * len(subsets)
    uncovered = set(range(len(subsets)))
    pool = []
    for _ in range(300):
        assign = [rng.randrange(colors) for _ in range(n)]
        if len(set(assign)) == colors:
            pool.append(tuple(assign))
    while uncovered:
        best, best_cover = None, ()
        for cand in pool:
            cover = [s for s in uncovered if rainbow(cand, subsets[s])]
            if best is None or len(cover) > len(best_cover):
                best, best_cover = cand, cover
        if best is None or not best_cover:
            best = _targeted(n, subsets[min(uncovered)])
            best_cover = [s for s in uncovered if rainbow(best, subsets[s])]
        for s in best_cover:
            witness[s] = len(family)
        family.append(best)
        uncovered.difference_update(best_cover)
        if best in pool:
            pool.remove(best)
    return family, witness


@pytest.mark.parametrize("n, k", [(8, 2), (10, 2), (9, 3), (10, 3), (11, 3), (12, 3)])
def test_covering_family_matches_the_rescanning_greedy(n, k):
    fam, cert = cx.covering_coloring_family(n, k)
    assert ([z.assignment for z in fam], list(cert.witness)) == _reference_covering_family(n, k)


def _targeted(n, w):
    """The coloring that the family's completion builds for the subset w:
    w's nodes get colors 0.. in order, the others cycle through them."""
    assign = [0] * n
    for c, v in enumerate(w):
        assign[v] = c
    for idx, v in enumerate(v for v in range(n) if v not in w):
        assign[v] = idx % len(w)
    return tuple(assign)


@pytest.mark.parametrize("n, targeted", [(9, 0), (10, 3), (11, 5), (12, 9)])
def test_covering_family_targeted_completion(n, targeted):
    # with the default seed the random pool leaves 6-subsets uncovered from
    # n = 10 on, and each is completed by a targeted coloring
    fam, cert = cx.covering_coloring_family(n, 3)
    rng = random.Random(2024)
    pool = {tuple(rng.randrange(6) for _ in range(n)) for _ in range(300)}
    extra = [z.assignment for z in fam if z.assignment not in pool]
    assert len(extra) == targeted
    subsets = list(combinations(range(n), 6))
    assert all(any(_targeted(n, w) == z for w in subsets) for z in extra)
    # brute force: every 6-subset is rainbow in its witness coloring
    assert cert.complete and list(cert.subsets) == subsets
    for w, fid in zip(subsets, cert.witness):
        assert len({fam[fid].assignment[v] for v in w}) == 6


def test_colorful_matching_extension_k4():
    ext = cx.colorful_matching_extension(4, 2)
    target = hull(zoo.matching_vrep(4, 2))
    rep = cx.verify_extension(target, ext, target_vrep=zoo.matching_vrep(4, 2))
    assert rep.passed


def test_colorful_matching_extension_k5():
    ext = cx.colorful_matching_extension(5, 2)
    target_v = zoo.matching_vrep(5, 2)
    rep = cx.verify_extension(hull(target_v), ext, target_vrep=target_v)
    assert rep.passed


def test_verify_extension_failure_witness():
    # Q = single point 0 cannot cover the segment [0,1]
    point = HPoly(1, [([1], 0), ([-1], 0)])
    ext = cx.Extension(point, cx.AffineMap.linear([[1]]), 1, "point")
    seg = HPoly(1, [([1], 1), ([-1], 0)])
    rep = cx.verify_extension(seg, ext, target_vrep=VPoly(1, [(0,), (1,)]))
    assert not rep.passed
    assert linalg.vec([1]) in rep.vertex_failures


def test_verify_extension_detects_leaks():
    # projection sticking out of the target on one side
    big = HPoly(1, [([1], 2), ([-1], 0)])
    ext = cx.Extension(big, cx.AffineMap.linear([[1]]), 1, "big")
    seg = HPoly(1, [([1], 1), ([-1], 0)])
    rep = cx.verify_extension(seg, ext, target_vrep=VPoly(1, [(0,), (1,)]))
    assert not rep.passed
    assert rep.row_failures
    label, val, bound, witness = rep.row_failures[0]
    assert val == 2 and bound == 1
    assert not seg.contains(witness)


def test_verify_extension_unbounded_projection_lists_a_ray():
    # Q = {0 <= y1 <= 1, y2 >= 0, y2 = y3} under x = y1 + y3 covers [0, 1]
    # and leaks without bound above it
    q = HPoly(3, [([1, 0, 0], 1), ([-1, 0, 0], 0), ([0, -1, 0], 0)], [([0, 1, -1], 0)])
    ext = cx.Extension(q, cx.AffineMap.linear([[1, 0, 1]]), 1, "leaky")
    seg = HPoly(1, [([1], 1), ([-1], 0)])
    rep = cx.verify_extension(seg, ext, target_vrep=VPoly(1, [(0,), (1,)]))
    assert not rep.passed and not rep.projection_bounded
    [(label, val, bound, ray)] = rep.row_failures
    assert (label, val, bound) == (seg.row_label(0), "unbounded", 1)
    assert all(linalg.dot(a, ray) <= 0 for a, _ in q.ineqs)
    assert all(linalg.dot(c, ray) == 0 for c, _ in q.eqs)
    assert linalg.dot(seg.ineqs[0][0], linalg.mat_vec(ext.proj.matrix, ray)) > 0


def test_random_balas_against_union_oracle():
    rng = random.Random(31337)
    for _ in range(20):
        dim = rng.randint(1, 3)
        qn = rng.randint(1, 4)
        parts = []
        all_pts = []
        for _ in range(qn):
            pts = set()
            for _ in range(rng.randint(1, 6)):
                pts.add(tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(dim)))
            pts = sorted(pts)
            parts.append(hull(VPoly(dim, pts)))
            all_pts.extend(pts)
        ext = cx.balas_union(parts)
        assert ext.size() == sum(len(p.ineqs) for p in parts) + qn
        uniq = sorted(set(all_pts))
        target = hull(VPoly(dim, uniq))
        rep = cx.verify_extension(target, ext, target_vrep=VPoly(dim, uniq))
        assert rep.passed
