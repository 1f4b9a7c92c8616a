"""Pinned deterministic work counters: a regression in LP solves, pivots,
eliminations or search nodes fails here loudly, whatever the machine's
speed."""

from fractions import Fraction as F

import pytest

from polylift import constructions as cx
from polylift import bounds, kernel, linalg, simplex, slack, zoo
from polylift.errors import ValidationError
from polylift.kernel import HPoly, PolyEqualResult


def _count_solves_and_pivots(monkeypatch):
    counts = {"solves": 0, "pivots": 0}
    pivot, solve = simplex._pivot, simplex.solve_standard

    def counted_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "solve_standard", counted_solve)
    return counts


def test_verify_martin4_solves_and_pivots(monkeypatch):
    counts = _count_solves_and_pivots(monkeypatch)
    rep = cx.verify_extension(
        zoo.spanning_tree_hrep(4),
        cx.martin_spanning_tree_extension(4),
        target_vrep=zoo.spanning_tree_vrep(4),
    )
    assert rep.passed and rep.lift_hits == rep.checked_vertices
    # one simplex call per Q: phase 1 once, one phase 2 per target row
    assert counts == {"solves": 1, "pivots": 85}


def test_factorization_martin4_solves_and_pivots(monkeypatch):
    counts = _count_solves_and_pivots(monkeypatch)
    fact = slack.extension_to_factorization(
        cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    )
    assert (len(fact.t), len(fact.s), len(fact.s[0])) == (16, 30, 16)
    # one lexicographic solve per vertex lift; a solve per coordinate made
    # 500 solves and 2963 pivots
    assert counts == {"solves": 36, "pivots": 772}


def test_fm_project_bubble3_solves_and_pivots(monkeypatch):
    q = cx.sorting_network_extension(3, cx.bubble_network(3)).q
    counts = _count_solves_and_pivots(monkeypatch)
    h = kernel.fm_project(q, range(3))
    assert (len(h.ineqs), len(h.eqs)) == (6, 1)
    # the LP pruning after each FM step, as in the describe workload; an
    # equation substitution after the first full prune takes no LP
    assert counts == {"solves": 15, "pivots": 134}


def _count_solves(monkeypatch):
    counts = {"solves": 0}
    solve = simplex.solve_standard

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "solve_standard", counted_solve)
    return counts


def test_lex_min_point_one_solve(monkeypatch):
    counts = _count_solves(monkeypatch)
    assert kernel.lex_min_point(zoo.spanning_tree_hrep(4)) == (0, 0, 1, 0, 1, 1)
    assert counts["solves"] == 1


def test_lp_solve_adds_one_dual_lp_to_optimize(monkeypatch):
    square = HPoly(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    empty = HPoly(1, [((-1,), -1), ((1,), 0)])
    half_plane = HPoly(2, [((-1, 0), 0)])
    counts = _count_solves(monkeypatch)
    assert kernel.optimize(square, (1, 1), "max").status == "optimal"
    assert counts["solves"] == 1
    # a ray needs no dual LP
    for poly, status, solves in ((square, "optimal", 2), (empty, "infeasible", 2), (half_plane, "unbounded", 1)):
        counts = _count_solves(monkeypatch)
        assert kernel.lp_solve((1,) * poly.dim, "max", poly).status == status
        assert counts["solves"] == solves


def test_poly_equal_one_lp_batch_per_h_side(monkeypatch):
    p4 = zoo.permutahedron_hrep(4)
    reversed_p4 = HPoly(p4.dim, tuple(reversed(p4.ineqs)), p4.eqs)
    empty = HPoly(2, [((1, 0), -1), ((-1, 0), -1)], [])
    cases = [
        (p4, reversed_p4, PolyEqualResult(True), 2),
        (p4, zoo.permutahedron_vrep(4), PolyEqualResult(True), 1),
        (zoo.cube_hrep(2), empty, PolyEqualResult(False, (F(1), F(1)), 1), 2),
    ]
    for p1, p2, expected, solves in cases:
        counts = _count_solves(monkeypatch)
        # the emptiness test and the fallback witness come from the batch
        assert kernel.poly_equal(p1, p2) == expected
        assert counts["solves"] == solves


def test_hull_eliminates_once_per_call_not_per_point(monkeypatch):
    counts = {"eliminate": 0}
    eliminate = linalg._eliminate

    def counted(m):
        counts["eliminate"] += 1
        return eliminate(m)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    h = kernel.hull(zoo.permutahedron_vrep(5))
    assert len(h.ineqs) == 30
    # 120 points: a per-point solve would add one elimination per point
    assert counts["eliminate"] == 9


def test_vertices_one_lp_when_the_feasible_point_is_interior(monkeypatch):
    # x0 of the max-common-slack LP is slack on every row, so t = 0 is
    # interior to the t-polytope and no second LP is needed
    for poly, n_vertices in ((zoo.birkhoff_hrep(4), 24), (zoo.permutahedron_hrep(5), 120)):
        counts = _count_solves(monkeypatch)
        assert len(kernel.vertices(poly).vertices) == n_vertices
        assert counts["solves"] == 1
    # 0 <= x <= 1, x + y = 1 as two inequalities, 0 <= z <= 2: the implicit
    # equality leaves x0 on a row, so the interior point takes its own LP
    # after the one that finds the implicit equalities
    poly = HPoly(3, [((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 0, 0), 1), ((-1, 0, 0), 0),
                     ((0, 0, 1), 2), ((0, 0, -1), 0)])
    counts = _count_solves(monkeypatch)
    assert kernel.vertices(poly).vertices == ((0, 1, 0), (0, 1, 2), (1, 0, 0), (1, 0, 2))
    assert counts["solves"] == 3


def test_dd_peak_birkhoff5(monkeypatch):
    peak = {"vertices": 0}
    insert = kernel._dd_insert

    def counted(*args):
        verts, tights = insert(*args)
        peak["vertices"] = max(peak["vertices"], len(verts))
        return verts, tights

    monkeypatch.setattr(kernel, "_dd_insert", counted)
    assert len(kernel.vertices(zoo.birkhoff_hrep(5)).vertices) == 120
    # the most polar vertices alive after any one row insertion
    assert peak["vertices"] == 625


def test_fooling_search_nodes():
    cube5 = zoo.cube_hrep(5)
    cases = (
        (zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4), 10, 62_330),
        (zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4), 6, 6_058),
        (cube5, kernel.vertices(cube5), 10, 575),
    )
    for h, v, size, nodes in cases:
        res = bounds.fooling_set_max(slack.slack_matrix(h, v))
        assert (res.size(), res.is_exact(), res.nodes) == (size, True, nodes)


def test_spanning_tree4_fooling_budget_runs_out():
    # cut off at 15,000 nodes, the search keeps its best set, flagged greedy
    rep = bounds.xc_bounds(zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4), fooling_budget=15_000)
    assert rep.bounds["fooling_set"] == (10, False)


def test_rectangle_cover_nodes():
    b3 = zoo.birkhoff_hrep(3)
    cases = (
        (zoo.matching_hrep(4), zoo.matching_vrep(4), 10, 51),
        (b3, kernel.vertices(b3), 6, 13),
    )
    for h, v, size, nodes in cases:
        res = bounds.rectangle_cover_min(slack.slack_matrix(h, v))
        assert (res.size, res.is_exact(), res.nodes) == (size, True, nodes)


def test_xc_bounds_reads_binding_rows_off_the_slack_matrix(monkeypatch):
    cube4 = zoo.cube_hrep(4)
    cases = ((cube4, kernel.vertices(cube4)), (zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)))
    for h, v in cases:
        counts = _count_solves(monkeypatch)
        bounds.xc_bounds(h, v)
        # every row has a zero slack at a vertex, so the one solve is
        # slack_matrix's affine-hull LP
        assert counts["solves"] == 1
    # x0 <= 2 is tight at no vertex of the cube: its LP finds it not binding
    cube3 = zoo.cube_hrep(3)
    loose = HPoly(3, cube3.ineqs + (((1, 0, 0), 2),))
    v3 = kernel.vertices(cube3)
    counts = _count_solves(monkeypatch)
    with pytest.raises(ValidationError, match="binding"):
        bounds.xc_bounds(loose, v3)
    assert counts["solves"] == 2


def test_face_lattice_takes_no_rank(monkeypatch):
    counts = {"rank": 0}
    rank = linalg.rank

    def counted(m):
        counts["rank"] += 1
        return rank(m)

    monkeypatch.setattr(linalg, "rank", counted)
    cube4 = zoo.cube_hrep(4)
    lat = bounds.face_lattice(cube4, kernel.vertices(cube4))
    # dimensions come from the lattice grading
    assert lat.face_count() == 82 and lat.counts_by_dim() == {-1: 1, 0: 16, 1: 32, 2: 24, 3: 8, 4: 1}
    assert counts["rank"] == 0
