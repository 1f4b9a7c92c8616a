"""Pinned deterministic work counters: a regression in LP solves, pivots,
eliminations or search nodes fails here loudly, whatever the machine's
speed."""

import random
import sys
from fractions import Fraction as F

import pytest

from polylift import constructions as cx
from polylift import bounds, kernel, linalg, simplex, slack, zoo
from polylift.errors import ValidationError
from polylift.kernel import HPoly, PolyEqualResult


def _count_calls(monkeypatch, **targets):
    """Count the calls of each target, a (module, function name) pair, under
    its keyword, from here to the end of the test.  A target (module,
    function name, caller) counts only the calls made from the function
    named caller or from a generator expression in it."""
    counts = dict.fromkeys(targets, 0)

    def counted(key, fn, caller=None):
        def wrapper(*args, **kwargs):
            if caller is None:
                counts[key] += 1
            else:
                frame = sys._getframe(1)
                if frame.f_code.co_name == "<genexpr>":
                    frame = frame.f_back
                counts[key] += frame.f_code.co_name == caller
            return fn(*args, **kwargs)

        return wrapper

    for key, (module, name, *caller) in targets.items():
        monkeypatch.setattr(module, name, counted(key, getattr(module, name), *caller))
    return counts


SOLVES = (simplex, "solve_standard")
PIVOTS = (simplex, "_pivot")
ELIMINATIONS = (linalg, "_eliminate")
BACKS = (kernel._Reduction, "back")
POINTS = (simplex, "_point")


def test_verify_martin4_solves_and_pivots(monkeypatch):
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    rep = cx.verify_extension(
        zoo.spanning_tree_hrep(4),
        cx.martin_spanning_tree_extension(4),
        target_vrep=zoo.spanning_tree_vrep(4),
    )
    assert rep.passed and rep.lift_hits == rep.checked_vertices
    # one simplex call per Q: phase 1 once, one phase 2 per target row
    assert counts == {"solves": 1, "pivots": 71}


def test_verify_maps_back_only_the_points_it_reads(monkeypatch):
    hrep, vrep = zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    ext = cx.martin_spanning_tree_extension(4)
    counts = _count_calls(monkeypatch, backs=BACKS, points=POINTS)
    assert cx.verify_extension(hrep, ext, target_vrep=vrep).passed
    # none: the zero objective's status decides that Q is not empty (1 and
    # 1 when its point was read, 19 and 19 when every row LP built and
    # mapped back its point)
    assert counts == {"backs": 0, "points": 0}
    # two rows cut by 1: the lift hints still hit, and each failing row's
    # point is read for its witness (3 and 3 with the zero objective's)
    cut = HPoly(hrep.dim, [(a, b - 1 if i in (0, 3) else b) for i, (a, b) in enumerate(hrep.ineqs)], hrep.eqs)
    counts = _count_calls(monkeypatch, backs=BACKS, points=POINTS)
    rep = cx.verify_extension(cut, ext, target_vrep=vrep)
    assert len(rep.row_failures) == 2 and rep.lift_hits == rep.checked_vertices
    assert counts == {"backs": 2, "points": 2}


def test_factorization_martin4_solves_and_pivots(monkeypatch):
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS, eliminations=ELIMINATIONS)
    fact = slack.extension_to_factorization(
        cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    )
    assert (len(fact.t), len(fact.s), len(fact.s[0])) == (16, 30, 16)
    # one LP per row of T, one lexicographic batch for every vertex lift
    # (phase 1 once, then dual pivots per vertex), and verify's row batch,
    # which the lifts spare every feasibility LP.  One lexicographic solve
    # per vertex made 34 solves and 710 pivots; a solve per coordinate made
    # 500 and 2963.  Every row of Martin(4)'s system has a zero slack at a
    # vertex, so the binding check takes no LP (36/772 with one), and
    # slack_matrix computes no affine hull (35/730 when it did).  One
    # elimination gives Q's affine frame; Q's lineality takes none, since a
    # row with one nonzero pins each of its coordinates (one, the
    # independent rows of all of Q's rows, did), and a separate nullspace
    # for the lineality and a second elimination for the direction basis
    # made 3
    assert counts == {"solves": 19, "pivots": 454, "eliminations": 1}


def test_factorization_martin4_builds_one_lex_point_per_vertex(monkeypatch):
    ext, hrep, vrep = cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    counts = _count_calls(monkeypatch, backs=BACKS, points=POINTS)
    kernel._lex_fibers(ext.q, ext.proj.matrix, [list(v) for v in vrep.vertices], ext.q.dim)
    # one point per right-hand side, not one per lex cost (240)
    assert counts == {"backs": 16, "points": 16}
    counts = _count_calls(monkeypatch, backs=BACKS, points=POINTS)
    slack.extension_to_factorization(ext, hrep, vrep)
    # the max-common-slack point, one per row of T and one lift per vertex;
    # 52 mapped back and 276 built when every LP result and every lex cost
    # built its point, 34 and 34 when verify read its zero objective's point
    assert counts == {"backs": 33, "points": 33}


def test_factorization_martin4_builds_a_lex_reduced_row_per_lex_pivot(monkeypatch):
    counts = _count_calls(monkeypatch, rows=(simplex, "_reduced", "_phase2"))
    slack.extension_to_factorization(
        cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    )
    # the lex costs are priced off the rows of their basic columns, and only
    # the 3 that pivot build a full reduced-cost row (240: one per lex cost)
    assert counts == {"rows": 3}


@pytest.mark.parametrize("hrep, vrep, eliminations", [
    (zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4), 2),
    (kernel.hull(zoo.cross_polytope_vrep(3)), zoo.cross_polytope_vrep(3), 1),
])
def test_factorization_to_extension_eliminations(monkeypatch, hrep, vrep, eliminations):
    sm = slack.slack_matrix(hrep, vrep)
    fact = slack.NonnegFactorization(linalg.identity(sm.nrows), sm.entries)
    counts = _count_calls(monkeypatch, eliminations=ELIMINATIONS)
    slack.factorization_to_extension(fact, sm, hrep)
    # one for the affine frame of Π4 (cross(3) is full-dimensional and takes
    # none) and one [AN^T | I] for injectivity, the slack image's equations
    # and the left inverse G; a rank, a nullspace and an independent_rows
    # plus an inverse for G made 5 and 4
    assert counts["eliminations"] == eliminations


@pytest.mark.parametrize("ext, hrep, vrep, solves, pivots", [
    (cx.birkhoff_extension(4), zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4), 17, 332),
    (cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4), 19, 454),
])
def test_factorization_without_lift_hints(monkeypatch, ext, hrep, vrep, solves, pivots):
    # an extension read from a file carries no lift; the lexicographic lifts
    # are verify's hints, so the work is that of the hinted extension (with
    # one feasibility LP per vertex and one lexicographic solve per vertex:
    # Birkhoff(4) 64 / 1,424, Martin(4) 50 / 960)
    ext = cx.Extension(ext.q, ext.proj, ext.target_dim, ext.name)
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    slack.extension_to_factorization(ext, hrep, vrep)
    assert counts == {"solves": solves, "pivots": pivots}


def test_fm_project_bubble3_solves_and_pivots(monkeypatch):
    q = cx.sorting_network_extension(3, cx.bubble_network(3)).q
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    h = kernel.fm_project(q, range(3))
    assert (len(h.ineqs), len(h.eqs)) == (6, 1)
    # the pruning after each FM step, as in the describe workload; an
    # equation substitution after the first full prune takes no LP, and a
    # row an exact ray certifies takes none (15 solves and 134 pivots with
    # an emptiness LP and one LP per row)
    assert counts == {"solves": 3, "pivots": 28}


def test_fm_project_birkhoff3_graph_solves_and_pivots(monkeypatch):
    # the describe workload's other FM job: the graph {(x, y) : y in Q,
    # x = p(y)} of Birkhoff(3)'s extension, x first, projected onto x
    ext = cx.birkhoff_extension(3)
    n = ext.target_dim
    z = (F(0),) * n
    eqs = [(z + c, d) for c, d in ext.q.eqs]
    for i, (row, off) in enumerate(zip(ext.proj.matrix, ext.proj.offset)):
        eqs.append((linalg.unit(n, i) + tuple(-x for x in row), off))
    graph = HPoly(n + ext.q.dim, [(z + a, b) for a, b in ext.q.ineqs], eqs)
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    h = kernel.fm_project(graph, range(n))
    assert (len(h.ineqs), len(h.eqs)) == (6, 1)
    # 30 solves and 300 pivots with one LP per row
    assert counts == {"solves": 12, "pivots": 137}


def test_remove_redundancy_solves_and_pivots(monkeypatch):
    # one max-common-slack LP, then one LP per row no exact ray certifies:
    # every facet of ST(6) is some ray's first hit; with an emptiness LP and
    # one LP per row these took 72 / 8,441 and 63 / 5,477
    cases = ((zoo.spanning_tree_hrep(6), 1, 296), (zoo.permutahedron_hrep(6), 49, 4_257))
    for poly, solves, pivots in cases:
        counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
        assert kernel.remove_redundancy(poly) == poly
        assert counts == {"solves": solves, "pivots": pivots}


def test_lex_min_point_one_solve(monkeypatch):
    counts = _count_calls(monkeypatch, solves=SOLVES)
    assert kernel.lex_min_point(zoo.spanning_tree_hrep(4)) == (0, 0, 1, 0, 1, 1)
    assert counts["solves"] == 1


def test_lp_solve_adds_one_dual_lp_to_optimize(monkeypatch):
    square = HPoly(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
    empty = HPoly(1, [((-1,), -1), ((1,), 0)])
    half_plane = HPoly(2, [((-1, 0), 0)])
    counts = _count_calls(monkeypatch, solves=SOLVES)
    assert kernel.optimize(square, (1, 1), "max").status == "optimal"
    assert counts["solves"] == 1
    # a ray needs no dual LP
    for poly, status, solves in ((square, "optimal", 2), (empty, "infeasible", 2), (half_plane, "unbounded", 1)):
        counts = _count_calls(monkeypatch, solves=SOLVES)
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
        counts = _count_calls(monkeypatch, solves=SOLVES)
        # the emptiness test and the fallback witness come from the batch
        assert kernel.poly_equal(p1, p2) == expected
        assert counts["solves"] == solves


def _shifted_sortnet4():
    """The verify workload's first refutation: Batcher's sorting network on
    4 inputs with its projection's first offset moved by one, so no lift
    hint hits and every vertex of the permutahedron is outside the image."""
    ext = cx.sorting_network_extension(4, cx.batcher_network(4))
    off = (ext.proj.offset[0] + 1,) + ext.proj.offset[1:]
    return cx.Extension(ext.q, kernel.AffineMap(ext.proj.matrix, off), 4, "sortnet(4)+shift", ext.lift)


def test_fiber_questions_take_one_batch(monkeypatch):
    # every missed vertex or tested point is one right-hand side of one
    # _lex_fibers batch with no cost: phase 1 once, then dual pivots.  One
    # feasibility LP per point made 25 / 320, 17 / 335 and 48 / 597
    p4h, p4v = zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    rep = cx.verify_extension(p4h, _shifted_sortnet4(), target_vrep=p4v)
    assert rep.vertex_failures == list(p4v.vertices)
    assert counts == {"solves": 2, "pivots": 53}

    ext = cx.martin_spanning_tree_extension(4)
    no_lift = cx.Extension(ext.q, ext.proj, ext.target_dim, ext.name)
    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    assert cx.verify_extension(zoo.spanning_tree_hrep(4), no_lift, target_vrep=zoo.spanning_tree_vrep(4)).passed
    assert counts == {"solves": 2, "pivots": 117}

    counts = _count_calls(monkeypatch, solves=SOLVES, pivots=PIVOTS)
    assert kernel.poly_equal(p4v, kernel.VPoly(4, tuple(reversed(p4v.vertices)))).equal
    assert counts == {"solves": 2, "pivots": 190}


def test_outside_image_maps_back_no_point_inside_the_image(monkeypatch):
    # the batch asks only whether each fiber is empty: a point inside the
    # image builds no point of its fiber (16 mapped back and built before)
    ext, vrep = cx.martin_spanning_tree_extension(4), zoo.spanning_tree_vrep(4)
    counts = _count_calls(monkeypatch, backs=BACKS, points=POINTS)
    assert kernel._outside_image(ext.q, ext.proj, vrep.vertices) == []
    assert counts == {"backs": 0, "points": 0}
    # the same in is_vertex and poly_equal, whose points all lie inside
    p4v = zoo.permutahedron_vrep(4)
    assert kernel.is_vertex(p4v, 0)
    assert kernel.poly_equal(p4v, kernel.VPoly(4, tuple(reversed(p4v.vertices)))).equal
    assert counts == {"backs": 0, "points": 0}


def test_verify_reads_integer_hints_in_one_packed_sum(monkeypatch):
    # Birkhoff(5)'s 120 hints are tuples of ints: _is_lift reads each as
    # (*y, 1) with no linalg.homogeneous, and _holds reads Q's 35 rows at it
    # in one big-integer sum with no _int_slack (4,200 calls before).  The
    # same hints as Fractions take linalg.homogeneous, then the packed sum.
    ext = cx.birkhoff_extension(5)
    as_fractions = cx.Extension(ext.q, ext.proj, 5, ext.name, lambda v: tuple(F(x) for x in ext.lift(v)))
    for e, homogeneous in ((ext, 0), (as_fractions, 120)):
        counts = _count_calls(monkeypatch, homogeneous=(linalg, "homogeneous", "_is_lift"),
                              slacks=(kernel, "_int_slack", "_holds"), holds=(HPoly, "_holds"))
        rep = cx.verify_extension(zoo.permutahedron_hrep(5), e, target_vrep=zoo.permutahedron_vrep(5))
        assert rep.passed and rep.lift_hits == rep.checked_vertices == 120
        assert counts == {"homogeneous": homogeneous, "slacks": 0, "holds": 120}


def test_hull_eliminates_once_per_call_not_per_point(monkeypatch):
    counts = _count_calls(monkeypatch, eliminations=ELIMINATIONS)
    h = kernel.hull(zoo.permutahedron_vrep(5))
    assert len(h.ineqs) == 30
    # 120 points: a per-point solve would add one elimination per point.
    # One each for the independent differences, [dirs | I] (the equations
    # and the left inverse) and [M | I] (all five polar seeds); a solve per
    # seed and a Fraction left inverse made 9
    assert counts["eliminations"] == 3


def test_vertices_eliminates_once_for_the_affine_frame(monkeypatch):
    counts = _count_calls(monkeypatch, eliminations=ELIMINATIONS)
    assert len(kernel.vertices(zoo.birkhoff_hrep(4)).vertices) == 24
    # one elimination of the equations gives both the affine hull and its
    # direction basis, and the hull core of the polar makes 3; a second
    # elimination for the nullspace of the equations made 5
    assert counts["eliminations"] == 4


def test_hull_and_vertices_take_no_solve(monkeypatch):
    counts = _count_calls(monkeypatch, solve=(linalg, "solve"))
    assert len(kernel.hull(zoo.permutahedron_vrep(5)).ineqs) == 30
    assert len(kernel.vertices(zoo.permutahedron_hrep(5)).vertices) == 120
    # the polar seeds come from one adjugate, not one solve per seed
    assert counts["solve"] == 0


def test_vertices_one_lp_when_the_feasible_point_is_interior(monkeypatch):
    # x0 of the max-common-slack LP is slack on every row, so t = 0 is
    # interior to the t-polytope and no second LP is needed
    for poly, n_vertices in ((zoo.birkhoff_hrep(4), 24), (zoo.permutahedron_hrep(5), 120)):
        counts = _count_calls(monkeypatch, solves=SOLVES)
        assert len(kernel.vertices(poly).vertices) == n_vertices
        assert counts["solves"] == 1
    # 0 <= x <= 1, x + y = 1 as two inequalities, 0 <= z <= 2: the implicit
    # equality leaves x0 on a row, so the interior point takes its own LP
    # after the one that finds the implicit equalities
    poly = HPoly(3, [((1, 1, 0), 1), ((-1, -1, 0), -1), ((1, 0, 0), 1), ((-1, 0, 0), 0),
                     ((0, 0, 1), 2), ((0, 0, -1), 0)])
    counts = _count_calls(monkeypatch, solves=SOLVES)
    assert kernel.vertices(poly).vertices == ((0, 1, 0), (0, 1, 2), (1, 0, 0), (1, 0, 2))
    assert counts["solves"] == 3


def _dd_peak(monkeypatch, run):
    """run()'s result and the most polar vertices alive after any one row
    insertion of the double description."""
    peak = {"vertices": 0}
    insert = kernel._dd_insert

    def counted(*args):
        verts, tights = insert(*args)
        peak["vertices"] = max(peak["vertices"], len(verts))
        return verts, tights

    monkeypatch.setattr(kernel, "_dd_insert", counted)
    out = run()
    monkeypatch.setattr(kernel, "_dd_insert", insert)
    return out, peak["vertices"]


def test_dd_peak_birkhoff5(monkeypatch):
    out, peak = _dd_peak(monkeypatch, lambda: kernel.vertices(zoo.birkhoff_hrep(5)))
    assert len(out.vertices) == 120
    assert peak == 625


def test_dd_peak_of_a_shuffled_hull_is_the_sorted_one(monkeypatch):
    # hull inserts the points in sorted order whatever the caller's order;
    # inserted as given, this shuffle peaked at 747 polar vertices
    st5 = zoo.spanning_tree_vrep(5)
    shuffled = list(st5.vertices)
    random.Random(1).shuffle(shuffled)
    assert shuffled != list(st5.vertices)
    sorted_out, sorted_peak = _dd_peak(monkeypatch, lambda: kernel.hull(st5))
    out, peak = _dd_peak(monkeypatch, lambda: kernel.hull(kernel.VPoly(st5.dim, shuffled)))
    assert (sorted_peak, peak) == (51, 51)
    assert out == sorted_out


def test_fooling_search_nodes(monkeypatch):
    colored = []
    greedy_classes = bounds._greedy_classes

    def counted(cand_mask, shut):
        colored.append(cand_mask)
        return greedy_classes(cand_mask, shut)

    monkeypatch.setattr(bounds, "_greedy_classes", counted)
    cube5 = zoo.cube_hrep(5)
    cases = (
        (zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4), 10, 62_330, 44_517),
        (zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4), 6, 6_058, 2_209),
        (cube5, kernel.vertices(cube5), 10, 575, 481),
    )
    for h, v, size, nodes, colorings in cases:
        colored.clear()
        res = bounds.fooling_set_max(slack.slack_matrix(h, v))
        assert (res.size(), res.is_exact(), res.nodes) == (size, True, nodes)
        # one coloring per distinct nonempty candidate set the search meets
        assert (len(colored), len(set(colored)), 0 in colored) == (colorings, colorings, False)


def test_spanning_tree4_fooling_budget_runs_out():
    # cut off at 15,000 nodes, the search keeps its best set, flagged greedy
    rep = bounds.xc_bounds(zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4), fooling_budget=15_000)
    assert rep.bounds["fooling_set"] == (10, False)


def test_rectangle_cover_nodes():
    b3, c3 = zoo.birkhoff_hrep(3), zoo.cube_hrep(3)
    cases = (
        (zoo.matching_hrep(4), zoo.matching_vrep(4), 10, 51),
        (b3, kernel.vertices(b3), 6, 13),
        (c3, kernel.vertices(c3), 6, 181),
    )
    for h, v, size, nodes in cases:
        res = bounds.rectangle_cover_min(slack.slack_matrix(h, v))
        assert (res.size, res.is_exact(), res.nodes) == (size, True, nodes)


def test_xc_bounds_reads_binding_rows_off_the_slack_matrix(monkeypatch):
    cube4 = zoo.cube_hrep(4)
    cases = ((cube4, kernel.vertices(cube4)), (zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)))
    for h, v in cases:
        counts = _count_calls(monkeypatch, solves=SOLVES)
        bounds.xc_bounds(h, v)
        # every row has a zero slack at a vertex, and slack_matrix solves no LP
        assert counts["solves"] == 0
    # x0 <= 2 is tight at no vertex of the cube: its LP finds it not binding
    cube3 = zoo.cube_hrep(3)
    loose = HPoly(3, cube3.ineqs + (((1, 0, 0), 2),))
    v3 = kernel.vertices(cube3)
    counts = _count_calls(monkeypatch, solves=SOLVES)
    with pytest.raises(ValidationError, match="binding"):
        bounds.xc_bounds(loose, v3)
    assert counts["solves"] == 1


def test_face_lattice_takes_no_rank(monkeypatch):
    counts = _count_calls(monkeypatch, rank=(linalg, "rank"))
    cube4 = zoo.cube_hrep(4)
    lat = bounds.face_lattice(cube4, kernel.vertices(cube4))
    # dimensions come from the lattice grading
    assert lat.face_count() == 82 and lat.counts_by_dim() == {-1: 1, 0: 16, 1: 32, 2: 24, 3: 8, 4: 1}
    assert counts["rank"] == 0
