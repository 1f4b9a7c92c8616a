"""The shared phase 2 of `simplex.solve_standard` against the per-cost loop
it replaced.

Outside lex mode every cost of a call starts phase 2 from the one phase-1
basis.  The reference below is that loop as it was: each cost runs its own
one-objective Bland phase 2 on its own copy of the tableau and basis
(`per_cost_solve`).  The shared phase 2 pivots once for the costs whose
Bland paths agree, so it must give every cost the reference's result
(status, value, point and ray) with no more pivots, and with the same
pivots for a single cost.
"""

import tracemalloc
from fractions import Fraction
from functools import partial
from math import lcm

from hypothesis import given, settings, strategies as st

from polylift import constructions as cx, simplex, zoo
from polylift.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, StandardResult

SOLVE = simplex.solve_standard


# ---------------------------------------------------------------------------
# The per-cost loop
# ---------------------------------------------------------------------------

def _run_phase(tab, obj, basis, cols):
    """Bland pivots until the one objective row is optimal: None, or the
    entering column that no row bounds."""
    while True:
        enter = next((j for j in cols if obj[j] < 0), None)
        if enter is None:
            return None
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, best_a, best_b = i, a, row[-1]
                    continue
                lhs, rhs = row[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, row[-1]
        if leave is None:
            return enter
        simplex._pivot(tab, [obj], basis, leave, enter)


def _phase2(tab, basis, cost, n):
    """Phase 2 of one cost on the tableau it is given."""
    icost, w = cost
    common = lcm(*[tab[i][v] for i, v in enumerate(basis) if icost[v]])
    obj2 = [common * x for x in icost]
    obj2 += [0] * (len(tab[0]) - n) if tab else [0]
    for i, v in enumerate(basis):
        if obj2[v]:
            row = tab[i]
            k = obj2[v] // row[v]
            for j, x in enumerate(row):
                if x:
                    obj2[j] -= k * x
    hit = _run_phase(tab, obj2, basis, range(n))
    basic = simplex._basic(tab, basis)
    point = partial(simplex._point, basic, n)
    if hit is not None:
        ray = [Fraction(0)] * n
        ray[hit] = Fraction(1)
        for i, v in enumerate(basis):
            if tab[i][hit]:
                ray[v] = Fraction(-tab[i][hit], tab[i][v])
        return StandardResult(status=UNBOUNDED, point=point, ray=ray)
    return StandardResult(status=OPTIMAL, point=point, value=simplex._value(basic, icost, w))


def per_cost_solve(rows, scales, costs, lex=False, shifts=()):
    """`solve_standard` with one phase 2 per cost on its own copy outside
    lex mode; a lex call goes to `solve_standard` itself."""
    if lex:
        return SOLVE(rows, scales, costs, lex, shifts)
    n = len(costs[0][0])
    basis, ok = simplex._phase1(rows, scales, n)
    if not ok:
        return [StandardResult(status=INFEASIBLE) for _ in costs]
    simplex._drive_out(rows, basis, n)
    return [_phase2([row[:] for row in rows], basis[:], cost, n) for cost in costs]


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _counted(solve, *args):
    """solve's results and the number of `simplex._pivot` calls it made."""
    pivot, count = simplex._pivot, [0]

    def counted(*a):
        count[0] += 1
        return pivot(*a)

    simplex._pivot = counted
    try:
        return solve(*args), count[0]
    finally:
        simplex._pivot = pivot


def _assert_same(rows, scales, costs):
    got, pivots = _counted(SOLVE, [row[:] for row in rows], scales, costs)
    want, ref_pivots = _counted(per_cost_solve, [row[:] for row in rows], scales, costs)
    for g, w in zip(got, want, strict=True):
        assert (g.status, g.value, g.point, g.ray) == (w.status, w.value, w.point, w.ray)
    assert pivots <= ref_pivots
    if len(costs) == 1:
        assert pivots == ref_pivots
    return got, pivots, ref_pivots


small = st.integers(-3, 3)


@st.composite
def batches(draw):
    """(rows, scales, costs): integer equations A z = b, z >= 0, in the
    scaled form `solve_standard` takes, feasible by construction or with a
    drawn b (often infeasible), some capped by a row that bounds every
    variable; and 1 to 12 costs drawn with repeats from a few costs, their
    negations and the zero cost, so that unbounded costs and costs that part
    after shared pivots are frequent."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 4))
    a = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        z0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = [sum(x * z for x, z in zip(row, z0)) for row in a]
    else:
        b = draw(st.lists(small, min_size=m, max_size=m))
    if draw(st.booleans()):
        # sum of z <= cap, with a slack column: every variable is bounded
        a = [row + [0] for row in a] + [[1] * (n + 1)]
        b.append(draw(st.integers(0, 4)))
        n += 1
    rows, scales = [], []
    for row, rhs in zip(a, b):
        k = draw(st.integers(1, 3))
        sign = -1 if rhs < 0 else 1
        rows.append([sign * k * x for x in row + [rhs]])
        scales.append(k)
    base = draw(st.lists(st.tuples(st.lists(small, min_size=n, max_size=n), st.integers(1, 3)),
                         min_size=1, max_size=4))
    pool = base + [([-x for x in c], w) for c, w in base] + [([0] * n, 1)]
    costs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return rows, scales, [(list(c), w) for c, w in costs]


@settings(deadline=None, derandomize=True, max_examples=500)
@given(batches())
def test_shared_phase2_matches_the_per_cost_loop(case):
    _assert_same(*case)


def test_costs_part_after_a_shared_pivot():
    # z0 + z1 + z2 = 1 and a zero row, which is dropped: phase 1 leaves z0
    # basic; the first two costs enter z1 together, and the second goes on
    # to z2; the third is unbounded along z3, which no row holds, and the
    # zero cost is optimal at once
    rows = [[1, 1, 1, 0, 1], [0, 0, 0, 0, 0]]
    costs = [([0, -1, 0, 0], 1), ([0, -1, -2, 0], 1), ([0, 0, 0, -1], 1), ([0, 0, 0, 0], 1)]
    got, pivots, ref_pivots = _assert_same(rows, [1, 1], costs)
    assert [r.status for r in got] == [OPTIMAL, OPTIMAL, UNBOUNDED, OPTIMAL]
    assert [r.value for r in got[:2]] == [-1, -2]
    assert got[2].ray == [0, 0, 0, 1]
    assert (pivots, ref_pivots) == (3, 4)


def test_the_reference_makes_the_parent_pivots(monkeypatch):
    # Martin(4) verify: 85 pivots with one phase 2 per row of the target,
    # 71 when the rows share their Bland steps
    def verify():
        rep = cx.verify_extension(zoo.spanning_tree_hrep(4), cx.martin_spanning_tree_extension(4),
                                  target_vrep=zoo.spanning_tree_vrep(4))
        assert rep.passed and rep.lift_hits == rep.checked_vertices
        return rep

    shared, pivots = _counted(verify)
    monkeypatch.setattr(simplex, "solve_standard", per_cost_solve)
    each, ref_pivots = _counted(verify)
    assert (pivots, ref_pivots) == (71, 85)
    assert shared == each


def test_parted_costs_keep_one_tableau_copy_alive():
    # z_i + s_i = 1, i < 40: phase 1 leaves every z_i basic, and cost z_k
    # enters s_k, so the 40 costs part at the first basis and each pivots
    # once; that basis is kept once and each column's copy dies with it, so
    # the call peaks near the per-cost loop (about 6 tableaux), not 40
    k = 40
    rows = [[int(j in (i, k + i)) for j in range(2 * k)] + [1] for i in range(k)]
    costs = [([int(j == i) for j in range(2 * k)], 1) for i in range(k)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        copy = [row[:] for row in rows]
        one = tracemalloc.get_traced_memory()[0] - base
        del copy
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got, pivots = _counted(SOLVE, rows, [1] * k, costs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert [r.value for r in got] == [0] * k and pivots == k + k
    assert peak < 10 * one
