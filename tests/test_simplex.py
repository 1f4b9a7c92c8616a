"""The integer tableau of `simplex.solve_standard`.

The reference below is the Fraction simplex the integer tableau replaced,
kept as it was: the same two phases, Bland rule, drive-out step and lex
mode, with every tableau entry a Fraction.  It takes the Fraction rows and
right-hand sides; `solve_standard` takes each row scaled to integers with
its scale, and each cost likewise (`int_cost`).  Both must return equal results and make the same pivots,
(row, column) for (row, column), on any input: outside lex mode, the pivots
of each cost alone, since a batch makes the pivots its costs share once.
"""

import sys
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from polylift import simplex
from polylift.errors import InvariantViolationError
from polylift.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, StandardResult

F = Fraction
ZERO = F(0)
ONE = F(1)


# ---------------------------------------------------------------------------
# Fraction reference
# ---------------------------------------------------------------------------

def _pivot(tab, rhs, objs, objvals, basis, r, c):
    prow = tab[r]
    piv = prow[c]
    if piv != 1:
        inv = ONE / piv
        tab[r] = prow = [x * inv if x else x for x in prow]
        if rhs[r]:
            rhs[r] *= inv
    nz = [j for j, x in enumerate(prow) if x]
    pb = rhs[r]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
            if pb:
                rhs[i] -= f * pb
    for k, obj in enumerate(objs):
        f = obj[c]
        if f:
            for j in nz:
                obj[j] -= f * prow[j]
            if pb:
                objvals[k] -= f * pb
    basis[r] = c


def _run_phase(tab, rhs, objs, objvals, basis, cols):
    obj = objs[0]
    while True:
        enter = next((j for j in cols if obj[j] < 0), None)
        if enter is None:
            return None
        leave = None
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return enter
        _pivot(tab, rhs, objs, objvals, basis, leave, enter)


def reference_solve(a_rows, b, costs, lex=False):
    m = len(a_rows)
    n = len(costs[0])
    tab = [list(row) for row in a_rows]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            tab[i] = [-x for x in tab[i]]
            rhs[i] = -rhs[i]
    basis = [n + i for i in range(m)]
    obj1 = [ZERO] * n
    for row in tab:
        for j, x in enumerate(row):
            if x:
                obj1[j] -= x
    objs = [obj1]
    objvals = [-sum(rhs)]
    hit = _run_phase(tab, rhs, objs, objvals, basis, range(n))
    if hit is not None:
        raise InvariantViolationError("phase 1 cannot be unbounded")
    if -objvals[0] > 0:
        return [StandardResult(status=INFEASIBLE) for _ in costs]
    i = 0
    while i < len(tab):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j]), None)
            if enter is None:
                del tab[i], rhs[i], basis[i]
                continue
            _pivot(tab, rhs, objs, objvals, basis, i, enter)
        i += 1
    if lex:
        out = []
        cols = list(range(n))
        for cost in costs:
            out.append(_phase2(tab, rhs, basis, cost, cols))
            if out[-1].status == UNBOUNDED:
                break
        return out
    return [_phase2([row[:] for row in tab], rhs[:], basis[:], cost, list(range(n))) for cost in costs]


def _phase2(tab, rhs, basis, cost, cols):
    n = len(cost)
    obj2 = list(cost)
    objval2 = ZERO
    for i, v in enumerate(basis):
        cv = cost[v]
        if cv:
            row = tab[i]
            for j, x in enumerate(row):
                if x:
                    obj2[j] -= cv * x
            objval2 -= cv * rhs[i]
    objs = [obj2]
    objvals = [objval2]
    hit = _run_phase(tab, rhs, objs, objvals, basis, cols)
    point = [ZERO] * n
    for i, v in enumerate(basis):
        point[v] = rhs[i]
    if hit is not None:
        ray = [ZERO] * n
        ray[hit] = ONE
        for i, v in enumerate(basis):
            if tab[i][hit]:
                ray[v] = -tab[i][hit]
        return StandardResult(status=UNBOUNDED, point=point, ray=ray)
    cols[:] = [j for j in cols if not obj2[j]]
    value = sum((c * x for c, x in zip(cost, point) if c and x), ZERO)
    return StandardResult(status=OPTIMAL, point=point, value=value)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _integer_rows(rows, rhs):
    """The rows and right-hand sides as `solve_standard` takes them: each row
    with its rhs last, times the least d > 0 that makes it integral and
    negated when its rhs is negative, and the d of each row."""
    ints, scales = [], []
    for row, b in zip(rows, rhs):
        d = lcm(b.denominator, *(x.denominator for x in row))
        k = -d if b < 0 else d
        ints.append([int(k * x) for x in row] + [int(k * b)])
        scales.append(d)
    return ints, scales


def int_cost(cost):
    """A Fraction cost as `solve_standard` takes it: (integers, scale), the
    cost times the lcm of its denominators."""
    w = lcm(*[x.denominator for x in cost])
    return [int(x * w) for x in cost], w


def int_pairs(cost):
    """A Fraction cost as `kernel._assemble_standard` takes it: (nonzero
    (index, integer) pairs, scale)."""
    ints, w = int_cost(cost)
    return [(j, x) for j, x in enumerate(ints) if x], w


def _recorded(module, solve, *args, lex):
    """solve's results and its (row, column) pivots, read off module._pivot."""
    pivots = []
    pivot = module._pivot

    def recording(*args):
        pivots.append(args[-2:])
        return pivot(*args)

    module._pivot = recording
    try:
        return solve(*args, lex=lex), pivots
    finally:
        module._pivot = pivot


def _solve_one_rhs(*args, lex):
    """solve_standard on one right-hand side: a lex call returns one result
    list per right-hand side, here the only one."""
    results = simplex.solve_standard(*args, lex=lex)
    return results[0] if lex else results


def _assert_same(rows, rhs, costs, lex=False):
    got = _recorded(simplex, _solve_one_rhs, *_integer_rows(rows, rhs), [int_cost(c) for c in costs], lex=lex)
    want = _recorded(
        sys.modules[__name__], reference_solve, [list(r) for r in rows], list(rhs), [list(c) for c in costs], lex=lex
    )
    if lex or len(costs) == 1:
        assert got == want
        return got[0]
    # a batch pivots once for the costs whose Bland paths agree: its results
    # are compared, and each cost's pivots in a call of its own
    assert got[0] == want[0]
    for cost in costs:
        _assert_same(rows, rhs, [cost])
    return got[0]


fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 7))
entries = st.one_of(st.just(ZERO), st.just(ZERO), fractions)


@st.composite
def standard_problems(draw):
    """(rows, rhs, costs, lex) with fractional entries, rows of mixed sign,
    some feasible by construction, duplicate and dependent rows, and
    columns that may let a cost fall without bound."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.integers(0, 2)):
        # b = A z0 for some z0 >= 0 with zeros in it: feasible, often degenerate
        z0 = draw(st.lists(st.one_of(st.just(ZERO), fractions.map(abs)), min_size=n, max_size=n))
        rhs = [sum((a * z for a, z in zip(row, z0)), ZERO) for row in rows]
    else:
        rhs = draw(st.lists(fractions, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        # a multiple of one row plus a multiple of another, right-hand side
        # matching (a dependent row) or off by one (an inconsistent one)
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        s, t = draw(fractions), draw(fractions)
        rows.append([s * x + t * y for x, y in zip(rows[i], rows[k])])
        rhs.append(s * rhs[i] + t * rhs[k] + draw(st.sampled_from([ZERO, ZERO, ONE])))
    costs = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4))
    return rows, rhs, costs, draw(st.booleans())


@settings(deadline=None, derandomize=True, max_examples=400)
@given(standard_problems())
def test_integer_tableau_matches_fraction_reference(case):
    _assert_same(*case)


def test_each_branch_matches_the_reference():
    # a row twice and the sum of two rows: phase 1 leaves two zero-level
    # artificials whose rows are dependent and get dropped
    rows = [[F(1, 2), F(1), ZERO], [ZERO, F(2, 3), F(1, 5)], [F(1, 2), F(1), ZERO], [F(1, 2), F(5, 3), F(1, 5)]]
    rhs = [F(1), F(2), F(1), F(3)]
    costs = [[F(1), F(-1), F(2)], [ZERO, ZERO, ZERO]]
    assert [r.status for r in _assert_same(rows, rhs, costs)] == [OPTIMAL, OPTIMAL]
    # a zero-level artificial that pivots out on a negative entry, a zero
    # row dropped, then a phase-2 pivot
    rows = [[ZERO, F(-1, 2), ZERO], [F(1, 3), F(1), F(1)], [ZERO, ZERO, ZERO]]
    [res] = _assert_same(rows, [ZERO, ONE, ZERO], [[ONE, ONE, ONE]])
    assert res == StandardResult(OPTIMAL, point=[ZERO, ZERO, ONE], value=ONE)
    # inconsistent: a row and the same row with another right-hand side
    rows = [[F(1, 3), F(1)], [F(1, 3), F(1)]]
    assert [r.status for r in _assert_same(rows, [F(1), F(2)], [[F(1), F(1)]] * 2)] == [INFEASIBLE] * 2
    # unbounded: z1 - z0 = 1 lets z0 and z1 grow together
    rows = [[F(-1, 2), F(1, 3)]]
    results = _assert_same(rows, [F(1, 6)], [[F(-1), ZERO], [F(1), ZERO]])
    assert [r.status for r in results] == [UNBOUNDED, OPTIMAL]
    # lex: min z0 and then min z2 bar both from entering; max z3, growing
    # with z1, is unbounded on that face and ends the list
    rows = [[F(1, 2), F(1, 3), F(-1, 5), F(-1)]]
    costs = [[ONE, ZERO, ZERO, ZERO], [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, -ONE], [ONE] * 4]
    results = _assert_same(rows, [F(1, 3)], costs, lex=True)
    assert [r.status for r in results] == [OPTIMAL, OPTIMAL, UNBOUNDED]
    assert results[2].ray == [ZERO, F(3), ZERO, ONE]
    # no rows, and no columns
    assert _assert_same([], [], [[F(1), F(-1)]])[0].status == UNBOUNDED
    assert _assert_same([[]], [ZERO], [[]])[0] == StandardResult(OPTIMAL, point=[], value=ZERO)


def test_results_are_fractions():
    # the row z0/2 + z1/3 = 1/2 goes in as [3, 2, 3] with scale 6; z1 = 3/2
    # is its rhs over its entry in column 1
    [res] = simplex.solve_standard([[3, 2, 3]], [6], [int_cost([F(1), ZERO])])
    assert res == StandardResult(OPTIMAL, point=[ZERO, F(3, 2)], value=ZERO)
    assert all(type(x) is Fraction for x in res.point)


# ---------------------------------------------------------------------------
# Lex mode on a one-point face
# ---------------------------------------------------------------------------

def lex_every_phase2(rows, scales, costs):
    """`solve_standard(rows, scales, costs, lex=True)` as it was before it
    stopped at a one-point face: the same integer phase 1 and drive-out,
    then one `_phase2` per cost, however small the optimal face."""
    tab = rows
    n = len(costs[0][0])
    basis = [n + i for i in range(len(tab))]
    common = lcm(*scales)
    obj1 = [0] * (n + 1)
    for row, d in zip(tab, scales):
        for j, x in enumerate(row):
            if x:
                obj1[j] -= common // d * x
    assert simplex._run_phase(tab, [obj1], basis, range(n)) == [None]
    if obj1[-1] < 0:
        return [StandardResult(status=INFEASIBLE) for _ in costs]
    i = 0
    while i < len(tab):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tab[i][j]), None)
            if enter is None:
                del tab[i], basis[i]
                continue
            simplex._pivot(tab, [], basis, i, enter)
        i += 1
    out = []
    cols = list(range(n))
    for cost in costs:
        out.append(simplex._phase2(tab, basis, cost, cols))
        if out[-1].status == UNBOUNDED:
            break
    return out


def _assert_lex_same(rows, rhs, costs):
    """solve_standard(lex=True) and lex_every_phase2 give equal results and
    make the same pivots; returns the results and the phase 2 count of
    solve_standard."""
    phase2, calls = simplex._phase2, []

    def counted(*args):
        calls.append(1)
        return phase2(*args)

    simplex._phase2 = counted
    try:
        got = _recorded(simplex, _solve_one_rhs, *_integer_rows(rows, rhs), [int_cost(c) for c in costs], lex=True)
    finally:
        simplex._phase2 = phase2
    want = _recorded(simplex, lambda *a, lex: lex_every_phase2(*a), *_integer_rows(rows, rhs),
                     [int_cost(c) for c in costs], lex=True)
    assert got == want
    return got[0], len(calls)


@st.composite
def lex_problems(draw):
    """Feasible systems with repeated columns (a nonbasic copy of a basic
    column keeps a zero reduced cost) and zero rows in the costs, and cost
    lists that run past the point where the optimal face is one point: the
    unit costs of lex_min_point, zero costs, and costs of any sign."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in rows:
            row[dst] = row[src]
    z0 = draw(st.lists(st.one_of(st.just(ZERO), fractions.map(abs)), min_size=n, max_size=n))
    rhs = [sum((a * z for a, z in zip(row, z0)), ZERO) for row in rows]
    unit = lambda j: [ONE if k == j else ZERO for k in range(n)]
    pool = st.one_of(st.integers(0, n - 1).map(unit), st.just([ZERO] * n), st.lists(entries, min_size=n, max_size=n))
    costs = draw(st.lists(pool, min_size=1, max_size=n + 3))
    return rows, rhs, costs


@settings(deadline=None, derandomize=True, max_examples=400)
@given(lex_problems())
def test_lex_point_stop_matches_every_phase2(case):
    _assert_lex_same(*case)


def test_lex_point_stop_skips_phase2():
    # z0 + z1 = 1, z2 + z3 = 1: min z0 bars z0, min z1 bars nothing, min z2
    # bars z2, and the face {z1 = z3 = 1} is a point, so min z3 takes no phase 2
    rows = [[ONE, ONE, ZERO, ZERO], [ZERO, ZERO, ONE, ONE]]
    costs = [[ONE if k == j else ZERO for k in range(4)] for j in range(4)]
    results, phase2s = _assert_lex_same(rows, [ONE, ONE], costs)
    assert phase2s == 3
    assert results[3] == StandardResult(OPTIMAL, point=[ZERO, ONE, ZERO, ONE], value=ONE)
    # one feasible point from the start: no phase 2 at all, and no list shared
    results, phase2s = _assert_lex_same([[F(1, 2), ZERO], [ZERO, F(2)]], [ONE, ONE], [[ONE, ONE], [ONE, -ONE]])
    assert phase2s == 0
    assert [(r.point, r.value) for r in results] == [([F(2), F(1, 2)], F(5, 2)), ([F(2), F(1, 2)], F(3, 2))]
    assert results[0].point is not results[1].point
