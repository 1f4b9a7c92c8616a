"""Exact two-phase simplex on standard-form problems.

Solves  min c·z  subject to  A z = b,  z >= 0  exactly, with Bland's
smallest-index rule for both the entering and the leaving variable, which
guarantees termination without any tolerance (every comparison is exact).
One call takes a list of costs over the same rows: phase 1 runs once, and
the costs share phase 2's Bland steps until their paths part, so each cost
takes the path, and gets the result, it would have in a call of its own.
In lex mode the costs are instead optimized in order on one shared tableau:
after cost j is optimal, every nonbasic column with a nonzero reduced cost is
barred from entering (it must stay 0 on the optimal face), and cost j+1
starts from the current basis, so each cost is minimized over the optimal
face of the costs before it.  Once every nonbasic column is barred, that
face is the current point, and each cost left is read off it with no
phase 2.  Before that, a cost is priced over the free columns off the rows
of its own basic columns alone (a coordinate's unit cost touches at most
two rows), and only a cost that some free column improves builds a full
objective row and takes phase 2.  This is the lexicographic simplex of
Dantzig, Orden and Wolfe (1955), priced only where a column can move.

A lex call may also be a batch over right-hand sides that share A (Lemke
1954; Applegate, Cook, Dash and Espinoza 2007 on exact LP through basis
reuse).  Each row whose b varies carries a unit column, which every pivot
updates as it does the others, so each tableau row holds in those columns
its multipliers of the varying rows, and a new b moves each row's rhs by
those multipliers times the change.  Phase 1 runs once, for the first
right-hand side, and every artificial it leaves in the basis is then
pivoted out, whatever its level, so each later b starts from a basis of
A's columns: the one the solve before it left, feasible or not.  Under
cost 0 every basis is optimal, so dual-simplex pivots under cost 0 restore
feasibility, or show that a row cannot reach its negative rhs, and the lex
phase 2 follows.  A row dropped as dependent reads 0 = its rhs, moved by
its multipliers times the change, so that b is feasible only if it reads 0.

The tableau is integer, and so is its input: each row comes in as a
positive integer multiple of the true row, right-hand side last and negated
where that is negative, with the multiple as its scale, and each cost as
integers with a scale.  `kernel._assemble_standard` builds them from
`HPoly._int_rows` and `_Reduction.reduce`, so no Fraction enters the
tableau.  Each row stays a positive multiple of the true row, and each
objective row of the true reduced costs (its value entry last).  The pivot
rules read only signs, zeros and ratios within a row, which such multiples
keep, so the pivots are those of the same simplex over Fractions.  A pivot on entry p > 0 (the pivot row's
sign is flipped first, and the row divided by the gcd of its entries)
updates a row whose entry in the pivot column is f as
`row - (f // p) * prow` when p divides f, and otherwise as
`p * row - f * prow` divided by the gcd of its entries: the integer
pivoting of Edmonds (1967) and lrs, with one scale per row.  The true entry
of a row in its basic column is 1, so that column's stored entry is the
row's scale; Fractions are built from it once per result entry.

Artificial variables are kept implicit: phase 1 starts from the all-artificial
basis, their columns are never stored, and after a feasible phase 1, or
before a later right-hand side, the artificials left in the basis are
pivoted out or their (dependent) rows dropped (`_drive_out`).  A result
carries a point, a value or a ray, never a dual vector; certificates are
solutions of a dual LP (see `kernel.lp_solve`).  Its point is kept as the
basic variables' (rhs, entry) pairs, which give the value, and is built as
Fractions only when read: most results are read for their value alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .errors import InvariantViolationError

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _OnRead:
    """A dataclass field that may be given a `functools.partial`: the first
    read calls it and keeps the value, which equality, hash and repr read."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        if type(x := obj.__dict__[self.key]) is partial:
            x = obj.__dict__[self.key] = x()
        return x

    def __set__(self, obj, value):
        obj.__dict__[self.key] = value


@dataclass
class StandardResult:
    status: str
    point: list[Fraction] | None = _OnRead()  # built on first read
    value: Fraction | None = None
    ray: list[Fraction] | None = None  # unbounded: improving ray in z


def _pivot(tab, objs, basis, r, c):
    prow = tab[r]
    p = prow[c]
    nz = [j for j, x in enumerate(prow) if x]
    if p < 0:
        p = -p
        for j in nz:
            prow[j] = -prow[j]
    if p != 1:
        # a smaller pivot divides more entries: fewer rows cross-multiply
        g = p
        for j in nz:
            g = gcd(g, prow[j])
            if g == 1:
                break
        if g != 1:
            for j in nz:
                prow[j] //= g
            p //= g
    for rows in (tab, objs):
        for row in rows:
            f = row[c]
            if not f or row is prow:
                continue
            if f % p == 0:
                q = f // p
                for j in nz:
                    row[j] -= q * prow[j]
                continue
            for j, x in enumerate(row):
                if x:
                    row[j] = x * p
            for j in nz:
                row[j] -= f * prow[j]
            g = 0
            for x in row:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g != 1:
                for j, x in enumerate(row):
                    if x:
                        row[j] = x // g
    basis[r] = c


def _run_phase(tab, objs, basis, cols):
    """Bland pivots while the objective rows `objs` agree on the entering
    column, the first in `cols` (increasing) where a row is negative.  Returns
    each row's entering column where they part or stop: None when optimal, and
    a column they all share only when no row bounds it."""
    while True:
        enters = [next((j for j in cols if obj[j] < 0), None) for obj in objs]
        enter = enters[0]
        if enter is None or enters.count(enter) < len(enters):
            return enters
        # ratio test rhs/a over rows with a > 0, compared by cross-multiplying
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
            return enters
        _pivot(tab, objs, basis, leave, enter)


def solve_standard(rows, scales, costs, lex: bool = False, shifts=()) -> list:
    """Solve min cost·z s.t. A z = b, z >= 0 exactly, for each cost.

    `rows[i]` is d_i·(row i of A, b_i) in integers, negated when b_i < 0,
    and `scales[i]` is d_i > 0 (`kernel._assemble_standard` gives the least
    d_i; any gives the same pivots).  The lists become the tableau and are
    pivoted in place.  `costs` is a non-empty list of (integer list, scale)
    pairs, cost = list/scale, scale > 0, one result per cost in order.
    Phase 1 runs once; the costs share each phase-2 pivot until their Bland
    paths part, so every result equals that of a one-cost call.

    With `lex=True` result j minimizes costs[j] over the optimal face of
    costs[0..j-1] (lexicographic optimization): the costs share one tableau,
    and the list ends at the first UNBOUNDED result.  A cost whose face is a
    single point, or that no free column improves, gets the current point
    and its value with no phase 2, the result and pivots phase 2 would
    give.  A lex call is a batch over right-hand sides and returns one such
    list per right-hand side: the rows' own b first, then one per shift.
    Each row whose b_i varies owns a unit column, placed after A's columns
    with entry d_i as a slack's; each shift lists, per unit column, how far
    that b_i moves from the right-hand side before it.
    """
    n = len(costs[0][0])
    basis, ok = _phase1(rows, scales, n)
    dropped = _drive_out(rows, basis, n) if ok or shifts else []
    if not lex:
        return _shared_phase2(rows, basis, costs, n) if ok else [StandardResult(status=INFEASIBLE) for _ in costs]
    supports = [[j for j, x in enumerate(icost) if x] for icost, _ in costs]
    out = [_lex(rows, basis, costs, supports, n) if ok else [StandardResult(status=INFEASIBLE) for _ in costs]]
    for shift in shifts:
        # a dropped row reads 0 = its rhs, moved by its unit entries · shift
        _shift(rows + dropped, n, shift)
        ok = not any(row[-1] for row in dropped) and _dual(rows, basis, n)
        out.append(_lex(rows, basis, costs, supports, n) if ok else [StandardResult(status=INFEASIBLE) for _ in costs])
    return out


def _phase1(tab, scales, n):
    """Phase 1 from the all-artificial basis: the basis it leaves, and
    whether the rows are feasible.  It minimizes the sum of artificials,
    i.e. of the true rows: the row scales differ, so each row counts divided
    by its own."""
    basis = [n + i for i in range(len(tab))]  # one artificial id per row, from n
    common = lcm(*scales)
    obj1 = [0] * (len(tab[0]) if tab else n + 1)
    for row, d in zip(tab, scales):
        k = common // d
        for j, x in enumerate(row):
            if x:
                obj1[j] -= k * x
    [hit] = _run_phase(tab, [obj1], basis, range(n))
    if hit is not None:
        raise InvariantViolationError("phase 1 cannot be unbounded")
    return basis, obj1[-1] >= 0


def _drive_out(tab, basis, n) -> list:
    """Pivot each artificial left in the basis out, whatever its level, on
    the first nonzero entry of its row in A's columns, or drop its row, then
    dependent, from tab and the basis; returns the rows dropped.  An rhs may
    turn negative only after an infeasible phase 1."""
    dropped = []
    i = 0
    while i < len(tab):
        if basis[i] >= n:
            row = tab[i]
            enter = next((j for j in range(n) if row[j]), None)
            if enter is None:
                dropped.append(tab.pop(i))
                del basis[i]
                continue
            _pivot(tab, [], basis, i, enter)
        i += 1
    return dropped


def _shift(rows, n, delta):
    """Move b by delta, the change of the true b_i of the unit-column rows.
    A tableau row holds c_k in unit column n+k when it is c_k times row k
    plus rows whose b is fixed, so its rhs moves by the sum of c_k·delta_k;
    the row is first multiplied by the least integer that keeps it integral."""
    den = lcm(*[x.denominator for x in delta])
    moves = [(n + k, x.numerator * (den // x.denominator)) for k, x in enumerate(delta) if x]
    for row in rows:
        s = 0
        for j, x in moves:
            if row[j]:
                s += row[j] * x
        if s:
            g = den // gcd(s, den)
            if g != 1:
                for j, x in enumerate(row):
                    if x:
                        row[j] = x * g
            row[-1] += s * g // den


def _dual(tab, basis, n) -> bool:
    """Dual simplex pivots to a feasible basis under cost 0, for which every
    basis is optimal, so every ratio of the dual ratio test is 0.  Bland's
    rule: the row of the least basic variable below 0 leaves, and the first
    column with a negative entry there enters.  False when that row has no
    negative entry: it reads a nonnegative sum equal to a negative rhs."""
    while True:
        leave = min((i for i, row in enumerate(tab) if row[-1] < 0), key=basis.__getitem__, default=None)
        if leave is None:
            return True
        row = tab[leave]
        enter = next((j for j in range(n) if row[j] < 0), None)
        if enter is None:
            return False
        _pivot(tab, [], basis, leave, enter)


def _lex(tab, basis, costs, supports, n) -> list[StandardResult]:
    """Lex mode's phase 2 from a feasible basis (see `solve_standard`);
    supports[j] lists the nonzero columns of costs[j].  Phase 2 runs only
    for a cost with a free column that prices negative (`_priced`); any
    other cost is optimal where it stands, and `cols` narrows as phase 2
    would narrow it."""
    out = []
    cols = list(range(n))
    at = None  # each basic column's row, and the basic solution, until a pivot
    for cost, support in zip(costs, supports):
        if at is None:
            at, basic = {v: i for i, v in enumerate(basis)}, _basic(tab, basis)
        # basic columns are never barred, so once every nonbasic one is, the
        # optimal face is the current point and no column enters
        if len(cols) > len(basis):
            obj = _priced(tab, at, cost[0], support, cols)
            if any(x < 0 for x in obj):
                out.append(_phase2(tab, basis, cost, cols))
                if out[-1].status == UNBOUNDED:
                    break
                at = None
                continue
            cols[:] = [j for j, x in zip(cols, obj) if not x]
        out.append(StandardResult(status=OPTIMAL, point=partial(_point, basic, n), value=_value(basic, *cost)))
    return out


def _priced(tab, at, icost, support, cols) -> list[int]:
    """`_reduced(tab, basis, icost)` at cols, read off only the rows whose
    basic column is in icost's support: with no such row, icost itself."""
    rows = [(tab[at[v]], v) for v in support if v in at]
    if not rows:
        return [icost[j] for j in cols]
    common = lcm(*[row[v] for row, v in rows])
    obj = [common * icost[j] for j in cols]
    for row, v in rows:
        k = common * icost[v] // row[v]
        obj = [x - k * row[j] for x, j in zip(obj, cols)]
    return obj


def _shared_phase2(tab, basis, costs, n) -> list[StandardResult]:
    """Phase 2 of every cost from one feasible basis.  At each basis the costs
    part by Bland's entering column: those with none are optimal there, and
    each column goes on for its costs alone.  A basis where columns part is
    kept once: the first goes on in place, popped last, each other on a copy."""
    out = [None] * len(costs)
    # (tableau, basis, copy them first, [(cost index, objective row)])
    stack = [(tab, basis, False, [(k, _reduced(tab, basis, c[0])) for k, c in enumerate(costs)])]
    while stack:
        tab, basis, copy, group = stack.pop()
        if copy:
            tab, basis = [row[:] for row in tab], basis[:]
        groups = {}
        for (k, obj), enter in zip(group, _run_phase(tab, [obj for _, obj in group], basis, range(n))):
            groups.setdefault(enter, []).append((k, obj))
        copy = False
        for enter, group in groups.items():
            if enter is not None and len(groups) > 1:
                stack.append((tab, basis, copy, group))
                copy = True
            else:  # optimal, or unbounded along the column all the group's rows share
                for k, _ in group:
                    out[k] = _result(tab, basis, costs[k], enter, n)
    return out


def _reduced(tab, basis, icost) -> list[int]:
    """The reduced costs of icost: icost - sum of icost[v] * (true row of v),
    times the lcm of the stored entries row[v], each the scale of v's row."""
    n = len(icost)
    common = lcm(*[tab[i][v] for i, v in enumerate(basis) if icost[v]])
    obj = [common * x for x in icost]
    obj += [0] * (len(tab[0]) - n) if tab else [0]  # unit columns, rhs
    for i, v in enumerate(basis):
        if obj[v]:
            row = tab[i]
            k = obj[v] // row[v]  # exact: common is a multiple of row[v]
            for j, x in enumerate(row):
                if x:
                    obj[j] -= k * x
    return obj


def _phase2(tab, basis, cost, cols) -> StandardResult:
    """Lex mode's phase 2 of one cost from a feasible basis, pivoting on the
    tableau it is given and entering only columns in `cols`.  At the optimum
    `cols` is narrowed to the columns free to move on the optimal face."""
    obj2 = _reduced(tab, basis, cost[0])
    [hit] = _run_phase(tab, [obj2], basis, cols)
    if hit is None:
        # a nonbasic column with a positive reduced cost is 0 on the optimal face
        cols[:] = [j for j in cols if not obj2[j]]
    return _result(tab, basis, cost, hit, len(cost[0]))


def _result(tab, basis, cost, hit, n) -> StandardResult:
    """Phase 2's result where it stops: optimal, or unbounded along `hit`."""
    basic = _basic(tab, basis)
    point = partial(_point, basic, n)
    if hit is None:
        return StandardResult(status=OPTIMAL, point=point, value=_value(basic, *cost))
    ray = [ZERO] * n
    ray[hit] = ONE
    for i, v in enumerate(basis):
        a = tab[i][hit]
        if a:
            ray[v] = Fraction(-a, tab[i][v])
    return StandardResult(status=UNBOUNDED, point=point, ray=ray)


def _value(basic, icost, w) -> Fraction:
    """icost·z / w at the basic solution: one Fraction from integer sums."""
    den = lcm(*[e for v, _, e in basic if icost[v]])
    return Fraction(sum([icost[v] * x * (den // e) for v, x, e in basic if icost[v]]), den * w)


def _basic(tab, basis) -> list[tuple[int, int, int]]:
    """(v, rhs, entry) per basic v with rhs != 0: the basic solution, v = rhs/entry."""
    return [(v, row[-1], row[v]) for row, v in zip(tab, basis) if row[-1]]


def _point(basic, n) -> list[Fraction]:
    """The basic solution as Fractions; every variable not in basic is 0."""
    point = [ZERO] * n
    for v, x, e in basic:
        point[v] = Fraction(x, e)
    return point
