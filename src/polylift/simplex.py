"""Exact two-phase primal simplex on standard-form problems.

Solves  min c·z  subject to  A z = b,  z >= 0  over Fractions, with Bland's
smallest-index rule for both the entering and the leaving variable, which
guarantees termination without any tolerance (every comparison is exact).
One call takes a list of costs over the same rows: phase 1 runs once, and
each cost gets its own phase 2 from a copy of the phase-1 tableau and basis,
so the result for a cost does not depend on the other costs in the call.
In lex mode the costs are instead optimized in order on one shared tableau:
after cost j is optimal, every nonbasic column with a nonzero reduced cost is
barred from entering (it must stay 0 on the optimal face), and cost j+1
starts from the current basis, so each cost is minimized over the optimal
face of the costs before it.

Artificial variables are kept implicit: phase 1 starts from the all-artificial
basis, their columns are never stored, and after phase 1 remaining zero-level
artificials are pivoted out or their (dependent) rows dropped.  The simplex
is primal only: a result carries a point, a value or a ray, never a dual
vector; certificates are solutions of a dual LP (see `kernel.lp_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolationError

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class StandardResult:
    status: str
    point: list[Fraction] | None = None
    value: Fraction | None = None
    ray: list[Fraction] | None = None  # unbounded: improving ray in z


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
    """Bland pivots until objs[0] is optimal over the columns allowed to enter.

    `cols` lists those columns in increasing order.  Returns None on
    optimality, or the entering column index if unbounded.
    """
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


def solve_standard(a_rows, b, costs, lex: bool = False) -> list[StandardResult]:
    """Solve min cost·z s.t. a_rows z = b, z >= 0 exactly, for each cost.

    `a_rows` is a sequence of coefficient lists (copied), `b` a sequence of
    Fractions and `costs` a non-empty list of cost sequences, one result per
    cost in order.  Phase 1 runs once; each cost runs phase 2 on its own
    copy of the phase-1 tableau and basis, so every result equals that of a
    one-cost call.

    With `lex=True` result j minimizes costs[j] over the optimal face of
    costs[0..j-1] (lexicographic optimization): the costs share one tableau,
    and the list ends at the first UNBOUNDED result.
    """
    m = len(a_rows)
    n = len(costs[0])
    tab = [list(row) for row in a_rows]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            tab[i] = [-x for x in tab[i]]
            rhs[i] = -rhs[i]
    basis = [n + i for i in range(m)]  # artificial ids n .. n+m-1

    # Phase 1: minimize the sum of artificials.
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

    # Drive zero-level artificials out of the basis; drop dependent rows.
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
    return [
        _phase2([row[:] for row in tab], rhs[:], basis[:], cost, list(range(n)))
        for cost in costs
    ]


def _phase2(tab, rhs, basis, cost, cols) -> StandardResult:
    """Phase 2 of one cost from a feasible basis, pivoting on the tableau it
    is given and entering only columns in `cols`.  At the optimum `cols` is
    narrowed to the columns free to move on the optimal face."""
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

    # a nonbasic column with a positive reduced cost is 0 on the optimal face
    cols[:] = [j for j in cols if not obj2[j]]
    value = sum((c * x for c, x in zip(cost, point) if c and x), ZERO)
    return StandardResult(status=OPTIMAL, point=point, value=value)
