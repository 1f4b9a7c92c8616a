"""The sparse presolve of `kernel._presolve` and `kernel._Reduction`.

The reference below is the dense presolve the sparse one replaced, kept as
it was: every row a full list over all variables of Fractions, each pass
re-reading the support of every row.  Both must make the same eliminations
in the same order and hand the simplex the same reduced rows, on any input:
the integer rows divided by their scales equal the reference's Fraction
rows.  The Fraction standard form built from those rows, each row then
scaled to integers as the simplex once did itself, must equal the integer
rows and scales of `kernel._assemble_standard`.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from polylift import kernel
from polylift.kernel import HPoly
from test_simplex import int_pairs

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# Dense reference
# ---------------------------------------------------------------------------

class _Reduction:
    """Presolve record: eliminated variables as affine functions of survivors."""

    def __init__(self, dim):
        self.dim = dim
        self.alive = list(range(dim))
        self.elim: list[tuple[int, list[Fraction], Fraction]] = []
        self.infeasible = False
        self.ineqs: list[tuple[list[Fraction], Fraction]] = []
        self.eqs: list[tuple[list[Fraction], Fraction]] = []
        self.nonneg: list[bool] = []

    def objective(self, c):
        """(survivor coefficients, constant) of c·x after the eliminations."""
        obj = list(c)
        const = ZERO
        for j, expr, ej in self.elim:
            f = obj[j]
            if f:
                obj[j] = ZERO
                for k, ek in enumerate(expr):
                    if ek:
                        obj[k] += f * ek
                const += f * ej
        return [obj[j] for j in self.alive], const

    def back(self, xr, ray: bool = False):
        """Full-dimensional vector from survivor values; a ray drops the constants."""
        full = [None] * self.dim
        for pos, j in enumerate(self.alive):
            full[j] = xr[pos]
        for j, coeffs, const in reversed(self.elim):
            s = ZERO if ray else const
            for k, ck in enumerate(coeffs):
                if ck:
                    s += ck * full[k]
            full[j] = s
        return tuple(full)


def _presolve(poly: HPoly) -> _Reduction:
    """Eliminate variables fixed or tied by short equations; the eliminations
    depend on the rows only, so objectives are reduced afterwards."""
    dim = poly.dim
    red = _Reduction(dim)
    ineqs = [(list(a), b) for a, b in poly.ineqs]
    eqs = [(list(c), d) for c, d in poly.eqs]
    alive = [True] * dim
    nonneg = [False] * dim
    elim: list[tuple[int, list[Fraction], Fraction]] = []

    def substitute(j, expr, const):
        for rows in (ineqs, eqs):
            for idx, (a, b) in enumerate(rows):
                f = a[j]
                if f:
                    a[j] = ZERO
                    for k, ek in enumerate(expr):
                        if ek:
                            a[k] += f * ek
                    rows[idx] = (a, b - f * const)
        if nonneg[j]:
            # keep the sign constraint of the eliminated variable: -expr <= const
            ineqs.append(([-ek for ek in expr], const))
        alive[j] = False
        elim.append((j, expr, const))

    changed = True
    while changed:
        changed = False
        kept_ineqs = []
        for a, b in ineqs:
            support = [j for j in range(dim) if alive[j] and a[j]]
            if not support:
                if b < 0:
                    red.infeasible = True
                    return red
                continue
            if len(support) == 1 and b == 0 and a[support[0]] < 0:
                nonneg[support[0]] = True
                continue
            kept_ineqs.append((a, b))
        ineqs = kept_ineqs
        # one elimination per pass; substitute() mutates rows in place, so the
        # scan restarts to avoid acting on stale copies
        for idx, (c, d) in enumerate(eqs):
            support = [j for j in range(dim) if alive[j] and c[j]]
            if len(support) > 2:
                continue
            del eqs[idx]
            if not support:
                if d != 0:
                    red.infeasible = True
                    return red
            elif len(support) == 1:
                j = support[0]
                substitute(j, [ZERO] * dim, d / c[j])
            else:
                k, j = support  # eliminate the higher index
                expr = [ZERO] * dim
                expr[k] = -c[k] / c[j]
                substitute(j, expr, d / c[j])
            changed = True
            break

    red.alive = [j for j in range(dim) if alive[j]]
    red.elim = elim
    red.ineqs = [([a[j] for j in red.alive], b) for a, b in ineqs]
    red.eqs = [([c[j] for j in red.alive], d) for c, d in eqs]
    red.nonneg = [nonneg[j] for j in red.alive]
    return red


# ---------------------------------------------------------------------------
# Fraction standard form reference
# ---------------------------------------------------------------------------

def _assemble_fractions(dim, ineqs, eqs, costs_min, nonneg):
    """Dense Fraction standard form of dense Fraction rows; returns (rows,
    rhs, costs, var_cols)."""
    var_cols = []
    ncol = 0
    for j in range(dim):
        if nonneg[j]:
            var_cols.append((ncol, None))
            ncol += 1
        else:
            var_cols.append((ncol, ncol + 1))
            ncol += 2
    nslack = len(ineqs)
    total = ncol + nslack
    rows = []
    rhs = []
    for s, (a, b) in enumerate(ineqs):
        row = [ZERO] * total
        for j, coef in enumerate(a):
            if coef:
                p, q = var_cols[j]
                row[p] = coef
                if q is not None:
                    row[q] = -coef
        row[ncol + s] = F(1)
        rows.append(row)
        rhs.append(b)
    for c, d in eqs:
        row = [ZERO] * total
        for j, coef in enumerate(c):
            if coef:
                p, q = var_cols[j]
                row[p] = coef
                if q is not None:
                    row[q] = -coef
        rows.append(row)
        rhs.append(d)
    costs = []
    for cost_min in costs_min:
        cost = [ZERO] * total
        for j, cj in enumerate(cost_min):
            if cj:
                p, q = var_cols[j]
                cost[p] = cj
                if q is not None:
                    cost[q] = -cj
        costs.append(cost)
    return rows, rhs, costs, var_cols


def _scale(row: list, k: int) -> int:
    """Replace the rationals of `row` in place by k * d times them, for the
    least d > 0 that makes every entry integral; returns d."""
    d = 1
    for j, x in enumerate(row):
        num = x.numerator
        if num:
            den = x.denominator
            if d % den:
                # a new denominator: scale the entries done so far to it
                f = den // gcd(d, den)
                for i in range(j):
                    row[i] *= f
                d *= f
            row[j] = k * num * (d // den)
        else:
            row[j] = 0
    return d


def _standard_reference(red, costs_min):
    """(rows, scales, costs, var_cols) from the dense presolve through the
    Fraction assembly, each row with its rhs scaled as by `_scale`."""
    rows, rhs, costs, var_cols = _assemble_fractions(len(red.alive), red.ineqs, red.eqs, costs_min, red.nonneg)
    scales = []
    for row, b in zip(rows, rhs):
        row.append(b)
        scales.append(_scale(row, -1 if b < 0 else 1))
    return rows, scales, costs, var_cols


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

COEFS = [F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3)]
VALUES = [F(v) for v in range(-3, 4)] + [F(1, 2), F(-5, 3)]


@st.composite
def presolve_cases(draw):
    """A polyhedron built to reach every path of the presolve, an objective,
    and survivor values for back()."""
    dim = draw(st.integers(0, 6))
    coef = st.sampled_from(COEFS)
    value = st.sampled_from(VALUES)
    var = st.integers(0, dim - 1) if dim else st.nothing()

    def row(support):
        a = [ZERO] * dim
        for j in support:
            a[j] = draw(coef)
        return a

    def random_support(lo, hi):
        return draw(st.permutations(range(dim)))[: draw(st.integers(min(lo, dim), min(hi, dim)))]

    eqs, ineqs = [], []
    for kind in draw(st.lists(st.sampled_from(["chain", "fix", "short", "long", "empty", "zero"]), max_size=6)):
        if kind == "empty":
            # 0 = d: infeasible unless d = 0
            eqs.append((row([]), draw(value)))
        elif kind == "zero":
            eqs.append((row([]), ZERO))
        elif kind == "chain" and dim >= 2:
            # x_p0 tied to x_p1 tied to x_p2 ...: each elimination shortens the next
            order = draw(st.permutations(range(dim)))[: draw(st.integers(2, dim))]
            for k, j in zip(order, order[1:]):
                eqs.append((row([k, j]), draw(value)))
        elif kind == "fix" and dim:
            eqs.append((row([draw(var)]), draw(value)))
        elif kind == "short":
            eqs.append((row(random_support(1, 2)), draw(value)))
        elif kind == "long":
            eqs.append((row(random_support(3, dim)), draw(value)))
    # duplicate and dependent equations: the copy is empty once the first is used
    for c, d in draw(st.lists(st.sampled_from(eqs), max_size=2)) if eqs else []:
        m = draw(coef)
        eqs.insert(draw(st.integers(0, len(eqs))), ([m * x for x in c], m * d))
    for kind in draw(st.lists(st.sampled_from(["sign", "bound", "random", "empty"]), max_size=7)):
        if kind == "sign" and dim:
            # -c x_j <= 0 marks x_j nonnegative, also when x_j is eliminated later
            a = [ZERO] * dim
            a[draw(var)] = -abs(draw(coef))
            ineqs.append((a, ZERO))
        elif kind == "bound" and dim:
            # c x_j <= b: empty, and maybe infeasible, once x_j is fixed
            ineqs.append((row([draw(var)]), draw(value)))
        elif kind == "random":
            ineqs.append((row(random_support(1, dim)), draw(value)))
        elif kind == "empty":
            ineqs.append((row([]), draw(value)))
    eqs = draw(st.permutations(eqs))
    ineqs = draw(st.permutations(ineqs))
    c = [draw(value) for _ in range(dim)]
    xr = [draw(value) for _ in range(dim)]
    return HPoly(dim, ineqs, eqs), c, xr


def _pairs(expr):
    return tuple((k, x) for k, x in enumerate(expr) if x)


def eliminations(red):
    """The eliminations of `red.subs` as the reference's Fraction pairs:
    (j, pairs, const) with x_j = sum(coef * x_k for k, coef in pairs) +
    const, solved from the equation c·x = e that x_j was eliminated through."""
    return [(j, tuple((k, F(-ck, c[j])) for k, ck in sorted(c.items()) if k != j), F(e, c[j]))
            for j, (c, e, _) in red.subs]


def _dense(rows, n):
    """Integer rows (nonzero pairs, rhs, d) as dense Fraction rows over n
    variables, each entry divided by d; checks that d is the least scale."""
    out = []
    for nz, b, d in rows:
        assert d > 0 and all(type(x) is int and x for _, x in nz) and type(b) is int
        assert gcd(d, b, *(x for _, x in nz)) == 1
        a = [ZERO] * n
        for j, x in nz:
            assert a[j] == 0
            a[j] = F(x, d)
        out.append((a, F(b, d)))
    return out


def _reduced(red, c):
    """`red.reduce` of the Fraction objective c, read as Fractions:
    (survivor coefficients, constant), as the reference's `objective`."""
    pairs, w = int_pairs(c)
    a, b, d = red.reduce(pairs, 0, w)
    obj = [ZERO] * len(red.alive)
    for p, x in a:
        obj[p] = F(x, d)
    return obj, F(-b, d)


@settings(deadline=None, derandomize=True, max_examples=600)
@given(presolve_cases())
def test_sparse_presolve_matches_dense_reference(case):
    poly, c, xr = case
    ref = _presolve(poly)
    red = kernel._presolve(poly.dim, *poly._int_rows())
    assert red.infeasible == ref.infeasible
    assert red.alive == ref.alive
    assert eliminations(red) == [(j, _pairs(expr), const) for j, expr, const in ref.elim]
    assert all(len(pairs) <= 1 for _, pairs, _ in eliminations(red))
    assert red.nonneg == ref.nonneg
    assert _dense(red.ineqs, len(red.alive)) == ref.ineqs
    assert _dense(red.eqs, len(red.alive)) == ref.eqs
    if red.infeasible:
        return
    assert _reduced(red, c) == ref.objective(c)
    xr = xr[: len(red.alive)]
    ids = [(p, None) for p in range(len(xr))]  # var_cols that read z as the survivors
    assert red.back(xr, ids) == ref.back(xr)
    assert red.back(xr, ids, ray=True) == ref.back(xr, ray=True)


@settings(deadline=None, derandomize=True, max_examples=600)
@given(presolve_cases())
def test_standard_rows_match_the_fraction_assembly(case):
    # the integer rows and scales handed to the simplex are exactly those
    # the Fraction assembly and its per-row scaling gave, on every input
    # the presolve keeps feasible; the infeasible ones agree on that flag
    poly, c, _ = case
    ref = _presolve(poly)
    red = kernel._presolve(poly.dim, *poly._int_rows())
    assert red.infeasible == ref.infeasible
    if red.infeasible:
        return
    costs_min = [ref.objective(c)[0], [-x for x in ref.objective(c)[0]]]
    got = kernel._assemble_standard(len(red.alive), red.ineqs, red.eqs, [int_pairs(x) for x in costs_min], red.nonneg)
    rows, scales, costs, var_cols = got
    assert (rows, scales, [[F(x, w) for x in ints] for ints, w in costs], var_cols) == _standard_reference(ref, costs_min)
    assert all(type(x) is int for row in got[0] for x in row)


def test_sign_row_of_an_eliminated_variable():
    # -x1 <= 0, then x0 + x1 = 3 eliminates x1 = 3 - x0: the sign row
    # becomes x0 <= 3, and x0 = 5 then makes it 0 <= -2
    poly = HPoly(2, [([0, -1], 0)], [([1, 1], 3)])
    red = kernel._presolve(poly.dim, *poly._int_rows())
    assert red.alive == [0] and eliminations(red) == [(1, ((0, F(-1)),), F(3))]
    assert red.ineqs == [([(0, 1)], 3, 1)] and red.nonneg == [False]
    # with |c_j| = 3 the row scales by 3: x1 = 1 - 2/3 x0 >= 0 is
    # 2/3 x0 <= 1, held as 2 x0 <= 3 with d = 3
    poly = HPoly(2, [([0, -1], 0)], [([2, 3], 3)])
    red = kernel._presolve(poly.dim, *poly._int_rows())
    assert eliminations(red) == [(1, ((0, F(-2, 3)),), F(1))]
    assert red.ineqs == [([(0, 2)], 3, 3)]
    poly = HPoly(2, [([0, -1], 0)], [([1, 1], 3), ([1, 0], 5)])
    assert kernel._presolve(poly.dim, *poly._int_rows()).infeasible
