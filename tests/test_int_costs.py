"""Integer objectives from `optimize_all` to the simplex, and the integer
pull-back of `_image_violations`, against local copies of the Fraction
chains they replaced.

The LP reference is the chain as it was: each objective coerced to
Fractions, reduced through the presolve's eliminations as Fractions
(`reference_objective`, the old `_Reduction.objective`), negated for max,
placed as Fractions and rescaled to integers inside each phase 2
(`reference_phase2`).  `optimize_all` must give equal results: status,
optimum, point and ray.  The containment reference pulls each target row
back through the map as Fractions (`AffineMap.pull_back`) and adds its
offset term with a dot product.
"""

from fractions import Fraction
from functools import partial
from math import lcm

from hypothesis import given, settings, strategies as st

from polylift import kernel, linalg, simplex
from polylift.kernel import INFEASIBLE, OPTIMAL, UNBOUNDED, AffineMap, HPoly, LPResult, optimize_all
from polylift.simplex import StandardResult
from test_lp import lp_cases
from test_presolve import eliminations, presolve_cases
from test_simplex import int_pairs

F = Fraction
ZERO = F(0)


# ---------------------------------------------------------------------------
# The Fraction cost chain
# ---------------------------------------------------------------------------

def reference_objective(red, c):
    """(survivor coefficients, constant) of c·x after the eliminations."""
    obj = list(c)
    const = ZERO
    for j, pairs, ej in eliminations(red):
        f = obj[j]
        if f:
            obj[j] = ZERO
            for k, ek in pairs:
                obj[k] += f * ek
            const += f * ej
    return [obj[j] for j in red.alive], const


def reference_phase2(tab, basis, cost, cols):
    """`simplex._phase2` of one Fraction cost, rescaled to integers per call."""
    n = len(cost)
    w = lcm(*[x.denominator for x in cost])
    icost = [x.numerator * (w // x.denominator) for x in cost]
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
    [hit] = simplex._run_phase(tab, [obj2], basis, cols)
    basic = simplex._basic(tab, basis)
    point = partial(simplex._point, basic, n)
    if hit is not None:
        ray = [ZERO] * n
        ray[hit] = F(1)
        for i, v in enumerate(basis):
            a = tab[i][hit]
            if a:
                ray[v] = F(-a, tab[i][v])
        return StandardResult(status=UNBOUNDED, point=point, ray=ray)
    cols[:] = [j for j in cols if not obj2[j]]
    value = sum((cost[v] * F(x, e) for v, x, e in basic if icost[v]), ZERO)
    return StandardResult(status=OPTIMAL, point=point, value=value)


def reference_optimize_all(poly, objectives):
    """`optimize_all` over Fraction costs, for valid input."""
    cs = [(linalg.vec(c), sense) for c, sense in objectives]
    if not cs:
        return []
    red = kernel._presolve(poly.dim, *poly._int_rows())
    if red.infeasible:
        return [LPResult(status=INFEASIBLE) for _ in cs]
    k = len(red.alive)
    rows, scales, _, var_cols = kernel._assemble_standard(k, red.ineqs, red.eqs, [], red.nonneg)
    total = sum(1 if q is None else 2 for _, q in var_cols) + len(red.ineqs)
    costs, consts = [], []
    for c, sense in cs:
        obj, const = reference_objective(red, c)
        cost = [ZERO] * total
        for j, x in enumerate(-x for x in obj) if sense == "max" else enumerate(obj):
            p, q = var_cols[j]
            cost[p] = x
            if q is not None:
                cost[q] = -x
        costs.append(cost)
        consts.append(const)
    basis, ok = simplex._phase1(rows, scales, total)
    if ok:
        simplex._drive_out(rows, basis, total)
    out = []
    for (_, sense), const, cost in zip(cs, consts, costs):
        if not ok:
            out.append(LPResult(status=INFEASIBLE))
            continue
        res = reference_phase2([row[:] for row in rows], basis[:], cost, list(range(total)))
        pr = kernel._back_point(red, res, var_cols)
        if res.status == UNBOUNDED:
            rr = red.back(res.ray, var_cols, ray=True)
            out.append(LPResult(status=UNBOUNDED, primal_point=pr, dual_certificate=rr))
        else:
            out.append(LPResult(OPTIMAL, (-res.value if sense == "max" else res.value) + const, pr))
    return out


fractions = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def fraction_lp_cases(draw):
    """`lp_cases`, its objectives given denominators and each asked in both
    senses."""
    poly, objs, _ = draw(lp_cases())
    out = []
    for c, _ in objs:
        c = [x * F(1, draw(st.sampled_from([1, 2, 6]))) + draw(st.sampled_from([ZERO, ZERO, F(1, 3)])) for x in c]
        out += [(c, "max"), (c, "min")]
    return poly, out


@settings(deadline=None, derandomize=True, max_examples=300)
@given(fraction_lp_cases())
def test_integer_costs_match_the_fraction_chain(case):
    poly, objs = case
    got = optimize_all(poly, objs)
    assert got == reference_optimize_all(poly, objs)
    for r, (c, _) in zip(got, objs):
        if r.status == OPTIMAL:
            assert type(r.optimum) is F and linalg.dot(c, r.primal_point) == r.optimum


def test_integer_costs_on_non_unit_eliminations():
    # x0 - 2 x1 = 1 and 3 x2 - x1 = 2 eliminate x1 = (x0 - 1)/2, then x2
    # through 6 x2 - x0 = 3 with scale 2: the reduced costs and their
    # constants carry those denominators
    poly = HPoly(3, [([1, 0, 0], 4), ([-1, 0, 0], -1)], [([1, -2, 0], 1), ([0, -1, 3], 2)])
    red = kernel._presolve(poly.dim, *poly._int_rows())
    assert red.subs == [(1, ({0: 1, 1: -2}, 1, 1)), (2, ({2: 6, 0: -1}, 3, 2))]
    objs = [([0, 1, 1], "max"), ([0, 1, 1], "min"), ([F(1, 2), 0, F(-1, 3)], "max"), ([0, 0, 0], "min"),
            ([0, "1/2", 1], "min"), ([1, 1, 1], "max")]
    got = optimize_all(poly, objs)
    assert got == reference_optimize_all(poly, objs)
    assert [r.optimum for r in got] == [F(8, 3), F(2, 3), F(29, 18), 0, F(2, 3), F(20, 3)]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(presolve_cases())
def test_reduce_matches_the_fraction_objective(case):
    poly, c, _ = case
    red = kernel._presolve(poly.dim, *poly._int_rows())
    if red.infeasible:
        return
    # a caller may reduce one dict more than once: reduce leaves it as it was
    pairs, w = int_pairs(c)
    costs = dict(pairs)
    for _ in range(2):
        a, b, d = red.reduce(costs, 0, w)
        assert costs == dict(pairs)
        assert type(b) is int and type(d) is int and d > 0
        obj = [ZERO] * len(red.alive)
        for p, x in a:
            obj[p] = F(x, d)
        assert (obj, F(-b, d)) == reference_objective(red, c)


# ---------------------------------------------------------------------------
# The pull-back of _image_violations
# ---------------------------------------------------------------------------

def reference_image_violations(q, proj, p):
    """`_image_violations` with each row pulled back as Fractions."""
    checks = [(i, a, b, "max") for i, (a, b) in enumerate(p.ineqs)]
    for i, (c, d) in enumerate(p.eqs, len(p.ineqs)):
        checks += [(i, c, d, "max"), (i, c, d, "min")]
    zero = linalg.zeros(q.dim)
    first, *results = optimize_all(
        q, [(zero, "min")] + [(proj.pull_back(a) if proj.matrix else zero, s) for _, a, _, s in checks]
    )
    if first.status == INFEASIBLE:
        return None, []
    fails = []
    for (i, a, b, sense), r in zip(checks, results):
        value = None if r.status == UNBOUNDED else r.optimum + linalg.dot(a, proj.offset)
        if value is None or (value > b if sense == "max" else value < b):
            fails.append((i, r, value))
    return first, fails


def _outcome(found):
    first, fails = found
    point = None if first is None else first.primal_point
    return point, [(i, r.status, value, r.primal_point, r.dual_certificate) for i, r, value in fails]


@st.composite
def image_cases(draw):
    """(q, proj, p): a small q, often unbounded, a map with fractional
    entries and offset, and a target of Fraction rows with an equation."""
    dim = draw(st.integers(1, 3))
    out = draw(st.integers(0, 3))
    vector = lambda n: st.lists(fractions, min_size=n, max_size=n)
    ineqs = draw(st.lists(st.tuples(vector(dim), st.integers(-1, 4).map(F)), max_size=4))
    if draw(st.booleans()):
        # a box: every row bounded
        ineqs += [(linalg.unit(dim, j), F(2)) for j in range(dim)]
        ineqs += [(tuple(-x for x in linalg.unit(dim, j)), F(1)) for j in range(dim)]
    eqs = draw(st.lists(st.tuples(vector(dim), fractions), max_size=1))
    q = HPoly(dim, ineqs, eqs)
    proj = AffineMap([draw(vector(dim)) for _ in range(out)] if out else [], draw(vector(out)))
    p_ineqs = draw(st.lists(st.tuples(vector(out), fractions), max_size=4))
    p_eqs = draw(st.lists(st.tuples(vector(out), fractions), max_size=2))
    return q, proj, HPoly(out, p_ineqs, p_eqs)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(image_cases())
def test_image_violations_match_the_fraction_pull_back(case):
    q, proj, p = case
    assert _outcome(kernel._image_violations(q, proj, p)) == _outcome(reference_image_violations(q, proj, p))


def test_image_violations_on_scaled_rows():
    # x = (y0/2 + 1/3, y0/3 - y1), y in [0, 1]^2: the map's rows have scales
    # 6 and 3, the target's rows Fraction entries, one is unbounded
    box = [([1, 0], 1), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)]
    proj = AffineMap([[F(1, 2), 0], [F(1, 3), -1]], [F(1, 3), 0])
    p = HPoly(2, [([F(2, 3), 0], F(1, 2)), ([F(1, 2), F(-1, 5)], F(1, 7)), ([1, 1], 1)], [([0, F(3, 2)], F(1, 4))])
    assert [row[2] for row in proj._int_rows()] == [6, 3]
    values = []
    for q in (HPoly(2, box), HPoly(2, box[:3])):
        got = kernel._image_violations(q, proj, p)
        assert _outcome(got) == _outcome(reference_image_violations(q, proj, p))
        values.append([(i, value) for i, _, value in got[1]])
    assert values == [
        [(0, F(5, 9)), (1, F(11, 20)), (2, F(7, 6)), (3, F(1, 2)), (3, F(-3, 2))],
        [(0, F(5, 9)), (1, F(11, 20)), (2, None), (3, None), (3, F(-3, 2))],
    ]
