import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from polylift import kernel, linalg, simplex
from polylift.errors import EmptyPolyhedronError, InputError, InvariantViolationError, UnboundedPolyhedronError
from polylift.kernel import HPoly, lp_solve, optimize, optimize_all, feasible_point, lex_min_point
from test_simplex import int_pairs

F = Fraction


def unit_square():
    return HPoly(
        2,
        [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)],
    )


def rado_permutahedron(n):
    """Rado description: sum equation plus lower bounds on all proper subsets."""
    subsets = []
    for mask in range(1, 2**n - 1):
        s = [i for i in range(n) if mask >> i & 1]
        subsets.append(s)
    subsets.sort(key=lambda s: (len(s), s))
    ineqs = []
    for s in subsets:
        a = [0] * n
        for i in s:
            a[i] = -1
        k = len(s)
        ineqs.append((a, F(-k * (k + 1), 2)))
    eq = ([1] * n, F(n * (n + 1), 2))
    return HPoly(n, ineqs, [eq])


def test_lp_simplex_face():
    r = lp_solve([1, 1], "max", unit_square())
    assert r.status == "optimal"
    assert r.optimum == 1


def test_lp_permutation_objective():
    # oracle: enumerate all 6 permutations of (1,2,3)
    c = (1, 2, 3)
    best = max(sum(ci * xi for ci, xi in zip(c, p)) for p in permutations((1, 2, 3)))
    assert best == 14
    r = lp_solve(c, "max", rado_permutahedron(3))
    assert r.status == "optimal"
    assert r.optimum == 14
    assert r.primal_point == linalg.vec([1, 2, 3])


def test_lp_infeasible_with_certificate():
    poly = HPoly(1, [([-1], -1), ([1], 0)])  # x >= 1 and x <= 0
    r = lp_solve([1], "max", poly)
    assert r.status == "infeasible"
    lam = r.dual_certificate
    assert all(y >= 0 for y in lam)
    combo = [lam[0] * -1 + lam[1] * 1]
    assert combo == [0]
    assert lam[0] * F(-1) + lam[1] * F(0) < 0


def test_lp_unbounded_ray():
    poly = HPoly(2, [([-1, 0], 0)], [])  # x1 >= 0, x2 free
    r = lp_solve([1, 0], "max", poly)
    assert r.status == "unbounded"
    ray = r.dual_certificate
    assert ray[0] > 0
    assert poly.contains(r.primal_point)


def test_lp_duality_on_square():
    r = lp_solve([1, 1], "max", unit_square())
    y = r.dual_certificate
    # A^T y = c, y >= 0, b.y = optimum
    a = [[-1, 0], [0, -1], [1, 1]]
    b = [0, 0, 1]
    assert all(yi >= 0 for yi in y)
    for j in range(2):
        assert sum(y[i] * a[i][j] for i in range(3)) == 1
    assert sum(y[i] * b[i] for i in range(3)) == r.optimum


def test_lp_dimension_mismatch():
    with pytest.raises(InputError):
        lp_solve([1, 2, 3], "max", unit_square())


def test_degenerate_lp_terminates():
    # Beale's cycling example; Bland's rule must terminate at 1/20
    poly = HPoly(
        4,
        [
            ([F(1, 4), -8, -1, 9], 0),
            ([F(1, 2), -12, F(-1, 2), 3], 0),
            ([0, 0, 1, 0], 1),
            ([-1, 0, 0, 0], 0),
            ([0, -1, 0, 0], 0),
            ([0, 0, -1, 0], 0),
            ([0, 0, 0, -1], 0),
        ],
    )
    c = [F(3, 4), -20, F(1, 2), -6]
    r = lp_solve(c, "max", poly)
    assert r.status == "optimal"
    assert r.optimum == F(5, 4)
    # certify optimality by the dual: A^T y = c, y >= 0, b.y = optimum
    y = r.dual_certificate
    assert all(v >= 0 for v in y)
    for j in range(4):
        assert sum(y[i] * poly.ineqs[i][0][j] for i in range(7)) == c[j]
    assert sum(y[i] * poly.ineqs[i][1] for i in range(7)) == F(5, 4)


def _random_poly(rng, dim, nrows, with_eq):
    ineqs = []
    for _ in range(nrows):
        a = [F(rng.randint(-3, 3)) for _ in range(dim)]
        ineqs.append((a, F(rng.randint(-2, 6))))
    eqs = []
    if with_eq:
        c = [F(rng.randint(-2, 2)) for _ in range(dim)]
        eqs.append((c, F(rng.randint(-2, 2))))
    return HPoly(dim, ineqs, eqs)


def _assert_certificate(poly, c, sense, r):
    """Check an lp_solve answer with exact dot products alone."""
    dim, ni = poly.dim, len(poly.ineqs)
    rows = poly.ineqs + poly.eqs
    if r.status == "unbounded":
        x, ray = r.primal_point, r.dual_certificate
        assert poly.contains(x)
        assert all(linalg.dot(a, ray) <= 0 for a, _ in poly.ineqs)
        assert all(linalg.dot(cc, ray) == 0 for cc, _ in poly.eqs)
        gain = linalg.dot(linalg.vec(c), ray)
        assert gain > 0 if sense == "max" else gain < 0
        return
    w = r.dual_certificate
    assert len(w) == len(rows)
    lhs = [sum(wi * a[j] for wi, (a, _) in zip(w, rows)) for j in range(dim)]
    val = sum(wi * b for wi, (_, b) in zip(w, rows))
    if r.status == "optimal":
        x = r.primal_point
        assert poly.contains(x)
        assert linalg.dot(linalg.vec(c), x) == r.optimum
        y = w[:ni]
        assert all(v >= 0 for v in y) if sense == "max" else all(v <= 0 for v in y)
        assert lhs == list(linalg.vec(c))
        assert val == r.optimum
    else:
        assert r.status == "infeasible"
        assert all(v >= 0 for v in w[:ni])
        assert lhs == [0] * dim
        assert val == -1


def _unpresolved(c, sense, poly):
    """(status, optimum) from the standard form of poly itself, with every
    variable free and no presolve: the reference for the optimize path."""
    cost = [-F(x) for x in c] if sense == "max" else [F(x) for x in c]
    ineqs, eqs = poly._int_rows()
    rows, scales, costs, _ = kernel._assemble_standard(poly.dim, ineqs, eqs, [int_pairs(cost)], [False] * poly.dim)
    [res] = simplex.solve_standard(rows, scales, costs)
    if res.status != "optimal":
        return res.status, None
    return res.status, -res.value if sense == "max" else res.value


def test_lp_certificates_random():
    rng = random.Random(1234)
    for trial in range(120):
        dim = rng.randint(1, 4)
        poly = _random_poly(rng, dim, rng.randint(1, 6), rng.random() < 0.4)
        c = [F(rng.randint(-3, 3)) for _ in range(dim)]
        sense = rng.choice(["max", "min"])
        _assert_certificate(poly, c, sense, lp_solve(c, sense, poly))


def test_fast_path_agrees_with_unpresolved_reference():
    rng = random.Random(99)
    for _ in range(80):
        dim = rng.randint(1, 4)
        poly = _random_poly(rng, dim, rng.randint(1, 6), rng.random() < 0.5)
        c = [F(rng.randint(-3, 3)) for _ in range(dim)]
        sense = rng.choice(["max", "min"])
        fast = optimize(poly, c, sense)
        assert (fast.status, fast.optimum) == _unpresolved(c, sense, poly)
        if fast.status != "infeasible":
            assert poly.contains(fast.primal_point)


def test_lp_result_is_the_same_value():
    # optimize maps a result's point back through the presolve on its first
    # read; whichever read comes first (==, repr, hash or the attribute), the
    # result is the value an eager build gives
    def fresh():
        square, half_plane, empty = unit_square(), HPoly(2, [([-1, 0], 0)]), HPoly(1, [([-1], -1), ([1], 0)])
        return optimize_all(square, [([1, 2], "max"), ([1, 1], "min")]) + [
            optimize(half_plane, [1, 0], "max"), optimize(empty, [1], "min"), lp_solve([1, 2], "max", square)]

    zero = (F(0), F(0))
    want = [kernel.LPResult("optimal", F(2), (F(0), F(1))),
            kernel.LPResult(status="optimal", optimum=F(0), primal_point=zero),
            kernel.LPResult("unbounded", None, zero, (F(1), F(0))),
            kernel.LPResult("infeasible"),
            kernel.LPResult("optimal", F(2), (F(0), F(1)), dual_certificate=(F(1), F(0), F(2)))]
    assert fresh() == want and want == fresh()
    assert [repr(r) for r in fresh()] == [
        "LPResult(status='optimal', optimum=Fraction(2, 1), primal_point=(Fraction(0, 1), Fraction(1, 1)), "
        "dual_certificate=None)",
        "LPResult(status='optimal', optimum=Fraction(0, 1), primal_point=(Fraction(0, 1), Fraction(0, 1)), "
        "dual_certificate=None)",
        "LPResult(status='unbounded', optimum=None, primal_point=(Fraction(0, 1), Fraction(0, 1)), "
        "dual_certificate=(Fraction(1, 1), Fraction(0, 1)))",
        "LPResult(status='infeasible', optimum=None, primal_point=None, dual_certificate=None)",
        "LPResult(status='optimal', optimum=Fraction(2, 1), primal_point=(Fraction(0, 1), Fraction(1, 1)), "
        "dual_certificate=(Fraction(1, 1), Fraction(0, 1), Fraction(2, 1)))",
    ]
    fields = lambda r: (r.status, r.optimum, r.primal_point, r.dual_certificate)
    assert [hash(r) for r in fresh()] == [hash(w) for w in want] == [hash(fields(w)) for w in want]
    assert [r.primal_point for r in fresh()] == [w.primal_point for w in want]
    for r in fresh():
        for name in ("status", "optimum", "primal_point", "dual_certificate"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        assert fields(r) == fields(kernel.LPResult(*fields(r)))


def test_lp_solve_raises_when_the_dual_lp_disagrees(monkeypatch):
    calls = []
    solve = kernel.optimize

    def off_by_one_dual(poly, objective, sense):
        r = solve(poly, objective, sense)
        calls.append(r)
        if len(calls) == 2:
            return kernel.LPResult(r.status, r.optimum + 1, r.primal_point)
        return r

    monkeypatch.setattr(kernel, "optimize", off_by_one_dual)
    with pytest.raises(InvariantViolationError, match="dual LP"):
        lp_solve([1, 1], "max", unit_square())


def test_optimize_rejects_unknown_sense():
    with pytest.raises(InputError):
        optimize(unit_square(), [1, 1], "maximize")
    with pytest.raises(InputError):
        optimize_all(unit_square(), [([1, 0], "max"), ([0, 1], "Max")])


def test_optimize_input_handling():
    # each objective entry is an int or a Fraction, or goes through
    # linalg.frac: a float is refused, a string like "1/2" is read exactly
    square = unit_square()
    with pytest.raises(TypeError):
        optimize(square, [0.5, 1], "max")
    assert optimize(square, ["1/2", 1], "max") == optimize(square, [F(1, 2), 1], "max")
    assert optimize(square, ["1/2", 1], "max").optimum == 1
    assert optimize(square, (x for x in (2, 1)), "max") == optimize(square, [2, 1], "max")
    with pytest.raises(InputError):
        optimize(square, [1, 2, 3], "max")
    with pytest.raises(InputError):
        optimize_all(square, [([1, 1], "min"), ([1], "min")])


@st.composite
def lp_cases(draw):
    """A polyhedron of one kind, plus a list of (objective, sense)."""
    kind = draw(st.sampled_from(["random", "empty", "unbounded", "eqs_only", "dim0", "dim0_feasible",
                                 "all_eliminated"]))
    dim = 0 if kind.startswith("dim0") else draw(st.integers(1, 4))
    coef = st.integers(-3, 3)
    row = st.tuples(st.lists(coef, min_size=dim, max_size=dim), st.integers(-2, 6))
    ineqs = [] if kind == "eqs_only" else draw(st.lists(row, max_size=5))
    eqs = draw(st.lists(row, min_size=1 if kind == "eqs_only" else 0, max_size=2))
    if kind == "empty":
        a, b = draw(row)
        ineqs += [(a, b), ([-x for x in a], -b - 1)]
    elif kind == "unbounded":
        # 0 is feasible and the all-ones direction never leaves
        ineqs = [([-abs(x) for x in a], abs(b)) for a, b in ineqs]
        eqs = []
    elif kind == "all_eliminated":
        # x0 = v0 and x_j - m_j x_{j-1} = v_j: presolve removes every variable
        eqs = []
        for j in range(dim):
            c = [0] * dim
            c[j] = draw(st.sampled_from([-2, -1, 1, 3]))
            if j:
                c[j - 1] = draw(coef)
            eqs.append((c, draw(st.integers(-2, 2))))
    elif kind == "dim0_feasible":
        # 0 <= b and 0 = 0: a feasible point, and a dual LP with no equations
        ineqs = [(a, abs(b)) for a, b in ineqs]
        eqs = [(c, 0) for c, _ in eqs]
    poly = HPoly(dim, ineqs, eqs)
    objs = draw(st.lists(st.tuples(st.lists(coef, min_size=dim, max_size=dim), st.sampled_from(["max", "min"])),
                         min_size=1, max_size=5))
    if kind == "unbounded":
        objs.append(([1] * dim, "max"))
    return poly, objs, draw(st.permutations(range(len(objs))))


@settings(deadline=None, derandomize=True)
@given(lp_cases())
def test_optimize_all_matches_one_objective_at_a_time(case):
    poly, objs, order = case
    batch = optimize_all(poly, objs)
    assert batch == [optimize(poly, c, s) for c, s in objs]
    # each phase 2 starts from the phase-1 basis, whatever ran before it
    assert optimize_all(poly, [objs[i] for i in order]) == [batch[i] for i in order]
    for (c, sense), fast in zip(objs, batch):
        assert (fast.status, fast.optimum) == _unpresolved(c, sense, poly)


@settings(deadline=None, derandomize=True)
@given(lp_cases())
def test_lp_solve_certificates_on_every_kind(case):
    poly, objs, _ = case
    for c, _ in objs:
        for sense in ("max", "min"):
            r, fast = lp_solve(c, sense, poly), optimize(poly, c, sense)
            assert (r.status, r.optimum, r.primal_point) == (fast.status, fast.optimum, fast.primal_point)
            _assert_certificate(poly, c, sense, r)


def test_feasible_and_lexmin():
    sq = unit_square()
    assert feasible_point(sq) is not None
    assert lex_min_point(sq) == linalg.vec([0, 0])
    tri = HPoly(2, [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)], [([1, 1], 1)])
    assert lex_min_point(tri) == linalg.vec([0, 1])


def test_dim_zero():
    p = HPoly(0, [([], 1)], [])
    r = lp_solve([], "max", p)
    assert r.status == "optimal"
    assert r.optimum == 0
    _assert_certificate(p, [], "max", r)
    bad = HPoly(0, [([], -1)], [])
    assert feasible_point(bad) is None


def test_lex_min_point_dim_zero():
    assert lex_min_point(HPoly(0, [((), 1)])) == ()
    with pytest.raises(EmptyPolyhedronError, match="polyhedron is empty"):
        lex_min_point(HPoly(0, [((), -1)]))


def _lex_min_reference(poly):
    """Coordinate-by-coordinate lex_min_point: one optimize per coordinate,
    each over the polyhedron with the earlier minima added as equations."""
    if poly.dim == 0 and feasible_point(poly) is None:
        raise EmptyPolyhedronError("polyhedron is empty")
    current = poly
    fixed = []
    for j in range(poly.dim):
        r = optimize(current, linalg.unit(poly.dim, j), "min")
        if r.status == "infeasible":
            raise EmptyPolyhedronError("polyhedron is empty")
        if r.status == "unbounded":
            raise UnboundedPolyhedronError(f"coordinate {j} unbounded below")
        fixed.append(r.optimum)
        current = HPoly(poly.dim, current.ineqs, tuple(current.eqs) + ((linalg.unit(poly.dim, j), r.optimum),))
    return tuple(fixed)


def _outcome(fn, poly):
    try:
        return "point", fn(poly)
    except (EmptyPolyhedronError, UnboundedPolyhedronError) as e:
        return type(e), str(e)


@st.composite
def lex_cases(draw):
    """Polyhedra with fractional rows, free and sign-constrained variables.
    Outside the "empty" and "eliminated" kinds the origin is feasible."""
    kind = draw(st.sampled_from(["random", "boxed", "empty", "unbounded_at", "eliminated", "dim0"]))
    dim = 0 if kind == "dim0" else draw(st.integers(1, 4))
    coef = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    rhs = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2]))
    coefs = st.lists(coef, min_size=dim, max_size=dim)
    ineqs = draw(st.lists(st.tuples(coefs, rhs), max_size=4))
    eqs = draw(st.lists(st.tuples(coefs, st.just(0)), max_size=1))

    def lower(j, lo):  # x_j >= lo
        return tuple(-x for x in linalg.unit(dim, j)), -lo

    for j in draw(st.sets(st.integers(0, dim - 1))) if dim else ():
        ineqs.append(lower(j, 0))
    if kind in ("boxed", "unbounded_at"):
        # every coordinate but `free` in a box [lo, hi] around the origin
        free = draw(st.integers(0, dim - 1)) if kind == "unbounded_at" else None
        for j in range(dim):
            if j != free:
                ineqs += [lower(j, -draw(rhs)), (linalg.unit(dim, j), draw(rhs))]
        if free is not None:
            # nothing stops x_free from decreasing: no equation and no
            # inequality with a negative coefficient on it
            eqs = []
            ineqs = [(tuple(max(x, 0) if i == free else x for i, x in enumerate(a)), b) for a, b in ineqs]
    elif kind == "empty":
        a, b = draw(coefs), draw(coef)
        ineqs += [(a, b), ([-x for x in a], -b - 1)]
    elif kind == "eliminated":
        # short equations, which presolve substitutes away
        for _ in range(draw(st.integers(1, dim))):
            c = [F(0)] * dim
            for j in draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=2)):
                c[j] = draw(st.sampled_from([F(-2), F(-1), F(1), F(3, 2)]))
            eqs.append((c, draw(coef)))
    elif kind == "dim0":
        ineqs = [((), draw(st.integers(-1, 1))) for _ in range(draw(st.integers(0, 2)))]
        eqs = [((), draw(st.integers(-1, 1))) for _ in range(draw(st.integers(0, 1)))]
    return HPoly(dim, draw(st.permutations(ineqs)), eqs)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(lex_cases())
def test_lex_min_point_matches_coordinate_by_coordinate(poly):
    expected = _outcome(_lex_min_reference, poly)
    assert _outcome(lex_min_point, poly) == expected
    if expected[0] == "point":
        assert poly.contains(expected[1])
