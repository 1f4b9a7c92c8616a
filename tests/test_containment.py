"""Differential tests of the containment engine: `verify_extension`,
`poly_equal` and `is_vertex` against local copies of the versions that built
their own LPs (`_point_in_vpoly`, `_hpoly_subset` and verify's inline
batches).  Reports must agree field by field; where both sides ask the
simplex the same questions (verify, and poly_equal with an H side), the
`simplex.solve_standard` inputs must also agree call for call.  Verify's
direction (a) is the one exception: its missed vertices now take one
lexicographic batch where the reference took one LP per vertex, and every
other call still agrees.  A V side's membership LP now lists the weights'
sum row before the point rows and is a batch too, so is_vertex and V/V
poly_equal are compared on their answers only.
"""

from __future__ import annotations

import contextlib
import dataclasses
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from polylift import constructions as cx
from polylift import kernel, linalg, simplex, zoo
from polylift.errors import InputError
from polylift.kernel import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    AffineMap,
    HPoly,
    PolyEqualResult,
    VPoly,
    feasible_point,
    hull,
    optimize,
    optimize_all,
    vertices,
)
from polylift.slack import extension_to_factorization, factorization_to_extension, slack_matrix

ONE, ZERO = F(1), F(0)


# ---------------------------------------------------------------------------
# The reference: each question built where it is asked
# ---------------------------------------------------------------------------

def ref_verify_extension(target, ext, *, target_vrep=None):
    if isinstance(target, HPoly):
        hrep = target
        vrep = target_vrep
    elif isinstance(target, VPoly):
        vrep = target
        hrep = None
    else:
        raise InputError("target must be an HPoly or a VPoly")
    if (hrep.dim if hrep else vrep.dim) != ext.target_dim:
        raise InputError("target dimension does not match the extension")
    if hrep is None:
        hrep = hull(vrep)
    if vrep is None:
        vrep = vertices(hrep)
    if hrep.dim != vrep.dim:
        raise InputError("target descriptions disagree on dimension")

    report = cx.VerifyReport(name=ext.name, passed=True, size=ext.size(), target_dim=ext.target_dim)
    q = ext.q
    pm = ext.proj.matrix
    poff = ext.proj.offset

    for v in vrep.vertices:
        report.checked_vertices += 1
        ok = False
        if ext.lift is not None:
            y = ext.lift(v)
            if y is not None:
                y = linalg.vec(y)
                if len(y) == q.dim and q.contains(y) and ext.proj.apply(y) == v:
                    ok = True
                    report.lift_hits += 1
        if not ok:
            rows = [(pm[i], v[i] - poff[i]) for i in range(ext.target_dim)]
            fr = optimize(HPoly(q.dim, q.ineqs, q.eqs + tuple(rows)), linalg.zeros(q.dim), "min")
            ok = fr.status != "infeasible"
        if not ok:
            report.vertex_failures.append(v)
            report.passed = False

    checks = []
    for idx, (a, b) in enumerate(hrep.ineqs):
        checks.append((hrep.row_label(idx), a, b, "max"))
    for idx, (c, d) in enumerate(hrep.eqs):
        label = hrep.eq_labels[idx] if hrep.eq_labels else f"eq{idx}"
        checks.append((label, c, d, "max"))
        checks.append((label, c, d, "min"))
    objectives = [(linalg.zeros(q.dim), "min")]
    for _, a, _, sense in checks:
        cy = ext.proj.pull_back(a) if pm else linalg.zeros(q.dim)
        objectives.append((cy, sense))
    first, *results = optimize_all(q, objectives)
    if first.status == "infeasible":
        report.extension_empty = True
        if vrep.vertices:
            report.passed = False
        return report

    for (label, a, bound, sense), r in zip(checks, results):
        report.checked_rows += 1
        shift = linalg.dot(a, poff)
        if r.status == "unbounded":
            report.projection_bounded = False
            report.row_failures.append((label, "unbounded", bound, r.dual_certificate))
            report.passed = False
            continue
        val = r.optimum + shift
        bad = val > bound if sense == "max" else val < bound
        if bad:
            witness = ext.proj.apply(r.primal_point)
            report.row_failures.append((label, val, bound, witness))
            report.passed = False
    return report


def ref_point_in_vpoly(x, v):
    nv = len(v.vertices)
    eqs = []
    for r in range(v.dim):
        eqs.append((tuple(p[r] for p in v.vertices), x[r]))
    eqs.append(((ONE,) * nv, ONE))
    ineqs = [(tuple(-ONE if j == i else ZERO for j in range(nv)), ZERO) for i in range(nv)]
    return feasible_point(HPoly(nv, ineqs, eqs)) is not None


def ref_is_vertex(points, index):
    rest = VPoly(points.dim, tuple(p for i, p in enumerate(points.vertices) if i != index))
    if not rest.vertices:
        return True
    return not ref_point_in_vpoly(points.vertices[index], rest)


def ref_hpoly_subset(a, b):
    checks = [(row, rhs, "max") for row, rhs in b.ineqs]
    for c, d in b.eqs:
        checks += [(c, d, "max"), (c, d, "min")]
    first, *results = optimize_all(
        a, [(linalg.zeros(a.dim), "min")] + [(rowvec, sense) for rowvec, _, sense in checks]
    )
    if first.status == INFEASIBLE:
        return None, True, None
    for (rowvec, rhs, sense), r in zip(checks, results):
        if r.status == UNBOUNDED:
            point, ray = r.primal_point, r.dual_certificate
            base = linalg.dot(rowvec, point)
            step = linalg.dot(rowvec, ray)
            t = max((rhs - base) / step + 1, ONE)
            witness = tuple(p + t * q for p, q in zip(point, ray))
            return first.primal_point, False, witness
        if r.status == OPTIMAL and (r.optimum > rhs if sense == "max" else r.optimum < rhs):
            return first.primal_point, False, r.primal_point
    return first.primal_point, True, None


def ref_one_side_empty(x1, x2):
    if x1 is None:
        return PolyEqualResult(True) if x2 is None else PolyEqualResult(False, x2, 2)
    if x2 is None:
        return PolyEqualResult(False, x1, 1)
    return None


def ref_poly_equal(p1, p2):
    if p1.dim != p2.dim:
        raise InputError("dimension mismatch")
    if isinstance(p1, HPoly) and isinstance(p2, HPoly):
        x1, ok1, w1 = ref_hpoly_subset(p1, p2)
        x2, ok2, w2 = ref_hpoly_subset(p2, p1)
        res = ref_one_side_empty(x1, x2)
        if res is not None:
            return res
        if not ok1:
            return PolyEqualResult(False, w1, 1)
        if not ok2:
            return PolyEqualResult(False, w2, 2)
        return PolyEqualResult(True)
    if isinstance(p1, VPoly) and isinstance(p2, VPoly):
        res = ref_one_side_empty(p1.vertices[0] if p1.vertices else None,
                                 p2.vertices[0] if p2.vertices else None)
        if res is not None:
            return res
        for v in p1.vertices:
            if not ref_point_in_vpoly(v, p2):
                return PolyEqualResult(False, v, 1)
        for v in p2.vertices:
            if not ref_point_in_vpoly(v, p1):
                return PolyEqualResult(False, v, 2)
        return PolyEqualResult(True)
    (v, v_side), (h, h_side) = ((p1, 1), (p2, 2)) if isinstance(p1, VPoly) else ((p2, 2), (p1, 1))
    if not v.vertices:
        x = feasible_point(h)
        return PolyEqualResult(True) if x is None else PolyEqualResult(False, x, h_side)
    for p in v.vertices:
        if not h.contains(p):
            return PolyEqualResult(False, p, v_side)
    _, ok, w = ref_hpoly_subset(h, hull(v))
    return PolyEqualResult(True) if ok else PolyEqualResult(False, w, h_side)


# ---------------------------------------------------------------------------
# Running both sides
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def solve_inputs():
    """Whether each simplex.solve_standard call is lexicographic, and the
    repr of its arguments, in order (taken before the call, which pivots its
    lists in place)."""
    seen, orig = [], simplex.solve_standard

    def recording(*args, **kwargs):
        seen.append((kwargs.get("lex", False), repr((args, kwargs))))
        return orig(*args, **kwargs)

    simplex.solve_standard = recording
    try:
        yield seen
    finally:
        simplex.solve_standard = orig


def run(fn, *args, **kwargs):
    """(the result, or the exception's type and message; solve inputs)."""
    with solve_inputs() as seen:
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - any outcome is compared
            out = (type(e).__name__, str(e))
    return out, seen


def fields(report):
    if isinstance(report, cx.VerifyReport):
        return dataclasses.asdict(report)
    return report


def assert_same(ref, new, *args, same_lps=True, **kwargs):
    (want, want_lps), (got, got_lps) = run(ref, *args, **kwargs), run(new, *args, **kwargs)
    assert fields(got) == fields(want)
    if same_lps:
        assert got_lps == want_lps
    return got


def assert_same_verify(*args, **kwargs):
    """verify_extension against its reference: the same report, and the same
    solve_standard calls, except that the reference's one feasibility LP per
    missed vertex (those without a lift hit) is one lex batch here, which
    runs unless Q's presolve alone proves Q empty or Q has no coordinate."""
    (want, want_lps), (got, got_lps) = (run(fn, *args, **kwargs) for fn in (ref_verify_extension, cx.verify_extension))
    assert fields(got) == fields(want)
    lex = [i for i, (is_lex, _) in enumerate(got_lps) if is_lex]
    missed = got.checked_vertices - got.lift_hits if isinstance(got, cx.VerifyReport) else 0
    q = args[1].q
    assert len(lex) == (missed > 0 and q.dim > 0 and not kernel._presolve(q.dim, *q._int_rows()).infeasible)
    if not lex:
        assert got_lps == want_lps
        return got
    # the calls before the batch (the missing target description) and after
    # it (direction (b)) agree; in between the reference made at most one
    # non-lex LP per missed vertex
    [i] = lex
    after = len(got_lps) - i - 1
    assert got_lps[:i] == want_lps[:i]
    assert got_lps[i + 1:] == want_lps[len(want_lps) - after:]
    between = want_lps[i:len(want_lps) - after]
    assert len(between) <= missed
    assert not any(is_lex for is_lex, _ in between)
    return got


# ---------------------------------------------------------------------------
# verify_extension
# ---------------------------------------------------------------------------

def _no_lift(ext):
    return cx.Extension(ext.q, ext.proj, ext.target_dim, ext.name + "/no-lift")


def _construction_cases():
    """(extension, target H, target V) for every construction."""
    p3h, p3v = zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    cases = [
        (cx.birkhoff_extension(3), p3h, p3v),
        (cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)),
        (cx.sorting_network_extension(3, cx.bubble_network(3)), p3h, p3v),
        (cx.sorting_network_extension(4, cx.batcher_network(4)), zoo.permutahedron_hrep(4),
         zoo.permutahedron_vrep(4)),
    ]
    kv = zoo.knapsack_vrep((2, 3, 4), 6)
    cases.append((cx.knapsack_flow_extension((2, 3, 4), 6), hull(kv), kv))
    square = VPoly(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    shifted = VPoly(2, [(2, 1), (3, 1), (F(5, 2), 2)])
    union = VPoly(2, sorted(set(square.vertices) | set(shifted.vertices)))
    cases.append((cx.balas_union([hull(square), hull(shifted)]), hull(union), VPoly(2, vertices(hull(union)).vertices)))
    mv = zoo.matching_vrep(4, 2)
    cases.append((cx.colorful_matching_extension(4, 2), hull(mv), mv))
    fact = extension_to_factorization(cx.birkhoff_extension(3), p3h, p3v)
    cases.append((factorization_to_extension(fact, slack_matrix(p3h, p3v), p3h), p3h, p3v))
    return cases + [(_no_lift(ext), h, v) for ext, h, v in cases[:3] + cases[4:6]]


CONSTRUCTIONS = _construction_cases()


def test_verify_matches_reference_on_every_construction():
    for ext, h, v in CONSTRUCTIONS:
        assert assert_same_verify(h, ext, target_vrep=v).passed
        assert_same_verify(v, ext)
        assert_same_verify(h, ext)


def _refutations():
    ext = cx.birkhoff_extension(3)
    q, proj = ext.q, ext.proj
    h, v = zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    shifted = cx.Extension(q, AffineMap(proj.matrix, (F(1),) + proj.offset[1:]), 3, "shifted", ext.lift)
    # the unit square without its equation y1 = y2 covers more than the diagonal
    box = [([1, 0], 1), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)]
    no_eq = cx.Extension(HPoly(2, box), AffineMap.linear(linalg.identity(2)), 2, "dropped-eq")
    diagonal = HPoly(2, [([1, 0], 1), ([-1, 0], 0)], [([1, -1], 0)])
    # Q = {0 <= y1 <= 1, y2 >= 0, y2 = y3} under x = y1 + y3 leaks without bound
    leaky_q = HPoly(3, [([1, 0, 0], 1), ([-1, 0, 0], 0), ([0, -1, 0], 0)], [([0, 1, -1], 0)])
    leaky = cx.Extension(HPoly(3, leaky_q.ineqs[:2], leaky_q.eqs), AffineMap.linear([[1, 0, 1]]), 1, "dropped-ineq")
    seg = HPoly(1, [([1], 1), ([-1], 0)], ineq_labels=["top", "bottom"])
    empty_q = cx.Extension(HPoly(q.dim, q.ineqs + ((linalg.zeros(q.dim), F(-1)),), q.eqs), proj, 3, "empty", ext.lift)
    no_vertices = HPoly(3, h.ineqs, h.eqs + ((linalg.unit(3, 0), F(7)),), eq_labels=["sum", "x0=7"])
    return [
        (h, shifted, v),
        (diagonal, no_eq, VPoly(2, [(0, 0), (1, 1)])),
        (seg, leaky, VPoly(1, [(0,), (1,)])),
        (h, empty_q, v),
        (no_vertices, ext, VPoly(3, [])),
        (no_vertices, empty_q, VPoly(3, [])),
    ]


def test_verify_matches_reference_on_refutations():
    outcomes = []
    for h, ext, v in _refutations():
        rep = assert_same_verify(h, ext, target_vrep=v)
        outcomes.append((ext.name, rep.passed, bool(rep.vertex_failures), bool(rep.row_failures),
                         rep.extension_empty, rep.projection_bounded))
    assert outcomes == [
        ("shifted", False, True, True, False, True),
        ("dropped-eq", False, False, True, False, True),
        ("dropped-ineq", False, False, True, False, False),
        ("empty", False, True, False, True, True),
        ("birkhoff(3)", False, False, True, False, True),
        ("empty", True, False, False, True, True),
    ]


# ---------------------------------------------------------------------------
# poly_equal and is_vertex
# ---------------------------------------------------------------------------

small = st.integers(-2, 2).map(F)


@st.composite
def hpolys(draw, dim):
    """Few rows of small entries: often unbounded, sometimes empty or
    lower-dimensional (an equation, or a row and its negation)."""
    vector = st.lists(small, min_size=dim, max_size=dim)
    ineqs = draw(st.lists(st.tuples(vector, small), max_size=4))
    if ineqs and draw(st.booleans()):
        a, b = ineqs[0]
        ineqs.append(([-x for x in a], -b))
    eqs = draw(st.lists(st.tuples(vector, small), max_size=1))
    return HPoly(dim, ineqs, eqs)


def variant(draw, p):
    """The same set described otherwise (rows reversed and scaled, plus a
    redundant sum of two rows), or a row dropped or loosened."""
    ineqs, eqs = list(p.ineqs), list(p.eqs)
    kind = draw(st.sampled_from(["same", "drop", "loosen"]))
    if kind == "same":
        ineqs = [(tuple(2 * x for x in a), 2 * b) for a, b in reversed(ineqs)]
        if len(ineqs) > 1:
            (a1, b1), (a2, b2) = ineqs[0], ineqs[1]
            ineqs.append((tuple(x + y for x, y in zip(a1, a2)), b1 + b2))
    elif ineqs:
        i = draw(st.integers(0, len(ineqs) - 1))
        if kind == "drop":
            del ineqs[i]
        else:
            ineqs[i] = (ineqs[i][0], ineqs[i][1] + 1)
    return HPoly(p.dim, ineqs, eqs)


@st.composite
def point_sets(draw, dim, min_size=0):
    pts = draw(st.lists(st.tuples(*[small] * dim), min_size=min_size, max_size=5, unique=True))
    return VPoly(dim, pts)


@st.composite
def hh_pairs(draw):
    dim = draw(st.integers(0, 3))
    p1 = draw(hpolys(dim))
    p2 = variant(draw, p1) if draw(st.booleans()) else draw(hpolys(dim))
    return (p1, p2) if draw(st.booleans()) else (p2, p1)


@st.composite
def vh_pairs(draw):
    dim = draw(st.integers(0, 3))
    v = draw(point_sets(dim))
    if v.vertices and draw(st.booleans()):
        h = variant(draw, hull(v))
    else:
        h = draw(hpolys(dim))
    return (v, h) if draw(st.booleans()) else (h, v)


@st.composite
def vv_pairs(draw):
    dim = draw(st.integers(0, 3))
    v1 = draw(point_sets(dim))
    if draw(st.booleans()):
        # the same hull: v1 reordered, plus midpoints of its points
        pts = list(reversed(v1.vertices))
        extra = [tuple((x + y) / 2 for x, y in zip(p, q)) for p, q in zip(pts, pts[1:])]
        pts += [p for p in extra if p not in pts]
        if pts and draw(st.booleans()):
            del pts[draw(st.integers(0, len(pts) - 1))]
        v2 = VPoly(dim, list(dict.fromkeys(pts)))
    else:
        v2 = draw(point_sets(dim))
    return v1, v2


@settings(deadline=None, derandomize=True, max_examples=200)
@given(hh_pairs())
def test_poly_equal_h_h_matches_reference(pair):
    assert_same(ref_poly_equal, kernel.poly_equal, *pair)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(vh_pairs())
def test_poly_equal_v_h_matches_reference(pair):
    assert_same(ref_poly_equal, kernel.poly_equal, *pair)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(vv_pairs())
def test_poly_equal_v_v_matches_reference(pair):
    assert_same(ref_poly_equal, kernel.poly_equal, *pair, same_lps=False)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.integers(0, 3).flatmap(lambda d: point_sets(d, min_size=1)), st.data())
def test_is_vertex_matches_reference(points, data):
    index = data.draw(st.integers(0, len(points.vertices) - 1))
    assert_same(ref_is_vertex, kernel.is_vertex, points, index, same_lps=False)


def test_the_pairs_reach_every_outcome():
    """The drawn pairs include equal and unequal answers on each branch, with
    empty, unbounded and lower-dimensional sides."""
    seen = set()

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.one_of(hh_pairs(), vh_pairs(), vv_pairs()))
    def collect(pair):
        kinds = tuple(type(p).__name__ for p in pair)
        res = kernel.poly_equal(*pair)
        seen.add((kinds, res.equal))
        for p in pair:
            if isinstance(p, HPoly):
                x = feasible_point(p)
                if x is None:
                    seen.add("empty")
                    continue
                if any(optimize(p, a, s).status == UNBOUNDED for a in linalg.identity(p.dim) for s in ("max", "min")):
                    seen.add("unbounded")
                if p.dim and kernel.affine_hull(p):
                    seen.add("lower-dimensional")

    collect()
    for kinds in (("HPoly", "HPoly"), ("HPoly", "VPoly"), ("VPoly", "HPoly"), ("VPoly", "VPoly")):
        assert (kinds, True) in seen and (kinds, False) in seen, kinds
    assert {"empty", "unbounded", "lower-dimensional"} <= seen
