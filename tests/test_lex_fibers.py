"""`kernel._lex_fibers`, the lexicographic LP batch over right-hand sides,
against a loop of one lexicographic solve per fiber.

The reference is `lex_min_point` as it was before it became a batch of one:
presolve, standard form and one lexicographic simplex call per polyhedron,
here q plus the fiber rows matrix·y = r.  For every r the batch must give
the same point, or an error of the same type and message.  `_outside_image`,
the batch with no cost, must find the same points outside the image as one
feasibility LP per point.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polylift import kernel, linalg, simplex
from polylift.errors import EmptyPolyhedronError, InvariantViolationError, UnboundedPolyhedronError
from polylift.kernel import INFEASIBLE, AffineMap, HPoly, optimize
from test_int_costs import reference_objective
from test_simplex import int_pairs

F = Fraction
ZERO = F(0)


def reference_lex_min_point(poly: HPoly):
    red = kernel._presolve(poly.dim, *poly._int_rows())
    if red.infeasible:
        raise EmptyPolyhedronError("polyhedron is empty")
    if poly.dim == 0:
        return ()
    k = len(red.alive)
    objs = [reference_objective(red, linalg.unit(poly.dim, j)) for j in range(poly.dim)]
    rows, scales, costs, var_cols = kernel._assemble_standard(
        k, red.ineqs, red.eqs, [int_pairs(obj) for obj, _ in objs], red.nonneg
    )
    fixed = []
    [results] = simplex.solve_standard(rows, scales, costs, lex=True)
    for j, res in enumerate(results):
        if res.status == simplex.INFEASIBLE:
            raise EmptyPolyhedronError("polyhedron is empty")
        if res.status == simplex.UNBOUNDED:
            raise UnboundedPolyhedronError(f"coordinate {j} unbounded below")
        fixed.append(res.value + objs[j][1])
    if red.back(res.point, var_cols) != tuple(fixed):
        raise InvariantViolationError("lexicographic point disagrees with its coordinate minima")
    return tuple(fixed)


def _outcome(y):
    return ("point", y) if not isinstance(y, Exception) else (type(y).__name__, str(y))


def _reference(q, matrix, r):
    try:
        return _outcome(reference_lex_min_point(HPoly(q.dim, q.ineqs, q.eqs + tuple(zip(matrix, r)))))
    except (EmptyPolyhedronError, UnboundedPolyhedronError) as e:
        return _outcome(e)


def _under_budget(fn, *args, budget=5_000):
    """fn(*args) under a pivot budget: a batch that cycles fails here
    instead of running on."""
    pivot, count = simplex._pivot, [0]

    def counted(*args):
        count[0] += 1
        assert count[0] <= budget, "the batch does not terminate"
        return pivot(*args)

    simplex._pivot = counted
    try:
        return fn(*args)
    finally:
        simplex._pivot = pivot


def _batch(q, matrix, rhss):
    """`_lex_fibers`, lexicographic in every coordinate, under the budget."""
    return _under_budget(kernel._lex_fibers, q, matrix, rhss, q.dim)


def _assert_same(q, matrix, rhss):
    """The batch and the reference agree on every r; returns the outcomes."""
    got = [_outcome(y) for y in _batch(q, matrix, rhss)]
    assert got == [_reference(q, matrix, r) for r in rhss]
    return got


def _status(outcomes):
    return [kind for kind, _ in outcomes]


# ---------------------------------------------------------------------------
# The cases one by one
# ---------------------------------------------------------------------------

# the triangle y >= 0, y0 + y1 <= 2, fibers y0 - y1 = r (two nonzeros: the
# loop's presolve eliminated y1 through it)
TRIANGLE = HPoly(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)])
DIFF = [(F(1), F(-1))]


def test_first_and_middle_points_infeasible():
    got = _assert_same(TRIANGLE, DIFF, [(F(3),), (F(1),), (F(-5),), (F(0),), (F(-2),)])
    assert _status(got) == ["EmptyPolyhedronError", "point", "EmptyPolyhedronError", "point", "point"]
    assert got[1][1] == (F(1), F(0)) and got[4][1] == (F(0), F(2))


def test_every_point_infeasible():
    got = _assert_same(TRIANGLE, DIFF, [(F(3),), (F(-3),), (F(7, 2),)])
    assert _status(got) == ["EmptyPolyhedronError"] * 3


def test_unbounded_coordinate():
    # y0 free, 0 <= y2 <= 1 and y1 >= 0, fibers y1 + y2 = r: y0 has no minimum
    q = HPoly(3, [((0, -1, 0), 0), ((0, 0, -1), 0), ((0, 0, 1), 1)])
    got = _assert_same(q, [(F(0), F(1), F(1))], [(F(1),), (F(-1),), (F(1, 2),)])
    assert _status(got) == ["UnboundedPolyhedronError", "EmptyPolyhedronError", "UnboundedPolyhedronError"]
    assert got[0][1] == "coordinate 0 unbounded below"


def test_unbounded_later_coordinate():
    # y0 >= 0 fixed by the fiber, y1 free: coordinate 1 has no minimum
    q = HPoly(2, [((-1, 0), 0)])
    got = _assert_same(q, [(F(1), F(0))], [(F(2),), (F(0),)])
    assert [msg for _, msg in got] == ["coordinate 1 unbounded below"] * 2


def test_q_empty():
    empty = HPoly(3, [((1, 1, 1), -1), ((-1, -1, -1), 0), ((-1, 0, 0), 0)])
    got = _assert_same(empty, [(F(1), F(0), F(2))], [(F(0),), (F(1),)])
    assert _status(got) == ["EmptyPolyhedronError"] * 2
    # the presolve alone proves this one empty
    got = _assert_same(HPoly(1, [((0,), -1)]), [(F(1),)], [(F(0),)])
    assert _status(got) == ["EmptyPolyhedronError"]


def test_dimension_zero():
    assert _assert_same(HPoly(0, [((), 1)]), [(), ()], [(ZERO, ZERO), (ZERO, F(1)), (ZERO, ZERO)]) == [
        ("point", ()), ("EmptyPolyhedronError", "polyhedron is empty"), ("point", ())]
    assert _status(_assert_same(HPoly(0, [((), -1)]), [()], [(ZERO,)])) == ["EmptyPolyhedronError"]
    assert _assert_same(HPoly(0), (), [()]) == [("point", ())]


def test_dependent_row_made_inconsistent_by_a_later_rhs():
    # Q = {y >= 0, y0 + y1 + y2 = 1} (three nonzeros: no presolve), and the
    # fiber rows y0 = r0 and y0 + y1 + y2 = r1: at the first r the second
    # row repeats Q's equation, and phase 1 drops it; a later r1 != 1 is
    # inconsistent although the tableau stays feasible
    q = HPoly(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)], [((1, 1, 1), 1)])
    matrix = [(F(1), ZERO, ZERO), (F(1), F(1), F(1))]
    rhss = [(F(0), F(1)), (F(1, 2), F(1)), (F(0), F(2)), (F(1), F(1)), (F(1, 3), F(3, 2)), (F(1, 3), F(1))]
    got = _assert_same(q, matrix, rhss)
    assert _status(got) == ["point", "point", "EmptyPolyhedronError", "point", "EmptyPolyhedronError", "point"]
    assert got[5][1] == (F(1, 3), ZERO, F(2, 3))


def test_zero_row_after_presolve():
    # Q's equation y0 + y1 = 1 (two nonzeros) eliminates y1, so the fiber
    # row y0 + y1 = r reduces to 0 = r - 1
    q = HPoly(2, [((-1, 0), 0), ((0, -1), 0)], [((1, 1), 1)])
    got = _assert_same(q, [(F(1), F(1))], [(F(1),), (F(2),), (F(1),), (F(0),)])
    assert _status(got) == ["point", "EmptyPolyhedronError", "point", "EmptyPolyhedronError"]


def test_denominators_the_first_rhs_lacks():
    q = HPoly(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 1)])
    matrix = [(F(1), F(2), F(3)), (F(1), F(-1), ZERO)]
    rhss = [(F(1), F(0)), (F(1, 3), F(1, 7)), (F(5, 6), F(-1, 5)), (F(2), F(1, 2)), (F(1), F(0))]
    got = _assert_same(q, matrix, rhss)
    assert all(kind == "point" for kind in _status(got))


def test_short_fiber_rows_and_repeated_points():
    # fiber rows y0 = r0 and y1 - y2 = r1, which the loop's presolve
    # eliminated, and the same r again after others
    q = HPoly(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), 3)], [])
    matrix = [(F(1), ZERO, ZERO), (ZERO, F(1), F(-1))]
    rhss = [(F(1), F(1)), (F(0), F(-2)), (F(1), F(1)), (F(3), F(1)), (F(1), F(1)), (F(0), F(-2))]
    got = _assert_same(q, matrix, rhss)
    assert got[0] == got[2] == got[4] and got[1] == got[5]
    assert _status(got) == ["point", "point", "point", "EmptyPolyhedronError", "point", "point"]


def test_no_right_hand_sides(monkeypatch):
    def no_presolve(dim, ineqs, eqs):
        raise AssertionError("an empty batch presolves nothing")

    monkeypatch.setattr(kernel, "_presolve", no_presolve)
    assert kernel._lex_fibers(TRIANGLE, DIFF, [], 2) == []
    assert kernel._outside_image(TRIANGLE, AffineMap.linear(DIFF), []) == []


# ---------------------------------------------------------------------------
# Random fibers
# ---------------------------------------------------------------------------

small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))


def _row(n, draw, short=False):
    row = [ZERO] * n
    picks = range(n) if not short else draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
    for j in picks:
        row[j] = draw(small)
    return tuple(row)


def _dot(a, y):
    return sum((x * v for x, v in zip(a, y)), ZERO)


@st.composite
def fiber_cases(draw):
    """(q, matrix, rhss): q through a few chosen points, often pointed (sign
    rows), sometimes empty; fiber rows dense, short, or a copy of one of q's
    equations; right-hand sides that are the images of the chosen points,
    midpoints of two of them, random, or repeats."""
    n = draw(st.integers(0, 5))
    pts = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=1, max_size=3))
    ineqs = []
    for j in range(n):
        if draw(st.integers(0, 3)):
            ineqs.append((tuple(F(-1) if i == j else ZERO for i in range(n)), -min(p[j] for p in pts)))
    for _ in range(draw(st.integers(0, 4))):
        a = _row(n, draw, short=draw(st.booleans()))
        ineqs.append((a, max(_dot(a, p) for p in pts) + draw(st.sampled_from([ZERO, ZERO, F(1), F(1, 2)]))))
    eqs = []
    if n and draw(st.integers(0, 2)) == 0:
        c = _row(n, draw)
        eqs.append((c, _dot(c, pts[0])))
        pts = [pts[0]] + [p for p in pts[1:] if _dot(c, p) == eqs[0][1]]
    if draw(st.integers(0, 5)) == 0 and n:
        a = _row(n, draw)
        ineqs += [(a, ZERO), (tuple(-x for x in a), F(-1))]
    q = HPoly(n, ineqs, eqs)
    matrix = []
    for _ in range(draw(st.integers(0 if n else 1, 3))):
        kind = draw(st.sampled_from(["dense", "short", "short", "eq"]))
        matrix.append(eqs[0][0] if kind == "eq" and eqs else _row(n, draw, short=kind == "short"))
    images = [tuple(_dot(a, p) for a in matrix) for p in pts]
    rhss = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["image", "image", "mid", "random", "repeat"]))
        if kind == "image":
            rhss.append(draw(st.sampled_from(images)))
        elif kind == "mid":
            u, v = draw(st.sampled_from(images)), draw(st.sampled_from(images))
            rhss.append(tuple((x + y) / 2 for x, y in zip(u, v)))
        elif kind == "repeat" and rhss:
            rhss.append(draw(st.sampled_from(rhss)))
        else:
            rhss.append(tuple(draw(small) for _ in matrix))
    return q, matrix, rhss


@settings(deadline=None, derandomize=True, max_examples=300)
@given(fiber_cases())
def test_batch_matches_one_lex_solve_per_fiber(case):
    _assert_same(*case)


# ---------------------------------------------------------------------------
# `_outside_image`: the batch with no cost, against one feasibility LP per
# point
# ---------------------------------------------------------------------------

def reference_outside_image(q, proj, points):
    """`_outside_image` as it was before it became a batch: one `optimize`
    of q plus the equations proj's rows · y = x - offset per point."""
    out = []
    for x in points:
        rows = [(row, xi - o) for row, xi, o in zip(proj.matrix, x, proj.offset)]
        if optimize(HPoly(q.dim, q.ineqs, q.eqs + tuple(rows)), linalg.zeros(q.dim), "min").status == INFEASIBLE:
            out.append(x)
    return out


def _assert_outside_same(q, matrix, points):
    """The batch and the reference give the same points; returns them."""
    proj = AffineMap.linear(matrix)
    got = _under_budget(kernel._outside_image, q, proj, points)
    assert got == reference_outside_image(q, proj, points)
    return got


def test_outside_every_point():
    pts = [(F(3),), (F(-3),), (F(7, 2),)]
    assert _assert_outside_same(TRIANGLE, DIFF, pts) == pts


def test_outside_first_point_then_inside():
    # phase 1 finds the first fiber empty; the later ones start from the
    # basis its artificials were driven out of
    pts = [(F(3),), (F(1),), (F(-5),), (F(0),), (F(3),), (F(-2),)]
    assert _assert_outside_same(TRIANGLE, DIFF, pts) == [(F(3),), (F(-5),), (F(3),)]


def test_outside_empty_q():
    empty = HPoly(3, [((1, 1, 1), -1), ((-1, -1, -1), 0), ((-1, 0, 0), 0)])
    pts = [(F(0),), (F(1),)]
    assert _assert_outside_same(empty, [(F(1), F(0), F(2))], pts) == pts
    assert _assert_outside_same(HPoly(1, [((0,), -1)]), [(F(1),)], pts) == pts


def test_outside_output_dimension_zero():
    # every fiber is q itself
    assert _assert_outside_same(TRIANGLE, [], [(), ()]) == []
    empty = HPoly(2, [((1, 1), -1), ((-1, 0), 0), ((0, -1), 0)])
    assert _assert_outside_same(empty, [], [(), ()]) == [(), ()]


def test_outside_dimension_zero():
    pts = [(ZERO, ZERO), (ZERO, F(1)), (F(-1), ZERO)]
    assert _assert_outside_same(HPoly(0, [((), 1)]), [(), ()], pts) == pts[1:]
    assert _assert_outside_same(HPoly(0, [((), -1)]), [(), ()], pts) == pts


@settings(deadline=None, derandomize=True, max_examples=300)
@given(fiber_cases())
def test_outside_image_matches_one_lp_per_point(case):
    _assert_outside_same(*case)
