"""The lift-hint check of `verify_extension` direction (a), `kernel._is_lift`,
against the Fraction check it replaced: y as Fractions, every row of Q
evaluated by a Fraction dot product, and proj(y) == v compared as a tuple.

The extension is a box: Q = {0 <= y0 <= a, 0 <= y1 <= b, m·y2 - m·y0 =
m·c, 0 <= y3 <= 1} and p(y) = (y0 + o0, s·y1 + o1), so P = p(Q) is a
rectangle, and one more target point lies outside it.  Each target point
gets a hint of a drawn kind: its true lift, no hint, the lift off one
inequality or the equation by 1/k, a lift whose image is off by 1/k in one
coordinate, the lift as a list of ints or of Fractions, the lift as ints
moved by k·2^16 along y0 and y2 (past the packed check's limit), or a lift
of the wrong length.

The constructions' own hints are tuples of ints at integral vertices, which
`_is_lift` reads as they stand.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import constructions as cx
from polylift import linalg, zoo
from polylift.kernel import AffineMap, HPoly, VPoly, _is_lift, hull

F = Fraction
ZERO, ONE = F(0), F(1)
KINDS = ("hit", "none", "off_ineq", "off_eq", "off_image", "ints", "far_ints", "list", "long", "short")
FAR = 1 << 16


def fraction_check(q, proj, y, v):
    """The Fraction check the integer one replaced."""
    y = linalg.vec(y)
    dot = lambda a: sum((x * z for x, z in zip(a, y)), ZERO)
    return (len(y) == q.dim and all(dot(a) <= b for a, b in q.ineqs) and all(dot(c) == d for c, d in q.eqs)
            and tuple(dot(row) + o for row, o in zip(proj.matrix, proj.offset)) == v)


def box(a, b, c, m, s, o0, o1):
    """The extension, the target's rows and its points: the rectangle's four
    vertices, then one point outside it."""
    unit = lambda j: tuple(ONE if i == j else ZERO for i in range(4))
    neg = lambda j: tuple(-x for x in unit(j))
    q = HPoly(4, [(neg(0), ZERO), (unit(0), a), (neg(1), ZERO), (unit(1), b), (neg(3), ZERO), (unit(3), ONE)],
              [((-m, ZERO, m, ZERO), m * c)])
    proj = AffineMap([(ONE, ZERO, ZERO, ZERO), (ZERO, s, ZERO, ZERO)], (o0, o1))
    lo, hi = sorted((o1, o1 + s * b))
    hrep = HPoly(2, [((-ONE, ZERO), -o0), ((ONE, ZERO), o0 + a), ((ZERO, -ONE), -lo), ((ZERO, ONE), hi)])
    points = [(o0 + x, o1 + s * y) for x in (ZERO, a) for y in (ZERO, b)] + [(o0 + a + 1, o1)]
    return q, proj, hrep, points


def hint(kind, k, v, q, proj):
    """A hint of the given kind for the target point v."""
    (o0, o1), s = proj.offset, proj.matrix[1][1]
    c = q.eqs[0][1] / q.eqs[0][0][2]
    y0, y1 = v[0] - o0, (v[1] - o1) / s
    y = [y0, y1, y0 + c, ZERO]
    if kind == "none":
        return None
    if kind == "off_ineq":
        y[3] = -ONE / k if k % 2 else ONE + ONE / k
    elif kind == "off_eq":
        y[2] += ONE / k
    elif kind == "off_image":
        # inward along y0, with y2 following it: y stays in Q
        step = ONE / k if y0 == 0 else -ONE / k
        y[0] += step
        y[2] += step
    elif kind == "ints":
        return [int(x) for x in y]
    elif kind == "far_ints":
        # off the image; in Q only when the box is long enough
        return (int(y[0]) + k * FAR, int(y[1]), int(y[2]) + k * FAR, 0)
    elif kind == "long":
        y.append(ZERO)
    elif kind == "short":
        y.pop()
    return y if kind == "list" else tuple(y)


def verify_with(check, hrep, ext, vrep):
    saved = cx._is_lift
    cx._is_lift = check
    try:
        return cx.verify_extension(hrep, ext, target_vrep=vrep)
    finally:
        cx._is_lift = saved


fractions = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
sizes = st.builds(F, st.integers(1, 6), st.sampled_from([1, 1, 2]))


@st.composite
def cases(draw):
    a, b, m = draw(sizes), draw(sizes), draw(sizes)
    c, o0, o1 = draw(fractions), draw(fractions), draw(fractions)
    s = draw(sizes) * draw(st.sampled_from([1, -1]))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=5, max_size=5))
    ks = draw(st.lists(st.integers(1, 4), min_size=5, max_size=5))
    return (a, b, c, m, s, o0, o1), kinds, ks


def check_case(params, kinds, ks):
    q, proj, hrep, points = box(*params)
    hints = {v: hint(kind, k, v, q, proj) for v, kind, k in zip(points, kinds, ks)}
    for v, y in hints.items():
        if y is not None:
            assert _is_lift(q, proj, y, v) == fraction_check(q, proj, y, v), (v, y)
    ext = cx.Extension(q, proj, 2, "box", hints.get)
    vrep = VPoly(2, points)
    got, want = verify_with(_is_lift, hrep, ext, vrep), verify_with(fraction_check, hrep, ext, vrep)
    assert (got.lift_hits, got.vertex_failures) == (want.lift_hits, want.vertex_failures)
    assert got == want
    return got


@settings(deadline=None, derandomize=True, max_examples=300)
@given(cases())
def test_lift_hint_check_matches_fraction_check(case):
    check_case(*case)


def test_each_kind_of_hint():
    # rational Q, map and offsets: the true lifts hit, and so do they as a
    # list; every other kind misses
    params = (F(3, 2), F(2), F(-1, 3), F(2, 3), F(-1, 2), F(1, 2), F(-2, 3))
    for kind, hits in (("hit", 4), ("list", 4), ("none", 0), ("off_ineq", 0), ("off_eq", 0),
                       ("off_image", 0), ("long", 0), ("short", 0)):
        for k in (1, 2, 3):
            rep = check_case(params, [kind] * 5, [k] * 5)
            assert (rep.lift_hits, rep.vertex_failures) == (hits, [(F(3), F(-2, 3))]), (kind, k)
    # integer data: the lifts as lists of ints hit
    rep = check_case((F(2), F(3), F(1), F(1), F(1), F(1), F(-1)), ["ints"] * 5, [1] * 5)
    assert rep.lift_hits == 4 and rep.passed is False
    # a box longer than 2^16: the int lifts, with entries past 2^16, still
    # hit; moved by k·2^16 they miss
    long_box = (F(3 * FAR), F(FAR + 1), F(FAR - 1), F(1), F(-1), F(-FAR), F(2 * FAR))
    for kind, k, hits in (("ints", 1, 4), ("far_ints", 1, 0), ("far_ints", 2, 0), ("far_ints", 3, 0)):
        rep = check_case(long_box, [kind] * 5, [k] * 5)
        assert rep.lift_hits == hits and rep.passed is False, (kind, k)


def _two_integral_parts():
    # the unit square and the triangle (1, 1), (2, 1), (1, 2): their union's
    # hull has the vertices of both but (1, 1)
    square = zoo.cube_hrep(2)
    triangle = hull(VPoly(2, [(1, 1), (2, 1), (1, 2)]))
    ext = cx.balas_union([square, triangle])
    target = VPoly(2, [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)])
    return ext, hull(target), target


@pytest.mark.parametrize("make", [
    lambda: (cx.birkhoff_extension(4), zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)),
    lambda: (cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)),
    lambda: (cx.knapsack_flow_extension((2, 3, 5, 6), 8), hull(zoo.knapsack_vrep((2, 3, 5, 6), 8)),
             zoo.knapsack_vrep((2, 3, 5, 6), 8)),
    lambda: (cx.sorting_network_extension(4, cx.batcher_network(4)), zoo.permutahedron_hrep(4),
             zoo.permutahedron_vrep(4)),
    _two_integral_parts,
], ids=["birkhoff(4)", "martin(4)", "knapsack_flow", "sortnet(4)", "balas"])
def test_constructions_hint_integer_points(make):
    ext, hrep, vrep = make()
    for v in vrep.vertices:
        y = ext.lift(v)
        assert type(y) is tuple and all(type(x) is int for x in y), (v, y)
        assert _is_lift(ext.q, ext.proj, y, v) and fraction_check(ext.q, ext.proj, y, v)
    rep = cx.verify_extension(hrep, ext, target_vrep=vrep)
    assert rep.passed and rep.lift_hits == rep.checked_vertices == len(vrep.vertices)


def test_fractional_vertices_keep_fraction_hints():
    # Balas over parts with a vertex at 1/2: that vertex's hint stays in
    # Fractions, an integral vertex's is ints; Birkhoff and sorting networks
    # have no hint off the permutations
    half = hull(VPoly(1, [(F(1, 2),), (F(1),)]))
    ext = cx.balas_union([half, hull(VPoly(1, [(F(2),), (F(3),)]))])
    y = ext.lift((F(1, 2),))
    assert y == (F(1, 2), ZERO, ONE, ZERO) and any(type(x) is not int for x in y)
    assert all(type(x) is int for x in ext.lift((F(3),)))
    assert _is_lift(ext.q, ext.proj, y, (F(1, 2),))
    assert cx.birkhoff_extension(3).lift((F(1), F(5, 2), F(5, 2))) is None
    assert cx.sorting_network_extension(3, cx.bubble_network(3)).lift((F(1), F(5, 2), F(5, 2))) is None


# ---------------------------------------------------------------------------
# The lifts read the vertex as integers, as the Fraction lifts did
# ---------------------------------------------------------------------------

def fraction_birkhoff_lift(n, v):
    if sorted(v) != list(range(1, n + 1)):
        return None
    y = [0] * (n * n)
    for i, val in enumerate(v):
        y[i * n + (int(val) - 1)] = 1
    return tuple(y)


def fraction_sortnet_lift(n, net, v):
    if sorted(v) != list(range(1, n + 1)):
        return None
    cur = [int(x) for x in v]
    stages = [cur]
    for i, j in net.comparators:
        cur = list(cur)
        if cur[i] > cur[j]:
            cur[i], cur[j] = cur[j], cur[i]
        stages.append(cur)
    return tuple(x for stage in stages for x in stage)


def fraction_martin_lift(n, v):
    ei = zoo.GraphEdgeIndex(n)
    m = len(ei)
    triples = [(a, b, u) for a in range(n) for b in range(n) for u in range(n) if a != b and a != u and b != u]
    zpos = {t: m + i for i, t in enumerate(triples)}
    tree = [e for e, x in zip(ei.edges, v) if x == ONE]
    if len(tree) != n - 1 or any(x not in (ZERO, ONE) for x in v[:m]):
        return None
    adj = [[] for _ in range(n)]
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    parent, order = {0: None}, [0]
    for cur in order:
        for nxt in adj[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
    if len(order) != n:
        return None
    below = [1 << u for u in range(n)]
    for u in reversed(order[1:]):
        below[parent[u]] |= below[u]
    y = [int(x) for x in v[:m]] + [0] * len(triples)
    for a, b in tree:
        child = b if parent[b] == a else a
        for u in range(n):
            if u != a and u != b:
                on_b = (below[child] >> u & 1) == (child == b)
                y[zpos[(a, b, u) if on_b else (b, a, u)]] = 1
    return tuple(y)


def fraction_knapsack_lift(weights, capacity, v):
    net = cx.knapsack_network(weights, capacity)
    arc_ix = {a: i for i, a in enumerate(net.arcs)}
    if any(x not in (ZERO, ONE) for x in v):
        return None
    chosen = [i + 1 for i, x in enumerate(v) if x == ONE]
    if sum(net.weights[i - 1] for i in chosen) > net.capacity:
        return None
    y = [0] * len(net.arcs)
    cur = (0, 0)
    for item in chosen:
        nxt = (item, cur[1] + net.weights[item - 1])
        y[arc_ix[(cur, nxt, item)]] = 1
        cur = nxt
    y[arc_ix[(cur, "t", None)]] = 1
    return tuple(y)


HALF = F(1, 2)
PERMS_OFF = [(HALF, F(2), F(3), F(4)), (F(1), F(1), F(3), F(4)), (F(2), F(3), F(4), F(5)), (ZERO, ONE, F(2), F(3))]
# K_4's edges (0,1), (0,2), (0,3), (1,2), (1,3), (2,3): a 1/2 entry, a
# triangle that misses node 3, a 4-cycle, a 2 entry, no edge
TREES_OFF = [(HALF, ONE, ONE, ZERO, ZERO, ZERO), (ONE, ONE, ZERO, ONE, ZERO, ZERO),
             (ONE, ONE, ZERO, ZERO, ONE, ONE), (F(2), ONE, ONE, ZERO, ZERO, ZERO), (ZERO,) * 6]
SETS_OFF = [(HALF, ZERO, ONE, ZERO), (F(2), ZERO, ZERO, ZERO), (ONE,) * 4, (ZERO, ONE, F(-1), ZERO)]


@pytest.mark.parametrize("ext, lift, vrep, off", [
    (cx.birkhoff_extension(4), lambda v: fraction_birkhoff_lift(4, v), zoo.permutahedron_vrep(4), PERMS_OFF),
    (cx.sorting_network_extension(4, cx.batcher_network(4)),
     lambda v: fraction_sortnet_lift(4, cx.batcher_network(4), v), zoo.permutahedron_vrep(4), PERMS_OFF),
    (cx.martin_spanning_tree_extension(4), lambda v: fraction_martin_lift(4, v), zoo.spanning_tree_vrep(4),
     TREES_OFF),
    (cx.knapsack_flow_extension((2, 3, 5, 6), 8), lambda v: fraction_knapsack_lift((2, 3, 5, 6), 8, v),
     zoo.knapsack_vrep((2, 3, 5, 6), 8), SETS_OFF),
], ids=["birkhoff(4)", "sortnet(4)", "martin(4)", "knapsack_flow"])
def test_integer_lifts_match_the_fraction_lifts(ext, lift, vrep, off):
    # every vertex, as Fractions and as ints, then points that are none
    ints = [tuple(int(x) for x in v) for v in vrep.vertices]
    for v in [*vrep.vertices, *ints, *off]:
        want = lift(v)
        assert ext.lift(v) == want, v
        assert (want is None) == (v in off)
        assert want is None or all(type(x) is int for x in ext.lift(v))
