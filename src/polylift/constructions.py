"""Extended-formulation constructions and exact projection verification.

Every construction returns an Extension: a polyhedron Q, an affine projection
p, and a name.  Constructions also attach a lift callable producing, for a
target vertex, an explicit preimage in Q; verify_extension checks such hints
by exact substitution (a complete certificate) and sends the vertices whose
hint is missing or fails to one LP batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Sequence

from . import linalg
from .errors import EmptyPolyhedronError, InputError, InvariantViolationError, SizeLimitError
from .kernel import (
    AffineMap,
    HPoly,
    VPoly,
    _image_violations,
    _is_lift,
    _outside_image,
    hull,
    optimize,  # unused here, but perfbench's tracer test reads constructions.optimize
    optimize_all,
    vertices,
)
from .zoo import GraphEdgeIndex, _matchings, birkhoff_hrep, matching_label

F = Fraction
ZERO = F(0)
ONE = F(1)


@dataclass(frozen=True)
class Extension:
    """Extension (Q, p) of a target polytope: p(Q) = target.

    size() counts Q's inequalities only, matching how extended-formulation
    sizes are measured everywhere in this package.  lift(v), if given, is a
    hint: a preimage of the target vertex v in Q, or None.  A hint of ints
    is read as the integer point itself, any other as rationals, and Q's
    rows are read at it in one packed big-integer sum (`HPoly._holds`:
    fields of reach.bit_length() + 17 bits, which cannot carry while the
    point's entries are below 2^16; a larger one takes the row loop).
    """

    q: HPoly
    proj: AffineMap
    target_dim: int
    name: str
    lift: Callable[[tuple], tuple | None] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.proj.out_dim != self.target_dim:
            raise InputError("projection output dimension mismatch")
        if self.q.dim != self.proj.in_dim and self.proj.matrix:
            raise InputError("projection input dimension mismatch")

    def size(self) -> int:
        return self.q.size()

    def project_point(self, y: Sequence) -> tuple:
        return self.proj.apply(y)


@dataclass
class VerifyReport:
    """Outcome of an exact P = p(Q) check with machine-checkable witnesses."""

    name: str
    passed: bool
    size: int
    target_dim: int
    vertex_failures: list = field(default_factory=list)  # vertices of P not in p(Q)
    row_failures: list = field(default_factory=list)     # (label, optimum|'unbounded', rhs, witness)
    checked_vertices: int = 0
    checked_rows: int = 0
    lift_hits: int = 0
    extension_empty: bool = False
    projection_bounded: bool = True


def verify_extension(target, ext: Extension, *, target_vrep: VPoly | None = None) -> VerifyReport:
    """Certify p(Q) = target exactly.

    target may be an HPoly or a VPoly; whichever representation is missing is
    computed (hull / vertex enumeration), or, for an HPoly target, supplied
    as target_vrep to avoid recomputation.  An empty target has no vertices,
    and an empty VPoly target is described by the one row 0·x <= -1, so
    either passes exactly when Q is empty.  Direction (a), target inside the
    projection, checks one preimage per target vertex by substituting its
    lift hint; the vertices no hint covers go to one exact LP batch over Q
    (`kernel._outside_image`).
    Direction (b), projection inside the target, solves one exact LP per
    target row and per equation direction (`kernel._image_violations`).
    """
    if not isinstance(target, (HPoly, VPoly)):
        raise InputError("target must be an HPoly or a VPoly")
    if target.dim != ext.target_dim:
        raise InputError("target dimension does not match the extension")
    if isinstance(target, HPoly):
        hrep, vrep = target, target_vrep
        if vrep is None:
            try:
                vrep = vertices(target)
            except EmptyPolyhedronError:
                vrep = VPoly(target.dim, [])
    else:
        hrep = hull(target) if target.vertices else HPoly(target.dim, [((ZERO,) * target.dim, -ONE)])
        vrep = target
    if hrep.dim != vrep.dim:
        raise InputError("target descriptions disagree on dimension")

    report = VerifyReport(name=ext.name, passed=True, size=ext.size(), target_dim=ext.target_dim,
                          checked_vertices=len(vrep.vertices))
    q, proj = ext.q, ext.proj

    # (a) every vertex of the target has a preimage in Q
    missed = []
    for v in vrep.vertices:
        y = ext.lift(v) if ext.lift is not None else None
        if y is not None and _is_lift(q, proj, y, v):
            report.lift_hits += 1
        else:
            missed.append(v)
    report.vertex_failures = _outside_image(q, proj, missed)

    # (b) the projection satisfies every row of the target description
    first, fails = _image_violations(q, proj, hrep)
    if first is None:
        report.extension_empty = True
        report.passed = not vrep.vertices
        return report
    report.checked_rows = len(hrep.ineqs) + 2 * len(hrep.eqs)
    rows, m = hrep.ineqs + hrep.eqs, len(hrep.ineqs)
    for i, r, value in fails:
        label = hrep.row_label(i) if i < m else hrep.eq_labels[i - m] if hrep.eq_labels else f"eq{i - m}"
        witness = r.dual_certificate if value is None else proj.apply(r.primal_point)
        report.row_failures.append((label, "unbounded" if value is None else value, rows[i][1], witness))
    report.projection_bounded = all(value is not None for _, _, value in fails)
    report.passed = not report.vertex_failures and not fails
    return report


def _int_vertex(v) -> list[int] | None:
    """A target vertex (ints or Fractions) as ints, or None for a non-integer."""
    x = [t.numerator for t in v if t.denominator == 1]
    return x if len(x) == len(v) else None


# ---------------------------------------------------------------------------
# Birkhoff -> permutahedron
# ---------------------------------------------------------------------------

def birkhoff_extension(n: int) -> Extension:
    """The Birkhoff polytope projected by p(y)_i = sum_j j*y_ij."""
    if n < 1:
        raise InputError("n must be >= 1")
    q = birkhoff_hrep(n)
    rows = []
    for i in range(n):
        row = [ZERO] * (n * n)
        for j in range(n):
            row[i * n + j] = F(j + 1)
        rows.append(row)
    proj = AffineMap.linear(rows)

    def lift(v):
        v = _int_vertex(v)
        if v is None or sorted(v) != list(range(1, n + 1)):
            return None
        y = [0] * (n * n)
        for i, val in enumerate(v):
            y[i * n + val - 1] = 1
        return tuple(y)

    return Extension(q, proj, n, f"birkhoff({n})", lift)


# ---------------------------------------------------------------------------
# Martin's spanning-tree formulation
# ---------------------------------------------------------------------------

def martin_spanning_tree_extension(n: int) -> Extension:
    """Subtour-free extended formulation with component variables z_{v,w,u}."""
    if n < 3:
        raise InputError("n must be >= 3")
    ei = GraphEdgeIndex(n)
    m = len(ei)
    triples = [
        (v, w, u)
        for v in range(n)
        for w in range(n)
        for u in range(n)
        if v != w and v != u and w != u
    ]
    zpos = {t: m + i for i, t in enumerate(triples)}
    d = m + len(triples)

    eqs = []
    eq_labels = []
    # edge decomposition: x_{vw} = z_{v,w,u} + z_{w,v,u}
    for (v, w) in ei.edges:
        for u in range(n):
            if u in (v, w):
                continue
            c = [ZERO] * d
            c[ei.of(v, w)] = ONE
            c[zpos[(v, w, u)]] = -ONE
            c[zpos[(w, v, u)]] = -ONE
            eqs.append((c, ZERO))
            eq_labels.append(f"split({v},{w};{u})")
    # every other node is reached through exactly one edge at v
    for v in range(n):
        for w in range(n):
            if v == w:
                continue
            c = [ZERO] * d
            c[ei.of(v, w)] = ONE
            for u in range(n):
                if u not in (v, w):
                    c[zpos[(v, u, w)]] += ONE
            eqs.append((c, ONE))
            eq_labels.append(f"reach({v}->{w})")
    total = [ZERO] * d
    for i in range(m):
        total[i] = ONE
    eqs.append((total, F(n - 1)))
    eq_labels.append("x(E)=n-1")

    ineqs = []
    labels = []
    for i, e in enumerate(ei.edges):
        a = [ZERO] * d
        a[i] = -ONE
        ineqs.append((a, ZERO))
        labels.append(f"x{GraphEdgeIndex.edge_label(e)}>=0")
    for t in triples:
        a = [ZERO] * d
        a[zpos[t]] = -ONE
        ineqs.append((a, ZERO))
        labels.append(f"z{t}>=0")
    q = HPoly(d, ineqs, eqs, ineq_labels=labels, eq_labels=eq_labels)
    proj = AffineMap.coordinate_projection(d, range(m))

    def lift(v):
        """z_{a,b,u} = 1 when u lies on b's side of the tree edge ab.  One
        traversal rooted at 0 gives each vertex's parent, and below[u], the
        vertices under u as a bitmask: an edge's child side is its child's
        mask, the other side the rest."""
        x = _int_vertex(v)
        tree = [e for e, t in zip(ei.edges, x or ()) if t]
        if x is None or not {*x} <= {0, 1} or len(tree) != n - 1:
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
            return None  # n - 1 edges that miss a vertex: not a spanning tree
        below = [1 << u for u in range(n)]
        for u in reversed(order[1:]):
            below[parent[u]] |= below[u]
        y = x + [0] * len(triples)
        for a, b in tree:
            child = b if parent[b] == a else a
            for u in range(n):
                if u != a and u != b:
                    on_b = (below[child] >> u & 1) == (child == b)
                    y[zpos[(a, b, u) if on_b else (b, a, u)]] = 1
        return tuple(y)

    return Extension(q, proj, m, f"martin({n})", lift)


def martin_size(n: int) -> int:
    return n * (n - 1) // 2 + n * (n - 1) * (n - 2)


# ---------------------------------------------------------------------------
# Balas' union of polytopes
# ---------------------------------------------------------------------------

def balas_union(parts: Sequence[HPoly], name: str | None = None) -> Extension:
    """Disjunctive extension of conv(P_1 u ... u P_q) for bounded parts."""
    parts = list(parts)
    if not parts:
        raise InputError("need at least one part")
    n = parts[0].dim
    if any(p.dim != n for p in parts):
        raise InputError("all parts must share one dimension")
    for t, p in enumerate(parts):
        objectives = [(linalg.zeros(n), "min")]
        for i in range(n):
            e = linalg.unit(n, i)
            objectives += [(e, "max"), (e, "min")]
        first, *bounded = optimize_all(p, objectives)
        if first.status == "infeasible":
            raise InputError(f"part {t} is empty")
        if any(r.status == "unbounded" for r in bounded):
            raise InputError(f"part {t} is unbounded; only polytopes are supported")
    qn = len(parts)
    d = qn * n + qn

    def zcol(i, j):
        return i * n + j

    lam0 = qn * n
    ineqs = []
    labels = []
    eqs = []
    eq_labels = []
    for i, p in enumerate(parts):
        for ridx, (a, b) in enumerate(p.ineqs):
            row = [ZERO] * d
            for j, coef in enumerate(a):
                if coef:
                    row[zcol(i, j)] = coef
            row[lam0 + i] = -b
            ineqs.append((row, ZERO))
            labels.append(f"part{i}:{p.row_label(ridx)}")
        for c, dd in p.eqs:
            row = [ZERO] * d
            for j, coef in enumerate(c):
                if coef:
                    row[zcol(i, j)] = coef
            row[lam0 + i] = -dd
            eqs.append((row, ZERO))
            eq_labels.append(f"part{i}:eq")
    for i in range(qn):
        row = [ZERO] * d
        row[lam0 + i] = -ONE
        ineqs.append((row, ZERO))
        labels.append(f"lambda{i}>=0")
    row = [ZERO] * d
    for i in range(qn):
        row[lam0 + i] = ONE
    eqs.append((row, ONE))
    eq_labels.append("sum(lambda)=1")

    proj_rows = []
    for j in range(n):
        r = [ZERO] * d
        for i in range(qn):
            r[zcol(i, j)] = ONE
        proj_rows.append(r)
    proj = AffineMap.linear(proj_rows)
    q = HPoly(d, ineqs, eqs, ineq_labels=labels, eq_labels=eq_labels)

    def lift(v):
        for i, p in enumerate(parts):
            if p.contains(v):
                y = [ZERO] * d
                for j, val in enumerate(v):
                    y[zcol(i, j)] = linalg.frac(val)
                y[lam0 + i] = ONE
                return tuple([x.numerator for x in y]) if all(x.denominator == 1 for x in y) else tuple(y)
        return None

    return Extension(q, proj, n, name or f"balas_union(q={qn})", lift)


# ---------------------------------------------------------------------------
# Knapsack dynamic-programming flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DPNetwork:
    """Acyclic state network for the 0/1 knapsack: states (i, w) plus s and t.

    s is the state (0, 0); arcs (i,w) -> (i',w') exist iff i < i' and
    w' = w + weights[i'-1] <= capacity (items are 1-based); every node also
    has an arc to t.  Only states reachable from s are materialized.
    """

    weights: tuple
    capacity: int
    nodes: tuple          # (i, w) states, s = (0, 0) first, lexicographic
    arcs: tuple           # (src, dst, item) with dst == "t" and item None allowed

    def arc_count(self) -> int:
        return len(self.arcs)


def knapsack_network(weights, capacity: int) -> DPNetwork:
    w = [int(x) for x in weights]
    if any(x < 0 for x in w) or list(weights) != w:
        raise InputError("weights must be nonnegative integers")
    capacity = int(capacity)
    if capacity < 0:
        raise InputError("capacity must be nonnegative")
    n = len(w)
    states = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        i, om = frontier.pop()
        for nxt in range(i + 1, n + 1):
            om2 = om + w[nxt - 1]
            if om2 <= capacity and (nxt, om2) not in states:
                states.add((nxt, om2))
                frontier.append((nxt, om2))
    nodes = sorted(states)
    arcs = []
    for (i, om) in nodes:
        for nxt in range(i + 1, n + 1):
            om2 = om + w[nxt - 1]
            if om2 <= capacity:
                arcs.append(((i, om), (nxt, om2), nxt))
    for node in nodes:
        arcs.append((node, "t", None))
    arcs.sort(key=lambda a: (a[0], a[1] == "t", a[1] if a[1] != "t" else (0, 0)))
    return DPNetwork(tuple(w), capacity, tuple(nodes), tuple(arcs))


def knapsack_flow_extension(weights, capacity: int) -> Extension:
    """Unit s-t flows of the DP network, projected to item indicators."""
    net = knapsack_network(weights, capacity)
    n = len(net.weights)
    alpha = net.arc_count()
    arc_ix = {a: i for i, a in enumerate(net.arcs)}
    ineqs = []
    labels = []
    for a in net.arcs:
        row = [ZERO] * alpha
        row[arc_ix[a]] = -ONE
        ineqs.append((row, ZERO))
        labels.append(f"y{a[0]}->{a[1]}>=0")
    eqs = []
    eq_labels = []
    for node in net.nodes:
        row = [ZERO] * alpha
        for a in net.arcs:
            if a[1] == node:
                row[arc_ix[a]] += ONE
            if a[0] == node:
                row[arc_ix[a]] -= ONE
        if node == (0, 0):
            eqs.append(([-x for x in row], ONE))  # outflow of s is one
            eq_labels.append("source")
        else:
            eqs.append((row, ZERO))
            eq_labels.append(f"flow{node}")
    proj_rows = []
    for item in range(1, n + 1):
        r = [ZERO] * alpha
        for a in net.arcs:
            if a[2] == item:
                r[arc_ix[a]] = ONE
        proj_rows.append(r)
    q = HPoly(alpha, ineqs, eqs, ineq_labels=labels, eq_labels=eq_labels)
    proj = AffineMap.linear(proj_rows)

    def lift(v):
        x = _int_vertex(v)
        if x is None or not {*x} <= {0, 1}:
            return None
        chosen = [i + 1 for i, t in enumerate(x) if t]
        om = sum(net.weights[i - 1] for i in chosen)
        if om > net.capacity:
            return None
        y = [0] * alpha
        cur = (0, 0)
        for item in chosen:
            nxt = (item, cur[1] + net.weights[item - 1])
            y[arc_ix[(cur, nxt, item)]] = 1
            cur = nxt
        y[arc_ix[(cur, "t", None)]] = 1
        return tuple(y)

    wname = ",".join(map(str, net.weights))
    return Extension(q, proj, n, f"knapsack_flow(w=({wname}),W={net.capacity})", lift)


# ---------------------------------------------------------------------------
# Sorting networks and the comparator extension of the permutahedron
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SortingNetwork:
    """Fixed comparator sequence on 0-based wires; each comparator (i, j)
    with i < j moves the minimum to wire i."""

    n: int
    comparators: tuple

    def __post_init__(self):
        for i, j in self.comparators:
            if not (0 <= i < j < self.n):
                raise InputError(f"bad comparator ({i},{j}) on {self.n} wires")

    def apply(self, seq):
        vals = list(seq)
        for i, j in self.comparators:
            if vals[i] > vals[j]:
                vals[i], vals[j] = vals[j], vals[i]
        return vals

    def sorts_all_binary(self) -> bool:
        """0-1 principle: sorting every binary input proves the network."""
        if self.n > 12:
            raise SizeLimitError("exhaustive 0-1 check limited to n <= 12")
        for mask in range(2**self.n):
            bits = [(mask >> i) & 1 for i in range(self.n)]
            out = self.apply(bits)
            if any(out[i] > out[i + 1] for i in range(self.n - 1)):
                return False
        return True


def bubble_network(n: int) -> SortingNetwork:
    """Triangular network with n(n-1)/2 comparators."""
    if n < 1:
        raise InputError("n must be >= 1")
    comps = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    return SortingNetwork(n, tuple(comps))


def _batcher_sort(indices):
    if len(indices) < 2:
        return
    if len(indices) == 2:
        yield (indices[0], indices[1])
        return
    mid = len(indices) // 2
    yield from _batcher_sort(indices[:mid])
    yield from _batcher_sort(indices[mid:])
    yield from _batcher_merge(indices)


def _batcher_merge(indices):
    if len(indices) < 2:
        return
    if len(indices) == 2:
        yield (indices[0], indices[1])
        return
    yield from _batcher_merge(indices[0::2])
    yield from _batcher_merge(indices[1::2])
    for a, b in zip(indices[1::2], indices[2::2]):
        yield (a, b)


def batcher_network(n: int) -> SortingNetwork:
    """Batcher odd-even mergesort, O(n log^2 n) comparators.

    Non-powers of two are handled by padding to the next power of two and
    discarding comparators that touch padding wires (imagined smaller than
    everything on the left, larger on the right)."""
    if n < 1:
        raise InputError("n must be >= 1")
    pot = 1 << max(0, (n - 1)).bit_length()
    fill = pot - n
    prefix = fill // 2
    suffix = fill - prefix
    wires = [None] * prefix + list(range(n)) + [None] * suffix
    comps = [
        (a, b) for a, b in _batcher_sort(wires) if a is not None and b is not None
    ]
    return SortingNetwork(n, tuple(comps))


def sorting_network_extension(n: int, net: SortingNetwork) -> Extension:
    """Comparator-wise extension of the permutahedron, size 2r.

    Stage vectors y^0 .. y^r with, per comparator s on wires (i, j):
    untouched wires copied, the pair sum preserved, and two upper bounds
    pinning wire i to the minimum; the final stage is fixed to (1, .., n).
    """
    if net.n != n:
        raise InputError("network wire count mismatch")
    if not net.sorts_all_binary():
        raise InputError("comparator sequence is not a sorting network")
    r = len(net.comparators)
    d = n * (r + 1)

    def pos(stage, wire):
        return stage * n + wire

    eqs = []
    eq_labels = []
    ineqs = []
    labels = []
    for s, (i, j) in enumerate(net.comparators, start=1):
        for u in range(n):
            if u in (i, j):
                continue
            c = [ZERO] * d
            c[pos(s, u)] = ONE
            c[pos(s - 1, u)] = -ONE
            eqs.append((c, ZERO))
            eq_labels.append(f"s{s}:copy{u}")
        c = [ZERO] * d
        c[pos(s, i)] = ONE
        c[pos(s, j)] = ONE
        c[pos(s - 1, i)] = -ONE
        c[pos(s - 1, j)] = -ONE
        eqs.append((c, ZERO))
        eq_labels.append(f"s{s}:sum")
        for src in (i, j):
            a = [ZERO] * d
            a[pos(s, i)] = ONE
            a[pos(s - 1, src)] = -ONE
            ineqs.append((a, ZERO))
            labels.append(f"s{s}:min<=w{src}")
    for u in range(n):
        c = [ZERO] * d
        c[pos(r, u)] = ONE
        eqs.append((c, F(u + 1)))
        eq_labels.append(f"final{u}")
    q = HPoly(d, ineqs, eqs, ineq_labels=labels, eq_labels=eq_labels)
    proj = AffineMap.coordinate_projection(d, range(n))

    def lift(v):
        cur = _int_vertex(v)
        if cur is None or sorted(cur) != list(range(1, n + 1)):  # the network sorts: its last stage is sorted(v)
            return None
        stages = [cur]
        for i, j in net.comparators:
            cur = list(cur)
            if cur[i] > cur[j]:
                cur[i], cur[j] = cur[j], cur[i]
            stages.append(cur)
        return tuple(x for stage in stages for x in stage)

    return Extension(q, proj, n, f"sortnet({n},r={r})", lift)


# ---------------------------------------------------------------------------
# Colorful matchings and the disjunctive composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coloring:
    """Total coloring of n nodes with exactly 2k colors (0-based)."""

    n: int
    k: int
    assignment: tuple

    def __post_init__(self):
        a = tuple(int(c) for c in self.assignment)
        object.__setattr__(self, "assignment", a)
        if len(a) != self.n:
            raise InputError("assignment must color every node")
        if any(c < 0 or c >= 2 * self.k for c in a):
            raise InputError("color out of range")
        if len(set(a)) != 2 * self.k:
            raise InputError(
                f"coloring must use exactly {2 * self.k} colors, got {len(set(a))}"
            )

    def rainbow(self, nodes) -> bool:
        cols = [self.assignment[v] for v in nodes]
        return len(set(cols)) == len(cols)


def colorful_matchings(n: int, k: int, zeta: Coloring) -> VPoly:
    """Characteristic vectors of the k-matchings whose 2k end-nodes hit every
    color class exactly once."""
    if zeta.n != n or zeta.k != k:
        raise InputError("coloring does not match (n, k)")
    if 2 * k > n:
        raise InputError("2k must not exceed n")
    ei = GraphEdgeIndex(n)
    pts = []
    labels = []
    for m in _matchings(n, k):
        ends = [v for e in m for v in e]
        if zeta.rainbow(ends):
            x = [0] * len(ei)
            for e in m:
                x[ei.index[e]] = 1
            pts.append(tuple(x))
            labels.append(matching_label(m))
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return VPoly(len(ei), [pts[i] for i in order], [labels[i] for i in order])


@dataclass
class CoverageCertificate:
    """Exhaustive record: for every 2k-subset, a family member where it is
    rainbow."""

    n: int
    k: int
    subsets: tuple
    witness: tuple  # family index per subset
    complete: bool


def covering_coloring_family(
    n: int, k: int, seed: int = 2024
) -> tuple[list[Coloring], CoverageCertificate]:
    """Colorings such that every 2k node subset is rainbow in at least one.

    Greedy set cover over seeded random colorings, completed by targeted
    colorings; the certificate is checked exhaustively over all C(n, 2k)
    subsets.  Needs 1 <= k, 2k <= n; desk guards: n <= 12, k <= 3.
    """
    if not 1 <= k <= n // 2:
        raise InputError("need 1 <= k and 2k <= n")
    if n > 12 or k > 3:
        raise SizeLimitError("covering_coloring_family is desk-bounded: n <= 12, k <= 3")
    colors = 2 * k
    subsets = list(combinations(range(n), colors))
    rng = random.Random(seed)

    def make_targeted(w):
        assign = [0] * n
        for c, v in enumerate(w):
            assign[v] = c
        others = [v for v in range(n) if v not in w]
        for idx, v in enumerate(others):
            assign[v] = idx % colors
        return Coloring(n, k, tuple(assign))

    family: list[Coloring] = []
    witness: list[int | None] = [None] * len(subsets)
    if n == colors:
        family.append(Coloring(n, k, tuple(range(colors))))
        witness = [0] * len(subsets)
    else:
        pool: list[Coloring] = []
        for _ in range(300):
            assign = [rng.randrange(colors) for _ in range(n)]
            if len(set(assign)) == colors:
                pool.append(Coloring(n, k, tuple(assign)))
        index = {w: s for s, w in enumerate(subsets)}

        def cover_of(z):
            """The subsets z makes rainbow, as a bitmask over their indices:
            one node from each of its color classes."""
            classes = [[v for v in range(n) if z.assignment[v] == c] for c in range(colors)]
            return sum([1 << index[tuple(sorted(w))] for w in product(*classes)])

        # each round takes, out of the pool, the first candidate that covers
        # the most uncovered subsets, counted on the bitmasks, made once; with
        # none left that covers one, a coloring targeted at the first
        # uncovered subset (a pool copy of it would have covered that subset)
        covers = [cover_of(z) for z in pool]
        uncovered = (1 << len(subsets)) - 1
        while uncovered:
            counts = [(c & uncovered).bit_count() for c in covers]
            top = max(counts, default=0)
            if top:
                i = counts.index(top)
                best, cover = pool.pop(i), covers.pop(i) & uncovered
            else:
                best = make_targeted(subsets[(uncovered & -uncovered).bit_length() - 1])
                cover = cover_of(best) & uncovered
            fid = len(family)
            family.append(best)
            uncovered ^= cover
            while cover:
                low = cover & -cover
                witness[low.bit_length() - 1] = fid
                cover ^= low
    # exhaustive re-check of the certificate, independent of the greedy run
    complete = True
    for s, w in enumerate(subsets):
        fid = witness[s]
        if fid is None or not family[fid].rainbow(w):
            complete = False
            break
    if not complete:
        raise InvariantViolationError("covering family certificate failed")
    return family, CoverageCertificate(n, k, tuple(subsets), tuple(witness), True)


def colorful_matching_extension(n: int, k: int, seed: int = 2024) -> Extension:
    """Disjunctive composition of the colorful-matching hulls over a covering
    coloring family; projects onto the polytope of k-matchings of K_n."""
    family, _cert = covering_coloring_family(n, k, seed)
    parts = []
    for zeta in family:
        pts = colorful_matchings(n, k, zeta)
        if not pts.vertices:
            raise InvariantViolationError("a family coloring admits no colorful matching")
        parts.append(hull(pts))
    return balas_union(parts, name=f"colorful_matching(n={n},k={k},q={len(parts)})")
