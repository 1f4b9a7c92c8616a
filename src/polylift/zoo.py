"""Generators for the polytope families used throughout the package.

All generators are deterministic: nodes are 0-based, the edges of K_n are
ordered lexicographically as pairs (v, w) with v < w, and subset-indexed rows
are emitted in lexicographic subset order.  Labels record provenance so slack
matrices stay readable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod

from .errors import InputError, SizeLimitError
from .kernel import HPoly, VPoly

F = Fraction


class GraphEdgeIndex:
    """Bijection between the edges of K_n and coordinate indices."""

    def __init__(self, n: int):
        if n < 1:
            raise InputError("node count must be positive")
        self.n = n
        self.edges = list(combinations(range(n), 2))
        self.index = {e: i for i, e in enumerate(self.edges)}

    def __len__(self) -> int:
        return len(self.edges)

    def of(self, v: int, w: int) -> int:
        if v > w:
            v, w = w, v
        return self.index[(v, w)]

    def incident(self, v: int) -> list[int]:
        return [i for (a, b), i in self.index.items() if v in (a, b)]

    def inside(self, nodes) -> list[int]:
        s = set(nodes)
        return [i for (a, b), i in self.index.items() if a in s and b in s]

    @staticmethod
    def edge_label(e) -> str:
        return f"{{{e[0]},{e[1]}}}"


def _matchings(n: int, cardinality: int | None):
    edges = list(combinations(range(n), 2))

    def extend(start, used, current):
        if cardinality is None or len(current) == cardinality:
            yield tuple(current)
        if cardinality is not None and len(current) == cardinality:
            return
        for i in range(start, len(edges)):
            v, w = edges[i]
            if v not in used and w not in used:
                current.append(edges[i])
                used.update((v, w))
                yield from extend(i + 1, used, current)
                used.difference_update((v, w))
                current.pop()

    yield from extend(0, set(), [])


def matching_label(m) -> str:
    if not m:
        return "{}"
    return "{" + ",".join(f"{v}{w}" for v, w in m) + "}"


def matching_vrep(n: int, cardinality: int | None = None) -> VPoly:
    """Characteristic vectors of matchings of K_n (of the given cardinality,
    or all matchings when cardinality is None)."""
    if n < 1:
        raise InputError("n must be >= 1")
    if cardinality is not None and (cardinality < 0 or 2 * cardinality > n):
        raise InputError(f"no matchings of cardinality {cardinality} in K_{n}")
    # K_10 has 9,496 matchings, K_n C(n, 2k)·(2k-1)!! of cardinality k; (2k-1)!! > 9,496 from k = 6
    if n > 10 and (cardinality is None or cardinality > 5
                   or comb(n, 2 * cardinality) * prod(range(1, 2 * cardinality, 2)) > 9496):
        raise SizeLimitError("matching_vrep refuses n > 10 (exponentially many matchings) unless a cardinality"
                             " k with at most 9496 matchings, C(n, 2k)·(2k-1)!!, is asked for")
    ei = GraphEdgeIndex(n)
    pts = []
    labels = []
    for m in _matchings(n, cardinality):
        x = [0] * len(ei)
        for e in m:
            x[ei.index[e]] = 1
        pts.append(tuple(x))
        labels.append(matching_label(m))
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return VPoly(len(ei), [pts[i] for i in order], [labels[i] for i in order])


def matching_hrep(n: int) -> HPoly:
    """Edmonds' description: nonnegativity, degree rows, odd-set rows."""
    if n < 2:
        raise InputError("n must be >= 2")
    if n > 13:
        raise SizeLimitError("matching_hrep refuses n > 13 (2^(n-1) odd-set rows)")
    ei = GraphEdgeIndex(n)
    m = len(ei)
    rows = []
    labels = []
    for e in ei.edges:
        a = [0] * m
        a[ei.index[e]] = -1
        rows.append((a, 0))
        labels.append(f"x{GraphEdgeIndex.edge_label(e)}>=0")
    for v in range(n):
        a = [0] * m
        for i in ei.incident(v):
            a[i] = 1
        rows.append((a, 1))
        labels.append(f"deg({v})")
    for k in range(3, n + 1, 2):
        for s in combinations(range(n), k):
            a = [0] * m
            for i in ei.inside(s):
                a[i] = 1
            rows.append((a, (k - 1) // 2))
            labels.append("odd{" + ",".join(map(str, s)) + "}")
    return HPoly(m, rows, ineq_labels=labels)


def permutahedron_vrep(n: int) -> VPoly:
    if n < 1:
        raise InputError("n must be >= 1")
    if n > 8:
        raise SizeLimitError("permutahedron_vrep refuses n > 8 (n! vertices)")
    pts = sorted(permutations(range(1, n + 1)))
    labels = ["(" + ",".join(map(str, p)) + ")" for p in pts]
    return VPoly(n, pts, labels)


def permutahedron_hrep(n: int) -> HPoly:
    """Rado's description: one equation and 2^n - 2 subset inequalities."""
    if n < 1:
        raise InputError("n must be >= 1")
    if n > 14:
        raise SizeLimitError("permutahedron_hrep refuses n > 14 (2^n - 2 rows)")
    rows = []
    labels = []
    for k in range(1, n):
        for s in combinations(range(n), k):
            a = [0] * n
            for i in s:
                a[i] = -1
            rows.append((a, F(-k * (k + 1), 2)))
            labels.append("S={" + ",".join(str(i + 1) for i in s) + "}")
    eq = ([1] * n, F(n * (n + 1), 2))
    return HPoly(n, rows, [eq], ineq_labels=labels, eq_labels=["sum"])


def birkhoff_hrep(n: int) -> HPoly:
    """Doubly stochastic matrices over R^{n x n}; y_ij sits at index i*n + j."""
    if n < 1:
        raise InputError("n must be >= 1")
    d = n * n
    rows = []
    labels = []
    for i in range(n):
        for j in range(n):
            a = [0] * d
            a[i * n + j] = -1
            rows.append((a, 0))
            labels.append(f"y[{i},{j}]>=0")
    eqs = []
    eq_labels = []
    for i in range(n):
        c = [0] * d
        for j in range(n):
            c[i * n + j] = 1
        eqs.append((c, 1))
        eq_labels.append(f"row({i})")
    for j in range(n):
        c = [0] * d
        for i in range(n):
            c[i * n + j] = 1
        eqs.append((c, 1))
        eq_labels.append(f"col({j})")
    return HPoly(d, rows, eqs, ineq_labels=labels, eq_labels=eq_labels)


def _spanning_trees(n: int):
    edges = list(combinations(range(n), 2))
    for sub in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in sub:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield sub


def spanning_tree_vrep(n: int) -> VPoly:
    if n < 2:
        raise InputError("n must be >= 2")
    if n > 7:
        raise SizeLimitError("spanning_tree_vrep refuses n > 7 (n^(n-2) trees)")
    ei = GraphEdgeIndex(n)
    pts = []
    labels = []
    for tree in _spanning_trees(n):
        x = [0] * len(ei)
        for e in tree:
            x[ei.index[e]] = 1
        pts.append(tuple(x))
        labels.append(matching_label(tree))
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return VPoly(len(ei), [pts[i] for i in order], [labels[i] for i in order])


def spanning_tree_hrep(n: int) -> HPoly:
    """Edmonds' subtour description: x(E(S)) <= |S|-1 plus x(E) = n-1."""
    if n < 2:
        raise InputError("n must be >= 2")
    if n > 12:
        raise SizeLimitError("spanning_tree_hrep refuses n > 12 (2^n subtour rows)")
    ei = GraphEdgeIndex(n)
    m = len(ei)
    rows = []
    labels = []
    for e in ei.edges:
        a = [0] * m
        a[ei.index[e]] = -1
        rows.append((a, 0))
        labels.append(f"x{GraphEdgeIndex.edge_label(e)}>=0")
    for k in range(2, n):
        for s in combinations(range(n), k):
            a = [0] * m
            for i in ei.inside(s):
                a[i] = 1
            rows.append((a, k - 1))
            labels.append("S={" + ",".join(map(str, s)) + "}")
    eq = ([1] * m, n - 1)
    return HPoly(m, rows, [eq], ineq_labels=labels, eq_labels=["x(E)=n-1"])


def knapsack_vrep(weights, capacity: int) -> VPoly:
    """All feasible 0/1 points of the knapsack; each one is a hull vertex."""
    w = list(weights)
    if any(int(x) != x or x < 0 for x in w):
        raise InputError("weights must be nonnegative integers")
    if int(capacity) != capacity or capacity < 0:
        raise InputError("capacity must be a nonnegative integer")
    n = len(w)
    if n > 20:
        raise SizeLimitError("knapsack_vrep refuses n > 20 (2^n points)")
    pts = []
    labels = []
    for mask in range(2**n):
        x = [(mask >> i) & 1 for i in range(n)]
        if sum(wi * xi for wi, xi in zip(w, x)) <= capacity:
            pts.append(tuple(x))
            labels.append("{" + ",".join(str(i) for i in range(n) if x[i]) + "}")
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return VPoly(n, [pts[i] for i in order], [labels[i] for i in order])


def cube_hrep(n: int) -> HPoly:
    if n < 1:
        raise InputError("n must be >= 1")
    rows = []
    labels = []
    for i in range(n):
        a = [0] * n
        a[i] = -1
        rows.append((a, 0))
        labels.append(f"x{i}>=0")
    for i in range(n):
        a = [0] * n
        a[i] = 1
        rows.append((a, 1))
        labels.append(f"x{i}<=1")
    return HPoly(n, rows, ineq_labels=labels)


def cross_polytope_vrep(n: int) -> VPoly:
    if n < 1:
        raise InputError("n must be >= 1")
    pts = []
    labels = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        pts.append(tuple(e))
        labels.append(f"+e{i}")
        f = [0] * n
        f[i] = -1
        pts.append(tuple(f))
        labels.append(f"-e{i}")
    return VPoly(n, pts, labels)


def simplex_hrep(n: int) -> HPoly:
    """Standard simplex {y >= 0, sum y = 1} in R^n: n facets, n vertices."""
    if n < 1:
        raise InputError("n must be >= 1")
    rows = []
    labels = []
    for i in range(n):
        a = [0] * n
        a[i] = -1
        rows.append((a, 0))
        labels.append(f"y{i}>=0")
    return HPoly(n, rows, [([1] * n, 1)], ineq_labels=labels, eq_labels=["sum=1"])
