"""Martin's lift (`martin_spanning_tree_extension`'s `lift`), one rooted
traversal, against the DFS lift it replaced: two components per tree edge,
each a DFS that skips the edge.  Both must give the same int tuple, or both
None, on every spanning tree of K4 and K5 and on the points that are no
spanning tree: n - 1 edges forming a cycle plus an isolated vertex, n - 2
edges, and an entry of 2."""

from fractions import Fraction
from itertools import combinations

import pytest

from polylift import constructions as cx
from polylift.zoo import GraphEdgeIndex

F = Fraction
ZERO, ONE = F(0), F(1)


def reference_lift(n, v):
    """The DFS lift as it was, with its own z positions."""
    ei = GraphEdgeIndex(n)
    m = len(ei)
    triples = [(a, b, u) for a in range(n) for b in range(n) for u in range(n) if len({a, b, u}) == 3]
    zpos = {t: m + i for i, t in enumerate(triples)}
    tree = [e for e in ei.edges if v[ei.of(*e)] == ONE]
    if len(tree) != n - 1 or any(v[i] not in (ZERO, ONE) for i in range(m)):
        return None
    adj = {u: [] for u in range(n)}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    y = [int(x) for x in v[:m]] + [0] * len(triples)

    def component(root, banned_edge):
        seen = {root}
        stack = [root]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if {cur, nxt} == set(banned_edge) or nxt in seen:
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return seen

    for a, b in tree:
        comp_b = component(b, (a, b))
        if a in comp_b:
            return None
        comp_a = component(a, (a, b))
        for u in range(n):
            if u in (a, b):
                continue
            if u in comp_b:
                y[zpos[(a, b, u)]] = 1
            elif u in comp_a:
                y[zpos[(b, a, u)]] = 1
            else:
                return None
    return tuple(y)


def _point(m, edges, value=ONE):
    v = [ZERO] * m
    for i in edges:
        v[i] = value
    return tuple(v)


@pytest.mark.parametrize("n", [4, 5])
def test_martin_lift_matches_the_dfs_lift(n):
    lift = cx.martin_spanning_tree_extension(n).lift
    m = n * (n - 1) // 2
    trees = non_trees = 0
    for edges in combinations(range(m), n - 1):
        v = _point(m, edges)
        got, want = lift(v), reference_lift(n, v)
        assert got == want, edges
        if want is None:
            non_trees += 1
        else:
            assert all(type(x) is int for x in got)
            trees += 1
    # Cayley: n^(n-2) spanning trees; every other (n-1)-edge set holds a
    # cycle and leaves some vertex out (for n = 4: a triangle and a vertex)
    assert trees == n ** (n - 2) and non_trees > 0
    # n - 2 edges, a spanning path plus an entry of 2, and halves
    ei = GraphEdgeIndex(n)
    path = [ei.of(i, i + 1) for i in range(n - 1)]
    two = list(_point(m, path))
    two[ei.of(0, 2)] = F(2)
    for v in (_point(m, path[:-1]), tuple(two), _point(m, path, F(1, 2))):
        assert reference_lift(n, v) is None and lift(v) is None, v
