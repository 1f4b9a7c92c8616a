from fractions import Fraction
from itertools import combinations, permutations

import pytest

from polylift import zoo
from polylift.errors import InputError, SizeLimitError
from polylift.kernel import VPoly, hull, poly_equal, remove_redundancy, vertices

F = Fraction


def brute_matchings(n, size=None):
    edges = list(combinations(range(n), 2))
    out = []
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            used = [v for e in sub for v in e]
            if len(used) == len(set(used)) and (size is None or len(sub) == size):
                out.append(frozenset(sub))
    return set(out)


def test_matching_vrep_counts():
    assert len(zoo.matching_vrep(3).vertices) == 4
    assert len(zoo.matching_vrep(4, 2).vertices) == 3
    assert zoo.matching_vrep(2, 0).vertices == ((Fraction(0),),)
    assert len(zoo.matching_vrep(4).vertices) == 10
    assert len(zoo.matching_vrep(5).vertices) == len(brute_matchings(5))


def test_matching_vrep_against_bruteforce():
    ei = zoo.GraphEdgeIndex(4)
    got = {
        frozenset(e for e in ei.edges if v[ei.index[e]] == 1)
        for v in zoo.matching_vrep(4).vertices
    }
    assert got == brute_matchings(4)


def test_matching_vrep_bad_cardinality():
    with pytest.raises(InputError):
        zoo.matching_vrep(3, 2)


def test_matching_hrep_row_counts():
    assert zoo.matching_hrep(3).size() == 7  # 3 nonneg + 3 degree + 1 odd
    assert zoo.matching_hrep(4).size() == 14  # 6 + 4 + 4
    assert zoo.matching_hrep(5).size() == 26  # 10 + 5 + (10 + 1)


def test_matching_hrep_equals_hull_of_vrep_n4():
    assert poly_equal(zoo.matching_hrep(4), hull(zoo.matching_vrep(4))).equal


def test_permutahedron():
    v = zoo.permutahedron_vrep(3)
    assert len(v.vertices) == 6
    h = zoo.permutahedron_hrep(3)
    assert h.size() == 6
    assert len(h.eqs) == 1
    assert h.eqs[0][1] == 6
    assert zoo.permutahedron_vrep(1).vertices == ((F(1),),)
    assert poly_equal(zoo.permutahedron_hrep(4), hull(zoo.permutahedron_vrep(4))).equal


def test_permutahedron_guard():
    with pytest.raises(SizeLimitError):
        zoo.permutahedron_vrep(9)


@pytest.mark.parametrize("generator, bound", [
    ("matching_vrep", 10), ("matching_hrep", 13), ("spanning_tree_hrep", 12), ("permutahedron_hrep", 14)])
def test_exponential_generator_guard(generator, bound, monkeypatch):
    # refused before anything is built: no subset or edge is enumerated
    def no_build(*args):
        raise AssertionError("the generator started building")

    monkeypatch.setattr(zoo, "combinations", no_build)
    for n in (bound + 1, 30):
        with pytest.raises(SizeLimitError, match=f"{generator} refuses n > {bound} "):
            getattr(zoo, generator)(n)


def test_birkhoff():
    h = zoo.birkhoff_hrep(3)
    assert h.size() == 9
    assert len(h.eqs) == 6
    one = zoo.birkhoff_hrep(1)
    assert one.size() == 1 and len(one.eqs) == 2
    v = vertices(zoo.birkhoff_hrep(3))
    perm_mats = set()
    for p in permutations(range(3)):
        m = [0] * 9
        for i, j in enumerate(p):
            m[3 * i + j] = 1
        perm_mats.add(tuple(map(F, m)))
    assert set(v.vertices) == perm_mats


def test_spanning_tree_counts():
    assert len(zoo.spanning_tree_vrep(3).vertices) == 3
    assert len(zoo.spanning_tree_vrep(4).vertices) == 16  # Cayley 4^2
    assert len(zoo.spanning_tree_vrep(5).vertices) == 125  # Cayley 5^3
    h = zoo.spanning_tree_hrep(3)
    assert h.size() == 6  # 3 nonneg + 3 pair rows
    assert len(h.eqs) == 1
    with pytest.raises(SizeLimitError):
        zoo.spanning_tree_vrep(8)


def test_spanning_tree_hrep_equals_hull_n4():
    assert poly_equal(zoo.spanning_tree_hrep(4), hull(zoo.spanning_tree_vrep(4))).equal


def test_knapsack_vrep():
    v = zoo.knapsack_vrep((2, 3, 4), 6)
    assert len(v.vertices) == 6
    full = zoo.knapsack_vrep((1, 1), 5)
    assert len(full.vertices) == 4  # W >= sum w: whole cube
    zero = zoo.knapsack_vrep((1, 2), 0)
    assert zero.vertices == ((F(0), F(0)),)
    with pytest.raises(SizeLimitError):
        zoo.knapsack_vrep([1] * 21, 3)
    with pytest.raises(InputError):
        zoo.knapsack_vrep((1, -2), 3)


def test_cube_cross_simplex():
    assert zoo.cube_hrep(1).size() == 2
    assert zoo.cube_hrep(4).size() == 8
    cross = zoo.cross_polytope_vrep(4)
    assert len(cross.vertices) == 8
    assert len(hull(cross).ineqs) == 16
    assert zoo.simplex_hrep(8).size() == 8
    assert len(vertices(zoo.simplex_hrep(8)).vertices) == 8


def test_redundancy_of_classical_systems_small_n():
    # permutahedron systems are irredundant for n <= 4
    for n in (2, 3, 4):
        h = zoo.permutahedron_hrep(n)
        assert remove_redundancy(h).ineqs == h.ineqs
    # matching system is irredundant at n = 4 but not at n = 2, 3
    h4 = zoo.matching_hrep(4)
    assert remove_redundancy(h4).ineqs == h4.ineqs
    assert len(remove_redundancy(zoo.matching_hrep(3)).ineqs) == 4
    assert len(remove_redundancy(zoo.matching_hrep(2)).ineqs) == 2


def test_generator_pair_equality_small():
    for n in (2, 3):
        assert poly_equal(zoo.matching_hrep(n), zoo.matching_vrep(n)).equal
        assert poly_equal(zoo.spanning_tree_hrep(n if n > 2 else 3),
                          zoo.spanning_tree_vrep(n if n > 2 else 3)).equal
    for n in (1, 2, 3):
        assert poly_equal(zoo.permutahedron_hrep(n), zoo.permutahedron_vrep(n)).equal
