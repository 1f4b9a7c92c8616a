from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import constructions as cx
from polylift import linalg, zoo
from polylift.errors import ValidationError
from polylift.kernel import AffineMap, HPoly, VPoly, hull, poly_equal, vertices
from polylift.slack import (
    NonnegFactorization,
    extension_to_factorization,
    factorization_to_extension,
    is_binding,
    slack_map,
    slack_matrix,
    verify_factorization,
)

F = Fraction


def segment():
    return HPoly(1, [([-1], 0), ([1], 1)], ineq_labels=["x>=0", "x<=1"])


def triangle():
    return HPoly(
        2,
        [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)],
        ineq_labels=["x>=0", "y>=0", "x+y<=1"],
    )


def triangle_vertices():
    return VPoly(2, [(0, 0), (1, 0), (0, 1)])


def test_slack_map_segment():
    phi = slack_map(segment())
    assert phi.apply((F(1, 3),)) == (F(1, 3), F(2, 3))


def test_slack_map_pi3_oracle():
    # substitution oracle: slack of (1,2,3) under rows S={1},{2},{3},{1,2},{1,3},{2,3}
    h = zoo.permutahedron_hrep(3)
    phi = slack_map(h)
    got = phi.apply((1, 2, 3))
    expected = []
    x = {1: 1, 2: 2, 3: 3}
    for s in [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}]:
        expected.append(F(sum(x[i] for i in s) - len(s) * (len(s) + 1) // 2))
    assert list(got) == expected
    assert expected == [0, 1, 2, 0, 1, 2]


def test_slack_map_triangle_vertices_are_unit_slacks():
    phi = slack_map(triangle())
    images = [phi.apply(v) for v in triangle_vertices().vertices]
    assert sorted(images) == sorted(
        [(F(0), F(0), F(1)), (F(1), F(0), F(0)), (F(0), F(1), F(0))]
    )


def test_slack_map_rejects_non_injective():
    # a single row over a 2-dim polytope cannot be injective
    wide = HPoly(2, [([1, 0], 1)])
    with pytest.raises(ValidationError):
        slack_map(wide)


def test_is_binding():
    assert is_binding(zoo.cube_hrep(2))
    loose = HPoly(1, [([-1], 0), ([1], 2), ([1], 3)])
    assert not is_binding(loose)
    assert is_binding(zoo.matching_hrep(4))


def test_slack_matrix_triangle():
    sm = slack_matrix(triangle(), triangle_vertices())
    assert sm.nrows == 3 and sm.ncols == 3
    # each vertex lies on exactly two facets
    zeros = sum(1 for i in range(3) for j in range(3) if sm.entries[i][j] == 0)
    assert zeros == 6
    for j in range(3):
        assert sum(sm.entries[i][j] for i in range(3)) == 1


def test_slack_matrix_square_zero_count():
    sq = zoo.cube_hrep(2)
    v = VPoly(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    sm = slack_matrix(sq, v)
    zeros = sum(1 for i in range(4) for j in range(4) if sm.entries[i][j] == 0)
    assert zeros == 8


def test_slack_matrix_pi3_nonnegative():
    h = zoo.permutahedron_hrep(3)
    v = zoo.permutahedron_vrep(3)
    sm = slack_matrix(h, v)
    assert sm.nrows == 6 and sm.ncols == 6
    assert all(x >= 0 for row in sm.entries for x in row)


def test_slack_matrix_outside_point_error():
    with pytest.raises(ValidationError):
        slack_matrix(triangle(), VPoly(2, [(1, 1)]))


def test_slack_columns_lie_in_the_affine_space():
    # the slack image of aff(P) contains phi(x) for every point of P
    for h, v in (
        (triangle(), triangle_vertices()),
        (zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)),
        (zoo.matching_hrep(4), zoo.matching_vrep(4)),
    ):
        sm = slack_matrix(h, v)
        for j in range(sm.ncols):
            col = tuple(sm.entries[i][j] for i in range(sm.nrows))
            for e, g in sm.affine_space:
                assert linalg.dot(e, col) == g


def test_verify_factorization_trivial_and_perturbed():
    sm = slack_matrix(triangle(), triangle_vertices())
    ident = linalg.identity(3)
    fact = NonnegFactorization(sm.entries, ident)
    assert verify_factorization(sm, fact).ok
    bad_t = [list(r) for r in sm.entries]
    bad_t[0][0] += 1
    bad = NonnegFactorization(bad_t, ident)
    chk = verify_factorization(sm, bad)
    assert not chk.ok
    assert chk.first_mismatch == (0, 0)
    neg = NonnegFactorization([[-1]], [[1]])
    assert verify_factorization(SlackLike11(), neg).negative_entry == ("t", 0, 0)


class SlackLike11:
    entries = ((F(1),),)
    nrows = 1
    ncols = 1


def test_trivial_factorization_gives_simplex_like_extension():
    tri = triangle()
    tv = triangle_vertices()
    sm = slack_matrix(tri, tv)
    fact = NonnegFactorization(sm.entries, linalg.identity(3))
    ext = factorization_to_extension(fact, sm, tri)
    assert ext.size() == 3  # |X|
    rep = cx.verify_extension(tri, ext, target_vrep=tv)
    assert rep.passed


def test_square_identity_factorization_extension():
    sq = zoo.cube_hrep(2)
    v = VPoly(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    sm = slack_matrix(sq, v)
    # f = 4 via the facet side: T = I, S = Phi
    fact = NonnegFactorization(linalg.identity(4), sm.entries)
    assert verify_factorization(sm, fact).ok
    ext = factorization_to_extension(fact, sm, sq)
    assert ext.size() == 4
    rep = cx.verify_extension(sq, ext, target_vrep=v)
    assert rep.passed


def test_cross_polytope_trivial_extension_has_size_8():
    v = zoo.cross_polytope_vrep(4)
    h = hull(v)
    sm = slack_matrix(h, v)
    fact = NonnegFactorization(sm.entries, linalg.identity(8))
    ext = factorization_to_extension(fact, sm, h)
    assert ext.size() == 8
    rep = cx.verify_extension(h, ext, target_vrep=v)
    assert rep.passed


def test_factorization_to_extension_rejects_inexact():
    sm = slack_matrix(triangle(), triangle_vertices())
    bad = [list(r) for r in sm.entries]
    bad[1][1] += F(1, 7)
    with pytest.raises(ValidationError):
        factorization_to_extension(
            NonnegFactorization(bad, linalg.identity(3)), sm, triangle()
        )


def test_extension_to_factorization_identity_triangle():
    tri = triangle()
    tv = triangle_vertices()
    ident_ext = cx.Extension(tri, AffineMap.linear(linalg.identity(2)), 2, "identity")
    fact = extension_to_factorization(ident_ext, tri, tv)
    # the triangle's slacks are affinely independent, so T is forced to be I
    assert fact.t == linalg.identity(3)
    assert verify_factorization(slack_matrix(tri, tv), fact).ok


def test_extension_to_factorization_birkhoff2():
    # Pi_2 with binding system {x1 >= 1, x2 >= 1} (plus the sum equation)
    ext = cx.birkhoff_extension(2)
    hrep = zoo.permutahedron_hrep(2)
    pts = zoo.permutahedron_vrep(2)
    sm = slack_matrix(hrep, pts)
    assert sm.entries == ((F(0), F(1)), (F(1), F(0)))
    fact = extension_to_factorization(ext, hrep, pts)
    assert len(fact.t) == 2 and fact.inner_dim == 4
    assert verify_factorization(sm, fact).ok


def test_extension_to_factorization_birkhoff3_and_roundtrip():
    ext = cx.birkhoff_extension(3)
    hrep = zoo.permutahedron_hrep(3)
    pts = zoo.permutahedron_vrep(3)
    fact = extension_to_factorization(ext, hrep, pts)
    assert len(fact.t) == 6 and fact.inner_dim == 9
    sm = slack_matrix(hrep, pts)
    assert verify_factorization(sm, fact).ok
    # round trip: back to an extension of the same size that verifies
    ext2 = factorization_to_extension(fact, sm, hrep)
    assert ext2.size() == ext.size() == 9
    rep = cx.verify_extension(hrep, ext2, target_vrep=pts)
    assert rep.passed


def test_extension_to_factorization_requires_binding():
    loose = HPoly(1, [([-1], 0), ([1], 1), ([1], 5)])
    seg_ext = cx.Extension(segment(), AffineMap.linear([[1]]), 1, "seg")
    with pytest.raises(ValidationError):
        extension_to_factorization(seg_ext, loose, VPoly(1, [(0,), (1,)]))


def test_extension_to_factorization_rejects_unverified():
    small = HPoly(1, [([-1], 0), ([1], F(1, 2))])
    ext = cx.Extension(small, AffineMap.linear([[1]]), 1, "small")
    with pytest.raises(ValidationError):
        extension_to_factorization(ext, segment(), VPoly(1, [(0,), (1,)]))


def test_non_pointed_extension_is_quotiented():
    # Q = {(x, w): 0 <= x <= 1} with w free projects to [0,1]; lineality e_w
    q = HPoly(2, [([-1, 0], 0), ([1, 0], 1)])
    ext = cx.Extension(q, AffineMap.linear([[1, 0]]), 1, "line")
    fact = extension_to_factorization(ext, segment(), VPoly(1, [(0,), (1,)]))
    assert fact.inner_dim == 2
    assert verify_factorization(slack_matrix(segment(), VPoly(1, [(0,), (1,)])), fact).ok


def test_factorization_roundtrip_knapsack():
    w, cap = (2, 3, 4), 6
    v = zoo.knapsack_vrep(w, cap)
    hrep = hull(v)
    ext = cx.knapsack_flow_extension(w, cap)
    fact = extension_to_factorization(ext, hrep, v)
    sm = slack_matrix(hrep, v)
    assert verify_factorization(sm, fact).ok
    ext2 = factorization_to_extension(fact, sm, hrep)
    assert ext2.size() == ext.size() == 11
    assert cx.verify_extension(hrep, ext2, target_vrep=v).passed


def reference_slack_entries(hrep, points):
    """The slack matrix as one dense Fraction dot product per entry, or the
    error text at the first negative entry, row by row."""
    entries = []
    for i, (a, b) in enumerate(hrep.ineqs):
        row = []
        for j, x in enumerate(points.vertices):
            s = b - linalg.dot(a, x)
            if s < 0:
                return (
                    f"point outside polytope: row {hrep.row_label(i)}, "
                    f"point {points.point_label(j)} (slack {s})"
                )
            row.append(s)
        entries.append(tuple(row))
    return tuple(entries)


@st.composite
def systems_and_points(draw):
    """Rows with fractional entries through or above a point x0, with or
    without labels, and fractional points near x0 (some outside)."""
    dim = draw(st.integers(1, 4))
    coef = st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))
    x0 = tuple(draw(coef) for _ in range(dim))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        a = tuple(draw(coef) for _ in range(dim))
        rows.append((a, linalg.dot(a, x0) + draw(st.sampled_from([0, 0, F(1, 3), 2]))))
    labels = [f"r{i}" for i in range(len(rows))] if draw(st.booleans()) else None
    pts = [x0] + [
        tuple(x + draw(st.sampled_from([0, 0, F(1, 5), -F(1, 2)])) for x in x0)
        for _ in range(draw(st.integers(0, 5)))
    ]
    pts = list(dict.fromkeys(pts))
    plabels = [f"p{j}" for j in range(len(pts))] if draw(st.booleans()) else None
    return HPoly(dim, rows, ineq_labels=labels), VPoly(dim, pts, plabels)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(systems_and_points())
def test_slack_matrix_matches_dense_reference(case):
    h, v = case
    ref = reference_slack_entries(h, v)
    if isinstance(ref, str):
        with pytest.raises(ValidationError) as err:
            slack_matrix(h, v)
        assert str(err.value) == ref
    else:
        got = slack_matrix(h, v).entries
        assert got == ref and all(type(x) is F for row in got for x in row)
