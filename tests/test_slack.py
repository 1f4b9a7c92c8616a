from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import constructions as cx
from polylift import kernel, linalg, slack, zoo
from polylift.errors import InputError, InvariantViolationError, UnboundedPolyhedronError, ValidationError
from polylift.kernel import AffineMap, HPoly, VPoly, hull, poly_equal, vertices
from polylift.slack import (
    FactorizationCheck,
    NonnegFactorization,
    extension_to_factorization,
    factorization_to_extension,
    is_binding,
    slack_map,
    slack_matrix,
    verify_factorization,
)
from test_linalg import ref_canon_eq, ref_left_inverse, ref_nullspace, ref_rref

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
        # factorization_to_extension cuts Q out by the equations of that
        # image: with Phi = Phi I, lambda = e_j is column j of Phi, so each
        # unit vector lies in Q
        sm = slack_matrix(h, v)
        q = factorization_to_extension(NonnegFactorization(sm.entries, linalg.identity(sm.ncols)), sm, h).q
        assert q.eqs and all(q.contains(linalg.unit(sm.ncols, j)) for j in range(sm.ncols))


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


def _verify_factorization_reference(slack, fact):
    """The check before it went sparse: T·S formed densely with
    linalg.mat_mul, then compared entry by entry."""
    for name, mtx in (("t", fact.t), ("s", fact.s)):
        for i, row in enumerate(mtx):
            for j, v in enumerate(row):
                if v < 0:
                    return FactorizationCheck(False, negative_entry=(name, i, j))
    if len(fact.t) != slack.nrows or (fact.t and fact.s and len(fact.t[0]) != len(fact.s)):
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    if fact.s and len(fact.s[0]) != slack.ncols:
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    prod = linalg.mat_mul(fact.t, fact.s)
    for i in range(slack.nrows):
        for j in range(slack.ncols):
            if prod[i][j] != slack.entries[i][j]:
                return FactorizationCheck(False, first_mismatch=(i, j))
    return FactorizationCheck(True)


@pytest.fixture(scope="module")
def pi3_factorization():
    h, v = zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    return slack_matrix(h, v), extension_to_factorization(cx.birkhoff_extension(3), h, v)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.data())
def test_verify_factorization_matches_dense_product_on_perturbed_factors(pi3_factorization, data):
    sm, fact = pi3_factorization
    t, s = [list(r) for r in fact.t], [list(r) for r in fact.s]
    for _ in range(data.draw(st.integers(0, 3))):
        m = data.draw(st.sampled_from([t, s]))
        i = data.draw(st.integers(0, len(m) - 1))
        j = data.draw(st.integers(0, len(m[0]) - 1))
        m[i][j] += data.draw(st.sampled_from([F(1), F(-1), F(1, 2), -m[i][j] - 1]))
    perturbed = NonnegFactorization(t, s)
    assert verify_factorization(sm, perturbed) == _verify_factorization_reference(sm, perturbed)


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


@st.composite
def rescaled_birkhoff3(draw):
    """Birkhoff(3) onto Π3 with every row of Q and of Π3 scaled by its own
    positive rational and Π3's coordinates by x -> D x + c: the same
    polytopes, with fractional slacks, frame and projection."""
    pos = st.builds(F, st.integers(1, 5), st.sampled_from([1, 2, 3, 7]))
    ext, h, v = cx.birkhoff_extension(3), zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    diag = [draw(pos) for _ in range(h.dim)]
    shift = [draw(st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 5]))) for _ in range(h.dim)]
    scales = [draw(pos) for _ in ext.q.ineqs]
    q = HPoly(ext.q.dim, [([s * x for x in a], s * b) for (a, b), s in zip(ext.q.ineqs, scales)], ext.q.eqs)
    proj = AffineMap([[d * x for x in row] for d, row in zip(diag, ext.proj.matrix)],
                     [d * o + c for d, o, c in zip(diag, ext.proj.offset, shift)])
    rows = []
    for a, b in h.ineqs:
        s = draw(pos)
        a2 = [s * x / d for x, d in zip(a, diag)]
        rows.append((a2, s * b + linalg.dot(a2, shift)))
    h2 = HPoly(h.dim, rows, [([x / d for x, d in zip(c, diag)], e + linalg.dot([x / d for x, d in zip(c, diag)], shift))
                             for c, e in h.eqs])
    v2 = VPoly(h.dim, [tuple(d * x + c for d, x, c in zip(diag, p, shift)) for p in v.vertices])
    return cx.Extension(q, proj, h.dim, "rescaled"), h2, v2


@settings(deadline=None, derandomize=True, max_examples=25)
@given(rescaled_birkhoff3())
def test_t_row_systems_are_the_fraction_set_up(case):
    """Each LP behind a row of T is the system the Fraction set-up built,
    as integer rows: Q's nonnegativity, sigma0·t = f0 and (column j of
    AN)·t = fj - f0, with sigma0 and AN from dot products at Q's frame
    point y0 and directions n_j, f0 and fj hrep's slacks at p(y0) and
    p(y0 + n_j); its rows are those an `HPoly` of them gives, and its cost
    is min 1·t."""
    ext, h, v = case
    seen = []
    real = slack._optimize_rows

    def spy(dim, ineqs, eqs, costs):
        seen.append((dim, ineqs, eqs, costs))
        return real(dim, ineqs, eqs, costs)

    slack._optimize_rows = spy
    try:
        fact = extension_to_factorization(ext, h, v)
    finally:
        slack._optimize_rows = real
    _, y0, basis, den = kernel._affine_frame(ext.q)
    null = [tuple(F(x, den) for x in b) for b in basis]
    sigma0 = tuple(b - linalg.dot(a, y0) for a, b in ext.q.ineqs)
    cols = [tuple(-linalg.dot(a, n) for a, _ in ext.q.ineqs) for n in null]
    p0 = ext.proj.apply(y0)
    pn = [ext.proj.apply(linalg.vadd(y0, n)) for n in null]
    assert len(seen) == len(h.ineqs) == len(fact.t)
    qm = len(ext.q.ineqs)
    nonneg = [([-int(j == c) for j in range(qm)], 0) for c in range(qm)]
    for (dim, ineqs, eqs, costs), (a, b) in zip(seen, h.ineqs):
        f0 = b - linalg.dot(a, p0)
        want = [(sigma0, f0)] + [(c, b - linalg.dot(a, x) - f0) for c, x in zip(cols, pn)]
        built = HPoly(qm, nonneg, want)._int_rows()
        assert (dim, (tuple(ineqs), tuple(eqs))) == (qm, built)
        assert [(list(pairs), w, sense) for pairs, w, sense in costs] == [([(c, 1) for c in range(qm)], 1, "min")]


def test_extension_to_factorization_requires_binding():
    loose = HPoly(1, [([-1], 0), ([1], 1), ([1], 5)])
    seg_ext = cx.Extension(segment(), AffineMap.linear([[1]]), 1, "seg")
    with pytest.raises(ValidationError, match="not binding"):
        extension_to_factorization(seg_ext, loose, VPoly(1, [(0,), (1,)]))
    # the slack matrix comes first: a point outside P is reported before
    # the non-binding row, as in xc_bounds
    with pytest.raises(ValidationError, match="point outside"):
        extension_to_factorization(seg_ext, loose, VPoly(1, [(0,), (2,)]))
    # and a listed point off the equations is an input error, before the
    # extension is verified
    h, v = zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    with pytest.raises(InputError, match="violates"):
        extension_to_factorization(cx.birkhoff_extension(3), h, VPoly(3, v.vertices + ((2, 2, 3),)))


def test_extension_to_factorization_rejects_unverified():
    small = HPoly(1, [([-1], 0), ([1], F(1, 2))])
    ext = cx.Extension(small, AffineMap.linear([[1]]), 1, "small")
    with pytest.raises(ValidationError):
        extension_to_factorization(ext, segment(), VPoly(1, [(0,), (1,)]))


def test_non_pointed_extension_is_quotiented(monkeypatch):
    # Q = {(x, w): 0 <= x <= 1} with w free projects to [0,1]; lineality e_w
    q = HPoly(2, [([-1, 0], 0), ([1, 0], 1)])
    ext = cx.Extension(q, AffineMap.linear([[1, 0]]), 1, "line")
    kept = []
    real = linalg.independent_rows
    monkeypatch.setattr(linalg, "independent_rows", lambda m: kept.append(real(m)) or kept[-1])
    fact = extension_to_factorization(ext, segment(), VPoly(1, [(0,), (1,)]))
    assert kept == [[0]]  # the quotient path: Q's rows span e_x only
    assert fact.inner_dim == 2
    assert verify_factorization(slack_matrix(segment(), VPoly(1, [(0,), (1,)])), fact).ok


@st.composite
def lineality_systems(draw):
    """Rows over dim coordinates, split at random into inequalities and
    equations: rows with one nonzero (duplicates too) that pin all, some or
    none of the coordinates, and other rows drawn from a span of random
    rank, so that the system has lineality or not."""
    dim = draw(st.integers(1, 5))
    coef = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    mode = draw(st.sampled_from(["all", "some", "none"]))
    if mode == "all":
        pinned = list(range(dim)) + draw(st.lists(st.integers(0, dim - 1), max_size=2))
    elif mode == "some":
        pinned = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim + 1))
    else:
        pinned = []
    rows = [tuple(draw(coef.filter(bool)) if c == j else F(0) for c in range(dim)) for j in pinned]
    span = draw(st.lists(st.lists(coef, min_size=dim, max_size=dim), max_size=dim))
    for _ in range(draw(st.integers(0, 6))):
        mult = draw(st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span)))
        rows.append(tuple(sum((m * v[c] for m, v in zip(mult, span)), F(0)) for c in range(dim)))
    rows = draw(st.permutations(rows))
    is_eq = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return HPoly(dim, [(r, draw(coef)) for r, e in zip(rows, is_eq) if not e],
                 [(r, draw(coef)) for r, e in zip(rows, is_eq) if e])


@settings(deadline=None, derandomize=True, max_examples=300)
@given(lineality_systems())
def test_pointed_matches_the_rank_of_all_rows(q):
    stacked = linalg.mat([a for a, _ in q.ineqs] + [c for c, _ in q.eqs])
    assert slack._pointed(q) == (len(linalg.independent_rows(stacked)) == q.dim)


def test_unbounded_lift_is_reported_after_verification():
    # Q = {(x, w): 0 <= x <= 1, w <= 0} projects onto [0, 1] and is pointed,
    # but no lift has a least w: verify passes with no hint, and the lift's
    # error follows it
    q = HPoly(2, [([-1, 0], 0), ([1, 0], 1), ([0, 1], 0)])
    ext = cx.Extension(q, AffineMap.linear([[1, 0]]), 1, "down")
    with pytest.raises(UnboundedPolyhedronError, match="^coordinate 1 unbounded below$"):
        extension_to_factorization(ext, segment(), VPoly(1, [(0,), (1,)]))


def test_a_lift_that_fails_verify_never_reaches_s(monkeypatch):
    # a lexicographic lift moved outside Q misses verify's exact check; the
    # feasibility LP then finds the vertex covered and verify passes, but S
    # must not be built from that lift
    real, slacks = slack._lex_fibers, slack._slacks

    def one_bad(q, matrix, rhss, lead):
        lifts = real(q, matrix, rhss, lead)
        lifts[2] = tuple(x - 1 for x in lifts[2])
        return lifts

    built = []
    monkeypatch.setattr(slack, "_lex_fibers", one_bad)
    monkeypatch.setattr(slack, "_slacks", lambda *args: built.append(args) or slacks(*args))
    h, v = zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    with pytest.raises(InvariantViolationError, match="lexicographic lift"):
        extension_to_factorization(cx.birkhoff_extension(3), h, v)
    assert built == [(h, v.vertices)]  # only slack_matrix's own call


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


# ---------------------------------------------------------------------------
# Differential test: the slack bridge against the Fraction construction
# ---------------------------------------------------------------------------

def reference_slack_extension(fact, sm, h):
    """`factorization_to_extension`'s (Q, projection, lifts) by the Fraction
    route it replaced: u0 and AN by dense dot products, injectivity by rank,
    Q's equations from the Fraction nullspace of AN's columns, and the
    inverse slack map from a Fraction left inverse of AN, all on
    `test_linalg`'s Gauss-Jordan.  None when the slack map is not injective."""
    _, x0, basis, den = kernel._affine_frame(h)
    null = [tuple(F(x, den) for x in v) for v in basis]
    u0 = tuple(b - linalg.dot(a, x0) for a, b in h.ineqs)
    an = tuple(tuple(-linalg.dot(a, n) for n in null) for a, _ in h.ineqs)
    t, f, m, k = fact.t, fact.inner_dim, len(h.ineqs), len(null)
    if k and len(ref_rref(an)[1]) < k:
        return None
    dirs = linalg.transpose(an)
    normals = ref_nullspace(dirs) if dirs else [linalg.unit(m, i) for i in range(m)]
    eqs = []
    for nv in normals:
        e, g = ref_canon_eq(nv, linalg.dot(nv, u0))
        eqs.append(([linalg.dot(e, tuple(t[i][col] for i in range(m))) for col in range(f)], g))
    ineqs = [(tuple(-1 if c == col else 0 for c in range(f)), 0) for col in range(f)]
    q = HPoly(f, ineqs, eqs, ineq_labels=tuple(f"lambda{c}>=0" for c in range(f)))
    if k:
        ng = linalg.mat_mul(linalg.transpose(null), ref_left_inverse(an))
        proj = AffineMap(linalg.mat_mul(ng, t), linalg.vsub(x0, linalg.mat_vec(ng, u0)))
    else:
        proj = AffineMap([[0] * f for _ in range(h.dim)], x0)
    point_of = {proj.apply(lam): lam for lam in zip(*fact.s)}
    return q, proj, point_of


@st.composite
def bridge_systems(draw):
    """A point p, fractional equations through it (dependent ones too),
    distinct points on their solution set near p, and fractional rows
    a·x <= b with b at or above the largest a·x over the points.  The affine
    frame's denominator is then mostly above 1 and AN's columns are not
    integral; with fewer rows than directions the slack map is not
    injective."""
    dim = draw(st.integers(1, 4))
    coef = st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))
    vector = st.lists(coef, min_size=dim, max_size=dim).map(linalg.vec)
    p = draw(vector)
    cs = draw(st.lists(vector, max_size=dim - 1))
    eqs = [(c, linalg.dot(c, p)) for c in cs]
    dirs = ref_nullspace(linalg.mat(cs)) if cs else [linalg.unit(dim, i) for i in range(dim)]
    step = st.sampled_from([0, 1, -1, F(1, 2), F(-2, 3)])
    pts = [p]
    for _ in range(draw(st.integers(0, 4))):
        x = p
        for d in dirs:
            s = draw(step)
            x = linalg.vadd(x, tuple(s * y for y in d))
        pts.append(x)
    pts = list(dict.fromkeys(pts))
    ineqs = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(vector)
        ineqs.append((a, max(linalg.dot(a, x) for x in pts) + draw(st.sampled_from([0, 0, F(1, 3)]))))
    return HPoly(dim, ineqs, eqs), VPoly(dim, pts)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(bridge_systems(), st.booleans())
def test_slack_bridge_matches_the_fraction_construction(case, t_is_identity):
    h, v = case
    sm = slack_matrix(h, v)
    if t_is_identity:
        fact = NonnegFactorization(linalg.identity(sm.nrows), sm.entries)
    else:
        fact = NonnegFactorization(sm.entries, linalg.identity(sm.ncols))
    want = reference_slack_extension(fact, sm, h)
    if want is None:
        for run in (lambda: slack_map(h), lambda: factorization_to_extension(fact, sm, h)):
            with pytest.raises(ValidationError, match="^slack map is not injective on the affine hull$"):
                run()
        return
    slack_map(h)
    ext = factorization_to_extension(fact, sm, h)
    q, proj, point_of = want
    assert ext.q == q and ext.proj == proj
    assert [ext.lift(x) for x in v.vertices] == [point_of.get(x) for x in v.vertices]
