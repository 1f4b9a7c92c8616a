"""The LPs the library poses itself go to `kernel._optimize_rows` as integer
rows.  Each is checked here against a test-local reference that poses the
same system on an `HPoly` of Fraction rows, as the code did before, and
solves it through the public `optimize`: the max-common-slack system and
its result, `_nonredundant`'s flags on `fm_project`'s dict rows, the
interior point of `vertices`' t-polytope, and `_ray_certified` with its
equations read from integer rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import kernel, linalg, zoo
from polylift.errors import EmptyPolyhedronError
from polylift.kernel import HPoly, VPoly, feasible_point, optimize
from test_redundancy import KINDS, reference_nonredundant, systems

F = Fraction
ZERO = F(0)
ONE = F(1)


def reference_eps_system(poly):
    """The max-common-slack LP as it was posed before: a·x + eps <= b as
    Fraction rows, eps <= 1, the equations with a zero eps entry."""
    dim = poly.dim
    rows = [(tuple(a) + (ONE,), b) for a, b in poly.ineqs] + [(linalg.unit(dim + 1, dim), ONE)]
    return HPoly(dim + 1, rows, [(tuple(c) + (ZERO,), d) for c, d in poly.eqs])


def reference_max_common_slack(poly):
    r = optimize(reference_eps_system(poly), linalg.unit(poly.dim + 1, poly.dim), "max")
    if r.status == "infeasible" or r.optimum < 0:
        return "empty"
    return r.optimum, tuple(r.primal_point[:poly.dim])


def _dense(rows, dim):
    """Integer rows (pairs, b, d) as the Fraction rows (a, b) they stand for."""
    out = []
    for nz, b, d in rows:
        a = [ZERO] * dim
        for j, x in nz:
            a[j] = F(x, d)
        out.append((tuple(a), F(b, d)))
    return out


def _recording(monkeypatch, name):
    """Replace kernel.<name> by a wrapper that records (args, result or
    error) of each call, each integer row's pairs copied at the call."""
    real, calls = getattr(kernel, name), []

    def wrapper(dim, ineqs, eqs, *rest):
        snap = [[(tuple(nz), b, d) for nz, b, d in part] for part in (ineqs, eqs)]
        try:
            out = real(dim, ineqs, eqs, *rest)
        except EmptyPolyhedronError as e:
            out = e
        calls.append((dim, *snap, rest, out))
        if isinstance(out, Exception):
            raise out
        return out

    monkeypatch.setattr(kernel, name, wrapper)
    return calls


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, derandomize=True, max_examples=30)
@given(data=st.data())
def test_max_common_slack_poses_the_fraction_system(kind, data):
    poly = data.draw(systems(kind))
    seen = []
    real = kernel._optimize_rows

    def spy(dim, ineqs, eqs, costs):
        seen.append((dim, (tuple(ineqs), tuple(eqs)), costs))
        return real(dim, ineqs, eqs, costs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_optimize_rows", spy)
        try:
            got = kernel._max_common_slack(poly.dim, *poly._int_rows())
        except EmptyPolyhedronError:
            got = "empty"
    ref = reference_eps_system(poly)
    [(dim, rows, costs)] = seen
    assert (dim, rows) == (ref.dim, ref._int_rows())
    assert costs == [(((poly.dim, 1),), 1, "max")]
    assert got == reference_max_common_slack(poly)


def _fm_cases():
    """Small systems to project: the redundancy strategies, with a random
    set of coordinates kept."""
    return st.sampled_from(KINDS).flatmap(systems).flatmap(
        lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p.dim - 1), max_size=p.dim - 1)))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_fm_cases())
def test_fm_prune_flags_are_those_of_the_fraction_hpoly(case):
    poly, keep = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp, "_nonredundant")
        kernel.fm_project(poly, keep)
    for dim, ineqs, eqs, _, out in calls:
        # the system the prune built before: its dict rows as Fractions
        current = HPoly(dim, _dense(ineqs, dim), _dense(eqs, dim))
        if isinstance(out, EmptyPolyhedronError):
            assert feasible_point(current) is None
        else:
            assert out == reference_nonredundant(current)
            assert current._int_rows() == tuple(
                tuple([(tuple(sorted(nz)), b, d) for nz, b, d in part]) for part in (ineqs, eqs))


@pytest.mark.parametrize("poly, keep", [
    (zoo.birkhoff_hrep(3), range(3)),
    (zoo.cube_hrep(3), [0, 2]),
])
def test_fm_prune_flags_on_zoo_projections(poly, keep, monkeypatch):
    calls = _recording(monkeypatch, "_nonredundant")
    kernel.fm_project(poly, keep)
    assert calls
    for dim, ineqs, eqs, _, out in calls:
        assert out == reference_nonredundant(HPoly(dim, _dense(ineqs, dim), _dense(eqs, dim)))


@st.composite
def flat_polytopes(draw):
    """A polytope of dimension < dim given by inequalities only: the hull
    of points on a hyperplane c·x = e, its equations replaced by pairs of
    opposite inequalities, so `vertices` finds them as implicit equalities
    and its frame point lies on the boundary."""
    dim = draw(st.integers(2, 3))
    c = draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(lambda c: c[-1] != 0))
    pts = set()
    for _ in range(draw(st.integers(dim, dim + 3))):
        x = [F(draw(st.integers(-3, 3))) for _ in range(dim - 1)]
        pts.add((*x, F(draw(st.integers(-2, 2)) - sum(a * y for a, y in zip(c, x)), c[-1])))
    h = kernel.hull(VPoly(dim, sorted(pts)))
    rows = list(h.ineqs) + [r for a, b in h.eqs for r in ((a, b), (tuple(-x for x in a), -b))]
    return HPoly(dim, draw(st.permutations(rows))), h


@settings(deadline=None, derandomize=True, max_examples=60)
@given(flat_polytopes())
def test_vertices_interior_point_is_the_fraction_one(case):
    poly, h = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp, "_max_common_slack")
        got = kernel.vertices(poly)
    assert got == kernel.vertices(h)
    for dim, ineqs, eqs, _, out in calls:
        assert out == reference_max_common_slack(HPoly(dim, _dense(ineqs, dim), _dense(eqs, dim)))


def test_vertices_reaches_the_t_polytope_lp(monkeypatch):
    # a segment in the plane given by four inequalities: the frame point is
    # an end of it, so the t-polytope needs its own interior point
    poly = HPoly(2, [((1, 1), 2), ((-1, -1), -2), ((-1, 0), 0), ((1, 0), 2)])
    calls = _recording(monkeypatch, "_max_common_slack")
    assert kernel.vertices(poly).vertices == ((0, 2), (2, 0))
    assert [dim for dim, *_ in calls] == [2, 1]
    dim, ineqs, eqs, _, out = calls[1]
    assert eqs == [] and out == reference_max_common_slack(HPoly(dim, _dense(ineqs, dim)))


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, derandomize=True, max_examples=30)
@given(data=st.data())
def test_ray_certified_reads_equations_from_integer_rows(kind, data):
    poly = data.draw(systems(kind))
    try:
        eps, z = kernel._max_common_slack(poly.dim, *poly._int_rows())
    except EmptyPolyhedronError:
        return
    if eps <= 0:
        return
    ineqs, eqs = poly._int_rows()
    # the equations as the Fraction route scaled them (linalg.homogeneous),
    # and each integer row times a drawn positive factor
    old = [([(j, x) for j, x in enumerate(linalg.homogeneous(c)[:-1]) if x], 0, 1) for c, _ in poly.eqs]
    factors = [data.draw(st.integers(1, 4)) for _ in eqs]
    scaled = [([(j, k * x) for j, x in nz], k * b, k * d) for (nz, b, d), k in zip(eqs, factors)]
    got = kernel._ray_certified(poly.dim, ineqs, eqs, z)
    assert got == kernel._ray_certified(poly.dim, ineqs, old, z)
    assert got == kernel._ray_certified(poly.dim, ineqs, scaled, z)
