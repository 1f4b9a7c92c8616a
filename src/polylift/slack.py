"""Slack maps, slack matrices, and the factorization <-> extension bridge.

The two directions of the bridge:

* a nonnegative factorization Phi = T S of a slack matrix turns the columns
  of T into a slack generating set, giving an extension of size f (the inner
  dimension), with the inverse slack map as projection;
* a verified extension (Q, p) of size q yields a nonnegative T with
  Phi = T S exactly, where T is found row by row through exact LPs (the
  existence is strong LP duality) and S evaluates Q's slacks at canonical
  lifts of the points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import linalg
from .constructions import Extension, verify_extension
from .errors import InputError, InvariantViolationError, ValidationError
from .kernel import (
    AffineMap,
    HPoly,
    VPoly,
    _affine_frame,
    _at_bound,
    _int_slack,
    _lex_fibers,
    optimize,
)
from .linalg import Mat

F = Fraction
ZERO = F(0)
ONE = F(1)


@dataclass(frozen=True)
class SlackMatrix:
    """Facet-vertex slack matrix with provenance.

    entries[i][j] = b_i - <A_i, x_j> >= 0.
    """

    entries: Mat
    row_provenance: tuple
    col_provenance: tuple

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def support(self):
        return [
            (i, j)
            for i in range(self.nrows)
            for j in range(self.ncols)
            if self.entries[i][j] != 0
        ]


@dataclass(frozen=True)
class NonnegFactorization:
    """Phi = t @ s with both factors nonnegative; f is the inner dimension."""

    t: Mat
    s: Mat

    def __post_init__(self):
        object.__setattr__(self, "t", linalg.mat(self.t))
        object.__setattr__(self, "s", linalg.mat(self.s))

    @property
    def inner_dim(self) -> int:
        return len(self.t[0]) if self.t else 0


@dataclass(frozen=True)
class FactorizationCheck:
    ok: bool
    first_mismatch: tuple | None = None  # (i, j) of the first bad product entry
    negative_entry: tuple | None = None  # ("t"|"s", i, j)

    def __bool__(self) -> bool:
        return self.ok


def _slack_frame(hrep: HPoly):
    """(x0, N, u0, AN): aff(P) = {x0 + N t}, N the list of its direction
    vectors n_j, and the slack map on it, u = b - A(x0 + N t) = u0 + AN t,
    AN given as its columns.  `_slacks` reads both: u0 is the slack at x0,
    and AN's column j the change of slack from x0 to x0 + n_j."""
    _, x0, basis, den = _affine_frame(hrep)
    null = [tuple([F(x, den) for x in v]) for v in basis]
    rows = _slacks(hrep, [x0] + [linalg.vadd(x0, n) for n in null])
    u0 = tuple([r[0] for r in rows])
    an = [tuple([r[j] - r[0] for r in rows]) for j in range(1, len(null) + 1)]
    return x0, null, u0, an


def slack_map(hrep: HPoly) -> AffineMap:
    """The affine map x -> b - Ax over the inequality system of hrep.

    Raises ValidationError when the map is not injective on aff(P) (then no
    inverse slack map exists).
    """
    an = _slack_frame(hrep)[3]
    if linalg._left_inverse_int(an, len(hrep.ineqs)) is None:
        raise ValidationError("slack map is not injective on the affine hull")
    return AffineMap([[-x for x in a] for a, _ in hrep.ineqs], [b for _, b in hrep.ineqs])


def is_binding(hrep: HPoly) -> bool:
    """Every inequality is tight at some point of the polyhedron."""
    return all(_at_bound(hrep, hrep.ineqs, "max"))


def _binding_given_slacks(hrep: HPoly, sm: SlackMatrix, points: VPoly) -> bool:
    """`is_binding(hrep)`, given the slack matrix sm of hrep at points.
    slack_matrix has checked every inequality, so a listed point off the
    equations is the input error left; then every listed point is in P, a
    row with a zero slack is tight there, and only the other rows take an
    LP (one batch)."""
    on_eqs = hrep._derive(())
    for j, x in enumerate(points.vertices):
        if not on_eqs.contains(x):
            raise InputError(f"point {points.point_label(j)} violates an equation of the system")
    return all(_at_bound(hrep, [r for r, row in zip(hrep.ineqs, sm.entries) if ZERO not in row], "max"))


def _slacks(hrep: HPoly, pts) -> list[tuple]:
    """b - a·x for each inequality row of hrep (one tuple per row) at each
    point of pts.  Each row is read in its integer form (A, B, d) from
    `HPoly._int_rows`, each point scaled to its homogeneous (X, w); then
    b - a·x = `_int_slack` / (d w)."""
    homs = [linalg.homogeneous(x) for x in pts]
    return [tuple([F(_int_slack(nz, b, p), d * p[-1]) for p in homs]) for nz, b, d in hrep._int_rows()[0]]


def slack_matrix(hrep: HPoly, points: VPoly) -> SlackMatrix:
    """Exact slack matrix of hrep's inequality rows against the given points."""
    if hrep.dim != points.dim:
        raise ValidationError("dimension mismatch between system and points")
    entries = _slacks(hrep, points.vertices)
    for i, row in enumerate(entries):
        for j, s in enumerate(row):
            if s < 0:
                raise ValidationError(
                    f"point outside polytope: row {hrep.row_label(i)}, "
                    f"point {points.point_label(j)} (slack {s})"
                )
    rows_prov = tuple(hrep.row_label(i) for i in range(len(entries)))
    cols_prov = tuple(points.point_label(j) for j in range(len(points.vertices)))
    return SlackMatrix(linalg.mat(entries), rows_prov, cols_prov)


def verify_factorization(slack: SlackMatrix, fact: NonnegFactorization) -> FactorizationCheck:
    """Exact check that fact.t @ fact.s equals the slack matrix entrywise,
    with both factors nonnegative."""
    for name, mtx in (("t", fact.t), ("s", fact.s)):
        for i, row in enumerate(mtx):
            for j, v in enumerate(row):
                if v < 0:
                    return FactorizationCheck(False, negative_entry=(name, i, j))
    if len(fact.t) != slack.nrows or (fact.t and len(fact.t[0]) != len(fact.s)):
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    if fact.s and len(fact.s[0]) != slack.ncols:
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    # row i of T·S is the sum of t_ik·(row k of S) over the nonzero t_ik,
    # each over the nonzeros of that row of S; rows and columns are compared
    # in order, so the first mismatch is the first in row-major order
    s_nz = [[(j, v) for j, v in enumerate(row) if v] for row in fact.s]
    for i, (t_row, phi_row) in enumerate(zip(fact.t, slack.entries)):
        prod = [ZERO] * slack.ncols
        for tk, nz in zip(t_row, s_nz):
            if tk:
                for j, v in nz:
                    prod[j] += tk * v
        for j, (x, y) in enumerate(zip(prod, phi_row)):
            if x != y:
                return FactorizationCheck(False, first_mismatch=(i, j))
    return FactorizationCheck(True)


def factorization_to_extension(
    fact: NonnegFactorization, slack: SlackMatrix, original: HPoly
) -> Extension:
    """Slack extension of size f from an exact nonnegative factorization.

    Q = {lambda >= 0 : T lambda in the slack image of aff(original)}; the
    projection applies the inverse slack map to T lambda, which is affine on
    that image.
    """
    check = verify_factorization(slack, fact)
    if not check.ok:
        raise ValidationError(f"factorization does not reproduce the slack matrix: {check}")
    t = fact.t
    f = fact.inner_dim
    m = slack.nrows
    if len(original.ineqs) != m:
        raise ValidationError("original system row count does not match the slack matrix")
    x0, null, u0, an = _slack_frame(original)
    inv = linalg._left_inverse_int(an, m)
    if inv is None:
        raise ValidationError("slack map is not injective on the affine hull")
    piv, normals, den, gcols = inv

    # the slack image is u0 plus the span of AN's columns: e·u = e·u0 for
    # each normal e of that span, so Q's equations are e·(T lambda) = e·u0
    tmap = AffineMap.linear(t)
    eqs = []
    for nv in normals:
        r = linalg.dot(nv, u0)
        *e, g = linalg._canonical_eq([r.denominator * x for x in nv] + [r.numerator])
        eqs.append((tmap.pull_back(e), g))
    ineqs = [(tuple(-ONE if c == col else ZERO for c in range(f)), ZERO) for col in range(f)]
    q = HPoly(f, ineqs, eqs, ineq_labels=tuple(f"lambda{c}>=0" for c in range(f)))

    # inverse slack map: x = x0 + NG(u - u0) with u = T lambda and G (AN) = I;
    # G is zero off the columns piv, and gcols[l] is den times its column piv[l]
    ng = [[ZERO] * m for _ in x0]
    for c, col in zip(piv, gcols):
        for r, row in enumerate(ng):
            row[c] = sum([x * n[r] for x, n in zip(col, null) if x], ZERO) / den
    proj = AffineMap([tmap.pull_back(row) for row in ng], [x - linalg.dot(row, u0) for x, row in zip(x0, ng)])

    # each point is the projection of its column of S
    s_cols = [tuple(row[j] for row in fact.s) for j in range(slack.ncols)]
    point_of = {proj.apply(lam): lam for lam in s_cols}

    def lift(v):
        return point_of.get(tuple(v))

    return Extension(q, proj, original.dim, f"slack_extension(f={f})", lift)


def extension_to_factorization(
    ext: Extension, hrep: HPoly, points: VPoly
) -> NonnegFactorization:
    """Nonnegative factorization Phi = T S from a verified extension.

    Requires hrep binding (a listed point outside P is reported first, as
    in xc_bounds) and the extension verified; a non-pointed Q is first
    quotiented by its lineality space (same inequality count).  Each row of T
    comes from an exact LP expressing the row's slack over Q as a nonnegative
    combination of Q's inequality slacks; S evaluates Q's slacks at the
    lexicographically minimal lift of each point.  The lifts come first, from
    one LP batch over Q, and serve as verify's lift hints, which it checks
    exactly; S is built only when it accepts every one.
    """
    phi = slack_matrix(hrep, points)
    if not _binding_given_slacks(hrep, phi, points):
        raise ValidationError("inequality system is not binding")

    q_poly, proj = ext.q, ext.proj
    stacked = linalg.mat([a for a, _ in q_poly.ineqs] + [c for c, _ in q_poly.eqs])
    keep = linalg.independent_rows(stacked)
    quotient = None
    if len(keep) < q_poly.dim:
        # quotient by the lineality space: y = B z, B's columns the rows
        # kept, which span the orthogonal complement
        quotient = AffineMap.linear(linalg.transpose([stacked[i] for i in keep]))
        q_poly = HPoly(len(keep), [(quotient.pull_back(a), b) for a, b in q_poly.ineqs],
                       [(quotient.pull_back(c), d) for c, d in q_poly.eqs])
        proj = proj.compose(quotient)
    pm, p0 = proj.matrix, proj.offset

    # the hints are in Q's own coordinates; a point whose lift failed gets
    # none, and its error is raised where S needs the lift
    lifts = _lex_fibers(q_poly, pm, [[a - b for a, b in zip(x, p0)] for x in points.vertices], q_poly.dim)
    hints = {x: y if quotient is None else quotient.apply(y)
             for x, y in zip(points.vertices, lifts) if not isinstance(y, Exception)}
    rep = verify_extension(hrep, replace(ext, lift=hints.get), target_vrep=points)
    if not rep.passed:
        raise ValidationError("extension does not project onto the target")
    if rep.lift_hits != len(hints):
        raise InvariantViolationError("a lexicographic lift fails the extension's check")

    # row i of T solves sigma0·t = f0 and (column j of AN)·t = fj for each
    # direction n_j of aff(Q), with f0 and f0 + fj hrep's slacks at p(y0)
    # and p(y0 + n_j)
    y0, null, sigma0, sigma_cols = _slack_frame(q_poly)
    qm = len(q_poly.ineqs)
    rhs = _slacks(hrep, [proj.apply(y0)] + [proj.apply(linalg.vadd(y0, n)) for n in null])

    # every t_rows LP is these rows plus its own equations, derived from them
    nonneg = HPoly(qm, [(tuple(-ONE if c == col else ZERO for c in range(qm)), ZERO) for col in range(qm)])
    t_rows = []
    for at in rhs:
        eqs = [(sigma0, at[0])] + [(col, fj - at[0]) for col, fj in zip(sigma_cols, at[1:])]
        r = optimize(nonneg._derive(eqs=eqs), (ONE,) * qm, "min")
        if r.status != "optimal":
            raise InvariantViolationError(
                "no nonnegative slack combination found; extension_to_factorization "
                "requires a binding system and a verified extension"
            )
        t_rows.append(r.primal_point)

    for y in lifts:
        if isinstance(y, Exception):
            raise y
    fact = NonnegFactorization(linalg.mat(t_rows), linalg.mat(_slacks(q_poly, lifts)))
    check = verify_factorization(phi, fact)
    if not check.ok:
        raise InvariantViolationError(f"factorization failed validation: {check}")
    return fact
