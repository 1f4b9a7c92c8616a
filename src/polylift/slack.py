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
from math import lcm

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
    _optimize_rows,
    _sparse_int_row,
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


def _frame_slacks(rows, x0, basis, den):
    """(u0, AN): the slacks of integer rows (A_i, B_i, d_i), as
    `HPoly._int_rows` gives them, on the frame {x0 + N t}, N's columns
    basis/den (integer vectors over den): u = u0 + AN t, with
    u0_i = `_int_slack`(row i, x0's homogeneous (X, w))/(d_i w) and AN
    given as its columns, column j -(A_i·basis_j)/(d_i den) row by row."""
    hx = linalg.homogeneous(x0)
    u0 = tuple([F(_int_slack(nz, b, hx), d * hx[-1]) for nz, b, d in rows])
    return u0, [tuple([F(-sum([a * v[r] for r, a in nz]), d * den) for nz, _, d in rows]) for v in basis]


def _slack_frame(hrep: HPoly):
    """(x0, basis, den, u0, AN): `_affine_frame`'s aff(P) = {x0 + N t}, N's
    columns basis/den, and the slack map u = b - Ax on it, u = u0 + AN t,
    read off hrep's integer rows by `_frame_slacks`."""
    _, x0, basis, den = _affine_frame(hrep)
    return (x0, basis, den, *_frame_slacks(hrep._int_rows()[0], x0, basis, den))


def slack_map(hrep: HPoly) -> AffineMap:
    """The affine map x -> b - Ax over the inequality system of hrep.

    Raises ValidationError when the map is not injective on aff(P) (then no
    inverse slack map exists).
    """
    an = _slack_frame(hrep)[4]
    if linalg._left_inverse_int(an, len(hrep.ineqs)) is None:
        raise ValidationError("slack map is not injective on the affine hull")
    return AffineMap([[-x for x in a] for a, _ in hrep.ineqs], [b for _, b in hrep.ineqs])


def _pointed(q: HPoly) -> bool:
    """Whether Q's rows, inequalities and equations, have rank q.dim: Q has
    no lineality.  A row with one nonzero pins its coordinate, so the rank
    is the number of coordinates pinned plus the rank of the other rows on
    the free coordinates; when none is free, nothing is eliminated."""
    rows = [nz for part in q._int_rows() for nz, _, _ in part]
    pinned = {nz[0][0] for nz in rows if len(nz) == 1}
    free = [j for j in range(q.dim) if j not in pinned]
    rest = [[dict(nz).get(j, 0) for j in free] for nz in rows if len(nz) > 1]
    return not free or len(rest) >= len(free) and linalg.rank(rest) == len(free)


def is_binding(hrep: HPoly) -> bool:
    """Every inequality is tight at some point of the polyhedron."""
    return all(_at_bound(hrep, hrep._int_rows()[0], "max"))


def _binding_given_slacks(hrep: HPoly, sm: SlackMatrix, points: VPoly) -> bool:
    """`is_binding(hrep)`, given the slack matrix sm of hrep at points.
    slack_matrix has checked every inequality, so a listed point off the
    equations is the input error left; then every listed point is in P, a
    row with a zero slack is tight there, and only the other rows take an
    LP (one batch)."""
    on_eqs = HPoly(hrep.dim, (), hrep.eqs)
    for j, x in enumerate(points.vertices):
        if not on_eqs.contains(x):
            raise InputError(f"point {points.point_label(j)} violates an equation of the system")
    return all(_at_bound(hrep, [r for r, row in zip(hrep._int_rows()[0], sm.entries) if ZERO not in row], "max"))


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
    with both factors nonnegative: a negative entry is reported first, then
    the first product entry, in row-major order, that differs, each compared
    exactly in integers (S over one denominator, each row of T over its own)."""
    for name, mtx in (("t", fact.t), ("s", fact.s)):
        for i, row in enumerate(mtx):
            for j, v in enumerate(row):
                if v.numerator < 0:  # the sign of a Fraction, without a comparison
                    return FactorizationCheck(False, negative_entry=(name, i, j))
    if len(fact.t) != slack.nrows or (fact.t and len(fact.t[0]) != len(fact.s)):
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    if fact.s and len(fact.s[0]) != slack.ncols:
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    # in integers: S over one common denominator M and each row of T over
    # its own L, so row i of T·S is Σ/(L·M), Σ the sum of t_ik·(row k of S)
    # over the nonzero t_ik, each over the nonzeros of that row of S, and
    # equals φ = num/den where Σ·den = num·L·M; rows and columns are
    # compared in order, so the first mismatch is the first in row-major order
    m = lcm(*[v.denominator for row in fact.s for v in row])
    s_nz = [[(j, v.numerator * (m // v.denominator)) for j, v in enumerate(row) if v] for row in fact.s]
    for i, (t_row, phi_row) in enumerate(zip(fact.t, slack.entries)):
        el = lcm(*[x.denominator for x in t_row])
        prod = [0] * slack.ncols
        for tk, nz in zip(t_row, s_nz):
            if tk:
                tk = tk.numerator * (el // tk.denominator)
                for j, v in nz:
                    prod[j] += tk * v
        el *= m
        for j, (x, y) in enumerate(zip(prod, phi_row)):
            if x * y.denominator != y.numerator * el:
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
    x0, basis, fden, u0, an = _slack_frame(original)
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
    # G is zero off the columns piv, and gcols[l] is den times its column
    # piv[l], so NG's column piv[l] is basis·gcols[l] over fden·den
    ng = [[ZERO] * m for _ in x0]
    for c, col in zip(piv, gcols):
        for r, row in enumerate(ng):
            row[c] = F(sum([x * v[r] for x, v in zip(col, basis) if x]), fden * den)
    proj = AffineMap([tmap.pull_back(row) for row in ng], [x - linalg.dot(row, u0) for x, row in zip(x0, ng)])

    # each point is the projection of its column of S
    s_cols = [tuple(row[j] for row in fact.s) for j in range(slack.ncols)]
    point_of = {proj.apply(lam): lam for lam in s_cols}

    def lift(v):
        return point_of.get(tuple(v))

    return Extension(q, proj, original.dim, f"slack_extension(f={f})", lift)


def _lineality_quotient(q: HPoly) -> tuple[HPoly, AffineMap]:
    """Q quotiented by its lineality space, y = B z, and the map z -> y: B's
    columns are the rows of Q that `linalg.independent_rows` keeps, which
    span the orthogonal complement; the inequality count is the same."""
    stacked = linalg.mat([a for a, _ in q.ineqs] + [c for c, _ in q.eqs])
    keep = linalg.independent_rows(stacked)
    quotient = AffineMap.linear(linalg.transpose([stacked[i] for i in keep]))
    return HPoly(len(keep), [(quotient.pull_back(a), b) for a, b in q.ineqs],
                 [(quotient.pull_back(c), d) for c, d in q.eqs]), quotient


def extension_to_factorization(
    ext: Extension, hrep: HPoly, points: VPoly
) -> NonnegFactorization:
    """Nonnegative factorization Phi = T S from a verified extension.

    Requires hrep binding (a listed point outside P is reported first, as
    in xc_bounds) and the extension verified; a non-pointed Q (`_pointed`,
    by rank from its integer rows) is first quotiented by its lineality
    space (same inequality count).  Each row of T comes from its own exact
    LP expressing the row's slack over Q as a nonnegative combination of
    Q's inequality slacks; the LPs share their left sides, Q's slack frame
    as integer rows, and differ in the right-hand sides, hrep's slack frame
    on the image of Q's (both `_frame_slacks`).  They are not batched: the
    optimum is often not unique, and another pivot path changes T.  S
    evaluates Q's slacks at the lexicographically minimal lift of each
    point.  The lifts come first, from one LP batch over Q, and serve as
    verify's lift hints, which it checks exactly; S is built only when it
    accepts every one.
    """
    phi = slack_matrix(hrep, points)
    if not _binding_given_slacks(hrep, phi, points):
        raise ValidationError("inequality system is not binding")

    q_poly, proj = ext.q, ext.proj
    quotient = None
    if not _pointed(q_poly):
        q_poly, quotient = _lineality_quotient(q_poly)
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
    # direction n_j = basis_j/den of aff(Q), where hrep's slacks on the
    # image frame {p(y0) + P N t} are f0 + F t: P·basis_j is integer over
    # e, the lcm of the denominators of proj's integer rows, so F's columns
    # are `_frame_slacks` over e·den
    y0, basis, den, sigma0, sigma_cols = _slack_frame(q_poly)
    qm = len(q_poly.ineqs)
    prows = proj._int_rows()
    e = lcm(*[d for _, _, d in prows])
    pbasis = [[e // d * sum([a * v[c] for c, a in nz]) for nz, _, d in prows] for v in basis]
    f0, f_cols = _frame_slacks(hrep._int_rows()[0], proj.apply(y0), pbasis, e * den)

    # every t_rows LP is the signs -t_c <= 0 plus 1 + k equations whose left
    # sides, sigma0 and AN's columns, are the same for every row of T: each
    # becomes integers once, (nz, 0, d0), and a row's rhs b only rescales it
    # to the least denominator lcm(d0, den(b)), as `_sparse_int_row` would
    signs = [(((c, -1),), 0, 1) for c in range(qm)]
    ones = [(c, 1) for c in range(qm)]
    int_lhs = [_sparse_int_row(a, ZERO) for a in [sigma0] + sigma_cols]
    t_rows = []
    for bs in zip(f0, *f_cols):
        int_eqs = []
        for (nz, _, d0), b in zip(int_lhs, bs):
            d = lcm(d0, b.denominator)
            if d != d0:
                nz = tuple([(j, x * (d // d0)) for j, x in nz])
            int_eqs.append((nz, b.numerator * (d // b.denominator), d))
        [r] = _optimize_rows(qm, signs, int_eqs, [(ones, 1, "min")])
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
