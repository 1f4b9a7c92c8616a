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

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .constructions import Extension, verify_extension
from .errors import EmptyPolyhedronError, InvariantViolationError, ValidationError
from .kernel import (
    AffineMap,
    HPoly,
    VPoly,
    _aff_directions,
    lex_min_point,
    optimize,
    optimize_all,
)
from .linalg import Mat

F = Fraction
ZERO = F(0)
ONE = F(1)


@dataclass(frozen=True)
class SlackMatrix:
    """Facet-vertex slack matrix with provenance.

    entries[i][j] = b_i - <A_i, x_j> >= 0; affine_space is an equation system
    over R^m cutting out the image of aff(P) under the slack map.
    """

    entries: Mat
    row_provenance: tuple
    col_provenance: tuple
    affine_space: tuple

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


def slack_map(hrep: HPoly) -> AffineMap:
    """The affine map x -> b - Ax over the inequality system of hrep.

    Raises ValidationError when the map is not injective on aff(P) (then no
    inverse slack map exists).
    """
    a_rows = [a for a, _ in hrep.ineqs]
    b = [bb for _, bb in hrep.ineqs]
    x0, null = _aff_directions(hrep)
    an = linalg.mat([[linalg.dot(a, n) for n in null] for a in a_rows])
    if null and linalg.rank(an) < len(null):
        raise ValidationError("slack map is not injective on the affine hull")
    return AffineMap([[-x for x in a] for a in a_rows], b)


def is_binding(hrep: HPoly) -> bool:
    """Every inequality is tight at some point of the polyhedron."""
    return _tight_somewhere(hrep, hrep.ineqs)


def _tight_somewhere(hrep: HPoly, rows) -> bool:
    """Each given row (a, b) attains b over hrep's polyhedron: one LP batch."""
    for (_, b), r in zip(rows, optimize_all(hrep, [(a, "max") for a, _ in rows])):
        if r.status == "infeasible":
            raise EmptyPolyhedronError("polyhedron is empty")
        if r.status == "unbounded" or r.optimum != b:
            return False
    return True


def slack_matrix(hrep: HPoly, points: VPoly) -> SlackMatrix:
    """Exact slack matrix of hrep's inequality rows against the given points.

    Each row is scaled once to integers (A, B) by the lcm d of its
    denominators, each point to its homogeneous (X, w); then b - a·x =
    (B w - A·X) / (d w).
    """
    if hrep.dim != points.dim:
        raise ValidationError("dimension mismatch between system and points")
    homs = [linalg.homogeneous(x) for x in points.vertices]
    entries = []
    for i, (a, b) in enumerate(hrep.ineqs):
        *row, d = linalg.homogeneous(a + (-b,))  # (A, -B, d)
        out = []
        for j, p in enumerate(homs):
            s = F(-sum(map(mul, row, p)), d * p[-1])
            if s < 0:
                raise ValidationError(
                    f"point outside polytope: row {hrep.row_label(i)}, "
                    f"point {points.point_label(j)} (slack {s})"
                )
            out.append(s)
        entries.append(tuple(out))
    x0, null = _aff_directions(hrep)
    a_rows = [a for a, _ in hrep.ineqs]
    bvec = [b for _, b in hrep.ineqs]
    u0 = tuple(bb - linalg.dot(a, x0) for a, bb in hrep.ineqs)
    # directions of the slack image: columns -A n for the affine directions n
    dirs = [tuple(-linalg.dot(a, n) for a in a_rows) for n in null]
    m = len(a_rows)
    if dirs:
        normals = linalg.nullspace(linalg.mat(dirs))
    else:
        normals = [linalg.unit(m, i) for i in range(m)]
    affine_space = tuple(
        linalg.canon_eq(f, linalg.dot(f, u0)) for f in normals
    )
    rows_prov = tuple(hrep.row_label(i) for i in range(m))
    cols_prov = tuple(points.point_label(j) for j in range(len(points.vertices)))
    return SlackMatrix(linalg.mat(entries), rows_prov, cols_prov, affine_space)


def verify_factorization(slack: SlackMatrix, fact: NonnegFactorization) -> FactorizationCheck:
    """Exact check that fact.t @ fact.s equals the slack matrix entrywise,
    with both factors nonnegative."""
    for name, mtx in (("t", fact.t), ("s", fact.s)):
        for i, row in enumerate(mtx):
            for j, v in enumerate(row):
                if v < 0:
                    return FactorizationCheck(False, negative_entry=(name, i, j))
    if len(fact.t) != slack.nrows or (
        fact.t and fact.s and len(fact.t[0]) != len(fact.s)
    ):
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    if fact.s and len(fact.s[0]) != slack.ncols:
        return FactorizationCheck(False, first_mismatch=(-1, -1))
    prod = linalg.mat_mul(fact.t, fact.s)
    for i in range(slack.nrows):
        for j in range(slack.ncols):
            if prod[i][j] != slack.entries[i][j]:
                return FactorizationCheck(False, first_mismatch=(i, j))
    return FactorizationCheck(True)


def factorization_to_extension(
    fact: NonnegFactorization, slack: SlackMatrix, original: HPoly
) -> Extension:
    """Slack extension of size f from an exact nonnegative factorization.

    Q = {lambda >= 0 : T lambda in affine_space}; the projection applies the
    inverse slack map to T lambda, which is affine on the slack image.
    """
    check = verify_factorization(slack, fact)
    if not check.ok:
        raise ValidationError(f"factorization does not reproduce the slack matrix: {check}")
    t = fact.t
    f = fact.inner_dim
    m = slack.nrows
    # constraints: E (T lambda) = g for each affine_space row, lambda >= 0
    eqs = []
    for e, g in slack.affine_space:
        coeffs = [linalg.dot(e, tuple(t[i][col] for i in range(m))) for col in range(f)]
        eqs.append((coeffs, g))
    ineqs = [
        (tuple(-ONE if c == col else ZERO for c in range(f)), ZERO) for col in range(f)
    ]
    q = HPoly(f, ineqs, eqs, ineq_labels=tuple(f"lambda{c}>=0" for c in range(f)))

    # inverse slack map: x = x0 + N G ((b - A x0) - u) with u = T lambda
    a_rows = [a for a, _ in original.ineqs]
    bvec = [b for _, b in original.ineqs]
    if len(a_rows) != m:
        raise ValidationError("original system row count does not match the slack matrix")
    x0, null = _aff_directions(original)
    n = original.dim
    k = len(null)
    an = linalg.mat([[-linalg.dot(a, nn) for nn in null] for a in a_rows])  # m x k
    if k and linalg.rank(an) < k:
        raise ValidationError("slack map is not injective on the affine hull")
    u0 = tuple(bb - linalg.dot(a, x0) for a, bb in zip(a_rows, bvec))
    if k:
        g_left = linalg.left_inverse(an)  # k x m with G (AN) = I
        n_mat = linalg.mat([[null[j][i] for j in range(k)] for i in range(n)])  # n x k
        ng = linalg.mat_mul(n_mat, g_left)  # n x m
        proj_mat = [
            [
                sum(ng[r][i] * (t[i][col]) for i in range(m))
                for col in range(f)
            ]
            for r in range(n)
        ]
        offset = tuple(
            x0[r] - sum(ng[r][i] * u0[i] for i in range(m)) for r in range(n)
        )
        # x = x0 + NG(u - u0) with u = T lambda; NG maps slack movement back
        proj = AffineMap(proj_mat, offset)
    else:
        proj = AffineMap([[ZERO] * f for _ in range(n)], x0)

    col_lift = {}
    for j in range(slack.ncols):
        col_lift[j] = tuple(fact.s[r][j] for r in range(f))
    point_of = {}
    # reconstruct the original point for each column via the inverse map
    for j, lam in col_lift.items():
        point_of[proj.apply(lam)] = lam

    def lift(v):
        return point_of.get(tuple(v))

    return Extension(q, proj, n, f"slack_extension(f={f})", lift)


def extension_to_factorization(
    ext: Extension, hrep: HPoly, points: VPoly
) -> NonnegFactorization:
    """Nonnegative factorization Phi = T S from a verified extension.

    Requires hrep binding and the extension verified; a non-pointed Q is first
    quotiented by its lineality space (same inequality count).  Each row of T
    comes from an exact LP expressing the row's slack over Q as a nonnegative
    combination of Q's inequality slacks; S evaluates Q's slacks at the
    lexicographically minimal lift of each point.
    """
    if not is_binding(hrep):
        raise ValidationError("inequality system is not binding")
    rep = verify_extension(hrep, ext, target_vrep=points)
    if not rep.passed:
        raise ValidationError("extension does not project onto the target")

    q_poly = ext.q
    pm = ext.proj.matrix
    p0 = ext.proj.offset
    stacked = [a for a, _ in q_poly.ineqs] + [c for c, _ in q_poly.eqs]
    lin = linalg.nullspace(linalg.mat(stacked)) if stacked else [
        linalg.unit(q_poly.dim, i) for i in range(q_poly.dim)
    ]
    if lin:
        # quotient by the lineality space: restrict to span of the row space
        rows_m = linalg.mat(stacked)
        keep = linalg.independent_rows(rows_m)
        basis = [rows_m[i] for i in keep]  # rows spanning the orthogonal complement
        bcols = linalg.mat([[basis[j][i] for j in range(len(basis))] for i in range(q_poly.dim)])
        new_ineqs = [
            (tuple(linalg.dot(a, col) for col in zip(*bcols)), b) for a, b in q_poly.ineqs
        ]
        new_eqs = [
            (tuple(linalg.dot(c, col) for col in zip(*bcols)), d) for c, d in q_poly.eqs
        ]
        q_poly = HPoly(len(basis), new_ineqs, new_eqs)
        pm = linalg.mat_mul(pm, bcols)

    y0, null = _aff_directions(q_poly)
    qm = len(q_poly.ineqs)
    k = len(null)
    a_rows = [a for a, _ in q_poly.ineqs]
    sigma0 = tuple(b - linalg.dot(a, y0) for a, b in q_poly.ineqs)
    sigma_cols = [
        tuple(-linalg.dot(a_rows[i], nn) for i in range(qm)) for nn in null
    ]  # k vectors in R^qm

    nonneg_rows = [
        (tuple(-ONE if c == col else ZERO for c in range(qm)), ZERO) for col in range(qm)
    ]
    t_rows = []
    for a, b in hrep.ineqs:
        apm = [linalg.dot(a, col) for col in zip(*pm)] if pm else [ZERO] * q_poly.dim
        f0 = b - (linalg.dot(apm, y0) + linalg.dot(a, p0))
        eqs = [(sigma0, f0)]
        for j in range(k):
            fj = -linalg.dot(apm, null[j])
            eqs.append((sigma_cols[j], fj))
        r = optimize(HPoly(qm, nonneg_rows, eqs), (ONE,) * qm, "min")
        if r.status != "optimal":
            raise InvariantViolationError(
                "no nonnegative slack combination found; extension_to_factorization "
                "requires a binding system and a verified extension"
            )
        t_rows.append(r.primal_point)

    s_cols = []
    for j, x in enumerate(points.vertices):
        rows = list(q_poly.eqs)
        for r in range(ext.target_dim):
            rows.append((pm[r], x[r] - p0[r]))
        lift_poly = HPoly(q_poly.dim, q_poly.ineqs, rows)
        y = lex_min_point(lift_poly)
        s_cols.append(tuple(b - linalg.dot(a, y) for a, b in q_poly.ineqs))
    s = linalg.mat([[s_cols[j][r] for j in range(len(s_cols))] for r in range(qm)])
    fact = NonnegFactorization(linalg.mat(t_rows), s)
    phi = slack_matrix(hrep, points)
    check = verify_factorization(phi, fact)
    if not check.ok:
        raise InvariantViolationError(f"factorization failed validation: {check}")
    return fact
