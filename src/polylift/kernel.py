"""Exact polyhedral kernel: types, rational LP, and geometric primitives.

Everything here is pure and exact: polyhedra are immutable, all arithmetic is
over Fraction (the double description core scales it to integers and back).
Every LP goes through `optimize_all`: its answers carry points, and rays when
unbounded, and every internal verdict rests on them.  `lp_solve` adds a dual
vector or a Farkas vector, the solution of a second LP over the same rows,
which exact dot products alone can check.
Operations are safe to call concurrently on shared inputs; the only hidden
state is the integer form of its rows that an `HPoly` builds on first use,
and the sparse form of its rows that an `AffineMap` builds likewise, each
the same whichever call builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import linalg, simplex
from .errors import (
    EmptyPolyhedronError,
    InputError,
    InvariantViolationError,
    UnboundedPolyhedronError,
)
from .linalg import Mat, Vec, frac, vec

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _coerce_rows(rows, dim, what) -> tuple[tuple[Vec, Fraction], ...]:
    out = []
    for entry in rows:
        a, b = entry
        av = vec(a)
        if len(av) != dim:
            raise InputError(f"{what} row has length {len(av)}, expected {dim}")
        out.append((av, frac(b)))
    return tuple(out)


def _sparse_int_row(a, b) -> tuple[tuple[tuple[int, int], ...], int]:
    """The row a·x <= b (or = b) times the least d > 0 that makes it
    integral: (nonzero (index, coefficient) pairs, rhs)."""
    d = lcm(b.denominator, *(x.denominator for x in a))
    nz = tuple((j, x.numerator * (d // x.denominator)) for j, x in enumerate(a) if x)
    return nz, b.numerator * (d // b.denominator)


@dataclass(frozen=True)
class HPoly:
    """Polyhedron {x : a·x <= b for all ineqs, c·x = d for all eqs}.

    size() counts inequalities only; equations are free.
    """

    dim: int
    ineqs: tuple = ()
    eqs: tuple = ()
    ineq_labels: tuple | None = None
    eq_labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "ineqs", _coerce_rows(self.ineqs, self.dim, "inequality"))
        object.__setattr__(self, "eqs", _coerce_rows(self.eqs, self.dim, "equation"))
        for name, rows in (("ineq_labels", self.ineqs), ("eq_labels", self.eqs)):
            labels = getattr(self, name)
            if labels is not None:
                labels = tuple(str(s) for s in labels)
                if len(labels) != len(rows):
                    raise InputError(f"{name} has {len(labels)} entries for {len(rows)} rows")
                object.__setattr__(self, name, labels)

    def size(self) -> int:
        return len(self.ineqs)

    def contains(self, x: Sequence) -> bool:
        xv = vec(x)
        if len(xv) != self.dim:
            raise InputError("point dimension mismatch")
        ineqs, eqs = self._int_rows()
        # den x and every row are integral, and scaling a row by a positive
        # integer keeps its sense: a·x <= b iff (d a)·(den x) <= (d b) den
        den = lcm(*(v.denominator for v in xv))
        xi = [v.numerator * (den // v.denominator) if v else 0 for v in xv]
        for rows, is_eq in ((ineqs, False), (eqs, True)):
            for nz, b in rows:
                s = 0
                for j, a in nz:
                    v = xi[j]
                    if v:
                        s += a * v
                b *= den
                if s > b or (is_eq and s != b):
                    return False
        return True

    def _int_rows(self) -> tuple[tuple, tuple]:
        """(inequalities, equations), each row as (its nonzero (index,
        coefficient) pairs, rhs), scaled to integers by a positive factor.
        Built on first use and kept outside the dataclass fields, so
        equality, hashing and repr do not see it."""
        rows = self.__dict__.get("_int_rows_cache")
        if rows is None:
            rows = tuple(tuple(_sparse_int_row(a, b) for a, b in part) for part in (self.ineqs, self.eqs))
            object.__setattr__(self, "_int_rows_cache", rows)
        return rows

    def row_label(self, i: int) -> str:
        if self.ineq_labels is not None:
            return self.ineq_labels[i]
        return f"row{i}"


@dataclass(frozen=True)
class VPoly:
    """Polytope given as the convex hull of an explicit point list."""

    dim: int
    vertices: tuple = ()
    labels: tuple | None = None

    def __post_init__(self):
        pts = tuple(vec(p) for p in self.vertices)
        for p in pts:
            if len(p) != self.dim:
                raise InputError(f"vertex has length {len(p)}, expected {self.dim}")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate vertices are not allowed")
        object.__setattr__(self, "vertices", pts)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(pts):
                raise InputError("label count does not match vertex count")
            object.__setattr__(self, "labels", labels)

    def point_label(self, j: int) -> str:
        if self.labels is not None:
            return self.labels[j]
        return f"pt{j}"


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix·x + offset, exact."""

    matrix: Mat
    offset: Vec

    def __post_init__(self):
        object.__setattr__(self, "matrix", linalg.mat(self.matrix))
        object.__setattr__(self, "offset", vec(self.offset))
        if len(self.matrix) != len(self.offset):
            raise InputError("offset length must equal the matrix row count")

    @property
    def out_dim(self) -> int:
        return len(self.offset)

    @property
    def in_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def apply(self, y: Sequence) -> Vec:
        yv = vec(y)
        if self.matrix and len(yv) != self.in_dim:
            raise InputError("argument dimension mismatch")
        out = []
        for nz, o in zip(self._sparse_rows(), self.offset):
            s = ZERO
            for j, a in nz:
                v = yv[j]
                if v:
                    s += a * v
            out.append(s + o)
        return tuple(out)

    def _sparse_rows(self) -> tuple:
        """Each matrix row as its nonzero (index, coefficient) pairs.  Built
        on first use and kept outside the dataclass fields, so equality,
        hashing and repr do not see it."""
        rows = self.__dict__.get("_sparse_rows_cache")
        if rows is None:
            rows = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.matrix)
            object.__setattr__(self, "_sparse_rows_cache", rows)
        return rows

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """(self ∘ inner)(x) = self(inner(x)); composition is associative."""
        m = linalg.mat_mul(self.matrix, inner.matrix)
        off = vec(linalg.vadd(linalg.mat_vec(self.matrix, inner.offset), self.offset))
        return AffineMap(m, off)

    @staticmethod
    def linear(matrix) -> "AffineMap":
        m = linalg.mat(matrix)
        return AffineMap(m, linalg.zeros(len(m)))

    @staticmethod
    def coordinate_projection(in_dim: int, coords: Sequence[int]) -> "AffineMap":
        rows = [linalg.unit(in_dim, c) for c in coords]
        return AffineMap(tuple(rows), linalg.zeros(len(rows)))


@dataclass(frozen=True)
class LPResult:
    """Exact LP outcome, from `optimize`/`optimize_all` and `lp_solve`.

    optimal:    optimum and primal_point are set.  From lp_solve,
                dual_certificate is (y per inequality, z per equation) with
                A^T y + C^T z = c, b·y + d·z = optimum, and y >= 0 for max /
                y <= 0 for min; from optimize it is None.
    infeasible: from lp_solve, dual_certificate is a Farkas pair (y >= 0 on
                inequalities) with y^T A + z^T C = 0 and y^T b + z^T d = -1;
                from optimize it is None.
    unbounded:  primal_point is feasible and dual_certificate is a ray r with
                A r <= 0, C r = 0 and c·r improving for the given sense.
    """

    status: str
    optimum: Fraction | None = None
    primal_point: Vec | None = None
    dual_certificate: Vec | None = None


@dataclass(frozen=True)
class PolyEqualResult:
    equal: bool
    witness: Vec | None = None
    witness_side: int | None = None  # 1 or 2: which input contains the witness

    def __bool__(self) -> bool:
        return self.equal


# ---------------------------------------------------------------------------
# LP layer: each optimize_all or lex_min_point call makes one
# simplex.solve_standard call, which runs phase 1 once and gives each
# objective its own phase 2 (lex_min_point: one per coordinate, each on the
# optimal face of the coordinates before it); lp_solve is two optimize calls
# ---------------------------------------------------------------------------

def _assemble_standard(dim, ineqs, eqs, costs_min, nonneg):
    """Build min-form standard data; returns (rows, rhs, costs, var_cols)."""
    var_cols = []
    ncol = 0
    for j in range(dim):
        if nonneg[j]:
            var_cols.append((ncol, None))
            ncol += 1
        else:
            var_cols.append((ncol, ncol + 1))
            ncol += 2
    nslack = len(ineqs)
    total = ncol + nslack
    rows = []
    rhs = []
    for s, (a, b) in enumerate(ineqs):
        row = [ZERO] * total
        for j, coef in enumerate(a):
            if coef:
                p, q = var_cols[j]
                row[p] = coef
                if q is not None:
                    row[q] = -coef
        row[ncol + s] = ONE
        rows.append(row)
        rhs.append(b)
    for c, d in eqs:
        row = [ZERO] * total
        for j, coef in enumerate(c):
            if coef:
                p, q = var_cols[j]
                row[p] = coef
                if q is not None:
                    row[q] = -coef
        rows.append(row)
        rhs.append(d)
    costs = []
    for cost_min in costs_min:
        cost = [ZERO] * total
        for j, cj in enumerate(cost_min):
            if cj:
                p, q = var_cols[j]
                cost[p] = cj
                if q is not None:
                    cost[q] = -cj
        costs.append(cost)
    return rows, rhs, costs, var_cols


def _recover_vector(zvec, var_cols, dim):
    out = []
    for j in range(dim):
        p, q = var_cols[j]
        out.append(zvec[p] - zvec[q] if q is not None else zvec[p])
    return tuple(out)


class _Reduction:
    """Presolve record: eliminated variables as affine functions of survivors.

    elim lists (j, pairs, const) in elimination order, meaning
    x_j = sum(coef * x_k for k, coef in pairs) + const; pairs holds the
    nonzero terms, at most one, and its k may be eliminated by a later entry.
    """

    def __init__(self, dim):
        self.dim = dim
        self.alive = list(range(dim))
        self.elim: list[tuple[int, tuple[tuple[int, Fraction], ...], Fraction]] = []
        self.infeasible = False
        self.ineqs: list[tuple[list[Fraction], Fraction]] = []
        self.eqs: list[tuple[list[Fraction], Fraction]] = []
        self.nonneg: list[bool] = []

    def objective(self, c: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
        """(survivor coefficients, constant) of c·x after the eliminations."""
        obj = list(c)
        const = ZERO
        for j, pairs, ej in self.elim:
            f = obj[j]
            if f:
                obj[j] = ZERO
                for k, ek in pairs:
                    obj[k] += f * ek
                const += f * ej
        return [obj[j] for j in self.alive], const

    def back(self, xr, ray: bool = False) -> Vec:
        """Full-dimensional vector from survivor values; a ray drops the constants."""
        full: list[Fraction | None] = [None] * self.dim
        for pos, j in enumerate(self.alive):
            full[j] = xr[pos]
        for j, pairs, const in reversed(self.elim):
            s = ZERO if ray else const
            for k, ck in pairs:
                s += ck * full[k]
            full[j] = s
        return tuple(full)


def _presolve(poly: HPoly) -> _Reduction:
    """Eliminate variables fixed or tied by short equations; the eliminations
    depend on the rows only, so objectives are reduced afterwards.

    Repeatedly takes the first equation with at most two variables, solves it
    for the higher index and substitutes.  Inequalities that lose every
    variable are dropped (or prove the system infeasible), and a row
    -c x_j <= 0 is dropped and marks x_j nonnegative; eliminating a
    nonnegative x_j appends its sign row -expr <= const.  Rows are sparse
    {index: coefficient} dicts, so an elimination updates only the rows that
    hold its variable, and only those rows (and a new sign row) are screened
    again: no other row changes.  The reduced rows come out dense over the
    survivors, in their original order.
    """
    dim = poly.dim
    ineqs: list = [({j: x for j, x in enumerate(a) if x}, b) for a, b in poly.ineqs]
    eqs = [({j: x for j, x in enumerate(c) if x}, d) for c, d in poly.eqs]
    nonneg = [False] * dim
    alive = [True] * dim
    elim = []

    def screen(i) -> bool:
        """Drop ineqs[i] (set it to None) when it has no variable left or is
        -c x_j <= 0, which marks x_j nonnegative; False when it reads 0 <= b
        with b < 0."""
        a, b = ineqs[i]
        if not a:
            if b < 0:
                return False
            ineqs[i] = None
        elif len(a) == 1 and b == 0:
            ((j, x),) = a.items()
            if x < 0:
                nonneg[j] = True
                ineqs[i] = None
        return True

    def infeasible() -> _Reduction:
        red = _Reduction(dim)
        red.infeasible = True
        return red

    if not all(screen(i) for i in range(len(ineqs))):
        return infeasible()
    while True:
        idx = next((i for i, (c, _) in enumerate(eqs) if len(c) <= 2), None)
        if idx is None:
            break
        c, d = eqs.pop(idx)
        if not c:
            if d != 0:
                return infeasible()
            continue
        if len(c) == 1:
            ((j, cj),) = c.items()
            pairs = ()
        else:
            (k, ck), (j, cj) = sorted(c.items())  # eliminate the higher index
            pairs = ((k, -ck / cj),)
        const = d / cj
        for rows in (ineqs, eqs):
            for i, row in enumerate(rows):
                if row is None or j not in row[0]:
                    continue
                a, b = row
                f = a.pop(j)
                for k, ek in pairs:
                    v = a.get(k, ZERO) + f * ek
                    if v:
                        a[k] = v
                    else:
                        del a[k]
                rows[i] = (a, b - f * const)
                if rows is ineqs and not screen(i):
                    return infeasible()
        if nonneg[j]:
            # keep the sign constraint of the eliminated variable: -expr <= const
            ineqs.append(({k: -ek for k, ek in pairs}, const))
            if not screen(len(ineqs) - 1):
                return infeasible()
        alive[j] = False
        elim.append((j, pairs, const))

    red = _Reduction(dim)
    red.alive = [j for j in range(dim) if alive[j]]
    pos = {j: p for p, j in enumerate(red.alive)}

    def dense(a):
        out = [ZERO] * len(pos)
        for j, x in a.items():
            out[pos[j]] = x
        return out

    red.elim = elim
    red.ineqs = [(dense(row[0]), row[1]) for row in ineqs if row is not None]
    red.eqs = [(dense(c), d) for c, d in eqs]
    red.nonneg = [nonneg[j] for j in red.alive]
    return red


def optimize_all(poly: HPoly, objectives: Sequence[tuple[Sequence, str]]) -> list[LPResult]:
    """Exact optimum and point of each (objective, sense) over one polyhedron;
    an unbounded result carries an improving ray as its dual_certificate.

    Presolve, standard form and phase 1 are shared; each objective gets its
    own phase 2, so result i equals optimize(poly, *objectives[i]).
    """
    cs = []
    for objective, sense in objectives:
        if sense not in ("max", "min"):
            raise InputError("sense must be 'max' or 'min'")
        c = vec(objective)
        if len(c) != poly.dim:
            raise InputError("objective dimension mismatch")
        cs.append((c, sense))
    if not cs:
        return []
    red = _presolve(poly)
    if red.infeasible:
        return [LPResult(status=INFEASIBLE) for _ in cs]
    k = len(red.alive)
    costs_min, consts = [], []
    for c, sense in cs:
        obj, const = red.objective(c)
        costs_min.append([-x for x in obj] if sense == "max" else obj)
        consts.append(const)
    rows, rhs, costs, var_cols = _assemble_standard(k, red.ineqs, red.eqs, costs_min, red.nonneg)
    out = []
    for (_, sense), const, res in zip(cs, consts, simplex.solve_standard(rows, rhs, costs)):
        if res.status == simplex.INFEASIBLE:
            out.append(LPResult(status=INFEASIBLE))
            continue
        pr = red.back(_recover_vector(res.point, var_cols, k))
        if res.status == simplex.UNBOUNDED:
            rr = red.back(_recover_vector(res.ray, var_cols, k), ray=True)
            out.append(LPResult(status=UNBOUNDED, primal_point=pr, dual_certificate=rr))
        else:
            value = (-res.value if sense == "max" else res.value) + const
            out.append(LPResult(status=OPTIMAL, optimum=value, primal_point=pr))
    return out


def optimize(poly: HPoly, objective: Sequence, sense: str) -> LPResult:
    """Exact optimum and point of one objective; sense is "max" or "min"."""
    return optimize_all(poly, [(objective, sense)])[0]


def lp_solve(objective: Sequence, sense: str, poly: HPoly) -> LPResult:
    """`optimize` with a dual certificate for an optimal or infeasible answer
    (see LPResult): one more `optimize`, over the original rows, of the dual
    LP in w = (y per inequality, z per equation):

    - optimal, max: y >= 0, A^T y + C^T z = c, minimize b·y + d·z (min:
      y <= 0, maximize); its optimum must equal the primal one
    - infeasible (Farkas): y >= 0, A^T y + C^T z = 0, b·y + d·z = -1

    Raises InvariantViolationError when that LP does not confirm the answer.
    """
    res = optimize(poly, objective, sense)
    if res.status == UNBOUNDED:
        return res
    rows = poly.ineqs + poly.eqs
    m = len(rows)
    at = [tuple(a[j] for a, _ in rows) for j in range(poly.dim)]
    b = tuple(rhs for _, rhs in rows)
    # y_sign * y_i <= 0 on each inequality's multiplier
    y_sign = ONE if res.status == OPTIMAL and sense == "min" else -ONE
    signs = [(tuple(y_sign * x for x in linalg.unit(m, i)), ZERO) for i in range(len(poly.ineqs))]
    if res.status == INFEASIBLE:
        dual = HPoly(m, signs, [(col, ZERO) for col in at] + [(b, -ONE)])
        cert = optimize(dual, linalg.zeros(m), "min")
    else:
        dual = HPoly(m, signs, list(zip(at, vec(objective))))
        cert = optimize(dual, b, "min" if sense == "max" else "max")
    if cert.status != OPTIMAL or (res.status == OPTIMAL and cert.optimum != res.optimum):
        raise InvariantViolationError(f"the dual LP does not confirm the {res.status} answer")
    return LPResult(res.status, res.optimum, res.primal_point, cert.primal_point)


def feasible_point(poly: HPoly) -> Vec | None:
    """Any exact point of the polyhedron, or None when it is empty."""
    r = optimize(poly, linalg.zeros(poly.dim), "min")
    return r.primal_point if r.status != INFEASIBLE else None


def lex_min_point(poly: HPoly) -> Vec:
    """Lexicographically smallest point: x_0 minimized, then x_1 over the
    points attaining that minimum, and so on.

    One presolve and one lexicographic simplex call (phase 1 once, then one
    phase 2 per coordinate on the optimal face of the coordinates before it).
    Raises EmptyPolyhedronError, or UnboundedPolyhedronError naming the first
    coordinate with no minimum.
    """
    red = _presolve(poly)
    if red.infeasible:
        raise EmptyPolyhedronError("polyhedron is empty")
    if poly.dim == 0:
        return ()
    k = len(red.alive)
    objs = [red.objective(linalg.unit(poly.dim, j)) for j in range(poly.dim)]
    rows, rhs, costs, var_cols = _assemble_standard(
        k, red.ineqs, red.eqs, [obj for obj, _ in objs], red.nonneg
    )
    fixed: list[Fraction] = []
    for j, res in enumerate(simplex.solve_standard(rows, rhs, costs, lex=True)):
        if res.status == simplex.INFEASIBLE:
            raise EmptyPolyhedronError("polyhedron is empty")
        if res.status == simplex.UNBOUNDED:
            raise UnboundedPolyhedronError(f"coordinate {j} unbounded below")
        fixed.append(res.value + objs[j][1])
    if red.back(_recover_vector(res.point, var_cols, k)) != tuple(fixed):
        raise InvariantViolationError("lexicographic point disagrees with its coordinate minima")
    return tuple(fixed)


# ---------------------------------------------------------------------------
# Affine hull
# ---------------------------------------------------------------------------

def _max_common_slack(poly: HPoly) -> tuple[Fraction, Vec]:
    """(eps, x): the largest eps <= 1 with a·x + eps <= b on every row, and a
    point attaining it.  eps > 0 iff no inequality is an implicit equality.
    Raises EmptyPolyhedronError on empty input."""
    dim = poly.dim
    eps_rows = [(tuple(a) + (ONE,), b) for a, b in poly.ineqs]
    eps_rows.append((linalg.unit(dim + 1, dim), ONE))
    eps_eqs = [(tuple(c) + (ZERO,), d) for c, d in poly.eqs]
    r = optimize(HPoly(dim + 1, eps_rows, eps_eqs), linalg.unit(dim + 1, dim), "max")
    if r.status == UNBOUNDED:
        raise InvariantViolationError("eps objective is capped at 1")
    if r.status == INFEASIBLE or r.optimum < 0:
        raise EmptyPolyhedronError("polyhedron is empty")
    return r.optimum, tuple(r.primal_point[:dim])


def _affine_hull_data(poly: HPoly):
    """Returns (equations, feasible point).  Raises on empty input."""
    # One LP decides full-dimensionality: maximize the common slack eps.
    eps, point = _max_common_slack(poly)
    implicit = [] if eps > 0 else _implicit_equalities(poly)
    rows = [(tuple(c), d) for c, d in poly.eqs] + implicit
    if not rows:
        return [], point
    reduced, pivots = linalg.rref(linalg.mat([tuple(a) + (b,) for a, b in rows]))
    eqs = []
    for row in reduced:
        if any(row):
            a, b = linalg.canon_eq(row[:-1], row[-1])
            eqs.append((a, b))
    return eqs, point


def _aff_directions(poly: HPoly):
    """(point of P, direction basis of aff(P) as column vectors)."""
    eqs, x0 = _affine_hull_data(poly)
    if eqs:
        null = linalg.nullspace(linalg.mat([a for a, _ in eqs]))
    else:
        null = [linalg.unit(poly.dim, i) for i in range(poly.dim)]
    return x0, null


def _implicit_equalities(poly: HPoly):
    found = []
    results = optimize_all(poly, [(a, "min") for a, _ in poly.ineqs])
    for (a, b), r in zip(poly.ineqs, results):
        if r.status == OPTIMAL and r.optimum == b:
            found.append((tuple(a), b))
    return found


def affine_hull(poly: HPoly) -> list[tuple[Vec, Fraction]]:
    """Irredundant equation system describing aff(poly).

    dim(aff) = poly.dim - len(result).  Raises EmptyPolyhedronError on empty
    input.  Rows are canonical: coprime integer coefficients, first nonzero
    coefficient positive.
    """
    eqs, _ = _affine_hull_data(poly)
    return eqs


# ---------------------------------------------------------------------------
# Double description core, in integers
# ---------------------------------------------------------------------------

def _int_matrix(m) -> tuple[list[list[int]], int]:
    """(M, den) with m = M/den, den > 0 the lcm of m's denominators."""
    den = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def _int_slack(row, v) -> int:
    """b·w - a·V for the integer row (nonzeros of a, b) and the homogeneous
    vertex (V, w): w times the slack of the rational vertex V/w, scaled by a
    positive constant, so it has the sign of the true slack."""
    nz, b = row
    s = b * v[-1]
    for r, a in nz:
        s -= a * v[r]
    return s


def _dd_insert(kmin: int, row, bit: int, verts: list, tights: list) -> tuple[list, list]:
    """One double-description step: cut the polytope with vertices verts by
    row, whose tight-set bit is bit.  Returns the vertices and tight sets of
    the cut polytope: the vertices on the row's side in order, then one new
    vertex per adjacent pair straddling the row, in (inside, outside) order.
    Adjacency is the exact combinatorial test (no third vertex is tight on
    the common tight set), with the cardinality prefilter |common| >= kmin.
    """
    slacks = [_int_slack(row, v) for v in verts]
    if all(s >= 0 for s in slacks):
        return verts, [t | bit if s == 0 else t for t, s in zip(tights, slacks)]
    inside = [i for i, s in enumerate(slacks) if s > 0]
    outside = [i for i, s in enumerate(slacks) if s < 0]
    new_pts: dict[tuple[int, ...], int] = {}
    for i in inside:
        ti, si, vi = tights[i], slacks[i], verts[i]
        for j in outside:
            common = ti & tights[j]
            if common.bit_count() < kmin:
                continue
            # i and j contain common; a third vertex that does breaks adjacency
            supersets = 0
            for tl in tights:
                if tl & common == common:
                    supersets += 1
                    if supersets > 2:
                        break
            if supersets > 2:
                continue
            sj = slacks[j]
            pt = [si * y - sj * x for x, y in zip(vi, verts[j])]
            g = gcd(*pt)
            key = tuple(x // g for x in pt)
            if key not in new_pts:
                new_pts[key] = common | bit
    keep = [i for i, s in enumerate(slacks) if s >= 0]
    return (
        [verts[i] for i in keep] + list(new_pts),
        [tights[i] | bit if slacks[i] == 0 else tights[i] for i in keep] + list(new_pts.values()),
    )


def _dd_run(k: int, rows, verts: list, tights: list, start_idx: int) -> list:
    """Double-description insertion loop over integers.

    rows are integer rows (nonzeros, b) meaning a·y <= b; verts are
    homogeneous primitive integer vertices (V..., w) with w > 0, and tights
    their tight sets as bitmasks over row indices.  verts/tights describe the
    exact vertex set of the polytope cut out by rows[:start_idx]; rows from
    start_idx on are inserted one by one with `_dd_insert`.  Returns the
    homogeneous vertices of the final polytope.

    Nothing is rescanned and nothing is a Fraction.  The slack of a row at a
    vertex is b·w - a·V, a positive multiple of the true slack, so it has the
    true sign.  For an adjacent pair with slacks s_i > 0 > s_j, the new vertex
    s_i·(V_j, w_j) - s_j·(V_i, w_i) is the point where the row cuts the edge,
    and its last entry s_i·w_j - s_j·w_i is positive; divided by its gcd it is
    the vertex's unique form, so it is also the dedup key.  That point lies
    strictly inside the edge (0 < alpha < 1), and every earlier row holds at
    both ends: a row tight at both ends is tight along the edge, and a row
    slack at one end is slack at every interior point.  So its tight set is
    exactly common | bit, the rows tight at both ends plus the new row.
    """
    for idx in range(start_idx, len(rows)):
        verts, tights = _dd_insert(k - 1, rows[idx], 1 << idx, verts, tights)
    return verts


# ---------------------------------------------------------------------------
# Convex hull (facet enumeration) via polarity; vertex enumeration is the
# same algorithm run on the polar
# ---------------------------------------------------------------------------

def hull(points: VPoly) -> HPoly:
    """Irredundant H-description (facets + affine-hull equations) of conv(points)."""
    if not points.vertices:
        raise InputError("hull of an empty point list")
    dim = points.dim
    pts = list(points.vertices)
    if len(pts) == 1:
        p = pts[0]
        eqs = tuple(linalg.canon_eq(linalg.unit(dim, i), p[i]) for i in range(dim))
        return HPoly(dim, (), eqs)
    p0 = pts[0]
    diffs = [linalg.vsub(p, p0) for p in pts[1:]]
    basis_idx = linalg.independent_rows(linalg.mat(diffs))
    dirs = [diffs[i] for i in basis_idx]
    k = len(dirs)
    if k == 0:
        raise InvariantViolationError("distinct points with no direction span")
    eqs = []
    if k < dim:
        for c in linalg.nullspace(linalg.mat(dirs)):
            eqs.append(linalg.canon_eq(c, linalg.dot(c, p0)))
    # coordinates of every point in the dirs-basis, t = L(p - p0), over
    # integers: with p = P/q, L = l_int/l_den and e = q0·P - q·P0, the point
    # has t = T/(q·q0·l_den) for T = l_int·e, and lies in aff(dirs) + p0
    # exactly when N t = p - p0, i.e. n_int·T = n_den·l_den·e
    n_mat = linalg.mat([[dirs[j][i] for j in range(k)] for i in range(dim)])
    l_int, l_den = _int_matrix(linalg.left_inverse(n_mat))
    l_nz = [[(c, x) for c, x in enumerate(row) if x] for row in l_int]
    n_int, n_den = _int_matrix(n_mat)
    scale = n_den * l_den
    hom = [linalg.homogeneous(p) for p in pts]
    big_p0 = hom[0][:dim]
    q0 = hom[0][dim]
    coords = []
    for h in hom:
        q = h[dim]
        e = [q0 * x - q * y for x, y in zip(h, big_p0)]
        t = [sum(x * e[c] for c, x in row) for row in l_nz]
        if any(sum(x * y for x, y in zip(n_row, t)) != scale * ei for n_row, ei in zip(n_int, e)):
            raise InvariantViolationError("point outside its own affine hull")
        coords.append((t, q * q0 * l_den))
    # Polar dual around the centroid of an affinely independent point subset:
    # the polar of that point simplex is again a simplex, which seeds the
    # double description with real geometry (no artificial bounding box).
    base_pts = [0] + [i + 1 for i in basis_idx]
    centroid = linalg.homogeneous(tuple(
        sum(Fraction(coords[i][0][r], coords[i][1]) for i in base_pts) / (k + 1) for r in range(k)
    ))
    big_c, hc = centroid[:k], centroid[k]
    order = base_pts + [i for i in range(len(coords)) if i not in set(base_pts)]
    # polar row (t_i - c)·y <= 1 with t_i = T_i/h_i and c = C/hc, times
    # h_i·hc and divided by its gcd; the DD reads its nonzeros
    dense = []
    for i in order:
        t, h = coords[i]
        a = [hc * x - h * y for x, y in zip(t, big_c)]
        g = gcd(h * hc, *a)
        dense.append(([x // g for x in a], h * hc // g))
    rows = [([(r, x) for r, x in enumerate(a) if x], b) for a, b in dense]
    init_verts: list[tuple[int, ...]] = []
    init_tights: list[int] = []
    for leave in range(k + 1):
        seed = [dense[j] for j in range(k + 1) if j != leave]
        y = linalg.solve(linalg.mat([a for a, _ in seed]), linalg.vec([b for _, b in seed]))
        if y is None:
            raise InvariantViolationError("polar simplex is degenerate")
        v = linalg.homogeneous(y)
        mask = 0
        for j in range(k + 1):
            s = _int_slack(rows[j], v)
            if s == 0:
                mask |= 1 << j
            elif s < 0:
                raise InvariantViolationError("polar simplex vertex infeasible")
        init_verts.append(v)
        init_tights.append(mask)
    dual_verts = _dd_run(k, rows, init_verts, init_tights, k + 1)
    # a facet y = Y/w of the polar is y·L(x - p0) <= 1 + y·c; times
    # w·l_den·hc·q0 it reads
    # hc·q0·(Y·l_int)·x <= w·l_den·hc·q0 + l_den·q0·(Y·C) + hc·(Y·l_int)·P0
    out = []
    for v in dual_verts:
        big_y, w = v[:k], v[k]
        if not any(big_y):
            raise InvariantViolationError("origin listed as a polar vertex")
        yl = [sum(yr * row[c] for yr, row in zip(big_y, l_int)) for c in range(dim)]
        a = [hc * q0 * x for x in yl]
        rhs = (
            w * l_den * hc * q0
            + l_den * q0 * sum(x * y for x, y in zip(big_y, big_c))
            + hc * sum(x * y for x, y in zip(yl, big_p0))
        )
        g = gcd(rhs, *a)
        out.append((tuple(Fraction(x // g) for x in a), Fraction(rhs // g)))
    out.sort()
    eqs.sort()
    return HPoly(dim, tuple(out), tuple(eqs))


def vertices(poly: HPoly) -> VPoly:
    """Exact vertex enumeration of a bounded nonempty HPoly.

    Facet enumeration of the polar: with aff(P) = {x0 + N t} and t_c interior
    to the t-polytope {A t <= b}, the rows map to the points a/(b - a·t_c),
    and each facet a·y <= rhs of their hull is the vertex t_c + a/rhs.  t_c is
    0 when x0 is slack on every row, and otherwise a max-common-slack point.
    Raises EmptyPolyhedronError on empty input and UnboundedPolyhedronError
    when the polar hull is not a polytope with the origin in its interior.
    """
    x0, null = _aff_directions(poly)
    dim = poly.dim
    k = len(null)
    if k == 0:
        return VPoly(dim, (x0,))
    # inequality rows in t-coordinates, x = x0 + N t with N = n_int/n_den and
    # x0 = X0/q0: a row a·x <= b, scaled to integers, becomes
    # q0·(a·n_int)·t <= n_den·(q0·b - a·X0)
    n_int, n_den = _int_matrix(null)
    hx = linalg.homogeneous(x0)
    big_x0, q0 = hx[:dim], hx[dim]
    t_rows = []
    seen = set()
    for a, b in poly.ineqs:
        h = linalg.homogeneous(tuple(a) + (b,))
        nz = [(r, x) for r, x in enumerate(h[:dim]) if x]
        at = [q0 * sum(x * n[r] for r, x in nz) for n in n_int]
        bt = n_den * (q0 * h[dim] - sum(x * big_x0[r] for r, x in nz))
        if not any(at):
            if bt < 0:
                raise InvariantViolationError("feasible point violates a row")
            continue
        g = gcd(bt, *at)
        row = tuple(x // g for x in at) + (bt // g,)
        if row not in seen:
            seen.add(row)
            t_rows.append(row)
    if not t_rows:
        raise UnboundedPolyhedronError("no inequality bounds the affine hull")
    if all(row[k] > 0 for row in t_rows):
        big_tc, qc = (0,) * k, 1
    else:
        eps, t_c = _max_common_slack(HPoly(k, [(row[:k], row[k]) for row in t_rows]))
        if eps <= 0:
            raise InvariantViolationError("t-polytope has no interior point")
        htc = linalg.homogeneous(t_c)
        big_tc, qc = htc[:k], htc[k]
    # with t_c = Tc/qc, the polar point a/(b - a·t_c) is qc·a/(qc·b - a·Tc)
    polar = []
    for row in t_rows:
        a = row[:k]
        s = qc * row[k] - sum(x * y for x, y in zip(a, big_tc))
        polar.append(tuple(Fraction(qc * x, s) for x in a))
    facets = hull(VPoly(k, polar))
    if facets.eqs or any(rhs <= 0 for _, rhs in facets.ineqs):
        raise UnboundedPolyhedronError("the origin is not interior to the polar")
    # t = t_c + a/rhs = U/(qc·rhs) with U = rhs·Tc + qc·a (facet rows are
    # integral), so x = x0 + N t is
    # (n_den·qc·rhs·X0 + q0·Σ_j U_j·n_int_j) / (q0·n_den·qc·rhs)
    out = []
    for a, rhs in facets.ineqs:
        r = rhs.numerator
        num = [n_den * qc * r * x for x in big_x0]
        for tc, aj, n in zip(big_tc, a, n_int):
            u = r * tc + qc * aj.numerator
            if u:
                num = [x + q0 * u * y for x, y in zip(num, n)]
        den = q0 * n_den * qc * r
        out.append(tuple(Fraction(x, den) for x in num))
    out.sort()
    return VPoly(dim, tuple(out))


# ---------------------------------------------------------------------------
# Redundancy removal, equality test, membership
# ---------------------------------------------------------------------------

def _nonredundant(dim: int, rows, eqs) -> list[bool]:
    """Keep flags for the rows of a nonempty polyhedron, in row order: row i
    is dropped when the kept rows so far and all later rows imply it (one
    LP per row)."""
    keep = [True] * len(rows)
    for i, (a, b) in enumerate(rows):
        rest = tuple(rows[j] for j in range(len(rows)) if keep[j] and j != i)
        r = optimize(HPoly(dim, rest, eqs), a, "max")
        if r.status == OPTIMAL and r.optimum <= b:
            keep[i] = False
        elif r.status == INFEASIBLE:
            raise InvariantViolationError("relaxation of a nonempty polyhedron is empty")
    return keep


def remove_redundancy(poly: HPoly) -> HPoly:
    """Drop inequalities implied by the rest; the point set never changes.

    Each surviving row is certified non-redundant by an LP over the others.
    Raises EmptyPolyhedronError on empty input.
    """
    if feasible_point(poly) is None:
        raise EmptyPolyhedronError("polyhedron is empty")
    rows = list(poly.ineqs)
    labels = list(poly.ineq_labels) if poly.ineq_labels is not None else None
    keep = _nonredundant(poly.dim, rows, poly.eqs)
    new_rows = tuple(row for row, k in zip(rows, keep) if k)
    new_labels = tuple(l for l, k in zip(labels, keep) if k) if labels is not None else None
    return HPoly(poly.dim, new_rows, poly.eqs, new_labels, poly.eq_labels)


def _point_in_vpoly(x: Vec, v: VPoly) -> bool:
    """Exact membership of x in conv(v) by feasibility LP over the weights."""
    nv = len(v.vertices)
    eqs = []
    for r in range(v.dim):
        eqs.append((tuple(p[r] for p in v.vertices), x[r]))
    eqs.append(((ONE,) * nv, ONE))
    ineqs = [(tuple(-ONE if j == i else ZERO for j in range(nv)), ZERO) for i in range(nv)]
    return feasible_point(HPoly(nv, ineqs, eqs)) is not None


def is_vertex(points: VPoly, index: int) -> bool:
    """True iff points.vertices[index] is a vertex of the hull of all points."""
    rest = VPoly(
        points.dim,
        tuple(p for i, p in enumerate(points.vertices) if i != index),
    )
    if not rest.vertices:
        return True
    return not _point_in_vpoly(points.vertices[index], rest)


def _hpoly_subset(a: HPoly, b: HPoly):
    """Is the point set of a contained in b?

    Returns (point of a or None when a is empty, bool, witness in a\\b).
    One LP per row of b (two per equation) over a, all in one batch after a
    zero objective that decides emptiness and gives the point of a; the
    first failing row in b's row order gives the witness."""
    checks = [(row, rhs, "max") for row, rhs in b.ineqs]
    for c, d in b.eqs:
        checks += [(c, d, "max"), (c, d, "min")]
    first, *results = optimize_all(
        a, [(linalg.zeros(a.dim), "min")] + [(rowvec, sense) for rowvec, _, sense in checks]
    )
    if first.status == INFEASIBLE:
        return None, True, None
    for (rowvec, rhs, sense), r in zip(checks, results):
        if r.status == UNBOUNDED:
            # walk along the improving ray until this row of b is violated
            point, ray = r.primal_point, r.dual_certificate
            base = linalg.dot(rowvec, point)
            step = linalg.dot(rowvec, ray)
            t = max((rhs - base) / step + 1, ONE)
            witness = tuple(p + t * q for p, q in zip(point, ray))
            return first.primal_point, False, witness
        if r.status == OPTIMAL and (r.optimum > rhs if sense == "max" else r.optimum < rhs):
            return first.primal_point, False, r.primal_point
    return first.primal_point, True, None


def _one_side_empty(x1, x2) -> PolyEqualResult | None:
    """The answer when a side is empty, from a point of each side (None for
    an empty side); None when both sides are nonempty."""
    if x1 is None:
        return PolyEqualResult(True) if x2 is None else PolyEqualResult(False, x2, 2)
    if x2 is None:
        return PolyEqualResult(False, x1, 1)
    return None


def poly_equal(p1: HPoly | VPoly, p2: HPoly | VPoly) -> PolyEqualResult:
    """Do two descriptions define the same point set?

    On failure the result carries a point lying in exactly one of them and
    which side (1 or 2) contains it.  Each H-described side takes one LP
    batch, whose leading zero objective also decides its emptiness.
    """
    if p1.dim != p2.dim:
        raise InputError("dimension mismatch")

    if isinstance(p1, HPoly) and isinstance(p2, HPoly):
        x1, ok1, w1 = _hpoly_subset(p1, p2)
        x2, ok2, w2 = _hpoly_subset(p2, p1)
        res = _one_side_empty(x1, x2)
        if res is not None:
            return res
        if not ok1:
            return PolyEqualResult(False, w1, 1)
        if not ok2:
            return PolyEqualResult(False, w2, 2)
        return PolyEqualResult(True)

    if isinstance(p1, VPoly) and isinstance(p2, VPoly):
        res = _one_side_empty(p1.vertices[0] if p1.vertices else None,
                              p2.vertices[0] if p2.vertices else None)
        if res is not None:
            return res
        for v in p1.vertices:
            if not _point_in_vpoly(v, p2):
                return PolyEqualResult(False, v, 1)
        for v in p2.vertices:
            if not _point_in_vpoly(v, p1):
                return PolyEqualResult(False, v, 2)
        return PolyEqualResult(True)

    (v, v_side), (h, h_side) = ((p1, 1), (p2, 2)) if isinstance(p1, VPoly) else ((p2, 2), (p1, 1))
    if not v.vertices:
        x = feasible_point(h)
        return PolyEqualResult(True) if x is None else PolyEqualResult(False, x, h_side)
    # An empty h fails here at v's first vertex.
    for p in v.vertices:
        if not h.contains(p):
            return PolyEqualResult(False, p, v_side)
    _, ok, w = _hpoly_subset(h, hull(v))
    return PolyEqualResult(True) if ok else PolyEqualResult(False, w, h_side)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------

def fm_project(poly: HPoly, keep: Iterable[int]) -> HPoly:
    """Coordinate projection by Fourier-Motzkin elimination.

    keep holds 0-based coordinate indices; the output is over those
    coordinates in ascending order.  Redundant rows are pruned by LP after
    each elimination step to contain the blowup, except after an equation
    substitution once a full prune has run: that prune runs only the cheap
    passes (zero rows, canonical dedup, sort).  A substitution is an affine
    bijection of the polyhedron, and of the one of any subset of its rows,
    so a nonempty irredundant system stays so.
    """
    keep_set = sorted(set(keep))
    if any(j < 0 or j >= poly.dim for j in keep_set):
        raise InputError("keep indices out of range")
    dim = poly.dim
    ineqs = [(list(a), b) for a, b in poly.ineqs]
    eqs = [(list(c), d) for c, d in poly.eqs]
    to_drop = [j for j in range(dim) if j not in keep_set]
    empty = False
    irredundant = False

    def prune(cheap=False):
        nonlocal ineqs, eqs, empty, irredundant
        kept_eqs = []
        for c, d in eqs:
            if any(c):
                kept_eqs.append((c, d))
            elif d != 0:
                empty = True
        eqs = kept_eqs
        # cheap passes first: zero rows, exact duplicates, dominated rhs
        best: dict[tuple, Fraction] = {}
        for a, b in ineqs:
            if not any(a):
                if b < 0:
                    empty = True
                continue
            ca, cb = linalg.canon_ineq(a, b)
            key = ca
            if key not in best or cb < best[key]:
                best[key] = cb
        if empty:
            ineqs = [([ZERO] * dim, Fraction(-1))]
            eqs = []
            return
        ineqs = [(list(a), b) for a, b in sorted(best.items())]
        if cheap:
            return
        current = HPoly(dim, [(tuple(a), b) for a, b in ineqs], [(tuple(c), d) for c, d in eqs])
        if feasible_point(current) is None:
            empty = True
            ineqs = [([ZERO] * dim, Fraction(-1))]
            eqs = []
            return
        keep_flags = _nonredundant(dim, current.ineqs, current.eqs)
        ineqs = [row for row, k in zip(ineqs, keep_flags) if k]
        irredundant = True

    while to_drop and not empty:
        # substitute via an equation when one mentions a variable to eliminate
        sub = next(((ei, j) for ei, (c, _) in enumerate(eqs) for j in to_drop if c[j]), None)
        if sub:
            ei, j = sub
            c, d = eqs.pop(ei)
            cj = c[j]
            for rows in (ineqs, eqs):
                for idx, (a, b) in enumerate(rows):
                    f = a[j]
                    if f:
                        ratio = f / cj
                        na = [ak - ratio * ck for ak, ck in zip(a, c)]
                        na[j] = ZERO
                        rows[idx] = (na, b - ratio * d)
            to_drop.remove(j)
            prune(cheap=irredundant)
            continue
        # plain FM step on the cheapest variable
        j = min(to_drop, key=lambda j: (
            sum(1 for a, _ in ineqs if a[j] > 0) * sum(1 for a, _ in ineqs if a[j] < 0), j))
        pos = [(a, b) for a, b in ineqs if a[j] > 0]
        neg = [(a, b) for a, b in ineqs if a[j] < 0]
        zero = [(a, b) for a, b in ineqs if a[j] == 0]
        new_rows = list(zero)
        for ap, bp in pos:
            for an, bn in neg:
                lp = -an[j]
                ln = ap[j]
                row = [lp * x + ln * y for x, y in zip(ap, an)]
                row[j] = ZERO
                new_rows.append((row, lp * bp + ln * bn))
        ineqs = new_rows
        to_drop.remove(j)
        prune()

    out_ineqs = []
    for a, b in ineqs:
        if any(a[j] for j in range(dim) if j not in keep_set):
            raise InvariantViolationError("eliminated variable survived")
        out_ineqs.append((tuple(a[j] for j in keep_set), b))
    out_eqs = []
    for c, d in eqs:
        if any(c[j] for j in range(dim) if j not in keep_set):
            raise InvariantViolationError("eliminated variable survived in equation")
        row = (tuple(c[j] for j in keep_set), d)
        if any(row[0]):
            out_eqs.append(linalg.canon_eq(*row))
        elif d != 0:
            out_ineqs = [((ZERO,) * len(keep_set), Fraction(-1))]
            out_eqs = []
            break
    return HPoly(len(keep_set), tuple(out_ineqs), tuple(out_eqs))
