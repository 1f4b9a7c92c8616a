"""Exact polyhedral kernel: types, rational LP, and geometric primitives.

Everything here is pure and exact: polyhedra are immutable, and Fractions go
in and come out.  A row becomes integers in one place, `HPoly._int_rows`,
whose form the presolve, the simplex tableau, `contains`, `vertices` and
`fm_project` share; the presolve and `fm_project` eliminate a variable
through an equation by one fraction-free substitution, `_substitute`.  The
affine hull has one parametrization, `_affine_frame`: one fraction-free
elimination of the equations gives both the canonical equations of aff(P)
and its integer direction basis, which `affine_hull`, `vertices` and the
slack maps read.  `hull` and `vertices` run on integers
from the homogeneous points to the facet rows (`_hull_int`): the affine
set-up, the polar seed simplex (one fraction-free inverse) and the double
description core.  Every LP goes
through `optimize_all`: its answers carry points, and rays when unbounded,
and every internal verdict rests on them.  The two containment questions
of `verify_extension`, `poly_equal` and `is_vertex` (is x in proj(Q)? does
proj(Q) lie in P?) are asked in one place each, `_outside_image` and
`_image_violations`.  `lp_solve` adds a dual vector or a Farkas vector, the
solution of a second LP over the same rows, which exact dot products alone
can check.
Operations are safe to call concurrently on shared inputs; the only hidden
state is that integer row form, which an `HPoly` builds on first use (or
takes from the `HPoly` it is derived from, for an LP over the same rows plus
a few), and the sparse row form an `AffineMap` builds likewise, each the
same whichever call builds it.
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


def _sparse_int_row(a, b) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The row a·x <= b (or = b) times the least d > 0 that makes it
    integral: (nonzero (index, coefficient) pairs, rhs, d).  Built from
    lists, as `linalg.homogeneous` is."""
    nz = [(j, x) for j, x in enumerate(a) if x]
    d = lcm(b.denominator, *[x.denominator for _, x in nz])
    ints = tuple([(j, x.numerator * (d // x.denominator)) for j, x in nz])
    return ints, b.numerator * (d // b.denominator), d


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
        den = lcm(*[v.denominator for v in xv])
        xi = [v.numerator * (den // v.denominator) if v else 0 for v in xv]
        for rows, is_eq in ((ineqs, False), (eqs, True)):
            for nz, b, _ in rows:
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
        """(inequalities, equations), each row as `_sparse_int_row` gives it:
        the one place where a row becomes integers, a form every layer down
        to the simplex tableau carries.  Built on first use and kept outside
        the dataclass fields, so equality, hashing and repr do not see it."""
        rows = self.__dict__.get("_int_rows_cache")
        if rows is None:
            rows = tuple([tuple([_sparse_int_row(a, b) for a, b in part]) for part in (self.ineqs, self.eqs)])
            object.__setattr__(self, "_int_rows_cache", rows)
        return rows

    def _derive(self, keep=None, eqs=()) -> "HPoly":
        """HPoly(dim, the inequalities indexed by keep (all, by default, in
        order), self.eqs + eqs), and equal to that build; the rows taken
        from self keep their coerced tuples and integer rows, so only the
        appended equations are converted."""
        int_ineqs, int_eqs = self._int_rows()
        keep = range(len(self.ineqs)) if keep is None else keep
        new = _coerce_rows(eqs, self.dim, "equation")
        int_new = tuple([_sparse_int_row(a, b) for a, b in new])
        out = object.__new__(HPoly)
        out.__dict__.update(
            dim=self.dim, ineqs=tuple([self.ineqs[i] for i in keep]), eqs=self.eqs + new,
            ineq_labels=None, eq_labels=None,
            _int_rows_cache=(tuple([int_ineqs[i] for i in keep]), int_eqs + int_new),
        )
        return out

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

    def pull_back(self, a: Sequence[Fraction]) -> Vec:
        """a·matrix, the linear form a∘map on the input space less its
        constant a·offset, over the nonzeros of the rows."""
        out = [ZERO] * self.in_dim
        for x, nz in zip(a, self._sparse_rows()):
            if x:
                for j, p in nz:
                    out[j] += x * p
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
    """Standard form min cost·z, rows·z = rhs, z >= 0 of integer rows
    (nonzero pairs, rhs, d) as `HPoly._int_rows` and `_presolve` give them;
    returns (rows, scales, costs, var_cols).  Entries are only placed: x_j
    free is z_p - z_q, x_j >= 0 is z_p, inequality s gets a slack column
    with entry d, the rhs goes last and the row is negated when it is < 0,
    as `simplex.solve_standard` takes it, with scale d.  Costs stay Fractions.
    """
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

    def place(row, pairs):
        for j, x in pairs:
            p, q = var_cols[j]
            row[p] = x
            if q is not None:
                row[q] = -x
        return row

    both = (*ineqs, *eqs)
    rows = []
    for s, (nz, b, d) in enumerate(both):
        row = place([0] * (total + 1), nz)
        if s < nslack:
            row[ncol + s] = d
        row[total] = b
        rows.append([-x for x in row] if b < 0 else row)
    costs = [place([ZERO] * total, [(j, c) for j, c in enumerate(cost) if c]) for cost in costs_min]
    return rows, [d for _, _, d in both], costs, var_cols


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
    ineqs and eqs hold the reduced rows over the survivors' positions, in the
    integer form of `HPoly._int_rows`: (nonzero pairs, rhs, d).
    """

    def __init__(self, dim):
        self.dim = dim
        self.alive = list(range(dim))
        self.elim: list[tuple[int, tuple[tuple[int, Fraction], ...], Fraction]] = []
        self.infeasible = False
        self.ineqs: list[tuple[list[tuple[int, int]], int, int]] = []
        self.eqs: list[tuple[list[tuple[int, int]], int, int]] = []
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


def _substitute(row, j, eq):
    """The integer row (a, b, d), a an {index: int} dict, with x_j
    eliminated through the equation eq = (c, e, _), c_j != 0: the one
    substitution of the presolve and of `fm_project`, fraction-free.  With s
    the sign of c_j and f the row's entry on j, the row becomes
    |c_j|·row - s·f·eq, with scale |c_j|·d, then divided by gcd(d, rhs,
    entries), so d stays the least and the row's values a/d are those of
    row - (f/c_j)·eq.  Takes a dict of its own (it may change it).  An
    inequality eq with c_j > 0 is substituted into one with f < 0 as
    c_j·row - f·eq, a positive combination: the FM step of `fm_project`."""
    a, b, d = row
    c, e, _ = eq
    cj = c[j]
    f = a.pop(j)
    if cj < 0:
        cj, f = -cj, -f
    if cj != 1:
        a, b, d = {t: x * cj for t, x in a.items()}, b * cj, d * cj
    for t, ct in c.items():
        if t != j:
            v = a.get(t, 0) - f * ct
            if v:
                a[t] = v
            else:
                del a[t]
    b -= f * e
    g = gcd(d, b, *a.values())
    if g != 1:
        a, b, d = {t: x // g for t, x in a.items()}, b // g, d // g
    return a, b, d


def _presolve(poly: HPoly) -> _Reduction:
    """Eliminate variables fixed or tied by short equations; the eliminations
    depend on the rows only, so objectives are reduced afterwards.

    Repeatedly takes the first equation with at most two variables, solves it
    for the higher index and substitutes.  Inequalities that lose every
    variable are dropped (or prove the system infeasible), and a row
    -c x_j <= 0 is dropped and marks x_j nonnegative; eliminating a
    nonnegative x_j appends its sign row -x_j <= 0, substituted.  Rows are
    `HPoly._int_rows` rows with {index: int} dicts, so an elimination
    updates (and screens again) only the rows that hold its variable, by
    `_substitute`.
    """
    dim = poly.dim
    int_ineqs, int_eqs = poly._int_rows()
    ineqs: list = [(dict(nz), b, d) for nz, b, d in int_ineqs]
    eqs = [(dict(nz), b, d) for nz, b, d in int_eqs]
    nonneg = [False] * dim
    alive = [True] * dim
    elim = []

    def screen(i) -> bool:
        """Drop ineqs[i] (set it to None) when it has no variable left or is
        -c x_j <= 0, which marks x_j nonnegative; False when it reads 0 <= b
        with b < 0."""
        a, b, _ = ineqs[i]
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
        idx = next((i for i, (c, _, _) in enumerate(eqs) if len(c) <= 2), None)
        if idx is None:
            break
        eq = eqs.pop(idx)
        c, dc, _ = eq
        if not c:
            if dc != 0:
                return infeasible()
            continue
        if len(c) == 1:
            ((j, cj),) = c.items()
            pairs = ()
        else:
            (k, ck), (j, cj) = sorted(c.items())  # eliminate the higher index
            pairs = ((k, Fraction(-ck, cj)),)
        for rows in (ineqs, eqs):
            for i, row in enumerate(rows):
                if row is None or j not in row[0]:
                    continue
                rows[i] = _substitute(row, j, eq)
                if rows is ineqs and not screen(i):
                    return infeasible()
        if nonneg[j]:
            # keep the sign constraint of the eliminated variable
            ineqs.append(_substitute(({j: -1}, 0, 1), j, eq))
            if not screen(len(ineqs) - 1):
                return infeasible()
        alive[j] = False
        elim.append((j, pairs, Fraction(dc, cj)))

    red = _Reduction(dim)
    red.alive = [j for j in range(dim) if alive[j]]
    pos = {j: p for p, j in enumerate(red.alive)}
    red.elim = elim
    red.ineqs = [([(pos[j], x) for j, x in a.items()], b, d) for a, b, d in filter(None, ineqs)]
    red.eqs = [([(pos[j], x) for j, x in c.items()], b, d) for c, b, d in eqs]
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
    rows, scales, costs, var_cols = _assemble_standard(k, red.ineqs, red.eqs, costs_min, red.nonneg)
    out = []
    for (_, sense), const, res in zip(cs, consts, simplex.solve_standard(rows, scales, costs)):
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
    phase 2 per coordinate on the optimal face of the coordinates before it,
    until that face is one point, which fixes the coordinates left).
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
    rows, scales, costs, var_cols = _assemble_standard(
        k, red.ineqs, red.eqs, [obj for obj, _ in objs], red.nonneg
    )
    fixed: list[Fraction] = []
    for j, res in enumerate(simplex.solve_standard(rows, scales, costs, lex=True)):
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


def _affine_frame(poly: HPoly):
    """(eqs, x0, basis, den): aff(P) = {x0 + N t} with x0 a point of P and
    N's columns basis/den, integer vectors over den > 0, and eqs the
    canonical equations of aff(P).  Raises on empty input.

    One fraction-free elimination of [C | d] over the explicit and implicit
    equations gives both: each pivot row divided by its gcd, signed so its
    pivot (its first nonzero) is positive, is `linalg.canon_eq` of the RREF
    row, and the same rows give the direction basis.  A system without
    equations takes no elimination: N is the identity.
    """
    # One LP decides full-dimensionality: maximize the common slack eps.
    eps, point = _max_common_slack(poly)
    implicit = [] if eps > 0 else _implicit_equalities(poly)
    rows = [(tuple(c), d) for c, d in poly.eqs] + implicit
    dim = poly.dim
    if not rows:
        return [], point, [[int(i == j) for j in range(dim)] for i in range(dim)], 1
    red, piv = linalg._eliminate([(*a, b) for a, b in rows])
    eqs = []
    for row, c in zip(red, piv):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        eqs.append((tuple([Fraction(x // g) for x in row[:dim]]), Fraction(row[dim] // g)))
    return (eqs, point, *linalg._nullspace_int(red, piv, dim))


def _aff_directions(poly: HPoly):
    """(point of P, direction basis of aff(P) as column vectors), the exact
    Fraction view of `_affine_frame`."""
    _, x0, basis, den = _affine_frame(poly)
    return x0, [tuple([Fraction(x, den) for x in v]) for v in basis]


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
    return _affine_frame(poly)[0]


# ---------------------------------------------------------------------------
# Double description core, in integers
# ---------------------------------------------------------------------------

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

def _polar_seeds(dense) -> list[tuple[int, ...]]:
    """The vertices of the simplex cut out by the k+1 integer rows
    a_j·y <= b_j of dense, as primitive homogeneous vectors (Y..., w), w > 0.

    The vertex that leaves out row l solves a_j·Y - b_j·w = 0 for every
    j != l, so it is column l of adj(M) for M = [a_j | -b_j], because
    M·adj(M) = det(M)·I.  One fraction-free Gauss-Jordan of [M | I] ends at
    [d·I | d·M^-1], d = ±det(M), whose columns are those of adj(M) up to a
    common sign; each is signed so that w > 0 and divided by its gcd.
    """
    n = len(dense)
    m = [[*a, -b] + [int(i == j) for j in range(n)] for i, (a, b) in enumerate(dense)]
    rows, pivots = linalg._eliminate(m)
    if pivots != list(range(n)):
        raise InvariantViolationError("polar simplex is degenerate")
    seeds = []
    for leave in range(n):
        v = [row[n + leave] for row in rows]
        if not v[-1]:
            raise InvariantViolationError("polar simplex is degenerate")
        g = gcd(*v) if v[-1] > 0 else -gcd(*v)
        seeds.append(tuple([x // g for x in v]))
    return seeds


def _hull_int(dim: int, hom: list) -> tuple[list, list]:
    """Facets and affine-hull equations of the convex hull of distinct
    points, each given as its primitive homogeneous integer vector (P..., q)
    with q > 0: (ineqs, eqs), lists of integer rows (a..., b) meaning
    a·x <= b and a·x = b, each divided by its gcd; an equation's first
    nonzero coefficient is positive.  Both lists are sorted, except the
    equations that pin a single point, which come coordinate by coordinate.
    Everything from the points to the rows is an integer.
    """
    p0 = hom[0]
    big_p0, q0 = p0[:dim], p0[dim]
    if len(hom) == 1:
        out = []
        for i, x in enumerate(big_p0):
            g = gcd(q0, x)
            out.append((*[q0 // g if j == i else 0 for j in range(dim)], x // g))
        return [], out
    # e = q0·P - q·P0 = q·q0·(p - p0): the differences, as integers; a
    # positive multiple of each, so the same rows are independent
    diffs = [[q0 * x - h[dim] * y for x, y in zip(h, big_p0)] for h in hom]
    basis_idx = linalg.independent_rows(diffs[1:])
    dirs = [diffs[i + 1] for i in basis_idx]
    k = len(dirs)
    if k == 0:
        raise InvariantViolationError("distinct points with no direction span")
    # One fraction-free Gauss-Jordan of [dirs | I] ends at [R | X] with
    # R = X·dirs and every pivot entry of R equal to d: the pivot columns
    # piv, the nullspace of dirs (the equations), and X, which inverts dirs
    # on piv.  The left inverse of the direction matrix N (columns dirs)
    # that is zero off piv, as `linalg.left_inverse` builds it, is L = X^T/d
    # on piv; lcols[j] is column piv[j] of l_den·L.  dirs_j is q0·q_j times
    # the Fraction difference, so L is that diagonal scaling times the
    # Fraction left inverse, and the scaling cancels in every facet row
    red, piv = linalg._eliminate([dj + [int(i == j) for j in range(k)] for i, dj in enumerate(dirs)])
    normals, l_den = linalg._nullspace_int(red, piv, dim)
    sign = 1 if red[0][piv[0]] > 0 else -1
    lcols = [[sign * x for x in row[dim:]] for row in red]
    eqs = []
    for c in normals:
        eq = [q0 * x for x in c] + [sum(x * y for x, y in zip(c, big_p0))]
        g = gcd(*eq)
        if next(x for x in c if x) < 0:
            g = -g
        eqs.append(tuple([x // g for x in eq]))
    eqs.sort()
    # coordinates of every point, t = L(p - p0) = T/(q·q0·l_den) with
    # T = (l_den·L)·e; the point lies in aff(dirs) + p0 exactly when
    # N·T = l_den·e
    coords = []
    for h, e in zip(hom, diffs):
        t = [0] * k
        for j, c in enumerate(piv):
            if e[c]:
                t = [x + e[c] * y for x, y in zip(t, lcols[j])]
        back = [0] * dim
        for tj, dj in zip(t, dirs):
            if tj:
                back = [x + tj * y for x, y in zip(back, dj)]
        if back != [l_den * x for x in e]:
            raise InvariantViolationError("point outside its own affine hull")
        coords.append((t, h[dim] * q0 * l_den))
    # Polar dual around the centroid of an affinely independent point subset:
    # the polar of that point simplex is again a simplex, which seeds the
    # double description with real geometry (no artificial bounding box).
    base_pts = [0] + [i + 1 for i in basis_idx]
    den = lcm(*[coords[i][1] for i in base_pts])
    centroid = [sum(coords[i][0][r] * (den // coords[i][1]) for i in base_pts) for r in range(k)]
    centroid.append(den * (k + 1))
    g = gcd(*centroid)
    big_c, hc = [x // g for x in centroid[:k]], centroid[k] // g
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
    init_verts = _polar_seeds(dense[:k + 1])
    init_tights = []
    for v in init_verts:
        mask = 0
        for j in range(k + 1):
            s = _int_slack(rows[j], v)
            if s == 0:
                mask |= 1 << j
            elif s < 0:
                raise InvariantViolationError("polar simplex vertex infeasible")
        init_tights.append(mask)
    dual_verts = _dd_run(k, rows, init_verts, init_tights, k + 1)
    # a facet y = Y/w of the polar is y·L(x - p0) <= 1 + y·c; times
    # w·l_den·hc·q0, with YL = Y·(l_den·L), zero off piv, it reads
    # hc·q0·YL·x <= w·l_den·hc·q0 + l_den·q0·(Y·C) + hc·YL·P0
    out = []
    p0_piv = [big_p0[c] for c in piv]
    lrows = list(zip(*lcols))
    for v in dual_verts:
        big_y, w = v[:k], v[k]
        if not any(big_y):
            raise InvariantViolationError("origin listed as a polar vertex")
        yl = [0] * k
        for y, lrow in zip(big_y, lrows):
            if y:
                yl = [x + y * z for x, z in zip(yl, lrow)]
        rhs = (
            w * l_den * hc * q0
            + l_den * q0 * sum(x * y for x, y in zip(big_y, big_c))
            + hc * sum(x * y for x, y in zip(yl, p0_piv))
        )
        yl = [hc * q0 * x for x in yl]
        g = gcd(rhs, *yl)
        a = [0] * dim
        for c, x in zip(piv, yl):
            a[c] = x // g
        a.append(rhs // g)
        out.append(tuple(a))
    out.sort()
    return out, eqs


def hull(points: VPoly) -> HPoly:
    """Irredundant H-description (facets + affine-hull equations) of conv(points).

    The points become homogeneous integers once and the facet rows Fractions
    once, after `_hull_int` has sorted them as integer tuples: the order is
    that of the Fraction rows, since every entry is an integer.
    """
    if not points.vertices:
        raise InputError("hull of an empty point list")
    dim = points.dim
    ineqs, eqs = _hull_int(dim, [linalg.homogeneous(p) for p in points.vertices])

    def fractions(rows):
        return tuple([(tuple([Fraction(x) for x in row[:dim]]), Fraction(row[dim])) for row in rows])

    return HPoly(dim, fractions(ineqs), fractions(eqs))


def vertices(poly: HPoly) -> VPoly:
    """Exact vertex enumeration of a bounded nonempty HPoly.

    Facet enumeration of the polar: with aff(P) = {x0 + N t} and t_c interior
    to the t-polytope {A t <= b}, the rows map to the points a/(b - a·t_c),
    and each facet a·y <= rhs of their hull is the vertex t_c + a/rhs.  t_c is
    0 when x0 is slack on every row, and otherwise a max-common-slack point.
    The polar points go to `_hull_int` as homogeneous integers and its facet
    rows come back as integers, so only the vertices are made Fractions.
    Raises EmptyPolyhedronError on empty input and UnboundedPolyhedronError
    when the polar hull is not a polytope with the origin in its interior.
    """
    _, x0, n_int, n_den = _affine_frame(poly)
    dim = poly.dim
    k = len(n_int)
    if k == 0:
        return VPoly(dim, (x0,))
    # inequality rows in t-coordinates, x = x0 + N t with N = n_int/n_den and
    # x0 = X0/q0: a row a·x <= b, scaled to integers, becomes
    # q0·(a·n_int)·t <= n_den·(q0·b - a·X0)
    hx = linalg.homogeneous(x0)
    big_x0, q0 = hx[:dim], hx[dim]
    t_rows = []
    seen = set()
    for nz, b, _ in poly._int_rows()[0]:
        at = [q0 * sum(x * n[r] for r, x in nz) for n in n_int]
        bt = n_den * (q0 * b - sum(x * big_x0[r] for r, x in nz))
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
    # with t_c = Tc/qc, the polar point a/(b - a·t_c) is qc·a/(qc·b - a·Tc),
    # whose denominator is positive because t_c is interior
    polar = []
    for row in t_rows:
        pt = [qc * x for x in row[:k]]
        pt.append(qc * row[k] - sum(x * y for x, y in zip(row, big_tc)))
        g = gcd(*pt)
        polar.append(tuple([x // g for x in pt]))
    facets, eqs = _hull_int(k, polar)
    if eqs or any(row[k] <= 0 for row in facets):
        raise UnboundedPolyhedronError("the origin is not interior to the polar")
    # t = t_c + a/rhs = U/(qc·rhs) with U = rhs·Tc + qc·a, so x = x0 + N t is
    # (n_den·qc·rhs·X0 + q0·Σ_j U_j·n_int_j) / (q0·n_den·qc·rhs)
    out = []
    for row in facets:
        r = row[k]
        num = [n_den * qc * r * x for x in big_x0]
        for tc, aj, n in zip(big_tc, row, n_int):
            u = r * tc + qc * aj
            if u:
                num = [x + q0 * u * y for x, y in zip(num, n)]
        den = q0 * n_den * qc * r
        out.append(tuple(Fraction(x, den) for x in num))
    out.sort()
    return VPoly(dim, tuple(out))


# ---------------------------------------------------------------------------
# Redundancy removal, equality test, membership
# ---------------------------------------------------------------------------

def _ray_certified(poly: HPoly, z: Vec) -> set[int]:
    """The rows that a ray from z, a point strictly slack on every row, hits
    first and alone: just past that hit only the row is violated.  One ray
    per row i, along a_i projected orthogonally onto {x : Cx = 0}, C the
    equations.  In integers: each ray's dot products are streamed, and hit
    times compared by cross-multiplying."""
    ineqs, _ = poly._int_rows()
    *big_z, q = linalg.homogeneous(z)
    # q times row j's integer slack at z; slack[j]/(row j·d) is its hit time
    # up to a factor common to every row
    slack = [q * b - sum([x * big_z[t] for t, x in nz]) for nz, b, _ in ineqs]
    # one elimination of [C C^T | C] solves C C^T y = C a for every a: with
    # W_k the C-part of pivot row k, s_k its column and p the pivot,
    # p·a - Σ_k (W_k·a) c_{s_k} is p times a's projection onto {x : Cx = 0}
    cs = [linalg.homogeneous(c)[:-1] for c, _ in poly.eqs]
    red, piv = linalg._eliminate([[sum([x * y for x, y in zip(c, e)]) for e in cs] + list(c) for c in cs])
    p = red[0][piv[0]] if piv else 1
    proj = [(red[k][len(cs):], cs[s]) for k, s in enumerate(piv)]
    certified = set()
    for nz, _, _ in ineqs:
        d = [0] * poly.dim
        for t, x in nz:
            d[t] = p * x
        for w, c in proj:
            f = sum([x * w[t] for t, x in nz])
            d = [x - f * y for x, y in zip(d, c)]
        if not any(d):
            continue  # a_i is constant on aff(P)
        g = gcd(*d) if p > 0 else -gcd(*d)
        d = [x // g for x in d]
        hit, hit_dot, tied = None, 0, False
        for j, (nzj, _, _) in enumerate(ineqs):
            dot = sum([x * d[t] for t, x in nzj])
            if dot > 0:
                # diff > 0: row j is hit before the earliest so far; 0: with it
                diff = slack[hit] * dot - slack[j] * hit_dot if hit is not None else 1
                if diff >= 0:
                    hit, hit_dot, tied = j, dot, not diff
        if not tied:
            certified.add(hit)
    return certified


def _nonredundant(poly: HPoly) -> list[bool]:
    """Keep flags for the inequalities, in row order: row i is dropped when
    the kept rows so far, all later rows and the equations imply it.
    Raises EmptyPolyhedronError on empty input.

    One max-common-slack LP gives eps and a point z.  With eps > 0 the rows
    `_ray_certified` returns are kept with no LP, since no other rows imply
    them.  A tie certifies nothing, so duplicates, and rows that differ by a
    multiple of an equation, reach the LP, and the last copy survives.  Each
    other row takes one LP over rows derived from poly's, in row order
    against the same flags, so the flags are those of one LP per row.  With
    eps <= 0 (implicit equalities) every row takes its LP.
    """
    eps, z = _max_common_slack(poly)
    certified = _ray_certified(poly, z) if eps > 0 else set()
    rows = poly.ineqs
    keep = [True] * len(rows)
    for i, (a, b) in enumerate(rows):
        if i in certified:
            continue
        r = optimize(poly._derive([j for j in range(len(rows)) if keep[j] and j != i]), a, "max")
        if r.status == OPTIMAL and r.optimum <= b:
            keep[i] = False
        elif r.status == INFEASIBLE:
            raise InvariantViolationError("relaxation of a nonempty polyhedron is empty")
    return keep


def remove_redundancy(poly: HPoly) -> HPoly:
    """Drop inequalities implied by the rest; the point set never changes.

    Rows an exact ray from an interior point certifies are kept with no LP,
    and every other row by an LP over the rest (`_nonredundant`), so the
    output is that of one LP per row.  Raises EmptyPolyhedronError on empty
    input.
    """
    rows = list(poly.ineqs)
    labels = list(poly.ineq_labels) if poly.ineq_labels is not None else None
    keep = _nonredundant(poly)
    new_rows = tuple(row for row, k in zip(rows, keep) if k)
    new_labels = tuple(l for l, k in zip(labels, keep) if k) if labels is not None else None
    return HPoly(poly.dim, new_rows, poly.eqs, new_labels, poly.eq_labels)


# ---------------------------------------------------------------------------
# Containment of an image proj(q): the LPs of verify_extension and poly_equal
# ---------------------------------------------------------------------------

def _outside_image(q: HPoly, proj: AffineMap, points):
    """Yield, in order and lazily, each point x of points with no y in q and
    proj(y) = x: one feasibility LP per point, over q plus the equations
    proj's rows · y = x - offset."""
    for x in points:
        rows = [(row, xi - o) for row, xi, o in zip(proj.matrix, x, proj.offset)]
        if optimize(q._derive(eqs=rows), linalg.zeros(q.dim), "min").status == INFEASIBLE:
            yield x


def _image_violations(q: HPoly, proj: AffineMap, p: HPoly):
    """Does proj(q) lie in p?  One LP batch over q: a zero objective, which
    decides whether q is empty, then each inequality of p maximized and each
    equation maximized and minimized, pulled back through proj.

    Returns a point of q (None when q is empty) and the failing rows in that
    order, each as (i, LPResult, value): i indexes p.ineqs + p.eqs, and value
    is the row's optimum over proj(q), or None when the row is unbounded
    there (the LPResult then carries a ray of q)."""
    checks = [(i, a, b, "max") for i, (a, b) in enumerate(p.ineqs)]
    for i, (c, d) in enumerate(p.eqs, len(p.ineqs)):
        checks += [(i, c, d, "max"), (i, c, d, "min")]
    zero = linalg.zeros(q.dim)
    first, *results = optimize_all(
        q, [(zero, "min")] + [(proj.pull_back(a) if proj.matrix else zero, s) for _, a, _, s in checks]
    )
    if first.status == INFEASIBLE:
        return None, []
    fails = []
    for (i, a, b, sense), r in zip(checks, results):
        value = None if r.status == UNBOUNDED else r.optimum + linalg.dot(a, proj.offset)
        if value is None or (value > b if sense == "max" else value < b):
            fails.append((i, r, value))
    return first.primal_point, fails


def _conv(dim: int, pts) -> tuple[HPoly, AffineMap]:
    """conv(pts) as the image of the standard simplex {λ >= 0, Σλ = 1} under
    λ ↦ Vλ, the columns of V the points."""
    n = len(pts)
    std = HPoly(n, [(tuple(-x for x in linalg.unit(n, i)), ZERO) for i in range(n)], [((ONE,) * n, ONE)])
    return std, AffineMap(linalg.transpose(pts), linalg.zeros(dim))


def is_vertex(points: VPoly, index: int) -> bool:
    """True iff points.vertices[index] is a vertex of the hull of all points."""
    rest = [p for i, p in enumerate(points.vertices) if i != index]
    if not rest:
        return True
    return next(_outside_image(*_conv(points.dim, rest), [points.vertices[index]]), None) is not None


def _row_witness(p: HPoly, fail) -> Vec:
    """A point outside p from a failing row of `_image_violations` under the
    identity map: the row's optimal point, or one far enough along its ray."""
    i, r, value = fail
    if value is not None:
        return r.primal_point
    a, b = (p.ineqs + p.eqs)[i]
    point, ray = r.primal_point, r.dual_certificate
    t = max((b - linalg.dot(a, point)) / linalg.dot(a, ray) + 1, ONE)
    return tuple(x + t * d for x, d in zip(point, ray))


def poly_equal(p1: HPoly | VPoly, p2: HPoly | VPoly) -> PolyEqualResult:
    """Do two descriptions define the same point set?

    On failure the result carries a point lying in exactly one of them and
    which side (1 or 2) contains it.  Each H-described side takes one LP
    batch, whose leading zero objective also decides its emptiness; a
    V-described side is the image of a simplex, one LP per point tested.
    """
    if p1.dim != p2.dim:
        raise InputError("dimension mismatch")
    ident = AffineMap.linear(linalg.identity(p1.dim))
    if isinstance(p1, VPoly) != isinstance(p2, VPoly):
        (v, v_side), (h, h_side) = ((p1, 1), (p2, 2)) if isinstance(p1, VPoly) else ((p2, 2), (p1, 1))
        if not v.vertices:
            x = feasible_point(h)
            return PolyEqualResult(True) if x is None else PolyEqualResult(False, x, h_side)
        # An empty h fails here at v's first vertex.
        for p in v.vertices:
            if not h.contains(p):
                return PolyEqualResult(False, p, v_side)
        hv = hull(v)
        _, fails = _image_violations(h, ident, hv)
        return PolyEqualResult(False, _row_witness(hv, fails[0]), h_side) if fails else PolyEqualResult(True)
    # a point of each side (None for an empty side), then the points outside
    # the other side, lazily for V-described sides
    if isinstance(p1, HPoly):
        (x1, fails1), (x2, fails2) = _image_violations(p1, ident, p2), _image_violations(p2, ident, p1)
        outside = [(_row_witness(p, f[0]), side) for p, f, side in ((p2, fails1, 1), (p1, fails2, 2)) if f]
    else:
        x1, x2 = (p.vertices[0] if p.vertices else None for p in (p1, p2))
        outside = ((x, side) for p, other, side in ((p1, p2, 1), (p2, p1, 2))
                   for x in _outside_image(*_conv(other.dim, other.vertices), p.vertices))
    if x1 is None:
        return PolyEqualResult(True) if x2 is None else PolyEqualResult(False, x2, 2)
    if x2 is None:
        return PolyEqualResult(False, x1, 1)
    for x, side in outside:
        return PolyEqualResult(False, x, side)
    return PolyEqualResult(True)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection
# ---------------------------------------------------------------------------

def fm_project(poly: HPoly, keep: Iterable[int]) -> HPoly:
    """Coordinate projection by Fourier-Motzkin elimination.

    keep holds 0-based coordinate indices; the output is over those
    coordinates in ascending order.  Redundant rows are pruned by
    `_nonredundant` after each elimination step to contain the blowup: rows
    an exact ray certifies take no LP, the rest one LP each, with the flags
    of one LP per row.  After an equation substitution once a full prune
    has run, the prune runs only the cheap passes (zero rows, canonical
    dedup, sort).  A substitution is an affine bijection of the polyhedron,
    and of the one of any subset of its rows, so a nonempty irredundant
    system stays so.

    It runs on `HPoly._int_rows` rows with {index: int} dicts: an equation
    substitution and an FM step, rows P and N as (-n_j)·P + p_j·N, are
    `_substitute`, and a prune keys a row by its gcd-reduced form.  Only the
    full prune and the output build Fractions; output equations are canonical.
    With nothing to eliminate, the inequalities come back as given.
    """
    keep_set = sorted(set(keep))
    if any(j < 0 or j >= poly.dim for j in keep_set):
        raise InputError("keep indices out of range")
    dim = poly.dim
    int_ineqs, int_eqs = poly._int_rows()
    ineqs = [(dict(nz), b, d) for nz, b, d in int_ineqs]
    eqs = [(dict(nz), b, d) for nz, b, d in int_eqs]
    to_drop = [j for j in range(dim) if j not in keep_set]
    empty = False
    irredundant = False

    def fractions(rows, cols):
        return [(tuple([Fraction(a[t], d) if t in a else ZERO for t in cols]), Fraction(b, d))
                for a, b, d in rows]

    def prune(cheap=False):
        nonlocal ineqs, eqs, empty, irredundant
        kept_eqs = []
        for row in eqs:
            if row[0]:
                kept_eqs.append(row)
            elif row[1] != 0:
                empty = True
        eqs = kept_eqs
        # cheap passes first: zero rows, exact duplicates, dominated rhs
        best: dict[tuple, int] = {}
        for a, b, _ in ineqs:
            if not a:
                if b < 0:
                    empty = True
                continue
            g = gcd(b, *a.values())
            key = tuple([a[t] // g if t in a else 0 for t in range(dim)])
            b //= g
            if key not in best or b < best[key]:
                best[key] = b
        ineqs = [({t: x for t, x in enumerate(key) if x}, b, 1) for key, b in sorted(best.items())]
        if not (empty or cheap):
            current = HPoly(dim, fractions(ineqs, range(dim)), fractions(eqs, range(dim)))
            try:
                flags = _nonredundant(current)
            except EmptyPolyhedronError:
                empty = True
            else:
                ineqs = [row for row, k in zip(ineqs, flags) if k]
                irredundant = True
        if empty:
            ineqs, eqs = [({}, -1, 1)], []

    while to_drop and not empty:
        # substitute via an equation when one mentions a variable to eliminate
        sub = next(((ei, j) for ei, (c, _, _) in enumerate(eqs) for j in to_drop if j in c), None)
        if sub:
            ei, j = sub
            eq = eqs.pop(ei)
            for rows in (ineqs, eqs):
                for idx, row in enumerate(rows):
                    if j in row[0]:
                        rows[idx] = _substitute(row, j, eq)
            to_drop.remove(j)
            prune(cheap=irredundant)
            continue
        # plain FM step on the cheapest variable
        j = min(to_drop, key=lambda j: (
            sum(1 for a, _, _ in ineqs if a.get(j, 0) > 0) * sum(1 for a, _, _ in ineqs if a.get(j, 0) < 0), j))
        pos = [row for row in ineqs if row[0].get(j, 0) > 0]
        neg = [row for row in ineqs if row[0].get(j, 0) < 0]
        new_rows = [row for row in ineqs if j not in row[0]]
        for p in pos:
            new_rows += [_substitute((dict(a), b, d), j, p) for a, b, d in neg]
        ineqs = new_rows
        to_drop.remove(j)
        prune()

    if any(j not in keep_set for a, _, _ in ineqs + eqs for j in a):
        raise InvariantViolationError("eliminated variable survived")
    out_eqs = []
    for c, e, _ in eqs:
        if c:
            g = gcd(e, *c.values())
            g = -g if c[min(c)] < 0 else g
            out_eqs.append(({t: x // g for t, x in c.items()}, e // g, 1))
        elif e != 0:
            ineqs, out_eqs = [({}, -1, 1)], []
            break
    return HPoly(len(keep_set), tuple(fractions(ineqs, keep_set)), tuple(fractions(out_eqs, keep_set)))
