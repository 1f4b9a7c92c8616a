"""Exact polyhedral kernel: types, rational LP, and geometric primitives.

Everything here is pure and exact: polyhedra are immutable, and Fractions go
in and come out.  A row becomes integers in one place, `HPoly._int_rows`,
whose form the presolve, the simplex tableau, `contains`, `vertices` and
`fm_project` share, and is read at a point in one place, `_int_slack`, or,
every row of an `HPoly` at once, in one packed sum (`HPoly._holds`); the
presolve, its objectives and `fm_project` eliminate a variable by one
fraction-free substitution, `_substitute`.  The affine hull has one
parametrization, `_affine_frame`: one fraction-free elimination of the
equations gives both the canonical equations of aff(P) (every equation
returned is in `linalg._canonical_eq`'s form) and its integer direction
basis, which `affine_hull`, `vertices` and the slack maps read.  `hull` and
`vertices` run on integers from the homogeneous points to the facet rows
(`_hull_int`): the affine set-up and the polar seed simplex, both read off
the one left inverse `linalg._left_inverse_int`, and the double description
core.  Every LP is one `simplex.solve_standard` call, by `_optimize_rows` or
`_lex_fibers`, on rows in that integer form: `optimize_all` passes an
`HPoly`'s on, and each LP the library poses itself passes its own, with no
`HPoly`.  Its answers carry points, and rays when unbounded, and every
internal verdict rests on them.  The two containment questions
of `verify_extension`, `poly_equal` and `is_vertex` (is x in proj(Q)? does
proj(Q) lie in P?) are asked in one place each, `_outside_image` and
`_image_violations`; every fiber question, Q ∩ {proj(y) = x} for many x,
is one `_lex_fibers` batch, with no cost for `_outside_image` and with the
coordinates as lex costs for the lifts.  `lp_solve` adds a dual vector or
a Farkas vector, the solution of a second LP over the same rows, which
exact dot products alone can check.
Operations are safe to call concurrently on shared inputs; the only hidden
state is that integer row form, which an `HPoly` builds on first use, its
packed form, an `AffineMap`'s integer rows and a result's point, built
likewise on first use or read, each the same whichever call builds it.
Each fact of the LP layer has one record: the presolve's eliminations are
the integer equations that `_Reduction.reduce` substitutes and
`_Reduction.back` solves, a map's rows are its integer rows, which
`AffineMap.apply`, `pull_back` and the lift-hint check read, and whether
rows reach their rhs over a polyhedron is one batch, `_at_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
_PACK_LIMIT = 1 << 16  # `HPoly._holds` packs a point whose entries are below it in absolute value


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


def _int_slack(nz, b, hom) -> int:
    """b·w - a·X, the one evaluation of an integer row a·x <= b (or = b), a
    as its nonzero (index, coefficient) pairs nz, at a homogeneous point hom
    = (X..., w), w > 0: w times the slack at X/w, so it has the true sign."""
    s = b * hom[-1]
    for r, a in nz:
        s -= a * hom[r]
    return s


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
        return self._holds(linalg.homogeneous(xv))

    def _holds(self, hom) -> bool:
        """`contains` at a homogeneous integer point hom = (X..., w), w > 0:
        every slack b·w - a·X of `_int_rows` in one sum s = bias + Σ hom_j·col_j
        (`_packed`), where row i, inequalities first, owns the k bits from k·i
        and holds its slack plus 2^(k-1).  When w and every X_j are below 2^16
        in absolute value, |slack| <= (2^16 - 1)·reach < 2^(k-1), so each
        field stays in (0, 2^k) and none carries into the next: an inequality
        holds when its field's top bit is set, an equation when its field is
        2^(k-1).  Any other point is read by `_int_slack`, row by row."""
        cols, bias, top, shift, eq_bias = self._packed()
        if -_PACK_LIMIT < min(hom) and max(hom) < _PACK_LIMIT:
            s = bias
            for x, col in zip(hom, cols):
                if x:
                    s += x * col
            return s & top == top and s >> shift == eq_bias
        ineqs, eqs = self._int_rows()
        return (all(_int_slack(nz, b, hom) >= 0 for nz, b, _ in ineqs)
                and not any(_int_slack(nz, b, hom) for nz, b, _ in eqs))

    def _packed(self) -> tuple:
        """`_holds`' rows as (cols, bias, top, shift, eq_bias), in fields of
        k = reach.bit_length() + 17 bits, reach = max(|b| + Σ|a_j|) over the
        rows, the least width with no carry: col_j = Σ_i -a_ij·2^(k·i), and
        Σ_i b_i·2^(k·i) for w; bias has 2^(k-1) in every field, top in the
        inequalities', and eq_bias in the equations' after a shift of k per
        inequality.  Built on first use, as `_int_rows`."""
        packed = self.__dict__.get("_packed_cache")
        if packed is None:
            ineqs, eqs = self._int_rows()
            rows = ineqs + eqs
            k = max([abs(b) + sum([abs(a) for _, a in nz]) for nz, b, _ in rows], default=0).bit_length() + 17
            cols = [0] * (self.dim + 1)
            for i, (nz, b, _) in enumerate(rows):
                for j, a in nz:
                    cols[j] -= a << k * i
                cols[-1] += b << k * i
            fields = lambda n: sum([1 << (k * i + k - 1) for i in range(n)])
            packed = (cols, fields(len(rows)), fields(len(ineqs)), k * len(ineqs), fields(len(eqs)))
            object.__setattr__(self, "_packed_cache", packed)
        return packed

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
        """The image of y, read off `_int_rows` at y's homogeneous point
        (Y..., w): entry i is -`_int_slack`/(d·w)."""
        yv = vec(y)
        if self.matrix and len(yv) != self.in_dim:
            raise InputError("argument dimension mismatch")
        hom = linalg.homogeneous(yv)
        w = hom[-1]
        return tuple([Fraction(-_int_slack(nz, b, hom), d * w) for nz, b, d in self._int_rows()])

    def pull_back(self, a: Sequence[Fraction]) -> Vec:
        """a·matrix, the linear form a∘map on the input space less its
        constant a·offset, summed over `_int_rows`: row i is d·row_i."""
        out = [ZERO] * self.in_dim
        for x, (nz, _, d) in zip(a, self._int_rows()):
            if x:
                x = frac(x) / d
                for j, p in nz:
                    out[j] += x * p
        return tuple(out)

    def _int_rows(self) -> tuple:
        """Row i as `_sparse_int_row(row_i, -offset_i)`: `_int_slack` reads it at
        (Y..., w) as -d·w·(image of Y/w)_i.  Built on first use and kept outside
        the dataclass fields, so equality, hashing and repr do not see it."""
        rows = self.__dict__.get("_int_rows_cache")
        if rows is None:
            rows = tuple([_sparse_int_row(a, -o) for a, o in zip(self.matrix, self.offset)])
            object.__setattr__(self, "_int_rows_cache", rows)
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
    From optimize, primal_point is mapped back through the presolve when it
    is first read (==, hash and repr read it too), to the same value always.
    """

    status: str
    optimum: Fraction | None = None
    primal_point: Vec | None = simplex._OnRead()
    dual_certificate: Vec | None = None


@dataclass(frozen=True)
class PolyEqualResult:
    equal: bool
    witness: Vec | None = None
    witness_side: int | None = None  # 1 or 2: which input contains the witness

    def __bool__(self) -> bool:
        return self.equal


# ---------------------------------------------------------------------------
# LP layer: each optimize_all or _lex_fibers call makes one solve_standard
# call on integer rows and costs: phase 1 once, and phase 2 for each objective,
# shared until their Bland paths part (_lex_fibers: one per leading coordinate,
# each on the optimal face of the coordinates before it, or one zero cost, for
# each right-hand side); lp_solve is two optimizes
# ---------------------------------------------------------------------------

def _assemble_standard(dim, ineqs, eqs, costs_min, nonneg, units=0):
    """Standard form min cost·z, rows·z = rhs, z >= 0 of integer rows
    (nonzero pairs, rhs, d) as `HPoly._int_rows` and `_presolve` give them;
    returns (rows, scales, costs, var_cols).  Entries are only placed: x_j
    free is z_p - z_q, x_j >= 0 is z_p, inequality s gets a slack column
    with entry d, and each of the last `units` equations a unit column with
    entry d after the slacks; the rhs goes last and the row is negated when
    it is < 0, as `simplex.solve_standard` takes it, with scale d.  A cost
    (integer pairs, scale) is placed as (integer list, scale).
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
        row = place([0] * (total + units + 1), nz)
        if s < nslack:
            row[ncol + s] = d
        elif s >= len(both) - units:
            row[total + units - len(both) + s] = d
        row[-1] = b
        rows.append([-x for x in row] if b < 0 else row)
    costs = [(place([0] * total, pairs), w) for pairs, w in costs_min]
    return rows, [d for _, _, d in both], costs, var_cols


def _back_point(red, res, var_cols) -> Vec:
    """A standard-form result's point in the variables before the presolve."""
    return red.back(res.point, var_cols)


class _Reduction:
    """Presolve record: the one record of the eliminations is subs, which
    lists (j, eq) in elimination order, eq = (c, e, _) the integer equation
    c·x = e that x_j was eliminated through, with c_j != 0 and at most one
    other term, whose variable a later entry may eliminate.  `reduce`
    substitutes it into a row or a cost, and `back` solves it for x_j.
    ineqs and eqs hold the reduced rows over the survivors' positions, in the
    integer form of `HPoly._int_rows`: (nonzero pairs, rhs, d).
    """

    def __init__(self, dim):
        self.dim = dim
        self.alive = list(range(dim))
        self.pos = {j: j for j in self.alive}  # survivor -> its position
        self.subs: list[tuple[int, tuple[dict, int, int]]] = []
        self.infeasible = False
        self.ineqs: list[tuple[list[tuple[int, int]], int, int]] = []
        self.eqs: list[tuple[list[tuple[int, int]], int, int]] = []
        self.nonneg: list[bool] = []

    def reduce(self, pairs, b: int, d: int) -> tuple[list[tuple[int, int]], int, int]:
        """The integer row (pairs, b, d), pairs its nonzero (index, int) terms,
        through the eliminations by `_substitute` on a dict of its own, which
        keeps (a·x - b)/d: (pairs over the survivors' positions, b', d'), so
        a cost (c, 0, w) reads c·x/w as pairs·x'/d' - b'/d'."""
        a = dict(pairs)
        for j, eq in self.subs:
            if j in a:
                a, b, d = _substitute((a, b, d), j, eq)
        return [(self.pos[j], x) for j, x in a.items()], b, d

    def back(self, z, var_cols, ray: bool = False) -> Vec:
        """The full vector of a standard-form vector z: each survivor read
        through var_cols (`_assemble_standard`'s), then each eliminated x_j
        solved from its equation, last first, as one Fraction of integers:
        x_j = (e·q - c_t·p)/(c_j·q) for the other term's x_t = p/q.  A ray
        reads e as 0."""
        full: list = [None] * self.dim
        for j, (p, q) in zip(self.alive, var_cols):
            full[j] = z[p] - z[q] if q is not None else z[p]
        for j, (c, e, _) in reversed(self.subs):
            num, den = 0 if ray else e, c[j]
            for t, ct in c.items():
                if t != j:
                    x = full[t]
                    num, den = num * x.denominator - ct * x.numerator, den * x.denominator
            full[j] = Fraction(num, den)
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


def _presolve(dim: int, int_ineqs, int_eqs) -> _Reduction:
    """Eliminate variables fixed or tied by short equations; the eliminations
    depend on the rows only, so objectives are reduced afterwards (`reduce`).

    Repeatedly takes the first equation with at most two variables, solves it
    for the higher index and substitutes.  Inequalities that lose every
    variable are dropped (or prove the system infeasible), and a row
    -c x_j <= 0 is dropped and marks x_j nonnegative; eliminating a
    nonnegative x_j appends its sign row -x_j <= 0, substituted.  Rows are
    `HPoly._int_rows` rows, read into {index: int} dicts, so an elimination
    updates (and screens again) only the rows that hold its variable, by
    `_substitute`.
    """
    ineqs: list = [(dict(nz), b, d) for nz, b, d in int_ineqs]
    eqs = [(dict(nz), b, d) for nz, b, d in int_eqs]
    nonneg = [False] * dim
    alive = [True] * dim
    subs = []

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
        j = max(c)  # eliminate the higher index
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
        subs.append((j, eq))

    red = _Reduction(dim)
    red.alive = [j for j in range(dim) if alive[j]]
    red.pos = pos = {j: p for p, j in enumerate(red.alive)}
    red.subs = subs
    red.ineqs = [([(pos[j], x) for j, x in a.items()], b, d) for a, b, d in filter(None, ineqs)]
    red.eqs = [([(pos[j], x) for j, x in c.items()], b, d) for c, b, d in eqs]
    red.nonneg = [nonneg[j] for j in red.alive]
    return red


def optimize_all(poly: HPoly, objectives: Sequence[tuple[Sequence, str]]) -> list[LPResult]:
    """Exact optimum and point of each (objective, sense) over one polyhedron;
    an unbounded result carries an improving ray as its dual_certificate.

    Each objective is checked and becomes integers once; `_optimize_rows`
    shares the presolve, standard form and phase 1 over poly's integer rows,
    so result i equals optimize(poly, *objectives[i]).
    """
    cs = []
    for objective, sense in objectives:
        if sense not in ("max", "min"):
            raise InputError("sense must be 'max' or 'min'")
        c = [x if type(x) is int or type(x) is Fraction else frac(x) for x in objective]
        if len(c) != poly.dim:
            raise InputError("objective dimension mismatch")
        w = lcm(*[x.denominator for x in c])
        cs.append(([(j, x.numerator * (w // x.denominator)) for j, x in enumerate(c) if x], w, sense))
    return _optimize_rows(poly.dim, *poly._int_rows(), cs)


def _optimize_rows(dim: int, ineqs, eqs, costs) -> list[LPResult]:
    """`optimize_all` on integer rows (nonzero (index, int) pairs, rhs, d),
    as `HPoly._int_rows` gives them, and costs (pairs, w, sense), the
    objective pairs/w (the simplex reads signs, so any w > 0 gives the same
    result): the LP entry of every LP the library poses itself.  Presolve,
    standard form and phase 1 are shared, and phase 2 until the costs'
    Bland paths part; each cost is negated for max and `reduce`d."""
    if not costs:
        return []
    red = _presolve(dim, ineqs, eqs)
    if red.infeasible:
        return [LPResult(status=INFEASIBLE) for _ in costs]
    reduced = [red.reduce([(j, -x) for j, x in pairs] if sense == "max" else pairs, 0, w)
               for pairs, w, sense in costs]
    rows, scales, std_costs, var_cols = _assemble_standard(
        len(red.alive), red.ineqs, red.eqs, [(a, d) for a, _, d in reduced], red.nonneg)
    out = []
    for (_, _, sense), (_, b, d), res in zip(costs, reduced, simplex.solve_standard(rows, scales, std_costs)):
        if res.status == simplex.INFEASIBLE:
            out.append(LPResult(status=INFEASIBLE))
            continue
        pr = partial(_back_point, red, res, var_cols)
        if res.status == simplex.UNBOUNDED:
            rr = red.back(res.ray, var_cols, ray=True)
            out.append(LPResult(status=UNBOUNDED, primal_point=pr, dual_certificate=rr))
        else:
            value = res.value - Fraction(b, d) if b else res.value  # the minimum
            out.append(LPResult(status=OPTIMAL, optimum=-value if sense == "max" else value, primal_point=pr))
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

    `_lex_fibers` with one fiber, the polyhedron itself.  Raises
    EmptyPolyhedronError, or UnboundedPolyhedronError naming the first
    coordinate with no minimum.
    """
    [x] = _lex_fibers(poly, (), [()], poly.dim)
    if isinstance(x, Exception):
        raise x
    return x


def _lex_fibers(q: HPoly, matrix, rhss, lead: int) -> list:
    """A point of each fiber q ∩ {matrix·y = r}, r in rhss, or the error
    `lex_min_point` raises on that fiber, in order.  The point is the
    lexicographically smallest in its first `lead` coordinates; lead = 0
    asks only whether each fiber is empty (one zero cost), and a nonempty
    fiber then gets None, no point (or (), when q has no coordinates).

    One presolve of q, through which the fiber rows (for the first r) and
    the unit costs are reduced once, and one lexicographic simplex batch:
    phase 1 for the first r, then for each later r its new b on the basis
    the one before left, dual pivots back to feasibility and the lex phase 2.
    """
    if not rhss:
        return []
    red = _presolve(q.dim, *q._int_rows())
    if red.infeasible:
        return [EmptyPolyhedronError("polyhedron is empty") for _ in rhss]
    if q.dim == 0:
        return [EmptyPolyhedronError("polyhedron is empty") if any(r) else () for r in rhss]
    k = len(red.alive)
    objs = [red.reduce(((j, 1),), 0, 1) for j in range(lead)] or [([], 0, 1)]
    eqs = [red.reduce(*_sparse_int_row(a, b)) for a, b in zip(matrix, rhss[0])]
    rows, scales, costs, var_cols = _assemble_standard(
        k, red.ineqs, red.eqs + eqs, [(a, d) for a, _, d in objs], red.nonneg, len(eqs)
    )
    shifts = [[x - y for x, y in zip(b, a)] for a, b in zip(rhss, rhss[1:])]
    out = []
    for results in simplex.solve_standard(rows, scales, costs, lex=True, shifts=shifts):
        res = results[-1]  # a list of results ends at its first unbounded one
        if res.status == simplex.INFEASIBLE:
            out.append(EmptyPolyhedronError("polyhedron is empty"))
        elif res.status == simplex.UNBOUNDED:
            out.append(UnboundedPolyhedronError(f"coordinate {len(results) - 1} unbounded below"))
        elif not lead:
            out.append(None)
        else:
            point = _back_point(red, res, var_cols)
            # each coordinate's minimum is r.value - b/d, checked by cross-multiplying
            for x, r, (_, b, d) in zip(point, results, objs):
                v = r.value
                if x.numerator * v.denominator * d != (v.numerator * d - b * v.denominator) * x.denominator:
                    raise InvariantViolationError("lexicographic point disagrees with its coordinate minima")
            out.append(point)
    return out


# ---------------------------------------------------------------------------
# Affine hull
# ---------------------------------------------------------------------------

def _max_common_slack(dim: int, ineqs, eqs) -> tuple[Fraction, Vec]:
    """(eps, x): the largest eps <= 1 with a·x + eps <= b on every integer
    row (nz, b, d) of ineqs, as nz·x + d·eps <= b, eps column dim, and the
    equations eqs, and a point attaining it.  eps > 0 iff no inequality is
    an implicit equality.  Raises EmptyPolyhedronError on empty input."""
    eps_rows = [((*nz, (dim, d)), b, d) for nz, b, d in ineqs]
    eps_rows.append((((dim, 1),), 1, 1))
    [r] = _optimize_rows(dim + 1, eps_rows, eqs, [(((dim, 1),), 1, "max")])
    if r.status == UNBOUNDED:
        raise InvariantViolationError("eps objective is capped at 1")
    if r.status == INFEASIBLE or r.optimum < 0:
        raise EmptyPolyhedronError("polyhedron is empty")
    return r.optimum, tuple(r.primal_point[:dim])


def _affine_frame(poly: HPoly):
    """(eqs, x0, basis, den): aff(P) = {x0 + N t} with x0 a point of P and
    N's columns basis/den, integer vectors over den > 0, and eqs the
    canonical equations of aff(P), integer rows (c..., d) meaning c·x = d.
    Raises on empty input.

    One fraction-free elimination of [C | d] over the explicit and implicit
    equations gives both: each pivot row, whose first nonzero is its pivot,
    in `linalg._canonical_eq`'s form is the canonical form of the RREF row,
    and the same rows give the direction basis.  A system without equations
    takes no elimination: N is the identity.
    """
    # One LP decides full-dimensionality: maximize the common slack eps.
    eps, point = _max_common_slack(poly.dim, *poly._int_rows())
    implicit = [] if eps > 0 else _implicit_equalities(poly)
    rows = [(tuple(c), d) for c, d in poly.eqs] + implicit
    dim = poly.dim
    if not rows:
        return [], point, [[int(i == j) for j in range(dim)] for i in range(dim)], 1
    red, piv = linalg._eliminate([(*a, b) for a, b in rows])
    return ([linalg._canonical_eq(row) for row in red[:len(piv)]], point, *linalg._nullspace_int(red, piv, dim))


def _at_bound(poly: HPoly, rows, sense: str) -> list[bool]:
    """Whether each integer row (nz, b, d) reaches b/d as the max (or min)
    of nz·x/d over poly: one LP batch over poly's integer rows, the one
    question of `_implicit_equalities` and of `slack`'s binding checks.
    Raises EmptyPolyhedronError on an empty poly."""
    results = _optimize_rows(poly.dim, *poly._int_rows(), [(nz, d, sense) for nz, _, d in rows])
    if any(r.status == INFEASIBLE for r in results):
        raise EmptyPolyhedronError("polyhedron is empty")
    return [r.status == OPTIMAL and r.optimum * d == b for (_, b, d), r in zip(rows, results)]


def _implicit_equalities(poly: HPoly):
    """The inequalities whose minimum over poly is their rhs."""
    return [(tuple(a), b) for (a, b), eq in zip(poly.ineqs, _at_bound(poly, poly._int_rows()[0], "min")) if eq]


def affine_hull(poly: HPoly) -> list[tuple[Vec, Fraction]]:
    """Irredundant equation system describing aff(poly).

    dim(aff) = poly.dim - len(result).  Raises EmptyPolyhedronError on empty
    input.  Rows are canonical: coprime integer coefficients, first nonzero
    coefficient positive.
    """
    return [(tuple([Fraction(x) for x in c]), Fraction(d)) for *c, d in _affine_frame(poly)[0]]


# ---------------------------------------------------------------------------
# Double description core, in integers
# ---------------------------------------------------------------------------

def _dd_insert(kmin: int, row, bit: int, verts: list, tights: list) -> tuple[list, list]:
    """One double-description step: cut the polytope with vertices verts by
    row, whose tight-set bit is bit.  Returns the vertices and tight sets of
    the cut polytope: the vertices on the row's side in order, then one new
    vertex per adjacent pair straddling the row, in (inside, outside) order.
    Adjacency is the exact combinatorial test (no third vertex is tight on
    the common tight set), with the cardinality prefilter |common| >= kmin.
    """
    nz, b = row
    slacks = [_int_slack(nz, b, v) for v in verts]
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
    M·adj(M) = det(M)·I.  `linalg._left_inverse_int` of M's rows gives the
    columns of den·L, L = (M^T)^-1, which are the rows of den·M^-1 = ±adj(M);
    column l is read across them, signed so w > 0 and divided by its gcd.
    """
    n = len(dense)
    inv = linalg._left_inverse_int([[*a, -b] for a, b in dense], n)
    if inv is None:
        raise InvariantViolationError("polar simplex is degenerate")
    lcols = inv[3]
    seeds = []
    for leave in range(n):
        v = [col[leave] for col in lcols]
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
        return [], [linalg._canonical_eq([q0 if j == i else 0 for j in range(dim)] + [x])
                    for i, x in enumerate(big_p0)]
    # e = q0·P - q·P0 = q·q0·(p - p0): the differences, as integers; a
    # positive multiple of each, so the same rows are independent
    diffs = [[q0 * x - h[dim] * y for x, y in zip(h, big_p0)] for h in hom]
    basis_idx = linalg.independent_rows(diffs[1:])
    dirs = [diffs[i + 1] for i in basis_idx]
    k = len(dirs)
    if k == 0:
        raise InvariantViolationError("distinct points with no direction span")
    # the equations are the nullspace of dirs, and lcols[j] is column piv[j]
    # of l_den·L, L the left inverse of N (columns dirs) that is zero off
    # piv; dirs_j is q0·q_j times the Fraction difference, so that diagonal
    # scaling of L cancels in every facet row
    piv, normals, l_den, lcols = linalg._left_inverse_int(dirs, dim)
    eqs = sorted([linalg._canonical_eq([q0 * x for x in c] + [sum(x * y for x, y in zip(c, big_p0))])
                  for c in normals])
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
            s = _int_slack(*rows[j], v)
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
    that of the Fraction rows, since every entry is an integer.  The points
    go in sorted as homogeneous vectors, whatever the caller's order: the
    double description's intermediate size depends heavily on that order.
    """
    if not points.vertices:
        raise InputError("hull of an empty point list")
    dim = points.dim
    ineqs, eqs = _hull_int(dim, sorted([linalg.homogeneous(p) for p in points.vertices]))

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
        bt = n_den * _int_slack(nz, b, hx)
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
        htc = (0,) * k + (1,)
    else:
        eps, t_c = _max_common_slack(k, [([(j, x) for j, x in enumerate(row[:k]) if x], row[k], 1)
                                         for row in t_rows], ())
        if eps <= 0:
            raise InvariantViolationError("t-polytope has no interior point")
        htc = linalg.homogeneous(t_c)
    big_tc, qc = htc[:k], htc[k]
    # with t_c = Tc/qc, the polar point a/(b - a·t_c) is qc·a/(qc·b - a·Tc),
    # whose denominator is positive because t_c is interior
    polar = []
    for row in t_rows:
        pt = [qc * x for x in row[:k]]
        pt.append(_int_slack(enumerate(row[:k]), row[k], htc))
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

def _ray_certified(dim: int, ineqs, eqs, z: Vec) -> set[int]:
    """The integer rows of ineqs that a ray from z, a point strictly slack
    on every row, hits first and alone: just past that hit only the row is
    violated.  One ray per row i, along a_i projected orthogonally onto
    {x : Cx = 0}, C the integer rows of eqs (any positive multiple of each
    gives the same ray).  In integers: each ray's dot products are
    streamed, and hit times compared by cross-multiplying."""
    hz = linalg.homogeneous(z)
    # row j's integer slack at z; slack[j]/(row j·d) is its hit time up to a
    # factor common to every row
    slack = [_int_slack(nz, b, hz) for nz, b, _ in ineqs]
    # one elimination of [C C^T | C] solves C C^T y = C a for every a: with
    # W_k the C-part of pivot row k, s_k its column and p the pivot,
    # p·a - Σ_k (W_k·a) c_{s_k} is p times a's projection onto {x : Cx = 0}
    cs = [[a.get(j, 0) for j in range(dim)] for a in [dict(nz) for nz, _, _ in eqs]]
    red, piv = linalg._eliminate([[sum([x * y for x, y in zip(c, e)]) for e in cs] + list(c) for c in cs])
    p = red[0][piv[0]] if piv else 1
    proj = [(red[k][len(cs):], cs[s]) for k, s in enumerate(piv)]
    certified = set()
    for nz, _, _ in ineqs:
        d = [0] * dim
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


def _nonredundant(dim: int, ineqs, eqs) -> list[bool]:
    """Keep flags for the integer rows ineqs, in row order: row i is dropped
    when the kept rows so far, all later rows and the equations eqs imply
    it.  Raises EmptyPolyhedronError on empty input.

    One max-common-slack LP gives eps and a point z.  With eps > 0 the rows
    `_ray_certified` returns are kept with no LP, since no other rows imply
    them.  A tie certifies nothing, so duplicates, and rows that differ by a
    multiple of an equation, reach the LP, and the last copy survives.  Each
    other row takes one LP, nz·x/d maximized over the rows kept so far,
    all later rows and eqs, in row order against the same flags, so the
    flags are those of one LP per row.  With eps <= 0 (implicit equalities)
    every row takes its LP.
    """
    eps, z = _max_common_slack(dim, ineqs, eqs)
    certified = _ray_certified(dim, ineqs, eqs, z) if eps > 0 else set()
    keep = [True] * len(ineqs)
    for i, (nz, b, d) in enumerate(ineqs):
        if i in certified:
            continue
        others = [row for j, row in enumerate(ineqs) if keep[j] and j != i]
        [r] = _optimize_rows(dim, others, eqs, [(nz, d, "max")])
        if r.status == OPTIMAL and r.optimum * d <= b:
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
    keep = _nonredundant(poly.dim, *poly._int_rows())
    new_rows = tuple(row for row, k in zip(rows, keep) if k)
    new_labels = tuple(l for l, k in zip(labels, keep) if k) if labels is not None else None
    return HPoly(poly.dim, new_rows, poly.eqs, new_labels, poly.eq_labels)


# ---------------------------------------------------------------------------
# Containment of an image proj(q): the LPs of verify_extension and poly_equal
# ---------------------------------------------------------------------------

def _outside_image(q: HPoly, proj: AffineMap, points) -> list:
    """The points x of points with no y in q and proj(y) = x, in order: one
    `_lex_fibers` batch with no cost over q, whose fibers are proj's rows ·
    y = x - offset."""
    fibers = _lex_fibers(q, proj.matrix, [[xi - o for xi, o in zip(x, proj.offset)] for x in points], 0)
    return [x for x, y in zip(points, fibers) if isinstance(y, EmptyPolyhedronError)]


def _is_lift(q: HPoly, proj: AffineMap, y, v) -> bool:
    """Is y, a lift hint for v, in q with proj(y) = v?  y once as a
    homogeneous point (Y..., w): (*y, 1) as it stands when every entry is
    an int, else `linalg.homogeneous(vec(y))`; read by q's rows
    (`HPoly._holds`) and by proj's, where proj(y)_i = v_i is
    -d·w·proj(y)_i = -d·w·v_i times v_i's denominator."""
    hom = (*y, 1) if {*map(type, y)} == {int} else linalg.homogeneous(vec(y))
    w = hom[-1]
    return len(hom) == q.dim + 1 and q._holds(hom) and not any(
        _int_slack(nz, b, hom) * x.denominator + x.numerator * d * w for (nz, b, d), x in zip(proj._int_rows(), v))


def _image_violations(q: HPoly, proj: AffineMap, p: HPoly):
    """Does proj(q) lie in p?  One LP batch over q: a zero objective, which
    decides whether q is empty, then each inequality of p maximized and each
    equation maximized and minimized, pulled back through proj.

    Returns the zero objective's LPResult (None when q is empty) and the
    failing rows in that order, each as (i, LPResult, value): i indexes
    p.ineqs + p.eqs, and value is the row's optimum over proj(q), or None
    when the row is unbounded there (the LPResult then carries a ray of q).
    On integer rows, p's (a, B, D) and proj's (P_r, O_r, d_r), with L the lcm
    of the d_r a uses and m_r = a_r·L/d_r: L·a·proj(y) = cost·y - K, cost = Σ
    m_r·P_r and K = Σ m_r·O_r, so the row holds where max (or min) cost·y is
    <= (>=) K + L·B."""
    ineqs, eqs = p._int_rows()
    prows = proj._int_rows()
    objectives, checks = [([0] * q.dim, "min")], []
    for i, (nz, b, d) in enumerate(ineqs + eqs):
        big = lcm(*[prows[r][2] for r, _ in nz])
        cost, k = [0] * q.dim, 0
        for r, x in nz:
            pnz, o, pd = prows[r]
            m = x * (big // pd)
            for j, y in pnz:
                cost[j] += m * y
            k += m * o
        for sense in ("max",) if i < len(ineqs) else ("max", "min"):
            objectives.append((cost, sense))
            checks.append((i, sense, k, k + big * b, big * d))
    first, *results = optimize_all(q, objectives)
    if first.status == INFEASIBLE:
        return None, []
    fails = []
    for (i, sense, k, t, scale), r in zip(checks, results):
        if r.status == UNBOUNDED:
            fails.append((i, r, None))
            continue
        over = r.optimum.numerator - t * r.optimum.denominator  # the sign of optimum - t
        if over > 0 if sense == "max" else over < 0:
            fails.append((i, r, (r.optimum - k) / scale))
    return first, fails


def _conv(dim: int, pts) -> tuple[HPoly, AffineMap]:
    """conv(pts) as the image of the standard simplex {λ >= 0, Σλ = 1} under
    λ ↦ Vλ, the columns of V the points."""
    n = len(pts)
    std = HPoly(n, [(tuple(-x for x in linalg.unit(n, i)), ZERO) for i in range(n)], [((ONE,) * n, ONE)])
    return std, AffineMap(linalg.transpose(pts), linalg.zeros(dim))


def is_vertex(points: VPoly, index: int) -> bool:
    """True iff points.vertices[index] is a vertex of the hull of all points."""
    if not 0 <= index < len(points.vertices):
        raise InputError("vertex index out of range")
    rest = [p for i, p in enumerate(points.vertices) if i != index]
    return not rest or bool(_outside_image(*_conv(points.dim, rest), [points.vertices[index]]))


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
    V-described side is the image of a simplex, which the other side's
    points are tested against in one `_outside_image` batch.
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
    # a point of each side in an LPResult, read only to report it (None for an
    # empty side), then the points outside the other side (V sides: side 2's
    # batch only if side 1's finds none)
    if isinstance(p1, HPoly):
        (x1, fails1), (x2, fails2) = _image_violations(p1, ident, p2), _image_violations(p2, ident, p1)
        outside = [(_row_witness(p, f[0]), side) for p, f, side in ((p2, fails1, 1), (p1, fails2, 2)) if f]
    else:
        x1, x2 = (LPResult(OPTIMAL, primal_point=p.vertices[0]) if p.vertices else None for p in (p1, p2))
        outside = ((x, side) for p, other, side in ((p1, p2, 1), (p2, p1, 2))
                   for x in _outside_image(*_conv(other.dim, other.vertices), p.vertices))
    if x1 is None:
        return PolyEqualResult(True) if x2 is None else PolyEqualResult(False, x2.primal_point, 2)
    if x2 is None:
        return PolyEqualResult(False, x1.primal_point, 1)
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
    `_substitute`, a prune keys a row by its gcd-reduced form, and a full
    prune passes the dict rows' pairs to `_nonredundant` as they are.  Only
    the output builds Fractions; output equations are canonical.  With
    nothing to eliminate, the inequalities come back as given.
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

    def fractions(rows):
        return tuple([(tuple([Fraction(a[t], d) if t in a else ZERO for t in keep_set]), Fraction(b, d))
                      for a, b, d in rows])

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
            try:
                flags = _nonredundant(dim, [(a.items(), b, d) for a, b, d in ineqs],
                                      [(c.items(), e, d) for c, e, d in eqs])
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
            *a, b = linalg._canonical_eq([c.get(t, 0) for t in keep_set] + [e])
            out_eqs.append((tuple([Fraction(x) for x in a]), Fraction(b)))
        elif e != 0:
            ineqs, out_eqs = [({}, -1, 1)], []
            break
    return HPoly(len(keep_set), fractions(ineqs), tuple(out_eqs))
