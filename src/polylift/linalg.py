"""Exact rational linear algebra on tuples of fractions.Fraction.

Vectors are tuples of Fraction, matrices are tuples of such tuples.  The
standard library Fraction is always in canonical form (reduced, positive
denominator), which is exactly the invariant the rest of the package needs,
so no wrapper type is introduced.

All elimination happens in one routine, `_eliminate`: fraction-free
(Bareiss) Gauss-Jordan on an integer scaling of the rows, which takes
integer rows as they are.  `rref` and `rank` read its result directly,
`independent_rows` runs it on the transpose, `_nullspace_int` reads the
integer nullspace basis off its rows, `nullspace` is a Fraction view of
that basis, and `solve` is built on `rref`.  The one left inverse,
`_left_inverse_int`, reads the pivot columns, the integer nullspace and the
integer left inverse off one elimination of [rows | I]; `left_inverse` and
`inverse` are its Fraction views.  The kernel and `slack` read the integer
results directly: the affine frame of a polyhedron (equations and
direction basis), the convex hull's equations, left inverse and polar seed
simplex, and the inverse slack map.  Every equation the library returns is
put in one canonical form by `_canonical_eq`: coprime integers, first
nonzero coefficient positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, string like '3/4', or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction exactly")


def vec(xs: Iterable) -> Vec:
    """xs as a tuple of Fraction; a tuple of exact Fractions is returned as is.
    Built from a list, as `homogeneous` is."""
    if type(xs) is tuple and all(type(x) is Fraction for x in xs):
        return xs
    return tuple([frac(x) for x in xs])


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("inconsistent row lengths")
    return out


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple([ONE if j == i else ZERO for j in range(n)])


def identity(n: int) -> Mat:
    return tuple(unit(n, i) for i in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot")
    s = ZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def mat_vec(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def homogeneous(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The rational vector v as the primitive integer vector (V..., w) with
    w > 0 and v = V/w.  It is primitive because w is the lcm of the reduced
    denominators.  Built from lists: a short tuple built from a generator
    is resized, and once freed stays on CPython's tuple free list."""
    w = lcm(*[x.denominator for x in v])
    return (*[x.numerator * (w // x.denominator) for x in v], w)


def _eliminate(m) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a rational matrix.

    Each row is first scaled to integers.  At the pivot p in row r and
    column c, every other row becomes (p*row_i - row_i[c]*row_r) // prev,
    where prev is the previous pivot; each division is exact, because every
    entry is then a minor of the scaled matrix.  Returns the integer rows and
    the pivot columns: row r < len(pivots) is 0 in every pivot column except
    pivots[r], the rows after them are zero, and dividing each pivot row by
    its pivot gives the reduced row echelon form.
    """
    rows = [list(homogeneous(row)[:-1]) for row in m]
    pivots: list[int] = []
    if not rows:
        return rows, pivots
    nrows = len(rows)
    prev = 1
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                rows[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
    return rows, pivots


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form of m and its pivot columns."""
    rows, pivots = _eliminate(m)
    out = [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots)]
    out += [(ZERO,) * len(row) for row in rows[len(pivots):]]
    return tuple(out), pivots


def rank(m: Mat) -> int:
    """Exact rank: the number of pivots of the fraction-free elimination."""
    return len(_eliminate(m)[1])


def solve(a: Mat, b: Sequence[Fraction]) -> Vec | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch in solve")
    if not a:
        return ()
    ncols = len(a[0])
    rows, pivots = rref([tuple(r) + (bi,) for r, bi in zip(a, b)])
    if ncols in pivots:  # pivot in the rhs column: inconsistent system
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return tuple(x)


def _nullspace_int(rows, pivots, ncols) -> tuple[list[list[int]], int]:
    """The nullspace of the first ncols columns of a matrix, read off
    `_eliminate`'s rows and pivots (every pivot among those columns), as
    integer vectors over a common denominator: (basis, d) with d > 0.

    Every pivot row's pivot entry is the last pivot, ±d, so the reduced row
    echelon form is rows/±d.  The vector of the free column f is d at f and
    ∓row[f] at each pivot row's column: d times the RREF nullspace vector.
    """
    d = rows[0][pivots[0]] if pivots else 1
    sign = 1 if d > 0 else -1
    on_piv = set(pivots)
    basis = []
    for f in range(ncols):
        if f in on_piv:
            continue
        v = [0] * ncols
        v[f] = sign * d
        for row, c in zip(rows, pivots):
            v[c] = -sign * row[f]
        basis.append(v)
    return basis, sign * d


def nullspace(m: Mat) -> list[Vec]:
    """Basis of {x : M x = 0}; empty matrix means the whole space is unknown."""
    if not m:
        raise ValueError("nullspace of an empty matrix is ambiguous; pass dims explicitly")
    basis, d = _nullspace_int(*_eliminate(m), len(m[0]))
    return [tuple([Fraction(x, d) for x in v]) for v in basis]


def independent_rows(m: Mat) -> list[int]:
    """Indices of a maximal linearly independent subset of rows (greedy, stable).

    Row i is kept iff it is independent of rows 0..i-1, which is exactly when
    column i of the transpose is a pivot column of its elimination.
    """
    return _eliminate(transpose(m))[1]


def _left_inverse_int(rows, ncols: int):
    """One fraction-free Gauss-Jordan of [rows | I], for N the matrix whose
    columns are the rows (each of length ncols): (piv, normals, den, lcols),
    or None when the rows are dependent.  It ends at [R | X] with R = X·rows
    for the rows as given (each is scaled to integers with its identity
    entry) and every pivot entry of R equal to ±den.  piv are the pivot
    columns, the first independent rows of N; normals is the integer
    nullspace of the rows over den; and lcols[j] is column piv[j] of den·L,
    for the left inverse L of N that is zero off piv: ±X^T there.
    """
    k = len(rows)
    red, piv = _eliminate([(*r, *[int(i == j) for j in range(k)]) for i, r in enumerate(rows)])
    if piv and piv[-1] >= ncols:
        return None
    normals, den = _nullspace_int(red, piv, ncols)
    sign = 1 if not piv or red[0][piv[0]] > 0 else -1
    return piv, normals, den, [[sign * x for x in row[ncols:]] for row in red]


def left_inverse(m: Mat) -> Mat:
    """Left inverse of a matrix with full column rank: L @ M = I.

    The Fraction view of `_left_inverse_int` on M's columns: L is zero on
    the columns of the rows that depend on earlier ones, and inverts the
    square subset of the others; any left inverse serves the callers here.
    """
    if not m:
        return ()
    nrows = len(m)
    inv = _left_inverse_int(transpose(m), nrows)
    if inv is None:
        raise ValueError("matrix does not have full column rank")
    piv, _, den, lcols = inv
    cols = dict(zip(piv, lcols))
    return tuple(tuple(Fraction(cols[c][r], den) if c in cols else ZERO for c in range(nrows))
                 for r in range(len(m[0])))


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix: its left inverse."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of non-square matrix")
    try:
        return left_inverse(m)
    except ValueError:
        raise ValueError("matrix is singular") from None


def _canonical_eq(row) -> tuple[int, ...]:
    """The integer equation row (c..., d), meaning c·x = d with c nonzero,
    divided by the gcd of its entries and signed so that its first nonzero
    coefficient is positive: the one canonical form of every equation the
    library returns."""
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple([x // g for x in row])
