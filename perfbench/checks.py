"""Independent output checks for the benchmark jobs.

Every check here uses only the exact Fraction arithmetic defined in this
file (a dot product and a rank by Gaussian elimination) and reads the
program's result objects as plain data.  Nothing here calls polylift code,
so a defect in the kernel or the simplex cannot vouch for itself.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from fractions import Fraction


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dot of vectors of different length")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def affine_rank(points) -> int:
    """Dimension of the affine hull of a nonempty point list."""
    p0 = points[0]
    return rank([[Fraction(a) - Fraction(b) for a, b in zip(p, p0)] for p in points[1:]])


def _ineq_labels(h):
    return h.ineq_labels if h.ineq_labels is not None else [f"row{i}" for i in range(len(h.ineqs))]


def _eq_labels(h):
    return h.eq_labels if h.eq_labels is not None else [f"eq{i}" for i in range(len(h.eqs))]


def hrep_of_points(h, points, n_facets: int | None = None) -> list[str]:
    """h is an irredundant description of conv(points).

    Every equation holds on all points and the equations cut out exactly the
    affine hull; every inequality is valid for all points and tight on a set
    of points of affine dimension one less than the hull (a facet).  That no
    facet is missing is shown by the pinned count n_facets when it is known,
    and otherwise by facets_complete.
    """
    out = []
    pts = list(points)
    k = affine_rank(pts)
    for c, d in h.eqs:
        if any(dot(c, p) != d for p in pts):
            out.append("an equation fails on an input point")
            break
    if rank([c for c, _ in h.eqs]) != h.dim - k:
        out.append(f"equations leave dimension {h.dim - rank([c for c, _ in h.eqs])}, hull has {k}")
    tight_sets = []
    for idx, (a, b) in enumerate(h.ineqs):
        vals = [dot(a, p) for p in pts]
        if any(v > b for v in vals):
            out.append(f"inequality {idx} cuts off an input point")
            continue
        tight = [p for p, v in zip(pts, vals) if v == b]
        if not tight or affine_rank(tight) != k - 1:
            out.append(f"inequality {idx} is not facet-defining")
        tight_sets.append(sum(1 << i for i, v in enumerate(vals) if v == b))
    if len(set(h.ineqs)) != len(h.ineqs) or len(set(tight_sets)) != len(tight_sets):
        out.append("repeated inequality")
    if n_facets is not None:
        if len(h.ineqs) != n_facets:
            out.append(f"{len(h.ineqs)} facets, expected {n_facets}")
    elif not out and not facets_complete(pts, tight_sets, k):
        out.append("a facet is missing")
    return out


def facets_complete(points, facets, k: int) -> bool:
    """Whether facets (tight sets as bitmasks over points, each a true facet
    of conv(points), which has dimension k) are all of its facets.

    A face g is represented by the points it holds.  Its candidate facets
    C(g) are the sets g & F, over the listed facets F, of dimension
    dim(g) - 1; each is a true facet of g.  complete(g) holds when a segment
    has two candidates, and otherwise when every candidate r is complete and
    every candidate s of r lies in exactly two candidates of g.  By
    induction on the dimension, complete(g) implies that C(g) holds every
    facet of g: were a facet H of g missing, some candidate r would be
    adjacent to it (the facet graph of a polytope is connected), and the
    ridge r & H, which is a candidate of r, would lie in r alone.
    """
    ranks: dict[int, int] = {}

    def dim(mask):
        if mask not in ranks:
            sub = [p for i, p in enumerate(points) if mask >> i & 1]
            ranks[mask] = affine_rank(sub) if sub else -1
        return ranks[mask]

    done: dict[int, bool] = {}

    def candidates(g, d):
        return {g & f for f in facets if dim(g & f) == d - 1}

    def complete(g, d):
        if g in done:
            return done[g]
        cs = candidates(g, d)
        if d == 1:
            ok = len(cs) == 2
        else:
            ok = (len(cs) > d and all(complete(r, d - 1) for r in cs)
                  and all(sum(1 for r2 in cs if s & r2 == s) == 2
                          for r in cs for s in candidates(r, d - 1)))
        done[g] = ok
        return ok

    if k <= 0:
        return not facets
    return complete((1 << len(points)) - 1, k)


def is_vertex(h, v) -> bool:
    """v is feasible for h and tight on rows of full rank."""
    if any(dot(c, v) != d for c, d in h.eqs) or any(dot(a, v) > b for a, b in h.ineqs):
        return False
    return rank([a for a, b in h.ineqs if dot(a, v) == b] + [c for c, _ in h.eqs]) == h.dim


def vrep_of_hrep(h, verts, n_vertices: int | None = None, among=None) -> list[str]:
    """The listed points are exactly the vertices of h.  Every listed point
    is a vertex; that none is missing is shown by the pinned count
    n_vertices, or, when h = conv(among) so that every vertex lies in
    among, by listing exactly the points of among that are vertices."""
    out = []
    vs = [tuple(Fraction(x) for x in p) for p in verts]
    if len(set(vs)) != len(vs):
        out.append("repeated vertex")
    for j, v in enumerate(vs):
        if not is_vertex(h, v):
            out.append(f"point {j} is not a vertex")
    if n_vertices is not None and len(vs) != n_vertices:
        out.append(f"{len(vs)} vertices, expected {n_vertices}")
    if among is not None:
        expected = {p for p in (tuple(Fraction(x) for x in q) for q in among) if is_vertex(h, p)}
        if set(vs) != expected:
            out.append(f"{len(set(vs) - expected)} listed points are not input vertices, "
                       f"{len(expected - set(vs))} input vertices are missing")
    return out


def verify_report(rep, ext, hrep, vrep, expect_pass: bool, vertex_failures: int | None = None) -> list[str]:
    """The verdict is the expected one, the report does not contradict
    itself, and every refutation witness violates its named target row: a
    point beyond the row, or a ray of Q along which the row grows without
    bound."""
    out = []
    if rep.passed != expect_pass:
        out.append(f"verdict {'PASS' if rep.passed else 'FAIL'}, expected {'PASS' if expect_pass else 'FAIL'}")
    has_failure = bool(rep.vertex_failures or rep.row_failures or rep.extension_empty)
    if rep.passed == has_failure:
        out.append("verdict contradicts the listed failures")
    if rep.checked_vertices != len(vrep.vertices):
        out.append("checked vertex count differs from the target's vertex count")
    if rep.checked_rows != len(hrep.ineqs) + 2 * len(hrep.eqs):
        out.append("checked row count differs from the target's row count")
    if not 0 <= rep.lift_hits <= rep.checked_vertices:
        out.append("lift hits exceed checked vertices")
    if rep.size != len(ext.q.ineqs):
        out.append("reported size differs from the extension's inequality count")
    if vertex_failures is not None and len(rep.vertex_failures) != vertex_failures:
        out.append(f"{len(rep.vertex_failures)} vertex failures, expected {vertex_failures}")
    targets = set(vrep.vertices)
    if any(v not in targets for v in rep.vertex_failures):
        out.append("a vertex failure is not a target vertex")
    ineq = dict(zip(_ineq_labels(hrep), hrep.ineqs))
    eq = dict(zip(_eq_labels(hrep), hrep.eqs))
    for label, val, bound, witness in rep.row_failures:
        if val == "unbounded":
            out += _unbounded_witness(label, witness, ext, ineq, eq)
            continue
        if label in ineq:
            a, b = ineq[label]
            lhs = dot(a, witness)
            if not lhs > b or lhs != val or bound != b:
                out.append(f"witness does not violate inequality {label}")
        elif label in eq:
            c, d = eq[label]
            lhs = dot(c, witness)
            if lhs == d or lhs != val or bound != d:
                out.append(f"witness does not violate equation {label}")
        else:
            out.append(f"row failure names unknown row {label}")
    return out


def _unbounded_witness(label, ray, ext, ineq, eq) -> list[str]:
    """An unbounded row failure carries a ray of Q whose image moves the
    named row without bound."""
    if not any(ray) or any(dot(a, ray) > 0 for a, _ in ext.q.ineqs) or any(dot(c, ray) != 0 for c, _ in ext.q.eqs):
        return [f"row {label}: witness is not a ray of Q"]
    direction = [dot(row, ray) for row in ext.proj.matrix]
    if label in ineq:
        moves = dot(ineq[label][0], direction) > 0
    elif label in eq:
        moves = dot(eq[label][0], direction) != 0
    else:
        return [f"row failure names unknown row {label}"]
    return [] if moves else [f"row {label}: ray does not move the row"]


def slack_entries(h, points):
    return [[b - dot(a, x) for x in points] for a, b in h.ineqs]


def bound_report(rep, h, points, pinned=None, fooling=None) -> list[str]:
    """rank <= lower <= upper with the rank recomputed here, upper at most
    the trivial sizes, and pinned values where they are known."""
    out = []
    own_rank = rank(slack_entries(h, points))
    if rep.bounds.get("rank", (None,))[0] != own_rank:
        out.append(f"reported rank {rep.bounds.get('rank')} differs from {own_rank}")
    if not own_rank <= rep.lower <= rep.upper:
        out.append(f"rank {own_rank}, lower {rep.lower}, upper {rep.upper} out of order")
    if rep.upper > min(len(h.ineqs), len(points)):
        out.append("upper bound exceeds the trivial sizes")
    if pinned is not None and (rep.lower, rep.upper) != pinned:
        out.append(f"sandwich [{rep.lower}, {rep.upper}], expected {list(pinned)}")
    if fooling is not None and rep.bounds["fooling_set"][0] != fooling:
        out.append(f"fooling set {rep.bounds['fooling_set'][0]}, expected {fooling}")
    return out


def parse_matrix_file(text: str):
    """The MATRIX file format, read here without polylift.fileio."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    head = lines[0]
    if head[0] != "MATRIX":
        raise ValueError("not a MATRIX file")
    nrows, ncols = int(head[1]), int(head[2])
    rows = [[Fraction(t) for t in ln] for ln in lines[1:]]
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError("MATRIX shape does not match its header")
    return rows


def factorization(t, s, h, points, inner_dim: int) -> list[str]:
    """T, S >= 0, T·S equals the slack matrix recomputed here, and the
    inner dimension equals the extension size."""
    out = []
    if any(x < 0 for row in t for x in row) or any(x < 0 for row in s for x in row):
        out.append("negative factor entry")
    if len(s) != inner_dim or any(len(row) != inner_dim for row in t):
        out.append(f"inner dimension differs from the extension size {inner_dim}")
        return out
    phi = slack_entries(h, points)
    cols = list(zip(*s))
    if len(t) != len(phi) or len(cols) != len(points):
        out.append("factor shapes do not match the slack matrix")
        return out
    for i, row in enumerate(t):
        for j, col in enumerate(cols):
            if dot(row, col) != phi[i][j]:
                out.append(f"T·S differs from the slack matrix at ({i}, {j})")
                return out
    return out
