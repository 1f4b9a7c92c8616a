"""Lower bounds on extension complexity and the face-lattice embedding check.

All bounds are exact-arithmetic and certificate-bearing: the rectangle cover
search and the fooling-set search are exhaustive branch-and-bound runs gated
by explicit budgets, and anything non-exact is flagged so it is never used as
a lower bound when it must not be.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .constructions import Extension, verify_extension
from .errors import InputError, InvariantViolationError, SizeLimitError, ValidationError
from .kernel import HPoly, VPoly, vertices
from .slack import SlackMatrix, _binding_given_slacks, slack_matrix

EXACT = "exact"
GREEDY = "greedy"
EXCEEDS_BUDGET = "exceeds_budget"
# size guards: `xc_bounds` builds the face lattice when hrep has at most
# LATTICE_LIMITS[0] inequalities or vrep at most LATTICE_LIMITS[1] points,
# and `rectangle_cover_min` searches exactly on at most EXACT_SUPPORT_LIMIT
# support entries
LATTICE_LIMITS = (10, 12)
EXACT_SUPPORT_LIMIT = 60


# ---------------------------------------------------------------------------
# Face lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope as vertex-index bitmasks, including the empty
    face and the polytope itself; intersection-closed by construction."""

    n_vertices: int
    faces: tuple          # sorted bitmasks
    dims: tuple           # affine dimension per face (-1 for the empty face)

    def face_count(self) -> int:
        return len(self.faces)

    def counts_by_dim(self) -> dict:
        out: dict[int, int] = {}
        for d in self.dims:
            out[d] = out.get(d, 0) + 1
        return out


def face_lattice(hrep: HPoly, vrep: VPoly, *, max_facets: int = 10, max_vertices: int = 12) -> FaceLattice:
    """All faces of the polytope: P itself, the empty face, and every
    nonempty intersection of the facet masks (`_closed_sets`), where a facet
    mask holds the vertices tight at one inequality.

    The tightness test runs in integers: each vertex v is scaled once to its
    homogeneous (X, w) with v = X/w, and each row is read in its integer
    form (A, B, d) from `HPoly._int_rows`, so the row is tight at v exactly
    when A·X == B·w.

    Dimensions come from the grading, by size: dim(empty) = -1 and dim(F) =
    1 + max dim(F & m) over the facet masks m with F & m != F (0 for a point
    P).  Each such F & m is a proper face of F; and a facet G of F, being a
    proper face of P, is the intersection of the facet masks holding it, one
    of which misses part of F, so G = F & m (by the contract below, the
    rows hold P's facets and the points P's vertices).

    Desk-bounded: requires at most max_facets inequalities or at most
    max_vertices vertices.  hrep and vrep must describe the same polytope
    (caller contract); vertex membership in hrep is re-checked here.
    """
    if len(hrep.ineqs) > max_facets and len(vrep.vertices) > max_vertices:
        raise SizeLimitError(
            f"face lattice limited to {max_facets} facets or {max_vertices} vertices"
        )
    if hrep.dim != vrep.dim:
        raise InputError("dimension mismatch")
    for v in vrep.vertices:
        if not hrep.contains(v):
            raise InputError("a listed vertex violates the inequality description")
    points = [linalg.homogeneous(v) for v in vrep.vertices]
    facet_masks = []
    for nz, b, _ in hrep._int_rows()[0]:
        facet_masks.append(
            sum(1 << j for j, p in enumerate(points) if sum(x * p[r] for r, x in nz) == b * p[-1])
        )
    return _lattice(len(points), facet_masks)


def _lattice(nv: int, facet_masks: list) -> FaceLattice:
    """The face lattice of a polytope with nv vertices from its facet masks:
    `face_lattice` without its checks, for a caller that holds the masks."""
    faces = _closed_sets(facet_masks) | {(1 << nv) - 1, 0}
    ordered = sorted(faces, key=lambda m: (m.bit_count(), m))
    dim = {0: -1}
    for f in ordered[1:]:
        dim[f] = 1 + max((dim[f & m] for m in facet_masks if f & m != f), default=-1)
    return FaceLattice(nv, tuple(ordered), tuple(dim[f] for f in ordered))


def _closed_sets(masks) -> set:
    """All nonempty intersections of one or more of the bitmasks.  Each mask
    adds itself and its intersection with every set found so far, so the
    family stays closed under intersection."""
    closed: set[int] = set()
    for m in masks:
        if m and m not in closed:
            closed |= {m & c for c in closed}
            closed.add(m)
    closed.discard(0)
    return closed


def log_face_bound(lattice: FaceLattice) -> int:
    """ceil(log2(face count)): extension complexity is at least this."""
    beta = lattice.face_count()
    return (beta - 1).bit_length() if beta >= 1 else 0


# ---------------------------------------------------------------------------
# Rectangle covers of the slack-matrix support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RectangleCover:
    rectangles: tuple  # ((rows...), (cols...)) pairs, support-contained

    def size(self) -> int:
        return len(self.rectangles)


@dataclass
class CoverResult:
    status: str              # exact | greedy | exceeds_budget
    size: int | None
    cover: RectangleCover | None
    nodes: int = 0

    def is_exact(self) -> bool:
        return self.status == EXACT


def _maximal_rectangles(entries):
    """All inclusion-maximal support rectangles, as (row mask, col mask).

    Their column sets are the closed sets of the row supports, each paired
    with the rows that contain it.  They are listed by lowest row, then by
    the smallest column subset whose closure they are: the order in which
    a scan of every column subset of every row support meets them, which
    fixes the branching order of the cover search.
    """
    m = len(entries)
    n = len(entries[0]) if m else 0
    row_support = [sum(1 << j for j in range(n) if entries[i][j]) for i in range(m)]

    def rows_of(jmask):
        return sum(1 << r for r in range(m) if row_support[r] & jmask == jmask)

    def first_met(rect):
        # the lowest row, and the numerically smallest nonempty column set
        # with the same rows: drop each column, highest first, that the
        # rows do not need
        imask, gen = rect
        for j in reversed(range(n)):
            smaller = gen & ~(1 << j)
            if gen >> j & 1 and smaller and rows_of(smaller) == imask:
                gen = smaller
        return imask & -imask, gen

    return sorted(((rows_of(jmask), jmask) for jmask in _closed_sets(row_support)), key=first_met)


def _greedy_fooling(entry_list, entries):
    """Greedy fooling set among the given support entries (valid lower bound)."""
    chosen = []
    for (i, j) in entry_list:
        ok = True
        for (i2, j2) in chosen:
            if entries[i][j2] != 0 and entries[i2][j] != 0:
                ok = False
                break
        if ok:
            chosen.append((i, j))
    return chosen


def rectangle_cover_min(slack: SlackMatrix, budget: int = 200_000) -> CoverResult:
    """Minimum number of support rectangles covering the support of the slack
    matrix (exact branch and bound within budget; greedy fallback flagged).

    A support of more than EXACT_SUPPORT_LIMIT entries gets the greedy cover
    at once; otherwise the search branches over the maximal rectangles
    (`_maximal_rectangles`), bounded below by a greedy fooling set of the
    uncovered entries.  Only an exact result is a valid lower bound on
    extension complexity; a greedy cover is an upper bound on the cover
    number and is flagged as such.
    """
    entries = slack.entries
    support = slack.support()
    if not support:
        return CoverResult(EXACT, 0, RectangleCover(()))
    n = slack.ncols
    if len(support) > EXACT_SUPPORT_LIMIT:
        cover = _greedy_cover(support, entries, n)
        return CoverResult(GREEDY, len(cover), RectangleCover(tuple(cover)))
    rects = _maximal_rectangles(entries)

    rect_sets = [
        sum(1 << t for t, (i, j) in enumerate(support) if imask >> i & 1 and jmask >> j & 1)
        for imask, jmask in rects
    ]
    full = (1 << len(support)) - 1
    entry_rects = [
        [r for r in range(len(rects)) if rect_sets[r] >> t & 1] for t in range(len(support))
    ]

    greedy = _greedy_cover(support, entries, n)
    best: list[int] = []
    best_size = len(greedy) + 1
    nodes = 0
    exceeded = False

    def fooling_lb(uncovered_mask):
        entry_list = [support[t] for t in range(len(support)) if uncovered_mask >> t & 1]
        return len(_greedy_fooling(entry_list, entries))

    def bb(chosen, covered):
        nonlocal best, best_size, nodes, exceeded
        if exceeded:
            return
        nodes += 1
        if nodes > budget:
            exceeded = True
            return
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        uncovered = full & ~covered
        lb = fooling_lb(uncovered)
        if len(chosen) + lb >= best_size:
            return
        # branch on the uncovered entry with the fewest covering rectangles
        pick = min(
            (t for t in range(len(support)) if uncovered >> t & 1),
            key=lambda t: len(entry_rects[t]),
        )
        for r in entry_rects[pick]:
            chosen.append(r)
            bb(chosen, covered | rect_sets[r])
            chosen.pop()

    bb([], 0)
    if exceeded:
        return CoverResult(EXCEEDS_BUDGET, None, None, nodes)
    out = []
    for r in best:
        imask, jmask = rects[r]
        out.append(
            (
                tuple(i for i in range(slack.nrows) if imask >> i & 1),
                tuple(j for j in range(n) if jmask >> j & 1),
            )
        )
    return CoverResult(EXACT, best_size, RectangleCover(tuple(out)), nodes)


def _greedy_cover(support, entries, ncols):
    """Greedy set cover by maximal rectangles grown from uncovered entries."""
    m = len(entries)
    uncovered = set(support)
    out = []
    while uncovered:
        i, j = min(uncovered)
        # grow a maximal rectangle from (i, j): all columns of row i, closed
        jmask = [c for c in range(ncols) if entries[i][c]]
        rows = [r for r in range(m) if all(entries[r][c] for c in jmask)]
        cols = [c for c in range(ncols) if all(entries[r][c] for r in rows)]
        out.append((tuple(rows), tuple(cols)))
        uncovered -= {(r, c) for r in rows for c in cols}
    return out


# ---------------------------------------------------------------------------
# Fooling sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoolingSet:
    entries: tuple  # (row, col) support positions, pairwise rectangle-free


@dataclass
class FoolingResult:
    status: str  # exact | greedy
    fooling: FoolingSet
    nodes: int = 0

    def size(self) -> int:
        return len(self.fooling.entries)

    def is_exact(self) -> bool:
        return self.status == EXACT


def fooling_set_max(slack: SlackMatrix, budget: int = 500_000) -> FoolingResult:
    """Maximum fooling set: a maximum clique of the compatibility graph on
    the support entries, by branch and bound on int bitmasks.

    The search starts from the greedy fooling set and branches on the
    candidates in index order.  A node is cut when a greedy coloring of its
    candidates needs no more classes than the clique lacks to beat the best
    set; a branch, when the clique with its candidate and that candidate's
    compatible candidates cannot.  Budget exhaustion (one node per call of
    the search) degrades to the best set found, flagged greedy: it is still
    a valid lower bound.  Nodes work on bitboards, as in BBMC (San Segundo
    et al. 2011).
    """
    entries = slack.entries
    support = slack.support()
    ne = len(support)
    if ne == 0:
        return FoolingResult(EXACT, FoolingSet(()))
    # entries a and b are compatible when entries[ia][jb] or entries[ib][ja]
    # is 0: b lies in a column where row ia is 0, or in a row where column
    # ja is 0.  The masks summed below are disjoint, so each sum is a union.
    in_row = [0] * slack.nrows
    in_col = [0] * slack.ncols
    for t, (i, j) in enumerate(support):
        in_row[i] |= 1 << t
        in_col[j] |= 1 << t
    by_row = [sum(in_col[j] for j, x in enumerate(row) if x == 0) for row in entries]
    by_col = [
        sum(in_row[i] for i, row in enumerate(entries) if row[j] == 0) for j in range(slack.ncols)
    ]
    compat = [by_row[i] | by_col[j] for i, j in support]
    full = (1 << ne) - 1
    # the candidates a color class can no longer take once it holds v
    shut = [full & ~(c | 1 << v) for v, c in enumerate(compat)]
    best = list(_greedy_fooling(support, entries))
    best_idx = [support.index(e) for e in best]
    nodes = 0
    exceeded = False

    def colorable(cand_mask, k):
        """Whether greedy coloring puts the candidates into at most k
        classes, so that no clique among them has more than k entries.
        Each class takes, lowest index first, every candidate left that is
        compatible with none it already holds: the classes of placing each
        candidate in turn into the first class that admits it.  At most k
        candidates need at most k classes, as each class takes one."""
        if cand_mask.bit_count() <= k:
            return True
        for _ in range(k):
            free = cand_mask
            while free:
                low = free & -free
                cand_mask ^= low
                free &= shut[low.bit_length() - 1]
            if not cand_mask:
                return True
        return not cand_mask

    def bb(clique, cand_mask):
        nonlocal best_idx, nodes, exceeded
        if exceeded:
            return
        nodes += 1
        if nodes > budget:
            exceeded = True
            return
        if not cand_mask:
            if len(clique) > len(best_idx):
                best_idx = list(clique)
            return
        if colorable(cand_mask, len(best_idx) - len(clique)):
            return
        while cand_mask:
            low = cand_mask & -cand_mask
            cand_mask ^= low
            v = low.bit_length() - 1
            sub = cand_mask & compat[v]
            if len(clique) + 1 + sub.bit_count() <= len(best_idx):
                continue
            clique.append(v)
            bb(clique, sub)
            clique.pop()

    bb([], full)
    chosen = tuple(support[t] for t in sorted(best_idx))
    status = GREEDY if exceeded else EXACT
    return FoolingResult(status, FoolingSet(chosen), nodes)


# ---------------------------------------------------------------------------
# Rank bound and the sandwich report
# ---------------------------------------------------------------------------

def rank_bound(slack: SlackMatrix) -> int:
    """Linear-algebra rank of the slack matrix (fraction-free elimination)."""
    if not slack.entries:
        return 0
    return linalg.rank(slack.entries)


@dataclass
class BoundReport:
    lower: int
    upper: int
    active_lower: str
    upper_source: str
    bounds: dict           # name -> (value, exact flag)
    extensions: list       # (name, size, verified)
    slack_shape: tuple

    def pinned(self) -> bool:
        return self.lower == self.upper


def xc_bounds(
    hrep: HPoly,
    vrep: VPoly,
    extensions=(),
    *,
    cover_budget: int = 200_000,
    fooling_budget: int = 500_000,
) -> BoundReport:
    """Sandwich [max lower bound, min certified upper bound] on extension
    complexity.

    Lower bounds: slack-matrix rank, exact rectangle cover number, any fooling
    set, and the log face-count bound (when the lattice is within
    LATTICE_LIMITS).  Upper bounds: the given description sizes and every
    supplied extension that verifies.  conv(vrep) must be the polytope (caller
    contract for the trivial |X| bound).  hrep must be binding; only the rows
    with no zero slack at a listed point of P take an LP to check it, so a
    point outside P is reported before a non-binding row.
    """
    sm = slack_matrix(hrep, vrep)
    if not _binding_given_slacks(hrep, sm, vrep):
        raise ValidationError("xc_bounds requires a binding inequality system")
    bounds: dict[str, tuple] = {}
    bounds["rank"] = (rank_bound(sm), True)
    nv = len(vrep.vertices)
    if len(hrep.ineqs) <= LATTICE_LIMITS[0] or nv <= LATTICE_LIMITS[1]:
        # face_lattice's membership check and facet masks, read off sm:
        # slack_matrix has checked every inequality at every point, so only
        # the equations are left, and a row's mask is its zero pattern
        on_eqs = hrep._derive(())
        if not all(on_eqs.contains(v) for v in vrep.vertices):
            raise InputError("a listed vertex violates the inequality description")
        masks = [sum(1 << j for j, s in enumerate(row) if not s) for row in sm.entries]
        bounds["log_faces"] = (log_face_bound(_lattice(nv, masks)), True)
    cov = rectangle_cover_min(sm, budget=cover_budget)
    if cov.is_exact():
        bounds["rectangle_cover"] = (cov.size, True)
    elif cov.size is not None:
        bounds["rectangle_cover_greedy"] = (cov.size, False)
    fool = fooling_set_max(sm, budget=fooling_budget)
    bounds["fooling_set"] = (fool.size(), fool.is_exact())

    lower_candidates = {}
    for name, (value, exact) in bounds.items():
        if name == "rectangle_cover_greedy":
            continue  # an inexact cover size is not a lower bound
        lower_candidates[name] = value
    active_lower = max(lower_candidates, key=lambda k: (lower_candidates[k], k))
    lower = lower_candidates[active_lower]

    upper_candidates = {
        "own_description": len(hrep.ineqs),
        "trivial_simplex": len(vrep.vertices),
    }
    ext_results = []
    for ext in extensions:
        rep = verify_extension(hrep, ext, target_vrep=vrep)
        ext_results.append((ext.name, ext.size(), rep.passed))
        if rep.passed:
            upper_candidates[ext.name] = ext.size()
    upper_source = min(upper_candidates, key=lambda k: (upper_candidates[k], k))
    upper = upper_candidates[upper_source]
    if lower > upper:
        raise InvariantViolationError(
            f"lower bound {lower} ({active_lower}) exceeds upper bound {upper} ({upper_source})"
        )
    return BoundReport(
        lower=lower,
        upper=upper,
        active_lower=active_lower,
        upper_source=upper_source,
        bounds=bounds,
        extensions=ext_results,
        slack_shape=(sm.nrows, sm.ncols),
    )


# ---------------------------------------------------------------------------
# Face-lattice embedding (preimage map)
# ---------------------------------------------------------------------------

def embedding_check(
    target_hrep: HPoly,
    target_vrep: VPoly,
    ext: Extension,
    *,
    ext_vrep: VPoly | None = None,
) -> bool:
    """Mapping each face of P to its preimage in Q embeds L(P) into L(Q).

    Confirms that every preimage is a face of Q and that the map is injective
    and strictly order-preserving on the computed lattices, each of at most
    12 facets or at most 12 vertices.
    """
    lp = face_lattice(target_hrep, target_vrep, max_facets=12, max_vertices=12)
    qv = ext_vrep if ext_vrep is not None else vertices(ext.q)
    lq = face_lattice(ext.q, qv, max_facets=12, max_vertices=12)
    q_faces = set(lq.faces)

    nv = len(target_vrep.vertices)
    nq = len(qv.vertices)
    proj_pts = [ext.proj.apply(u) for u in qv.vertices]
    # only verified extensions can embed; a P without vertices has only the
    # empty face, whose preimage is empty whatever Q projects to
    if nv and not all(target_hrep.contains(x) for x in proj_pts):
        return False
    images = []
    for fmask in lp.faces:
        if fmask == 0:
            images.append(0)  # the preimage of the empty face is empty
            continue
        # the face equals {x in P : rows tight}, rows = its full tight row set
        rows = [
            (a, b)
            for a, b in target_hrep.ineqs
            if all(
                linalg.dot(a, target_vrep.vertices[j]) == b
                for j in range(nv)
                if fmask >> j & 1
            )
        ]
        gmask = 0
        for uidx in range(nq):
            if all(linalg.dot(a, proj_pts[uidx]) == b for a, b in rows):
                gmask |= 1 << uidx
        if gmask not in q_faces:
            return False
        images.append(gmask)
    if len(set(images)) != len(images):
        return False
    # strictly order preserving: F1 subset F2 implies G1 proper subset of G2
    for i, f1 in enumerate(lp.faces):
        for j, f2 in enumerate(lp.faces):
            if f1 != f2 and (f1 & f2) == f1:
                if (images[i] & images[j]) != images[i] or images[i] == images[j]:
                    return False
    return True
