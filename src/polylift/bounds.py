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
from .kernel import HPoly, VPoly, poly_equal, vertices
from .slack import SlackMatrix, _binding_given_slacks, _slacks, slack_matrix

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
    mask holds the vertices tight at one inequality: the complement of the
    support of the row's slacks (`_row_supports`).

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
    return _lattice(len(vrep.vertices), _row_supports(_slacks(hrep, vrep.vertices)))


def _row_supports(rows) -> list[int]:
    """Each row's support, as a bitmask: bit j is set when row[j] is not 0.
    The one reader of the zero pattern in this module."""
    return [sum(1 << j for j, s in enumerate(row) if s) for row in rows]


def _bits(mask: int) -> tuple:
    """The positions of the set bits of mask, in increasing order.  Built
    from a list, as are the searches' other tuples: a tuple built from a
    generator is over-allocated, then shrunk, which fragments the heap."""
    return tuple([j for j in range(mask.bit_length()) if mask >> j & 1])


def _support_entries(supports) -> list[tuple]:
    """The support entries (i, j), row-major, as `SlackMatrix.support` lists
    them."""
    return [(i, j) for i, s in enumerate(supports) for j in range(s.bit_length()) if s >> j & 1]


def _lattice(nv: int, supports: list) -> FaceLattice:
    """The face lattice of a polytope with nv vertices from its rows'
    supports, whose complements are the facet masks: `face_lattice` without
    its checks, for a caller that holds the supports."""
    full = (1 << nv) - 1
    facet_masks = [full ^ s for s in supports]
    faces = _closed_sets(facet_masks) | {full, 0}
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
    """ceil(log2 f), f the number of nonempty faces: an extension with r
    inequalities has at most 2^r nonempty faces, one per tight row set, and
    P's nonempty faces have distinct nonempty preimages.  From dimension 1
    up, ceil(log2 f) = ceil(log2(f + 1)) (f + 1 is even and at least 4)."""
    return max(lattice.face_count() - 2, 0).bit_length()


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


def _maximal_rectangles(supports):
    """All inclusion-maximal support rectangles, as (row mask, col mask), by
    increasing col mask: the closed sets of the row supports, each with the
    rows that hold it.  This order is the cover search's branching order."""
    return [
        (sum(1 << i for i, s in enumerate(supports) if s & jmask == jmask), jmask)
        for jmask in sorted(_closed_sets(supports))
    ]


def _compatibility(supports, ncols: int, support) -> list[int]:
    """For each support entry a, the mask of the entries b compatible with
    it (never a): column jb is outside row ia's support, or column ja is
    outside row ib's, so b lies in a column where row ia is 0 or in a row
    where column ja is 0.  The masks summed below are disjoint, so each sum
    is a union."""
    in_row = [0] * len(supports)
    in_col = [0] * ncols
    for t, (i, j) in enumerate(support):
        in_row[i] |= 1 << t
        in_col[j] |= 1 << t
    by_row = [sum(c for j, c in enumerate(in_col) if not s >> j & 1) for s in supports]
    by_col = [sum(c for c, s in zip(in_row, supports) if not s >> j & 1) for j in range(ncols)]
    return [by_row[i] | by_col[j] for i, j in support]


def _greedy_clique(compat, cand_mask: int) -> list[int]:
    """The greedy fooling set among the candidates, a valid lower bound:
    lowest index first, each one compatible with all taken before it, by
    taking the lowest candidate and keeping those compatible with it."""
    chosen = []
    while cand_mask:
        v = (cand_mask & -cand_mask).bit_length() - 1
        chosen.append(v)
        cand_mask &= compat[v]
    return chosen


def rectangle_cover_min(slack: SlackMatrix, budget: int = 200_000) -> CoverResult:
    """Minimum number of support rectangles covering the support of the slack
    matrix (exact branch and bound within budget; greedy fallback flagged).

    A support of more than EXACT_SUPPORT_LIMIT entries gets the greedy cover
    at once; otherwise the search branches over the maximal rectangles
    (`_maximal_rectangles`), bounded below by a greedy fooling set of the
    uncovered entries.  Only an exact result is a valid lower bound on
    extension complexity; a greedy cover is an upper bound on the cover
    number and is flagged as such.  A negative budget is an InputError.
    """
    if budget < 0:
        raise InputError(f"search budget must be nonnegative, got {budget}")
    supports = _row_supports(slack.entries)
    support = _support_entries(supports)
    if not support:
        return CoverResult(EXACT, 0, RectangleCover(()))
    if len(support) > EXACT_SUPPORT_LIMIT:
        cover = _greedy_cover(support, supports)
        return CoverResult(GREEDY, len(cover), RectangleCover(tuple(cover)))
    rects = _maximal_rectangles(supports)

    rect_sets = [
        sum(1 << t for t, (i, j) in enumerate(support) if imask >> i & 1 and jmask >> j & 1)
        for imask, jmask in rects
    ]
    full = (1 << len(support)) - 1
    entry_rects = [
        [r for r in range(len(rects)) if rect_sets[r] >> t & 1] for t in range(len(support))
    ]

    greedy = _greedy_cover(support, supports)
    compat = _compatibility(supports, slack.ncols, support)
    best: list[int] = []
    best_size = len(greedy) + 1
    nodes = 0
    exceeded = False

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
        if len(chosen) + len(_greedy_clique(compat, uncovered)) >= best_size:
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
    bb = None  # bb refers to itself: break the cycle, so its tables go now
    if exceeded:
        return CoverResult(EXCEEDS_BUDGET, None, None, nodes)
    out = tuple([(_bits(rects[r][0]), _bits(rects[r][1])) for r in best])
    return CoverResult(EXACT, best_size, RectangleCover(out), nodes)


def _greedy_cover(support, supports):
    """Greedy set cover by maximal rectangles grown from uncovered entries:
    from (i, j), all columns of row i and every row that holds them (the
    columns those rows share are row i's again)."""
    uncovered = set(support)
    out = []
    while uncovered:
        s = supports[min(uncovered)[0]]
        rows = tuple([r for r, t in enumerate(supports) if t & s == s])
        cols = _bits(s)
        out.append((rows, cols))
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


def _greedy_classes(cand_mask: int, shut) -> int:
    """The number of greedy color classes of the candidates, a bound on any
    clique among them.  Each class takes, lowest index first, every
    candidate left that none it holds shuts out (shut[v]); so each candidate
    in turn goes into the first class that admits it."""
    classes = 0
    while cand_mask:
        classes += 1
        free = cand_mask
        while free:
            low = free & -free
            cand_mask ^= low
            free &= shut[low.bit_length() - 1]
    return classes


def fooling_set_max(slack: SlackMatrix, budget: int = 500_000) -> FoolingResult:
    """Maximum fooling set: a maximum clique of the compatibility graph on
    the support entries, by branch and bound on int bitmasks.

    The search starts from the greedy fooling set and branches on the
    candidates in index order.  A node is cut when a greedy coloring of its
    candidates needs no more classes than the clique lacks to beat the best
    set; a branch, when the clique with its candidate and that candidate's
    compatible candidates cannot.  A call colors each distinct candidate set
    once and keeps its count, one entry per node at most.  Out of budget
    (one node per search call), it returns the best set found, flagged
    greedy: still a valid lower bound.  Nodes work on bitboards, as in BBMC
    (San Segundo et al. 2011).  A negative budget is an InputError.
    """
    if budget < 0:
        raise InputError(f"search budget must be nonnegative, got {budget}")
    supports = _row_supports(slack.entries)
    support = _support_entries(supports)
    ne = len(support)
    if ne == 0:
        return FoolingResult(EXACT, FoolingSet(()))
    compat = _compatibility(supports, slack.ncols, support)
    full = (1 << ne) - 1
    shut = [full & ~(c | 1 << v) for v, c in enumerate(compat)]
    best_idx = _greedy_clique(compat, full)
    classes_of: dict[int, int] = {}
    nodes = 0
    exceeded = False

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
        if cand_mask not in classes_of:
            classes_of[cand_mask] = _greedy_classes(cand_mask, shut)
        if classes_of[cand_mask] <= len(best_idx) - len(clique):
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
    bb = None  # bb refers to itself: break the cycle, so classes_of goes now
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
    with no zero slack at a listed point take an LP to check it, so a listed
    point outside P is reported before a non-binding row: off an inequality
    as a ValidationError, off an equation as an InputError.
    """
    sm = slack_matrix(hrep, vrep)
    if not _binding_given_slacks(hrep, sm, vrep):
        raise ValidationError("xc_bounds requires a binding inequality system")
    bounds: dict[str, tuple] = {}
    bounds["rank"] = (rank_bound(sm), True)
    nv = len(vrep.vertices)
    if len(hrep.ineqs) <= LATTICE_LIMITS[0] or nv <= LATTICE_LIMITS[1]:
        # face_lattice's row supports, read off sm: the binding check has
        # placed every point in P
        bounds["log_faces"] = (log_face_bound(_lattice(nv, _row_supports(sm.entries))), True)
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

    Confirms that the map is injective on P's face lattice, of at most 12
    facets or at most 12 vertices.  Q's lattice is not built: once p(Q)
    lies in P, each preimage is a face of Q, and the map keeps order by
    construction, so it is then strictly order-preserving.  Raises
    InputError when ext_vrep, given for Q's vertices, does not span Q.
    """
    if ext_vrep is not None and not poly_equal(ext.q, ext_vrep):
        raise InputError("ext_vrep does not span the extension's Q")
    lp = face_lattice(target_hrep, target_vrep, max_facets=12, max_vertices=12)
    qv = ext_vrep if ext_vrep is not None else vertices(ext.q)
    proj_pts = [ext.proj.apply(u) for u in qv.vertices]
    # only verified extensions can embed; a P without vertices has only the
    # empty face, whose preimage is empty whatever Q projects to
    if target_vrep.vertices and not all(target_hrep.contains(x) for x in proj_pts):
        return False
    # each row's support at P's vertices and at the projected vertices
    loose_p = _row_supports(_slacks(target_hrep, target_vrep.vertices))
    loose_q = _row_supports(_slacks(target_hrep, proj_pts))
    images = []
    for fmask in lp.faces:
        # the face equals {x in P : rows tight}, rows = its full tight row
        # set; the empty face's preimage is empty
        gmask = (1 << len(proj_pts)) - 1 if fmask else 0
        for sp, sq in zip(loose_p, loose_q):
            if not sp & fmask:
                gmask &= ~sq
        images.append(gmask)
    # F1 inside F2 has every row tight on F2 tight on it, so G1 is inside
    # G2: the map keeps order, and strictly once it is injective
    return len(set(images)) == len(images)
