"""The four workloads: seeded inputs, set-up, and the timed job lists.

build(name, seed) generates every input from the seed, builds what the
jobs take as given (target descriptions, files), and returns the job list.
The jobs call only polylift's public API, through module attributes so
that a traced run sees every call.

Why these workloads: the cost of a certified answer sits in a different
layer for each kind of job, so each optimization has one workload that
exercises its mechanism and one that bypasses it.

- verify: many objectives over one fixed Q; phase-1 simplex pivots dominate.
  Exercises LP sessions and integer pivoting; no DD or search when timed.
- describe: V <-> H conversions; double description dominates, with the LPs
  of FM pruning and redundancy removal.  Exercises a DD rebuild.
- bounds: xc_bounds; integer bitmask searches with no Fraction in the hot
  loop.  Bypasses the LP and integer-core changes; exercises search work.
- factorize: the CLI on files; hundreds of one-shot LPs over distinct small
  systems, so per-LP set-up cost shows here while verify improves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from polylift import bounds, cli, constructions as cx, fileio, kernel, zoo
from polylift.kernel import AffineMap, HPoly, VPoly

import checks

NAMES = ("verify", "describe", "bounds", "factorize")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]   # problems; empty when the output is correct


@dataclass
class Workload:
    jobs: list
    warmup: Job


# ---------------------------------------------------------------------------
# seeded reorderings: same polytopes, a different order for Bland's rule
# ---------------------------------------------------------------------------

def _perm(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return p


def permute_rows(h: HPoly, rng) -> HPoly:
    io_, eo = _perm(len(h.ineqs), rng), _perm(len(h.eqs), rng)
    return HPoly(
        h.dim,
        [h.ineqs[i] for i in io_],
        [h.eqs[i] for i in eo],
        [h.ineq_labels[i] for i in io_] if h.ineq_labels is not None else None,
        [h.eq_labels[i] for i in eo] if h.eq_labels is not None else None,
    )


def permute_extension(ext: cx.Extension, rng) -> cx.Extension:
    """Permute Q's variables and rows; the projection and lift follow."""
    sigma = _perm(ext.q.dim, rng)

    def cols(a):
        return tuple(a[s] for s in sigma)

    q = permute_rows(ext.q, rng)
    q = HPoly(q.dim, [(cols(a), b) for a, b in q.ineqs], [(cols(c), d) for c, d in q.eqs],
              q.ineq_labels, q.eq_labels)
    proj = AffineMap([cols(r) for r in ext.proj.matrix], ext.proj.offset)
    inner = ext.lift

    def lift(v):
        y = inner(v)
        return None if y is None else cols(y)

    return cx.Extension(q, proj, ext.target_dim, ext.name, lift)


def knapsack_instance(rng, weights, min_points: int):
    """The weights in an order drawn from the seed, and the smallest capacity
    that admits at least min_points feasible subsets.  The order changes the
    DP network and the coordinates while the work stays comparable."""
    w = list(weights)
    rng.shuffle(w)
    n = len(w)
    sums = sorted(sum(w[i] for i in range(n) if m >> i & 1) for m in range(1 << n))
    return w, sums[min_points - 1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_job(name, target_h, target_v, ext, expect_pass, vertex_failures=None):
    def run():
        return cx.verify_extension(target_h, ext, target_vrep=target_v)

    def check(rep):
        return checks.verify_report(rep, ext, target_h, target_v, expect_pass, vertex_failures)

    return Job(name, run, check)


def build_verify(rng) -> Workload:
    st4h, st4v = zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    p4h, p4v = zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)
    p5h, p5v = zoo.permutahedron_hrep(5), zoo.permutahedron_vrep(5)
    # Jobs stay under about a second each, so every job is timed several
    # times in a run.  Martin(n) is the phase-1 heavy family; at n = 5 one
    # job takes 3 s, so it runs at n = 4, once in its constructed order and
    # three times reordered.
    martin4 = cx.martin_spanning_tree_extension(4)
    jobs = [_verify_job("martin(4)", st4h, st4v, martin4, True)]
    for i in range(3):
        jobs.append(_verify_job(f"martin(4)#{i}", permute_rows(st4h, rng), st4v,
                                permute_extension(martin4, rng), True))
    # The larger extensions keep their constructed order (only the target
    # rows are reordered): reordered, each swings by a third from seed to seed.
    jobs.append(_verify_job("birkhoff(5)", permute_rows(p5h, rng), p5v, cx.birkhoff_extension(5), True))
    batcher5 = cx.sorting_network_extension(5, cx.batcher_network(5))
    jobs.append(_verify_job("sortnet_batcher(5)", permute_rows(p5h, rng), p5v, batcher5, True))
    for i in range(3):
        w, cap = knapsack_instance(rng, (2, 3, 4, 5, 7, 9), 32)
        kv = zoo.knapsack_vrep(w, cap)
        kh = permute_rows(kernel.hull(kv), rng)
        jobs.append(_verify_job(f"knapsack_flow(6)#{i}", kh, kv,
                                permute_extension(cx.knapsack_flow_extension(w, cap), rng), True))
    # Refutation 1: shifted projection offset.  Every lift hint misses, so
    # each of the 24 vertices costs a feasibility LP that comes back empty.
    batcher4 = cx.sorting_network_extension(4, cx.batcher_network(4))
    for coord in (0, 2):
        off = list(batcher4.proj.offset)
        off[coord] += 1
        shifted = cx.Extension(batcher4.q, AffineMap(batcher4.proj.matrix, off), 4,
                               "sortnet(4)+shift", batcher4.lift)
        jobs.append(_verify_job(f"refute_shift#{coord}", permute_rows(p4h, rng), p4v, shifted, False, 24))
    # Refutation 2: one comparator-sum equation dropped; the projection
    # escapes the permutahedron and every row failure carries a witness.
    q = batcher5.q
    sums = [i for i, lab in enumerate(q.eq_labels) if lab.endswith(":sum")]
    drop = sums[len(sums) // 2]
    keep = [i for i in range(len(q.eqs)) if i != drop]
    loose = HPoly(q.dim, q.ineqs, [q.eqs[i] for i in keep], q.ineq_labels, [q.eq_labels[i] for i in keep])
    dropped = cx.Extension(loose, batcher5.proj, 5, "sortnet(5)-sum", batcher5.lift)
    jobs.append(_verify_job("refute_drop", permute_rows(p5h, rng), p5v, dropped, False, 0))
    warm = _verify_job("warmup:birkhoff(3)", zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3),
                       cx.birkhoff_extension(3), True)
    return Workload(jobs, warm)


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def random_points(rng, dim: int, count: int, lo: int = -4, hi: int = 4):
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randint(lo, hi) for _ in range(dim)))
    return VPoly(dim, sorted(pts))


def _hull_job(name, v, n_facets=None):
    return Job(f"hull:{name}", lambda: kernel.hull(v),
               lambda h: checks.hrep_of_points(h, v.vertices, n_facets))


def _vertices_job(name, h, n_vertices):
    return Job(f"vertices:{name}", lambda: kernel.vertices(h),
               lambda v: checks.vrep_of_hrep(h, v.vertices, n_vertices))


def extension_graph(ext: cx.Extension) -> HPoly:
    """{(x, y) : y in Q, x = p(y)} over coordinates x first, then y."""
    n, d = ext.target_dim, ext.q.dim
    z = (Fraction(0),) * n
    ineqs = [(z + tuple(a), b) for a, b in ext.q.ineqs]
    eqs = [(z + tuple(c), d_) for c, d_ in ext.q.eqs]
    for i, (row, off) in enumerate(zip(ext.proj.matrix, ext.proj.offset)):
        unit = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        eqs.append((unit + tuple(-x for x in row), off))
    return HPoly(n + d, ineqs, eqs)


def with_redundant_rows(h: HPoly, rng, extra: int) -> HPoly:
    """h plus rows implied by it: nonnegative combinations of two rows with
    a loosened right-hand side, shuffled in among the originals."""
    rows = list(h.ineqs)
    for _ in range(extra):
        (a1, b1), (a2, b2) = rng.sample(h.ineqs, 2)
        c1, c2 = rng.randint(1, 3), rng.randint(1, 3)
        rows.append((tuple(c1 * x + c2 * y for x, y in zip(a1, a2)), c1 * b1 + c2 * b2 + rng.randint(0, 2)))
    rng.shuffle(rows)
    return HPoly(h.dim, rows, h.eqs)


def build_describe(rng) -> Workload:
    # Jobs stay under about a second each, so every job is timed several
    # times in a run: hull(M6) (1.5 s) and remove_redundancy on Pi5 (0.9 s)
    # give way to M5, the perfect matchings of K6, and Pi4.
    p5v, st5v = zoo.permutahedron_vrep(5), zoo.spanning_tree_vrep(5)
    jobs = [
        _hull_job("permutahedron(5)", p5v, 2**5 - 2),
        # spanning-tree polytope of K5: 10 nonnegativity rows and x(E(S)) <= |S| - 1 for 2 <= |S| <= 4
        _hull_job("spanning_tree(5)", st5v, 10 + 10 + 10 + 5),
        # matchings of K5: 10 nonnegativity, 5 degree and 10 + 1 odd-set rows
        _hull_job("matching(5)", zoo.matching_vrep(5), 10 + 5 + 10 + 1),
        # perfect matchings of K6: 15 nonnegativity and 10 odd-set rows (S and
        # its complement give the same row for |S| = 3)
        _hull_job("perfect_matching(6)", zoo.matching_vrep(6, 3), 15 + 10),
    ]
    for dim, count in ((4, 20), (5, 18), (6, 16)):
        jobs.append(_hull_job(f"random({dim})", random_points(rng, dim, count)))
    small = random_points(rng, 4, 7)
    jobs += [
        _vertices_job("birkhoff(4)", zoo.birkhoff_hrep(4), 24),
        _vertices_job("permutahedron(5)", zoo.permutahedron_hrep(5), 120),
        _vertices_job("cube(6)", zoo.cube_hrep(6), 64),
    ]
    # The target is hull(small), checked here too: when it is conv(small),
    # the vertices are exactly the points of small that are vertices of it.
    small_h = kernel.hull(small)
    jobs.append(Job("vertices:random(4)", lambda: kernel.vertices(small_h),
                    lambda v: checks.hrep_of_points(small_h, small.vertices)
                    + checks.vrep_of_hrep(small_h, v.vertices, among=small.vertices)))
    # FM at n = 3: at n = 4 the two projections take 4 s and would make
    # this an LP workload (fm_project prunes by LP after every step).
    p3, p4v = zoo.permutahedron_vrep(3), zoo.permutahedron_vrep(4)
    b3 = extension_graph(cx.birkhoff_extension(3))
    bubble3 = cx.sorting_network_extension(3, cx.bubble_network(3)).q
    jobs += [
        Job("fm_project:birkhoff(3)", lambda: kernel.fm_project(b3, range(3)),
            lambda h: checks.hrep_of_points(h, p3.vertices, 2**3 - 2)),
        Job("fm_project:sortnet_bubble(3)", lambda: kernel.fm_project(bubble3, range(3)),
            lambda h: checks.hrep_of_points(h, p3.vertices, 2**3 - 2)),
    ]
    for name, h, v, facets in (("spanning_tree(5)", zoo.spanning_tree_hrep(5), st5v, 35),
                               ("permutahedron(4)", zoo.permutahedron_hrep(4), p4v, 2**4 - 2)):
        loose = with_redundant_rows(h, rng, 3)
        jobs.append(Job(f"remove_redundancy:{name}", lambda loose=loose: kernel.remove_redundancy(loose),
                        lambda out, v=v, facets=facets: checks.hrep_of_points(out, v.vertices, facets)))
    c3 = zoo.cube_hrep(3)
    warm = Job("warmup:vertices(cube(3))", lambda: kernel.vertices(c3),
               lambda v: checks.vrep_of_hrep(c3, v.vertices, 8))
    return Workload(jobs, warm)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

COVER_BUDGET = 20_000
FOOLING_BUDGET = 15_000


def _bounds_job(name, h, v, pinned=None, fooling=None):
    def run():
        return bounds.xc_bounds(h, v, cover_budget=COVER_BUDGET, fooling_budget=FOOLING_BUDGET)

    return Job(f"xc_bounds:{name}", run,
               lambda rep: checks.bound_report(rep, h, v.vertices, pinned, fooling))


def random_01(rng, dim: int, count: int):
    """Of four draws of count distinct 0/1 points (each one a vertex of
    their hull) with a full-dimensional hull, the one whose facet count is
    nearest ten, the first on ties; (points, hull).  Choosing by facet count
    keeps the search work comparable across seeds, and a fixed number of
    hulls keeps the set-up work so too."""
    cube = [tuple((m >> i) & 1 for i in range(dim)) for m in range(1 << dim)]
    best = None
    for _ in range(4):
        pts = sorted(rng.sample(cube, count))
        while checks.affine_rank(pts) != dim:
            pts = sorted(rng.sample(cube, count))
        v = VPoly(dim, pts)
        h = kernel.hull(v)
        if best is None or abs(len(h.ineqs) - 10) < abs(len(best[1].ineqs) - 10):
            best = v, h
    return best


def build_bounds(rng) -> Workload:
    cube5, cube4, b3, p4h = zoo.cube_hrep(5), zoo.cube_hrep(4), zoo.birkhoff_hrep(3), zoo.permutahedron_hrep(4)
    cross4 = zoo.cross_polytope_vrep(4)
    jobs = [
        # Slack supports of 160, 64, 112 and 264 entries, past the 60-entry
        # guard: the maximal rectangles are enumerated and thrown away, which
        # is nearly all of cube(5)'s time.  Birkhoff(3), matching(4) and the
        # random instances stay under the guard.
        _bounds_job("cube(5)", cube5, kernel.vertices(cube5), fooling=10),
        _bounds_job("cube(4)", cube4, kernel.vertices(cube4), fooling=8),
        _bounds_job("cross(4)", kernel.hull(cross4), cross4),
        _bounds_job("permutahedron(4)", p4h, zoo.permutahedron_vrep(4)),
        _bounds_job("birkhoff(3)", b3, kernel.vertices(b3), pinned=(6, 6)),
        _bounds_job("matching(4)", zoo.matching_hrep(4), zoo.matching_vrep(4), pinned=(10, 10)),
        # The fooling search exhausts its budget here (matching(5) does too,
        # but spends a second enumerating rectangles first).
        _bounds_job("spanning_tree(4)", zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)),
    ]
    for i, dim in enumerate((5, 6, 5, 6)):
        v, h = random_01(rng, dim, 8)
        jobs.append(_bounds_job(f"random01({dim})#{i}", h, v))
    c2 = zoo.cube_hrep(2)
    warm = _bounds_job("warmup:cube(2)", c2, kernel.vertices(c2), fooling=4)
    return Workload(jobs, warm)


def bounds_outcome(rep) -> tuple[int, Fraction]:
    """(searches that ended on their budget, upper - lower) for one report."""
    exhausted = 0 if rep.bounds["fooling_set"][1] else 1
    if "rectangle_cover" not in rep.bounds and "rectangle_cover_greedy" not in rep.bounds:
        exhausted += 1
    return exhausted, rep.upper - rep.lower


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------

def _factorize_job(name, workdir, ext, h, v):
    stem = os.path.join(workdir, name)
    paths = {k: f"{stem}.{k}" for k in ("ext", "hpoly", "vpoly", "t", "s")}
    for key, text in (("ext", fileio.serialize_extension(ext)), ("hpoly", fileio.serialize_hpoly(h)),
                      ("vpoly", fileio.serialize_vpoly(v))):
        with open(paths[key], "w") as fh:
            fh.write(text)
    argv = ["factorize", paths["ext"], paths["hpoly"], paths["vpoly"],
            "--t-out", paths["t"], "--s-out", paths["s"], "--json"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}"]
        res = json.loads(stdout)["results"]
        with open(paths["t"]) as fh:
            t = checks.parse_matrix_file(fh.read())
        with open(paths["s"]) as fh:
            s = checks.parse_matrix_file(fh.read())
        problems = checks.factorization(t, s, h, v.vertices, len(ext.q.ineqs))
        if res["inner_dim"] != len(ext.q.ineqs) or res["verified"] is not True:
            problems.append(f"report says inner_dim {res['inner_dim']}, verified {res['verified']}")
        return problems

    return Job(f"factorize:{name}", run, check)


def build_factorize(rng, workdir) -> Workload:
    w, cap = knapsack_instance(rng, (2, 3, 5, 6), 10)
    kv = zoo.knapsack_vrep(w, cap)
    jobs = [
        _factorize_job("birkhoff(4)", workdir, cx.birkhoff_extension(4),
                       zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)),
        _factorize_job("martin(4)", workdir, cx.martin_spanning_tree_extension(4),
                       zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)),
        _factorize_job("knapsack_flow(4)", workdir, permute_extension(cx.knapsack_flow_extension(w, cap), rng),
                       permute_rows(kernel.hull(kv), rng), kv),
    ]
    warm = _factorize_job("warmup-birkhoff(2)", workdir, cx.birkhoff_extension(2),
                          zoo.permutahedron_hrep(2), zoo.permutahedron_vrep(2))
    return Workload(jobs, warm)


def build(name: str, seed: int, workdir: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "verify":
        return build_verify(rng)
    if name == "describe":
        return build_describe(rng)
    if name == "bounds":
        return build_bounds(rng)
    if name == "factorize":
        return build_factorize(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
