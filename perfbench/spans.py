"""Outside-in tracing of polylift's public layer boundaries.

install() wraps each public function listed in BOUNDARIES and rebinds every
name that refers to the same function object in every loaded polylift
module, because callers import names directly (`from .kernel import
optimize`).  Each wrapped call records a span (name, start, end, parent,
job); spans stay in memory until the run writes them out.  Pivot counts
come from the only two private hooks, simplex._pivot and
simplex._run_phase, since no public boundary exposes pivots; when those
names are gone the pivot counts are reported absent.

Self time of a span is its duration minus the time its direct child spans
cover.  A layer's self time sums that over the layer's spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LINALG = ("solve", "rref", "nullspace", "rank", "inverse", "left_inverse", "independent_rows")
ZOO = (
    "matching_vrep", "matching_hrep", "permutahedron_vrep", "permutahedron_hrep",
    "birkhoff_hrep", "spanning_tree_vrep", "spanning_tree_hrep", "knapsack_vrep",
    "cube_hrep", "cross_polytope_vrep", "simplex_hrep",
)
FILEIO = (
    "parse_hpoly", "parse_vpoly", "parse_extension", "parse_matrix",
    "serialize_hpoly", "serialize_vpoly", "serialize_extension", "serialize_matrix",
)

# (module, function, layer).  dot/vec are left unwrapped on purpose: they
# run millions of times and wrapping them would distort every timing.
BOUNDARIES = (
    [("simplex", "solve_standard", "simplex")]
    + [("kernel", f, "kernel.lp") for f in ("optimize", "lp_solve", "feasible_point", "lex_min_point")]
    + [("kernel", "vertices", "kernel.dd"), ("kernel", "hull", "kernel.dd")]
    + [("kernel", "fm_project", "kernel.fm"), ("kernel", "remove_redundancy", "kernel.redundancy")]
    + [("linalg", f, "linalg") for f in LINALG]
    + [("constructions", "verify_extension", "constructions.verify")]
    + [("slack", f, "slack") for f in ("slack_matrix", "is_binding", "extension_to_factorization",
                                      "verify_factorization")]
    + [("bounds", "fooling_set_max", "bounds.fooling"), ("bounds", "rectangle_cover_min", "bounds.cover"),
       ("bounds", "face_lattice", "bounds.lattice"), ("bounds", "rank_bound", "bounds.rank"),
       ("bounds", "xc_bounds", "bounds.xc")]
    + [("fileio", f, "fileio") for f in FILEIO]
    + [("cli", "main", "cli")]
    + [("zoo", f, "zoo") for f in ZOO]
)

TOP_LAYERS = ("simplex", "kernel", "linalg", "constructions", "slack", "bounds", "fileio", "cli", "zoo")
SELF_LAYERS = (
    "simplex", "kernel.lp", "kernel.dd", "kernel.fm", "kernel.redundancy", "linalg",
    "constructions.verify", "slack", "bounds.fooling", "bounds.cover", "bounds.lattice",
    "bounds.rank", "bounds.xc", "fileio", "cli", "zoo",
)
CALL_LAYERS = ("simplex", "kernel.lp", "kernel.dd", "kernel.fm", "kernel.redundancy", "linalg", "slack")
JOB = "job"


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.phase = 0
        self.pivot_hooks = False
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------
    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def run_job(self, job_id: str, fn):
        """Run fn under a root span of layer "job" tagged with job_id."""
        self.job = job_id
        idx = self.open(JOB, job_id)
        try:
            return fn()
        finally:
            self.close(idx)
            self.job = None

    # -- installation --------------------------------------------------
    def install(self) -> None:
        from polylift import bounds, cli, constructions, fileio, kernel, linalg, simplex, slack, zoo

        mods = {"simplex": simplex, "kernel": kernel, "linalg": linalg, "constructions": constructions,
                "slack": slack, "bounds": bounds, "fileio": fileio, "cli": cli, "zoo": zoo}
        for modname, fname, layer in BOUNDARIES:
            orig = getattr(mods[modname], fname)
            self._rebind(orig, self._span_wrapper(orig, layer, f"{modname}.{fname}"))
        pivot = getattr(simplex, "_pivot", None)
        run_phase = getattr(simplex, "_run_phase", None)
        if callable(pivot) and callable(run_phase):
            self.pivot_hooks = True
            self._rebind(pivot, self._pivot_wrapper(pivot))
            self._rebind(run_phase, self._phase_wrapper(run_phase))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _rebind(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "polylift" or modname.startswith("polylift.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def _span_wrapper(self, orig, layer, name):
        tracer = self
        top = layer.split(".")[0]
        after = _AFTER.get(layer)

        def wrapped(*args, **kwargs):
            saved_phase = tracer.phase
            if layer == "simplex":
                tracer.phase = 0
            idx = tracer.open(layer, name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.errors[top] += 1
                raise
            finally:
                tracer.close(idx)
                tracer.phase = saved_phase
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapped

    def _phase_wrapper(self, orig):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.phase += 1
            return orig(*args, **kwargs)

        return wrapped

    def _pivot_wrapper(self, orig):
        tracer = self
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts["pivots"] += 1
            if tracer.phase <= 1:  # phase 1, including driving artificials out
                counts["phase1_pivots"] += 1
            return orig(*args, **kwargs)

        return wrapped

    def span_cost(self, calls: int = 20000) -> float:
        """CPU seconds one span adds to a call: a no-op function wrapped the
        way install() wraps the layer boundaries, against the bare no-op."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe._span_wrapper(noop, "probe", "probe")
        c = time.process_time()
        for _ in range(calls):
            noop()
        bare = time.process_time() - c
        c = time.process_time()
        for _ in range(calls):
            wrapped()
        return max(0.0, (time.process_time() - c - bare) / calls)

    # -- results -------------------------------------------------------
    def self_times(self, jobs=None) -> dict[str, float]:
        """Self time per layer over the spans whose job is in jobs (all when None)."""
        child = [0.0] * len(self.spans)
        for layer, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, _name, start, end, _parent, job) in enumerate(self.spans):
            if jobs is None or job in jobs:
                out[layer] += end - start - child[i]
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def layer_metrics(self) -> dict[str, tuple]:
        """Per-layer metrics over every span of the run: name -> (value, unit)."""
        selfs = self.self_times()
        calls = self.call_counts()
        c = self.counts
        m: dict[str, tuple] = {}
        for layer in CALL_LAYERS:
            m[f"{layer}.calls" if layer != "simplex" else "simplex.solves"] = (calls[layer], "count")
        if self.pivot_hooks:
            m["simplex.pivots"] = (c["pivots"], "count")
            m["simplex.phase1_pivots"] = (c["phase1_pivots"], "count")
            m["simplex.phase1_share"] = (_ratio(c["phase1_pivots"], c["pivots"]), "ratio")
        for layer in SELF_LAYERS:
            m[f"{layer}.self_s"] = (selfs[layer], "s")
        m["kernel.dd.out"] = (c["dd_out"], "count")
        m["kernel.fm.rows_out"] = (c["fm_rows_out"], "count")
        m["kernel.redundancy.kept_ratio"] = (_ratio(c["rr_kept"], c["rr_in"]), "ratio")
        m["constructions.lift_hit_ratio"] = (_ratio(c["lift_hits"], c["checked_vertices"]), "ratio")
        m["bounds.fooling.nodes"] = (c["fooling_nodes"], "count")
        m["bounds.cover.nodes"] = (c["cover_nodes"], "count")
        m["bounds.cover.exact_ratio"] = (_ratio(c["cover_searched"], calls["bounds.cover"]), "ratio")
        m["bounds.lattice.faces"] = (c["lattice_faces"], "count")
        m["fileio.bytes"] = (c["fileio_bytes"], "count")
        for top in TOP_LAYERS:
            m[f"{top}.errors"] = (self.errors[top], "count")
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for layer, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"layer": layer, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _dd_out(counts, args, result):
    counts["dd_out"] += len(result.vertices) if hasattr(result, "vertices") else len(result.ineqs)


def _fm_out(counts, args, result):
    counts["fm_rows_out"] += len(result.ineqs) + len(result.eqs)


def _redundancy(counts, args, result):
    counts["rr_in"] += len(args[0].ineqs)
    counts["rr_kept"] += len(result.ineqs)


def _verify(counts, args, result):
    counts["lift_hits"] += result.lift_hits
    counts["checked_vertices"] += result.checked_vertices


def _fooling(counts, args, result):
    counts["fooling_nodes"] += result.nodes


def _cover(counts, args, result):
    counts["cover_nodes"] += result.nodes
    # branch and bound ran unless the support guard sent it to the greedy cover
    counts["cover_searched"] += result.status != "greedy"


def _lattice(counts, args, result):
    counts["lattice_faces"] += len(result.faces)


def _fileio(counts, args, result):
    text = result if isinstance(result, str) else args[0]
    counts["fileio_bytes"] += len(text.encode())


_AFTER = {
    "kernel.dd": _dd_out,
    "kernel.fm": _fm_out,
    "kernel.redundancy": _redundancy,
    "constructions.verify": _verify,
    "bounds.fooling": _fooling,
    "bounds.cover": _cover,
    "bounds.lattice": _lattice,
    "fileio": _fileio,
}
