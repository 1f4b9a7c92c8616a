"""Command-line front end: zoo generation, construction, verification,
bounds, and slack/factorization pipelines over the bit-exact file formats.

Exit codes: 0 success / verified, 1 verified-false, 2 input error,
3 budget exceeded.  Reports are deterministic: identical invocations produce
byte-identical output (all searches break ties by lowest index, randomized
parts are seeded, and JSON keys are sorted).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, bounds, constructions as cx, fileio, slack as sl, zoo
from .errors import BudgetExceededError, InputError, PolyliftError
from .kernel import hull, vertices

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def _report(command: str, inputs: dict, results: dict, seed=None) -> dict:
    return {
        "schema": 1,
        "command": command,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "provenance": {"tool": "polylift", "version": __version__, "seed": seed},
    }


def _emit(doc: dict, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _cmd_zoo(args) -> int:
    fam = args.family
    results = {}
    hpoly = None
    vpoly = None
    if fam == "matching":
        vpoly = zoo.matching_vrep(args.n, args.cardinality)
        if args.cardinality is None:  # matching_hrep describes all matchings
            hpoly = zoo.matching_hrep(args.n)
    elif fam == "permutahedron":
        hpoly = zoo.permutahedron_hrep(args.n)
        if args.vrep:
            vpoly = zoo.permutahedron_vrep(args.n)
    elif fam == "birkhoff":
        hpoly = zoo.birkhoff_hrep(args.n)
        if args.vrep:
            vpoly = vertices(hpoly)
    elif fam == "spanning-tree":
        hpoly = zoo.spanning_tree_hrep(args.n)
        if args.vrep:
            vpoly = zoo.spanning_tree_vrep(args.n)
    elif fam == "knapsack":
        if args.w is None or args.W is None:
            raise InputError("knapsack needs --w and --W")
        vpoly = zoo.knapsack_vrep(args.w, args.W)
        if args.hrep:
            hpoly = hull(vpoly)
    elif fam == "cube":
        hpoly = zoo.cube_hrep(args.n)
        if args.vrep:
            vpoly = vertices(hpoly)
    elif fam == "cross":
        vpoly = zoo.cross_polytope_vrep(args.n)
        if args.hrep:
            hpoly = hull(vpoly)
    elif fam == "simplex":
        hpoly = zoo.simplex_hrep(args.n)
        if args.vrep:
            vpoly = vertices(hpoly)
    else:
        raise InputError(f"unknown family {fam!r}")

    lines = []
    if args.hrep:
        if hpoly is None:
            raise InputError(f"family {fam!r} has no direct H-representation")
        _write(args.hrep, fileio.serialize_hpoly(hpoly))
        results["hrep"] = {"path": args.hrep, "ineqs": len(hpoly.ineqs), "eqs": len(hpoly.eqs)}
        lines.append(f"wrote {args.hrep}: {len(hpoly.ineqs)} inequalities, {len(hpoly.eqs)} equations")
    if args.vrep:
        if vpoly is None:
            raise InputError(f"family {fam!r} has no direct V-representation")
        _write(args.vrep, fileio.serialize_vpoly(vpoly))
        results["vrep"] = {"path": args.vrep, "points": len(vpoly.vertices)}
        lines.append(f"wrote {args.vrep}: {len(vpoly.vertices)} points")
    if not args.hrep and not args.vrep:
        if hpoly is not None:
            results["ineqs"] = len(hpoly.ineqs)
            results["eqs"] = len(hpoly.eqs)
            lines.append(f"{fam}: {len(hpoly.ineqs)} inequalities, {len(hpoly.eqs)} equations")
        if vpoly is not None:
            results["points"] = len(vpoly.vertices)
            lines.append(f"{fam}: {len(vpoly.vertices)} points")
    inputs = {"family": fam, "n": getattr(args, "n", None), "w": args.w, "W": args.W,
              "cardinality": args.cardinality}
    _emit(_report("zoo", inputs, results), args.json, lines)
    return EXIT_OK


def _cmd_construct(args) -> int:
    kind = args.kind
    seed = None
    if kind == "birkhoff":
        ext = cx.birkhoff_extension(args.n)
    elif kind == "martin":
        ext = cx.martin_spanning_tree_extension(args.n)
    elif kind == "knapsack":
        if args.w is None or args.W is None:
            raise InputError("knapsack needs --w and --W")
        ext = cx.knapsack_flow_extension(args.w, args.W)
    elif kind == "sortnet":
        net = cx.batcher_network(args.n) if args.net == "batcher" else cx.bubble_network(args.n)
        ext = cx.sorting_network_extension(args.n, net)
    elif kind == "colorful":
        if args.k is None:
            raise InputError("colorful needs n and --k")
        seed = args.seed
        ext = cx.colorful_matching_extension(args.n, args.k, seed=args.seed)
    elif kind == "balas":
        if not args.parts:
            raise InputError("balas needs part files")
        parts = [fileio.parse_hpoly(_read(p)) for p in args.parts]
        ext = cx.balas_union(parts)
    else:
        raise InputError(f"unknown construction {kind!r}")
    results = {"name": ext.name, "size": ext.size(), "dim": ext.q.dim,
               "target_dim": ext.target_dim}
    lines = [f"{ext.name}: size {ext.size()} (dim {ext.q.dim} -> {ext.target_dim})"]
    if args.out:
        _write(args.out, fileio.serialize_extension(ext))
        results["path"] = args.out
        lines.append(f"wrote {args.out}")
    inputs = {"kind": kind, "n": getattr(args, "n", None), "k": args.k, "w": args.w,
              "W": args.W, "net": args.net, "parts": args.parts}
    _emit(_report("construct", inputs, results, seed=seed), args.json, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    target = fileio.sniff_poly(_read(args.target))
    ext = fileio.parse_extension(_read(args.extension), name=args.extension)
    if target.dim != ext.target_dim:
        raise InputError(
            f"target dim {target.dim} does not match extension target dim {ext.target_dim}"
        )
    rep = cx.verify_extension(target, ext)
    results = {
        "passed": rep.passed,
        "size": rep.size,
        "checked_vertices": rep.checked_vertices,
        "checked_rows": rep.checked_rows,
        "vertex_failures": [list(map(str, v)) for v in rep.vertex_failures],
        "row_failures": [
            {"row": lab, "value": str(val), "bound": str(bnd),
             "witness": [str(x) for x in (wit or ())]}
            for lab, val, bnd, wit in rep.row_failures
        ],
        "projection_bounded": rep.projection_bounded,
    }
    lines = [f"verify {ext.name}: {'PASS' if rep.passed else 'FAIL'} "
             f"(size {rep.size}, {rep.checked_vertices} vertices, {rep.checked_rows} rows)"]
    for v in rep.vertex_failures:
        lines.append(f"  vertex not covered: ({', '.join(map(str, v))})")
    for lab, val, bnd, wit in rep.row_failures:
        lines.append(f"  row {lab}: reaches {val}, bound {bnd}")
    _emit(_report("verify", {"target": args.target, "extension": args.extension},
                  results), args.json, lines)
    return EXIT_OK if rep.passed else EXIT_FALSE


def _bound_note(name: str, exact: bool) -> str:
    if exact:
        return "exact"
    if name == "rectangle_cover_greedy":
        return "not a valid lower bound"
    # a fooling set cut off by its budget is still a fooling set
    return "valid lower bound, search budget exhausted"


def _cmd_bounds(args) -> int:
    hpoly = fileio.parse_hpoly(_read(args.hpoly))
    vpoly = fileio.parse_vpoly(_read(args.vpoly))
    exts = [fileio.parse_extension(_read(p), name=p) for p in (args.ext or [])]
    rep = bounds.xc_bounds(hpoly, vpoly, exts, cover_budget=args.cover_budget)
    if args.exact and "rectangle_cover" not in rep.bounds:
        raise BudgetExceededError(
            f"exact rectangle cover not reached within {args.cover_budget} nodes"
        )
    results = {
        "lower": rep.lower,
        "upper": rep.upper,
        "active_lower": rep.active_lower,
        "upper_source": rep.upper_source,
        "bounds": {k: {"value": v, "exact": e} for k, (v, e) in rep.bounds.items()},
        "extensions": [
            {"name": n, "size": s, "verified": ok} for n, s, ok in rep.extensions
        ],
        "pinned": rep.pinned(),
    }
    lines = [f"extension complexity in [{rep.lower}, {rep.upper}] "
             f"(lower: {rep.active_lower}, upper: {rep.upper_source})"]
    for k, (v, e) in sorted(rep.bounds.items()):
        lines.append(f"  {k}: {v} ({_bound_note(k, e)})")
    _emit(_report("bounds", {"hpoly": args.hpoly, "vpoly": args.vpoly,
                             "ext": args.ext or []}, results), args.json, lines)
    return EXIT_OK


def _cmd_slack(args) -> int:
    hpoly = fileio.parse_hpoly(_read(args.hpoly))
    vpoly = fileio.parse_vpoly(_read(args.vpoly))
    sm = sl.slack_matrix(hpoly, vpoly)
    _write(args.out, fileio.serialize_matrix(sm.entries, sm.row_provenance, sm.col_provenance))
    results = {"path": args.out, "rows": sm.nrows, "cols": sm.ncols,
               "support": len(sm.support())}
    _emit(_report("slack", {"hpoly": args.hpoly, "vpoly": args.vpoly}, results),
          args.json, [f"wrote {args.out}: {sm.nrows}x{sm.ncols} slack matrix"])
    return EXIT_OK


def _cmd_factorize(args) -> int:
    ext = fileio.parse_extension(_read(args.extension), name=args.extension)
    hpoly = fileio.parse_hpoly(_read(args.hpoly))
    vpoly = fileio.parse_vpoly(_read(args.vpoly))
    # extension_to_factorization raises unless T S equals the slack matrix
    fact = sl.extension_to_factorization(ext, hpoly, vpoly)
    row_labels = [hpoly.row_label(i) for i in range(len(hpoly.ineqs))]
    col_labels = [vpoly.point_label(j) for j in range(len(vpoly.vertices))]
    _write(args.t_out, fileio.serialize_matrix(fact.t, row_labels))
    _write(args.s_out, fileio.serialize_matrix(fact.s, col_labels=col_labels))
    results = {"t": args.t_out, "s": args.s_out, "inner_dim": fact.inner_dim,
               "verified": True}
    _emit(_report("factorize", {"extension": args.extension, "hpoly": args.hpoly,
                                "vpoly": args.vpoly}, results), args.json,
          [f"wrote {args.t_out} ({len(fact.t)}x{fact.inner_dim}) and "
           f"{args.s_out} ({fact.inner_dim}x{len(col_labels)}); verify_factorization: True"])
    return EXIT_OK


def _int_list(text: str):
    return [int(t) for t in text.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polylift",
                                description="exact extended-formulation toolkit")
    p.add_argument("--version", action="version", version=f"polylift {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    z = sub.add_parser("zoo", help="generate a polytope family")
    z.add_argument("family", choices=["matching", "permutahedron", "birkhoff",
                                      "spanning-tree", "knapsack", "cube", "cross",
                                      "simplex"])
    z.add_argument("n", type=int, nargs="?", default=0)
    z.add_argument("--w", type=_int_list, default=None, help="knapsack weights, comma separated")
    z.add_argument("--W", type=int, default=None, help="knapsack capacity")
    z.add_argument("--cardinality", type=int, default=None, help="matching cardinality")
    z.add_argument("--hrep", metavar="FILE", default=None)
    z.add_argument("--vrep", metavar="FILE", default=None)
    z.add_argument("--json", action="store_true")
    z.set_defaults(func=_cmd_zoo)

    c = sub.add_parser("construct", help="build an extended formulation")
    c.add_argument("kind", choices=["birkhoff", "martin", "balas", "knapsack",
                                    "sortnet", "colorful"])
    c.add_argument("n", type=int, nargs="?", default=0)
    c.add_argument("parts", nargs="*", default=[], help="part .hpoly files (balas)")
    c.add_argument("--k", type=int, default=None, help="matching cardinality (colorful)")
    c.add_argument("--w", type=_int_list, default=None)
    c.add_argument("--W", type=int, default=None)
    c.add_argument("--net", choices=["bubble", "batcher"], default="bubble")
    c.add_argument("--seed", type=int, default=2024)
    c.add_argument("--out", metavar="FILE", default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="certify P = p(Q) for an extension file")
    v.add_argument("target", help=".hpoly or .vpoly file")
    v.add_argument("extension", help=".ext file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bounds", help="extension-complexity sandwich report")
    b.add_argument("hpoly")
    b.add_argument("vpoly")
    b.add_argument("--ext", action="append", default=None, metavar="FILE")
    b.add_argument("--cover-budget", type=int, default=200_000,
                   help="node budget for the exact rectangle-cover search")
    b.add_argument("--exact", action="store_true",
                   help="demand an exact cover; exit 3 if the budget is exhausted")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("slack", help="write the slack matrix of (hpoly, vpoly)")
    s.add_argument("hpoly")
    s.add_argument("vpoly")
    s.add_argument("--out", required=True, metavar="FILE")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_slack)

    f = sub.add_parser("factorize", help="extension -> nonnegative factorization")
    f.add_argument("extension")
    f.add_argument("hpoly")
    f.add_argument("vpoly")
    f.add_argument("--t-out", required=True, metavar="FILE")
    f.add_argument("--s-out", required=True, metavar="FILE")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=_cmd_factorize)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses exit code 2 for usage errors, matching our convention
        return int(e.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (PolyliftError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
