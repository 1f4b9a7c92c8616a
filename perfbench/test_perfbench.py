"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check that the counts a traced run reports repeat exactly for a fixed
seed, that the independent checks reject wrong outputs, that the clock
samples its reference during long work, that the tracer rebinds by
identity and survives missing pivot hooks, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.load_program()

import checks  # noqa: E402
import clock  # noqa: E402
import workloads  # noqa: E402
from polylift import constructions, kernel, simplex, zoo  # noqa: E402
from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402

COUNTS = (
    "simplex.solves", "simplex.pivots", "simplex.phase1_pivots", "bounds.fooling.nodes",
    "bounds.cover.nodes", "kernel.dd.out", "kernel.fm.rows_out",
)


def _counts(name, seed, workdir):
    tally = run.Tally()
    tracer, _wl, _ = run.traced_pass(name, seed, str(workdir), tally)
    metrics = tracer.layer_metrics()
    assert tally.failed == 0, tally.problems
    return {k: metrics[k][0] for k in COUNTS}, (tally.budget_exhausted, tally.bound_gap)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_for_a_fixed_seed(name, tmp_path):
    first = _counts(name, 5, tmp_path)
    second = _counts(name, 5, tmp_path)
    assert first == second
    assert first[0]["simplex.solves"] > 0


def test_bounds_workload_exhausts_a_budget(tmp_path):
    counts, (exhausted, gap) = _counts("bounds", 5, tmp_path)
    assert exhausted >= 1 and gap > 0 and counts["bounds.fooling.nodes"] > 0


def test_inputs_follow_the_seed(tmp_path):
    def knapsacks(seed):
        wl = workloads.build("factorize", seed, str(tmp_path))
        return (tmp_path / "knapsack_flow(4).ext").read_text(), len(wl.jobs)

    assert knapsacks(1) == knapsacks(1)
    assert any(knapsacks(1) != knapsacks(s) for s in (2, 3, 4))


def test_hull_check_rejects_wrong_descriptions():
    pts = zoo.permutahedron_vrep(3).vertices
    good = kernel.hull(zoo.permutahedron_vrep(3))
    assert checks.hrep_of_points(good, pts, 6) == []
    missing = kernel.HPoly(good.dim, good.ineqs[1:], good.eqs)
    assert checks.hrep_of_points(missing, pts, 6)
    assert checks.hrep_of_points(missing, pts) == ["a facet is missing"]
    loose = kernel.HPoly(good.dim, good.ineqs[:-1] + ((good.ineqs[-1][0], good.ineqs[-1][1] + 1),), good.eqs)
    assert checks.hrep_of_points(loose, pts)
    cut = kernel.HPoly(good.dim, good.ineqs[:-1] + ((good.ineqs[-1][0], good.ineqs[-1][1] - 1),), good.eqs)
    assert checks.hrep_of_points(cut, pts)


def test_completeness_check_finds_each_missing_facet():
    rng = random.Random(0)
    pts = workloads.random_points(rng, 4, 12)
    good = kernel.hull(pts)
    assert checks.hrep_of_points(good, pts.vertices) == []
    for i in range(len(good.ineqs)):
        missing = kernel.HPoly(good.dim, good.ineqs[:i] + good.ineqs[i + 1:], good.eqs)
        assert checks.hrep_of_points(missing, pts.vertices) == ["a facet is missing"]


def test_vertex_check_rejects_a_missing_vertex():
    pts = workloads.random_points(random.Random(0), 3, 9)
    h = kernel.hull(pts)
    verts = kernel.vertices(h).vertices
    assert checks.vrep_of_hrep(h, verts, among=pts.vertices) == []
    assert checks.vrep_of_hrep(h, verts[1:], among=pts.vertices)


def test_vertex_check_rejects_non_vertices():
    cube = zoo.cube_hrep(3)
    verts = kernel.vertices(cube).vertices
    assert checks.vrep_of_hrep(cube, verts, 8) == []
    half = (Fraction(1, 2),) + verts[0][1:]
    assert checks.vrep_of_hrep(cube, verts[1:] + (half,), 8)


def test_verify_check_rejects_a_false_witness():
    target_h, target_v = zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)
    ext = constructions.birkhoff_extension(3)
    rep = constructions.verify_extension(target_h, ext, target_vrep=target_v)
    assert checks.verify_report(rep, ext, target_h, target_v, True) == []
    assert checks.verify_report(rep, ext, target_h, target_v, False)
    label = target_h.ineq_labels[0]
    rep.passed = False
    rep.row_failures.append((label, Fraction(0), target_h.ineqs[0][1], target_v.vertices[0]))
    assert any("does not violate" in p for p in checks.verify_report(rep, ext, target_h, target_v, False))


def test_factorization_check_rejects_a_wrong_product():
    h, v = zoo.cube_hrep(2), kernel.vertices(zoo.cube_hrep(2))
    phi = checks.slack_entries(h, v.vertices)
    ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert checks.factorization(ident, phi, h, v.vertices, 4) == []
    wrong = [row[:] for row in phi]
    wrong[0][0] += 1
    assert checks.factorization(ident, wrong, h, v.vertices, 4)


def test_clock_samples_the_reference_during_long_work():
    clk = Clock()
    before = signal.getsignal(signal.SIGALRM)

    def work():
        end = time.process_time() + 3 * clock.SAMPLE_S
        while time.process_time() < end:
            pass
        return "done"

    result, cpu, scaled, wall = clk.run(work)
    assert result == "done" and len(clk._samples) >= 2
    assert 0 < cpu < 3 * clock.SAMPLE_S <= wall and scaled > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_tracer_rebinds_every_name_and_restores_them():
    orig = kernel.optimize
    assert constructions.optimize is orig
    tracer = Tracer()
    tracer.install()
    try:
        assert kernel.optimize is not orig and constructions.optimize is kernel.optimize
        kernel.feasible_point(zoo.cube_hrep(2))
    finally:
        tracer.uninstall()
    assert kernel.optimize is orig and constructions.optimize is orig
    layers = {span[0] for span in tracer.spans}
    assert {"kernel.lp", "simplex"} <= layers
    assert tracer.layer_metrics()["simplex.solves"][0] == 1


def test_tracer_reports_pivots_absent_without_hooks(monkeypatch):
    monkeypatch.delattr(simplex, "_pivot")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert not tracer.pivot_hooks
    assert "simplex.pivots" not in metrics and "simplex.solves" in metrics


def test_refuses_to_run_without_sources(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (root / "BENCHMARK.json").exists():
        shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
