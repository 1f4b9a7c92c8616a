"""Pinned deterministic work counters: a regression in LP solves or pivots
fails here loudly, whatever the machine's speed."""

from polylift import constructions as cx
from polylift import simplex, zoo


def test_verify_martin4_solves_and_pivots(monkeypatch):
    counts = {"solves": 0, "pivots": 0}
    pivot, solve = simplex._pivot, simplex.solve_standard

    def counted_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex, "solve_standard", counted_solve)
    rep = cx.verify_extension(
        zoo.spanning_tree_hrep(4),
        cx.martin_spanning_tree_extension(4),
        target_vrep=zoo.spanning_tree_vrep(4),
    )
    assert rep.passed and rep.lift_hits == rep.checked_vertices
    # one simplex call per Q: phase 1 once, one phase 2 per target row
    assert counts == {"solves": 1, "pivots": 85}
