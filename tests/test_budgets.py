"""Budget behavior: exhausted searches report themselves and never lie."""

import json

import pytest

from polylift import bounds as bd
from polylift import zoo
from polylift.cli import main
from polylift.errors import InputError
from polylift.kernel import vertices
from polylift.slack import slack_matrix


def test_cover_budget_exhaustion_is_explicit():
    h = zoo.permutahedron_hrep(3)
    sm = slack_matrix(h, zoo.permutahedron_vrep(3))
    res = bd.rectangle_cover_min(sm, budget=2)
    assert res.status == bd.EXCEEDS_BUDGET
    assert res.size is None and res.cover is None


def test_fooling_budget_degrades_to_valid_set():
    h = zoo.cube_hrep(3)
    v = vertices(h)
    sm = slack_matrix(h, v)
    res = bd.fooling_set_max(sm, budget=1)
    assert res.status == bd.GREEDY
    # still a genuine fooling set, hence a valid lower bound
    ents = res.fooling.entries
    for a in range(len(ents)):
        for b in range(a + 1, len(ents)):
            i, j = ents[a]
            i2, j2 = ents[b]
            assert sm.entries[i][j2] == 0 or sm.entries[i2][j] == 0


def test_greedy_cover_not_used_as_lower_bound():
    # with a tiny budget the exact cover is unavailable; xc_bounds must fall
    # back to the other bounds, never to a non-exact cover size
    h = zoo.permutahedron_hrep(3)
    v = zoo.permutahedron_vrep(3)
    rep = bd.xc_bounds(h, v, cover_budget=2)
    assert "rectangle_cover" not in rep.bounds
    assert rep.lower <= rep.upper


def test_cli_bounds_exact_budget_exit3(tmp_path, capsys):
    h = tmp_path / "pi3.hpoly"
    v = tmp_path / "pi3.vpoly"
    main(["zoo", "permutahedron", "3", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    assert main(["bounds", str(h), str(v), "--exact", "--cover-budget", "2"]) == 3
    assert "budget" in capsys.readouterr().err
    assert main(["bounds", str(h), str(v), "--exact"]) == 0


def test_cli_bounds_exact_names_the_support_limit(tmp_path, capsys):
    # cube(4)'s slack support has 64 entries, past EXACT_SUPPORT_LIMIT: the
    # greedy cover is taken at once, so --exact names that limit, not the
    # node budget no search used
    h = tmp_path / "c4.hpoly"
    v = tmp_path / "c4.vpoly"
    main(["zoo", "cube", "4", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    c4 = zoo.cube_hrep(4)
    assert len(slack_matrix(c4, vertices(c4)).support()) == 64 > bd.EXACT_SUPPORT_LIMIT
    assert main(["bounds", str(h), str(v), "--exact"]) == 3
    err = capsys.readouterr().err
    assert f"more than {bd.EXACT_SUPPORT_LIMIT} entries" in err and "no cover node was searched" in err
    assert "nodes" not in err
    assert main(["bounds", str(h), str(v)]) == 0
    # --exact's help names both ways to exit 3
    capsys.readouterr()
    assert main(["bounds", "--help"]) == 0
    helptext = " ".join(capsys.readouterr().out.split())
    assert "exit 3 if the budget is exhausted" in helptext
    assert f"no cover node is searched, the support having more than {bd.EXACT_SUPPORT_LIMIT} entries" in helptext


def test_cli_bounds_labels_cut_off_fooling_set_valid(tmp_path, capsys, monkeypatch):
    # a fooling set cut off by its budget is still a valid lower bound; only
    # the greedy rectangle cover is not
    h = tmp_path / "c3.hpoly"
    v = tmp_path / "c3.vpoly"
    main(["zoo", "cube", "3", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    full = bd.fooling_set_max
    monkeypatch.setattr(bd, "fooling_set_max", lambda sm, budget=0: full(sm, budget=1))
    assert main(["bounds", str(h), str(v)]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [l for l in lines if l.strip().startswith("fooling_set:")]
    assert "not a valid lower bound" not in line
    assert "valid lower bound" in line and "budget" in line


def test_cli_construct_colorful_deterministic(capsys):
    assert main(["construct", "colorful", "6", "--k", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["construct", "colorful", "6", "--k", "2", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["provenance"]["seed"] == 2024


def test_negative_budgets_are_input_errors():
    sm = slack_matrix(zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3))
    for search in (bd.rectangle_cover_min, bd.fooling_set_max):
        with pytest.raises(InputError, match="nonnegative"):
            search(sm, budget=-1)
    with pytest.raises(InputError):
        bd.xc_bounds(zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3), cover_budget=-5)
    # a budget of 0 is still a budget: both searches stop at their first node
    assert bd.rectangle_cover_min(sm, budget=0).status == bd.EXCEEDS_BUDGET
    assert bd.fooling_set_max(sm, budget=0).status == bd.GREEDY


@pytest.mark.parametrize("extra", [[], ["--exact"]])
def test_cli_bounds_negative_cover_budget_exit2(tmp_path, capsys, extra):
    h = tmp_path / "pi3.hpoly"
    v = tmp_path / "pi3.vpoly"
    main(["zoo", "permutahedron", "3", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    assert main(["bounds", str(h), str(v), "--cover-budget", "-5", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "search budget must be nonnegative, got -5" in captured.err
