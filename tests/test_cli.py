import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import constructions as cx
from polylift import fileio, zoo
from polylift.cli import main
from polylift.kernel import HPoly, VPoly, vertices

F = Fraction


def test_hpoly_roundtrip():
    p = zoo.permutahedron_hrep(3)
    text = fileio.serialize_hpoly(p)
    q = fileio.parse_hpoly(text)
    assert q.dim == p.dim and q.ineqs == p.ineqs and q.eqs == p.eqs
    assert fileio.serialize_hpoly(q) == text


def test_vpoly_roundtrip():
    v = zoo.matching_vrep(4)
    text = fileio.serialize_vpoly(v)
    w = fileio.parse_vpoly(text)
    assert w.dim == v.dim and w.vertices == v.vertices
    assert fileio.serialize_vpoly(w) == text


def test_rational_entries_roundtrip():
    p = HPoly(2, [([F(1, 3), F(-7, 2)], F(22, 7))], [([F(0), F(5)], F(-1, 9))])
    q = fileio.parse_hpoly(fileio.serialize_hpoly(p))
    assert q.ineqs == p.ineqs and q.eqs == p.eqs


def test_extension_roundtrip():
    ext = cx.birkhoff_extension(2)
    text = fileio.serialize_extension(ext)
    back = fileio.parse_extension(text)
    assert back.q.ineqs == ext.q.ineqs
    assert back.q.eqs == ext.q.eqs
    assert back.proj.matrix == ext.proj.matrix
    assert back.proj.offset == ext.proj.offset
    assert fileio.serialize_extension(back) == text


def test_matrix_roundtrip():
    m = [[F(1, 2), F(0)], [F(3), F(-4, 5)]]
    text = fileio.serialize_matrix(m, ["a", "b"], ["c", "d"])
    back = fileio.parse_matrix(text)
    assert back == fileio.linalg.mat(m)


def test_comments_are_ignored():
    text = "# hello\nHPOLY 1 1 0\n# row follows\n1 <= 2\n"
    p = fileio.parse_hpoly(text)
    assert p.ineqs == ((  (F(1),), F(2)),)


def test_parse_errors():
    with pytest.raises(fileio.ParseError):
        fileio.parse_hpoly("HPOLY 2 1 0\n1 <= 2\n")  # wrong arity
    with pytest.raises(fileio.ParseError):
        fileio.parse_vpoly("VPOLY 1 2\n0\n")  # missing point
    with pytest.raises(fileio.ParseError):
        fileio.parse_hpoly("HPOLY 1 1 0\nx <= 2\n")  # bad rational


EXT_TAIL = "HPOLY 1 0 0\nPROJ\n1 0\n"


@pytest.mark.parametrize("bad", ["two", "2.0", "-1"])
@pytest.mark.parametrize("parse, template, line", [
    (fileio.parse_hpoly, "HPOLY {} 0 0\n", 1),
    (fileio.parse_hpoly, "HPOLY 1 {} 0\n", 1),
    (fileio.parse_hpoly, "# comment\nHPOLY 1 0 {}\n", 2),
    (fileio.parse_vpoly, "VPOLY {} 0\n", 1),
    (fileio.parse_vpoly, "VPOLY 2 {}\n", 1),
    (fileio.parse_extension, "EXT {} 1\n" + EXT_TAIL, 1),
    (fileio.parse_extension, "EXT 1 {}\n" + EXT_TAIL, 1),
    (fileio.parse_extension, "EXT 1 1\nHPOLY 1 {} 0\nPROJ\n1 0\n", 2),
    (fileio.parse_matrix, "MATRIX {} 3\n", 1),
    (fileio.parse_matrix, "MATRIX 0 {}\n", 1),
])
def test_header_counts_must_be_nonnegative_integers(parse, template, line, bad):
    with pytest.raises(fileio.ParseError) as info:
        parse(template.format(bad))
    assert info.value.line == line


@pytest.mark.parametrize("header", ["HPOLY two 1 0", "HPOLY 2.0 1 0", "HPOLY -1 0 0"])
def test_cli_bad_header_count_exit2(tmp_path, capsys, header):
    bad = tmp_path / "bad.hpoly"
    bad.write_text(header + "\n1 <= 1\n")
    efile = tmp_path / "b1.ext"
    main(["construct", "birkhoff", "1", "--out", str(efile)])
    capsys.readouterr()
    assert main(["verify", str(bad), str(efile)]) == 2
    assert "line 1" in capsys.readouterr().err


NON_CANONICAL = ["1_0", "1e3", "2.5", "+3", "2/4", "\u0663", "-0", "07", "3/1", "1/0", "1/-2"]


@pytest.mark.parametrize("bad", NON_CANONICAL)
@pytest.mark.parametrize("parse, template, line", [
    (fileio.parse_hpoly, "HPOLY 1 1 0\n# row\n1 <= {}\n", 3),
    (fileio.parse_hpoly, "HPOLY 2 0 1\n1 {} = 0\n", 2),
    (fileio.parse_vpoly, "VPOLY 2 1\n0 {}\n", 2),
    (fileio.parse_extension, "EXT 1 1\nHPOLY 1 0 0\nPROJ\n{} 0\n", 4),
    (fileio.parse_matrix, "MATRIX 1 2\n1 {}\n", 2),
])
def test_entries_must_be_canonical_rationals(parse, template, line, bad):
    with pytest.raises(fileio.ParseError) as info:
        parse(template.format(bad))
    assert info.value.line == line


def _parse_frac_reference(tok, lineno):
    """The entry parser before the digit groups were read directly: Fraction
    parses the token again, and its str must give the token back."""
    try:
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", tok) and str(x := Fraction(tok)) == tok:
            return x
    except (ValueError, ZeroDivisionError):
        pass
    raise fileio.ParseError(f"bad rational {tok!r}, expected a canonical rational such as 3 or -1/2", lineno)


def _parse_outcome(parse, tok):
    try:
        x = parse(tok, 7)
    except fileio.ParseError as e:
        return "error", str(e), e.line
    return type(x), x


@settings(deadline=None, derandomize=True, max_examples=500)
@given(st.one_of(
    st.text(alphabet="0123456789-/+e._ \u0663", max_size=8),
    st.builds(lambda n, d, form: form.format(n=n, d=d), st.integers(-30, 30), st.integers(-3, 12),
              st.sampled_from(["{n}", "{n}/{d}", "-{n}", "0{n}", "{n}/0{d}", "-0/{d}"])),
    st.builds(str, st.fractions(max_denominator=50)),
))
def test_parse_frac_matches_reference(tok):
    assert _parse_outcome(fileio._parse_frac, tok) == _parse_outcome(_parse_frac_reference, tok)


def test_parse_frac_on_more_digits_than_int_reads_by_default():
    # past int()'s default digit limit both reject with a ParseError
    for tok in ("1" * 5000, "1/" + "3" * 5000):
        assert _parse_outcome(fileio._parse_frac, tok) == _parse_outcome(_parse_frac_reference, tok)


def test_canonical_entries_parse():
    text = "MATRIX 1 5\n0 -3 12 -1/2 7/10\n"
    assert fileio.serialize_matrix(fileio.parse_matrix(text)) == text


@pytest.mark.parametrize("entry", ["1_0", "1e3", "2.5", "+3", "2/4"])
def test_cli_non_canonical_entry_exit2(tmp_path, capsys, entry):
    bad = tmp_path / "bad.hpoly"
    bad.write_text(f"HPOLY 1 1 0\n{entry} <= 1\n")
    efile = tmp_path / "b1.ext"
    main(["construct", "birkhoff", "1", "--out", str(efile)])
    capsys.readouterr()
    assert main(["verify", str(bad), str(efile)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_zoo_and_verify_roundtrip(tmp_path, capsys):
    hfile = tmp_path / "pi3.hpoly"
    efile = tmp_path / "b3.ext"
    assert main(["zoo", "permutahedron", "3", "--hrep", str(hfile)]) == 0
    assert main(["construct", "birkhoff", "3", "--out", str(efile)]) == 0
    out = capsys.readouterr().out
    assert "size 9" in out
    assert main(["verify", str(hfile), str(efile)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_failure_exit_code(tmp_path, capsys):
    # corrupt the extension by dropping one inequality of Q
    hfile = tmp_path / "pi3.hpoly"
    efile = tmp_path / "bad.ext"
    main(["zoo", "permutahedron", "3", "--hrep", str(hfile)])
    ext = cx.birkhoff_extension(3)
    crippled = cx.Extension(
        HPoly(9, ext.q.ineqs[1:], ext.q.eqs), ext.proj, 3, "crippled"
    )
    (efile).write_text(fileio.serialize_extension(crippled))
    capsys.readouterr()
    code = main(["verify", str(hfile), str(efile), "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["passed"] is False
    assert doc["results"]["row_failures"]
    # the reported witness really violates the target row
    wit = [Fraction(x) for x in doc["results"]["row_failures"][0]["witness"]]
    target = fileio.parse_hpoly(hfile.read_text())
    assert not target.contains(wit)


def test_cli_verify_dim_mismatch_exit2(tmp_path, capsys):
    hfile = tmp_path / "pi4.hpoly"
    efile = tmp_path / "b3.ext"
    main(["zoo", "permutahedron", "4", "--hrep", str(hfile)])
    main(["construct", "birkhoff", "3", "--out", str(efile)])
    capsys.readouterr()
    assert main(["verify", str(hfile), str(efile)]) == 2


def test_cli_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.hpoly"
    bad.write_text("HPOLY 1 1 0\nnope <= 1\n")
    efile = tmp_path / "b1.ext"
    main(["construct", "birkhoff", "1", "--out", str(efile)])
    capsys.readouterr()
    assert main(["verify", str(bad), str(efile)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["target", "extension"])
@pytest.mark.parametrize("raw", [b"\xff\xfeH\x00P\x00", b"HPOLY 1 1 0\n1 <= 1 # caf\xe9\n"])
def test_cli_non_utf8_input_exit2(tmp_path, capsys, which, raw):
    # exit 1 would mean "verified-false"; an unreadable file is an input error
    hfile, efile = tmp_path / "b1.hpoly", tmp_path / "b1.ext"
    main(["zoo", "permutahedron", "1", "--hrep", str(hfile)])
    main(["construct", "birkhoff", "1", "--out", str(efile)])
    bad = hfile if which == "target" else efile
    bad.write_bytes(raw)
    capsys.readouterr()
    assert main(["verify", str(hfile), str(efile)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad} is not UTF-8 text: invalid")


def test_cli_construct_knapsack_and_martin(capsys):
    assert main(["construct", "knapsack", "--w", "2,3,4", "--W", "6"]) == 0
    assert "size 11" in capsys.readouterr().out
    assert main(["construct", "martin", "4"]) == 0
    assert "size 30" in capsys.readouterr().out


def test_cli_zoo_counts(capsys):
    assert main(["zoo", "matching", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["ineqs"] == 14
    assert doc["results"]["points"] == 10
    assert doc["schema"] == 1
    assert main(["zoo", "cube", "1"]) == 0
    assert "2 inequalities" in capsys.readouterr().out


@pytest.mark.parametrize("k", ["0", "-1"])
def test_cli_construct_colorful_k_below_one_exit2(capsys, k):
    assert main(["construct", "colorful", "4", "--k", k]) == 2
    assert "need 1 <= k" in capsys.readouterr().err


def test_cli_zoo_matching_cardinality_has_no_hrep(tmp_path, capsys):
    # matching_hrep(4) describes the whole matching polytope, not conv of
    # the 2-matchings, so no H-representation is reported or written
    assert main(["zoo", "matching", "4", "--cardinality", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {"points": 3}
    out = tmp_path / "m42.hpoly"
    assert main(["zoo", "matching", "4", "--cardinality", "2", "--hrep", str(out)]) == 2
    assert "no direct H-representation" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bounds_cube3_reports_fooling_six(tmp_path, capsys):
    h = tmp_path / "c3.hpoly"
    v = tmp_path / "c3.vpoly"
    main(["zoo", "cube", "3", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    assert main(["bounds", str(h), str(v), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["bounds"]["fooling_set"] == {"value": 6, "exact": True}


def test_cli_bounds_square(tmp_path, capsys):
    h = tmp_path / "sq.hpoly"
    v = tmp_path / "sq.vpoly"
    main(["zoo", "cube", "2", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    assert main(["bounds", str(h), str(v), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["lower"] == 4 and doc["results"]["upper"] == 4
    assert doc["results"]["pinned"] is True


def test_cli_bounds_pi3_with_extension_upper(tmp_path, capsys):
    h = tmp_path / "pi3.hpoly"
    v = tmp_path / "pi3.vpoly"
    e = tmp_path / "b3.ext"
    main(["zoo", "permutahedron", "3", "--hrep", str(h), "--vrep", str(v)])
    main(["construct", "birkhoff", "3", "--out", str(e)])
    capsys.readouterr()
    assert main(["bounds", str(h), str(v), "--ext", str(e), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    exts = doc["results"]["extensions"]
    assert exts == [{"name": str(e), "size": 9, "verified": True}]


def test_cli_deterministic_json(tmp_path, capsys):
    h = tmp_path / "sq.hpoly"
    v = tmp_path / "sq.vpoly"
    main(["zoo", "cube", "2", "--hrep", str(h), "--vrep", str(v)])
    capsys.readouterr()
    main(["bounds", str(h), str(v), "--json"])
    first = capsys.readouterr().out
    main(["bounds", str(h), str(v), "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_slack_and_factorize(tmp_path, capsys):
    h = tmp_path / "pi3.hpoly"
    v = tmp_path / "pi3.vpoly"
    e = tmp_path / "b3.ext"
    t = tmp_path / "T.mat"
    s = tmp_path / "S.mat"
    sm_file = tmp_path / "phi.mat"
    main(["zoo", "permutahedron", "3", "--hrep", str(h), "--vrep", str(v)])
    main(["construct", "birkhoff", "3", "--out", str(e)])
    capsys.readouterr()
    assert main(["slack", str(h), str(v), "--out", str(sm_file)]) == 0
    phi = fileio.parse_matrix(sm_file.read_text())
    assert len(phi) == 6 and len(phi[0]) == 6
    capsys.readouterr()
    assert main(["factorize", str(e), str(h), str(v), "--t-out", str(t),
                 "--s-out", str(s), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["verified"] is True
    tm = fileio.parse_matrix(t.read_text())
    smx = fileio.parse_matrix(s.read_text())
    assert len(tm) == 6 and len(tm[0]) == 9
    assert len(smx) == 9 and len(smx[0]) == 6
    prod = fileio.linalg.mat_mul(tm, smx)
    assert prod == phi


def test_cli_size_guard_exit2(capsys):
    assert main(["zoo", "permutahedron", "9", "--vrep", "/tmp/never.vpoly"]) == 2


def test_cli_unknown_command_exit2(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_subprocess_determinism(tmp_path):
    # byte-identical reports across separate processes
    import os
    import pathlib
    import subprocess
    import sys

    h = tmp_path / "pi3.hpoly"
    v = tmp_path / "pi3.vpoly"
    main(["zoo", "permutahedron", "3", "--hrep", str(h), "--vrep", str(v)])
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        return subprocess.run(
            [sys.executable, "-m", "polylift.cli", "bounds", str(h), str(v), "--json"],
            capture_output=True,
            text=True,
            env=env,
        )

    r1, r2 = run(), run()
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.strip()


def test_python_m_polylift_runs_the_cli():
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run([sys.executable, "-m", "polylift", "zoo", "cube", "2"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
