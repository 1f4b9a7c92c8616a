import hashlib
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import __version__
from polylift import constructions as cx
from polylift import cli, fileio, zoo
from polylift.cli import main
from polylift.kernel import HPoly, VPoly, hull, vertices

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


@pytest.mark.parametrize("target", [
    "HPOLY 3 1 2\n1 0 0 <= 0\n1 0 0 = 7\n1 1 1 = 6\n",  # x0 <= 0, x0 = 7: empty
    "VPOLY 3 0\n",
])
def test_cli_verify_empty_target(tmp_path, capsys, target):
    # an empty target is the projection of an empty Q only; the report is
    # the library's with target_vrep=VPoly(3, []) (an empty VPOLY target:
    # the row 0·x <= -1)
    tfile = tmp_path / "empty.poly"
    tfile.write_text(target)
    ext = cx.birkhoff_extension(3)
    y0 = tuple(Fraction(int(i == 0)) for i in range(9))
    empty_q = cx.Extension(HPoly(9, ext.q.ineqs + ((y0, -1),), ext.q.eqs), ext.proj, 3, "empty")
    poly = fileio.sniff_poly(target)
    h = poly if isinstance(poly, HPoly) else HPoly(3, [((0, 0, 0), -1)])
    for e, code in ((ext, 1), (empty_q, 0)):
        efile = tmp_path / "q.ext"
        efile.write_text(fileio.serialize_extension(e))
        capsys.readouterr()
        assert main(["verify", str(tfile), str(efile), "--json"]) == code
        results = json.loads(capsys.readouterr().out)["results"]
        rep = cx.verify_extension(h, e, target_vrep=VPoly(3, []))
        assert (results["passed"], results["checked_vertices"]) == (rep.passed, 0)
        assert [(f["row"], f["value"], f["bound"]) for f in results["row_failures"]] == [
            (lab, str(val), str(bnd)) for lab, val, bnd, _ in rep.row_failures]
        assert bool(rep.row_failures) == (code == 1)


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


@pytest.mark.parametrize("family, bound", [("matching", 10), ("spanning-tree", 12), ("permutahedron", 14)])
def test_cli_zoo_refuses_an_exponential_size_exit2(capsys, family, bound):
    # `zoo matching 30` once ran for ever; it is a size-guard error now
    assert main(["zoo", family, "30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"refuses n > {bound} " in captured.err


def test_cli_zoo_matching_guard_counts_the_matchings_asked_for(capsys):
    # K_30 has 435 matchings of cardinality 1, fewer than K_10's 9496
    assert main(["zoo", "matching", "30", "--cardinality", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {"points": 435}
    assert main(["zoo", "matching", "10", "--cardinality", "4"]) == 0  # 4725, the most in K_10
    capsys.readouterr()
    # 14535, 10395 and a count of thousands of digits, each refused without
    # being counted in full
    for argv in (["20", "--cardinality", "2"], ["12", "--cardinality", "6"], ["1000000"],
                 ["1000000", "--cardinality", "3"], ["5000", "--cardinality", "2000"]):
        start = time.process_time()
        assert main(["zoo", "matching", *argv]) == 2
        assert time.process_time() - start < 1
        assert "refuses n > 10 " in capsys.readouterr().err


def _birkhoff3():
    h = zoo.birkhoff_hrep(3)
    return h, vertices(h)


def _simplex3():
    h = zoo.simplex_hrep(3)
    return h, vertices(h)


def _knapsack():
    v = zoo.knapsack_vrep([2, 3, 4], 6)
    return hull(v), v


def _cross3():
    v = zoo.cross_polytope_vrep(3)
    return hull(v), v


@pytest.mark.parametrize("family, args, described", [
    ("birkhoff", ["3"], _birkhoff3),
    ("spanning-tree", ["4"], lambda: (zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4))),
    ("knapsack", ["--w", "2,3,4", "--W", "6"], _knapsack),
    ("cross", ["3"], _cross3),
    ("simplex", ["3"], _simplex3),
])
def test_cli_zoo_families_write_their_descriptions(tmp_path, capsys, family, args, described):
    # each file parses back to the generator's description, or to the
    # vertices or hull of it
    h, v = tmp_path / "p.hpoly", tmp_path / "p.vpoly"
    assert main(["zoo", family, *args, "--hrep", str(h), "--vrep", str(v)]) == 0
    hpoly, vpoly = described()
    back_h, back_v = fileio.parse_hpoly(h.read_text()), fileio.parse_vpoly(v.read_text())
    assert (back_h.dim, back_h.ineqs, back_h.eqs) == (hpoly.dim, hpoly.ineqs, hpoly.eqs)
    assert (back_v.dim, back_v.vertices) == (vpoly.dim, vpoly.vertices)
    assert capsys.readouterr().out == (
        f"wrote {h}: {len(hpoly.ineqs)} inequalities, {len(hpoly.eqs)} equations\n"
        f"wrote {v}: {len(vpoly.vertices)} points\n")


def _balas_parts(tmp_path):
    """Two unit squares side by side, as part files, and their union's hull."""
    parts = [HPoly(2, [((1, 0), x + 1), ((-1, 0), -x), ((0, 1), 1), ((0, -1), 0)]) for x in (0, 2)]
    paths = []
    for i, part in enumerate(parts):
        paths.append(tmp_path / f"part{i}.hpoly")
        paths[-1].write_text(fileio.serialize_hpoly(part))
    target = hull(VPoly(2, [p for part in parts for p in vertices(part).vertices]))
    return [str(p) for p in paths], target


@pytest.mark.parametrize("kind", ["sortnet-bubble", "sortnet-batcher", "balas"])
def test_cli_construct_kinds_verify(tmp_path, capsys, kind):
    efile, tfile = tmp_path / "q.ext", tmp_path / "target.hpoly"
    if kind == "balas":
        # the optional n comes before the part files
        paths, target = _balas_parts(tmp_path)
        argv = ["balas", "0", *paths]
    else:
        target = zoo.permutahedron_hrep(4)
        argv = ["sortnet", "4", "--net", kind.partition("-")[2]]
    tfile.write_text(fileio.serialize_hpoly(target))
    assert main(["construct", *argv, "--out", str(efile)]) == 0
    assert f"wrote {efile}" in capsys.readouterr().out
    assert main(["verify", str(tfile), str(efile)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_prints_the_uncovered_vertices(tmp_path, capsys):
    # y00 <= 0 cuts the permutations with sigma(0) = 0 out of Birkhoff(3):
    # the projection misses two vertices of the permutahedron and stays
    # inside it
    hfile, efile = tmp_path / "pi3.hpoly", tmp_path / "cut.ext"
    main(["zoo", "permutahedron", "3", "--hrep", str(hfile)])
    ext = cx.birkhoff_extension(3)
    y00 = tuple(F(int(i == 0)) for i in range(9))
    cut = cx.Extension(HPoly(9, ext.q.ineqs + ((y00, 0),), ext.q.eqs), ext.proj, 3, "cut")
    efile.write_text(fileio.serialize_extension(cut))
    capsys.readouterr()
    assert main(["verify", str(hfile), str(efile)]) == 1
    lines = capsys.readouterr().out.splitlines()
    rep = cx.verify_extension(zoo.permutahedron_hrep(3), cut)
    assert len(rep.vertex_failures) == 2 and not rep.row_failures
    assert lines[0].startswith(f"verify {efile}: FAIL")
    assert lines[1:] == [f"  vertex not covered: ({', '.join(map(str, v))})" for v in rep.vertex_failures]


def test_cli_bounds_point_pinned_at_zero(tmp_path, capsys):
    # Π1 is the point 1, given by x = 1 alone: its extension needs no
    # inequality, and the face bound counts only its one nonempty face
    h, v = tmp_path / "p1.hpoly", tmp_path / "p1.vpoly"
    assert main(["zoo", "permutahedron", "1", "--hrep", str(h), "--vrep", str(v)]) == 0
    capsys.readouterr()
    assert main(["bounds", str(h), str(v), "--json"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert (res["lower"], res["upper"], res["pinned"]) == (0, 0, True)
    assert res["bounds"]["log_faces"] == {"value": 0, "exact": True}


def test_cli_construct_balas_needs_no_n(tmp_path, capsys):
    # the part files may follow the kind directly, or a (dummy) n; both give
    # the same .ext file and the same report
    paths, _ = _balas_parts(tmp_path)
    efile = tmp_path / "u.ext"
    outputs = []
    for argv in (["balas", *paths], ["balas", "0", *paths]):
        assert main(["construct", *argv, "--out", str(efile), "--json"]) == 0
        outputs.append((efile.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["inputs"]["parts"] == paths


@pytest.mark.parametrize("kind", ["birkhoff", "martin", "sortnet", "colorful", "knapsack"])
def test_cli_construct_non_integer_n_exit2(tmp_path, capsys, kind):
    paths, _ = _balas_parts(tmp_path)
    assert main(["construct", kind, paths[0]]) == 2
    assert "n must be an integer" in capsys.readouterr().err


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


def test_cli_bounds_point_off_the_equations_exit2(tmp_path, capsys):
    # (4, 4, 4, 4) holds every inequality of Π4 but not x1 + ... + x4 = 10
    h = tmp_path / "pi4.hpoly"
    v = tmp_path / "pi4.vpoly"
    h.write_text(fileio.serialize_hpoly(zoo.permutahedron_hrep(4)))
    p4v = zoo.permutahedron_vrep(4).vertices
    v.write_text(fileio.serialize_vpoly(VPoly(4, p4v + ((4, 4, 4, 4),))))
    assert main(["bounds", str(h), str(v)]) == 2
    assert "violates" in capsys.readouterr().err


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


# sha256 of the T file, the S file and the --json stdout, recorded before
# factorize's set-up moved to integer rows: every LP, pivot and entry of T
# must stay as it was, not only T·S = Φ
FACTORIZE_DIGESTS = {
    "birkhoff(4)": ("1db80869abf406270ea069fd2cf4d50de1d44b6871e13e136a687258dbe8bc4d",
                    "f259f33cf2dd7ef884327a4942809e7884a8be0c766d0b55720478ba5954646c",
                    "58c64c85904de0bf5108f23924d23a6d49cf96d206ee117b1ee3f24376e4e027"),
    "martin(4)": ("ea13dc5f1d4b58d8af820d5441f501a9e4b11f1055fafb93eb2cfe204b0d50ba",
                  "f97e60495f56e6ca7170eaf78fa76421c119d00d96e20b1e6a079d916d1cd31b",
                  "6f8b77246644731a08f7eda20d2811759da2fe98af3182d3b785ddbc6513fdf0"),
    "knapsack(6,2,5,3;9)": ("2a622cc3c47d98081a8b853a25b9e4f0549dba1f1378cfcd554b1c51b0ab314c",
                            "755c4271bdc17b73dff0cc0a7dc39eb25a65941c868846be05ecd81ab1d9b1c0",
                            "c82a35c210b79be2eed4966ae5c3894c097eb5f24d9491eacd830fbe329ee450"),
}


def _factorize_case(name):
    if name == "birkhoff(4)":
        return cx.birkhoff_extension(4), zoo.permutahedron_hrep(4), zoo.permutahedron_vrep(4)
    if name == "martin(4)":
        return cx.martin_spanning_tree_extension(4), zoo.spanning_tree_hrep(4), zoo.spanning_tree_vrep(4)
    v = zoo.knapsack_vrep((6, 2, 5, 3), 9)
    return cx.knapsack_flow_extension((6, 2, 5, 3), 9), hull(v), v


@pytest.mark.parametrize("name", sorted(FACTORIZE_DIGESTS))
def test_cli_factorize_bytes_are_pinned(tmp_path, monkeypatch, capsys, name):
    ext, h, v = _factorize_case(name)
    monkeypatch.chdir(tmp_path)  # relative paths: the report names them
    for path, text in (("q.ext", fileio.serialize_extension(ext)), ("p.hpoly", fileio.serialize_hpoly(h)),
                       ("p.vpoly", fileio.serialize_vpoly(v))):
        (tmp_path / path).write_text(text)
    capsys.readouterr()
    assert main(["factorize", "q.ext", "p.hpoly", "p.vpoly", "--t-out", "T.mat",
                 "--s-out", "S.mat", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    got = tuple(hashlib.sha256(b).hexdigest()
                for b in ((tmp_path / "T.mat").read_bytes(), (tmp_path / "S.mat").read_bytes(), out))
    assert got == FACTORIZE_DIGESTS[name]


def test_cli_size_guard_exit2(capsys):
    assert main(["zoo", "permutahedron", "9", "--vrep", "/tmp/never.vpoly"]) == 2


def test_cli_unknown_command_exit2(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_parser_built_once_answers_alike(capsys):
    # main keeps its parser between calls: a usage error and --version give
    # the same codes and bytes after other calls, and a fresh parser's
    calls = [["frobnicate"], ["--version"], ["zoo", "cube", "2"], ["zoo", "cube", "2", "--W"]]
    first = [(main(argv), *capsys.readouterr()) for argv in calls]
    assert [(main(argv), *capsys.readouterr()) for argv in calls] == first
    assert [code for code, _, _ in first] == [2, 0, 0, 2] and first[1][1] == f"polylift {__version__}\n"
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])
    assert (first[0][1], first[0][2]) == capsys.readouterr()


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
    r = subprocess.run([sys.executable, "-m", "polylift", "--version"], capture_output=True, text=True, env=env)
    assert (r.returncode, r.stdout) == (0, f"polylift {__version__}\n"), r.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cli_closed_stdout_exits_141_quietly(unbuffered):
    # a reader that closes the pipe early (`| head -1`) is no input error:
    # exit 128 + SIGPIPE with nothing on stderr, buffered or not
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "polylift", "zoo", "cube", "2"],
                           stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, "")
