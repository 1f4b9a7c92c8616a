"""The file formats: round trips, the readers' errors, and a differential
test of the readers against a reference copy of the earlier per-format
parsers."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polylift import constructions as cx
from polylift import fileio, linalg, zoo
from polylift.cli import main
from polylift.kernel import AffineMap, HPoly, VPoly, vertices
from polylift.slack import slack_matrix

F = Fraction
ParseError = fileio.ParseError


# ---------------------------------------------------------------------------
# Reference: the earlier parsers, one loop per block and one frame per format.
# Only the errors named in CHANGED_CASES differ from the readers in fileio.
# ---------------------------------------------------------------------------

def _ref_count(tok, lineno):
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"bad count {tok!r}, expected a nonnegative integer", lineno)
    return int(tok)


def _ref_hpoly_lines(lines, header):
    frac = fileio._parse_frac
    lineno, toks = header
    if len(toks) != 4 or toks[0] != "HPOLY":
        raise ParseError("expected 'HPOLY <dim> <#ineq> <#eq>'", lineno)
    dim, ni, ne = (_ref_count(t, lineno) for t in toks[1:])
    ineqs = []
    eqs = []
    for _ in range(ni):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in inequality block")
        if len(toks) != dim + 2 or toks[dim] != "<=":
            raise ParseError(f"expected {dim} coefficients, '<=', rhs", lineno)
        a = [frac(t, lineno) for t in toks[:dim]]
        ineqs.append((a, frac(toks[dim + 1], lineno)))
    for _ in range(ne):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in equation block")
        if len(toks) != dim + 2 or toks[dim] != "=":
            raise ParseError(f"expected {dim} coefficients, '=', rhs", lineno)
        c = [frac(t, lineno) for t in toks[:dim]]
        eqs.append((c, frac(toks[dim + 1], lineno)))
    return HPoly(dim, ineqs, eqs)


def ref_parse_hpoly(text):
    lines = fileio._tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    poly = _ref_hpoly_lines(lines, header)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return poly


def ref_parse_vpoly(text):
    lines = fileio._tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    lineno, toks = header
    if len(toks) != 3 or toks[0] != "VPOLY":
        raise ParseError("expected 'VPOLY <dim> <#pts>'", lineno)
    dim, np_ = (_ref_count(t, lineno) for t in toks[1:])
    pts = []
    for _ in range(np_):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in point block")
        if len(toks) != dim:
            raise ParseError(f"expected {dim} coordinates", lineno)
        pts.append([fileio._parse_frac(t, lineno) for t in toks])
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return VPoly(dim, pts)


def ref_parse_extension(text, name="file"):
    lines = fileio._tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    lineno, toks = header
    if len(toks) != 3 or toks[0] != "EXT":
        raise ParseError("expected 'EXT <d> <n>'", lineno)
    d, n = (_ref_count(t, lineno) for t in toks[1:])
    hheader = next(lines, None)
    if hheader is None:
        raise ParseError("missing HPOLY block")
    q = _ref_hpoly_lines(lines, hheader)
    if q.dim != d:
        raise ParseError(f"EXT declares d={d} but HPOLY has dim {q.dim}")
    lineno, toks = next(lines, (None, None))
    if toks is None or toks != ["PROJ"]:
        raise ParseError("expected 'PROJ'", lineno)
    rows = []
    offs = []
    for _ in range(n):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in projection block")
        if len(toks) != d + 1:
            raise ParseError(f"expected {d}+1 rationals", lineno)
        vals = [fileio._parse_frac(t, lineno) for t in toks]
        rows.append(vals[:d])
        offs.append(vals[d])
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return cx.Extension(q, AffineMap(rows, offs), n, name)


def ref_parse_matrix(text):
    lines = fileio._tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    lineno, toks = header
    if len(toks) != 3 or toks[0] != "MATRIX":
        raise ParseError("expected 'MATRIX <rows> <cols>'", lineno)
    rows, cols = (_ref_count(t, lineno) for t in toks[1:])
    out = []
    for _ in range(rows):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in matrix block")
        if len(toks) != cols:
            raise ParseError(f"expected {cols} entries", lineno)
        out.append([fileio._parse_frac(t, lineno) for t in toks])
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return linalg.mat(out)


def ref_sniff_poly(text):
    for _lineno, toks in fileio._tokens(text):
        if toks[0] == "HPOLY":
            return ref_parse_hpoly(text)
        if toks[0] == "VPOLY":
            return ref_parse_vpoly(text)
        raise ParseError(f"unknown header {toks[0]!r}")
    raise ParseError("empty file")


# name -> (reference, reader)
PARSERS = {
    "parse_hpoly": (ref_parse_hpoly, fileio.parse_hpoly),
    "parse_vpoly": (ref_parse_vpoly, fileio.parse_vpoly),
    "parse_extension": (ref_parse_extension, fileio.parse_extension),
    "parse_matrix": (ref_parse_matrix, fileio.parse_matrix),
    "sniff_poly": (ref_sniff_poly, fileio.sniff_poly),
}


def outcome(parse, text):
    """The value's repr, the ParseError's message and line, or another
    exception's type and message."""
    try:
        return ("value", repr(parse(text)))
    except ParseError as e:
        return ("ParseError", str(e), e.line)
    except Exception as e:  # noqa: BLE001 - any outcome is compared
        return (type(e).__name__, str(e))


CHANGED_CASES = (
    "zero-width rows take no line",
    "unknown header names its line",
    "EXT dimension mismatch names the HPOLY header line",
    "a repeated point is a ParseError at its line",
)


def _zero_width_header(text):
    """Whether the first line is a well-formed header of a block whose rows
    have no token: 'VPOLY 0 <k>' or 'MATRIX <k> 0' with k > 0."""
    first = next(fileio._tokens(text), None)
    if first is None or len(first[1]) != 3 or not all(t.isascii() and t.isdigit() for t in first[1][1:]):
        return False
    word, a, b = first[1][0], int(first[1][1]), int(first[1][2])
    return (word == "VPOLY" and a == 0 and b > 0) or (word == "MATRIX" and a > 0 and b == 0)


def _first_repeat_line(text):
    """In a VPOLY file whose shape is right, the line of the first point equal
    to an earlier one (entries are canonical, so equal points have equal
    tokens), or the header line when the points have dimension 0."""
    (head, toks), *rows = fileio._tokens(text)
    if int(toks[1]) == 0:
        return head
    seen = set()
    for lineno, row in rows:
        if tuple(row) in seen:
            return lineno
        seen.add(tuple(row))
    return None


def changed_case(text, old, new):
    """Which of CHANGED_CASES turns the reference's outcome old into new, or None."""
    if old[0] == "ParseError" and _zero_width_header(text) and (
            old[1].startswith(("unexpected end of file in point block", "expected 0 coordinates",
                               "unexpected end of file in matrix block", "expected 0 entries"))):
        return CHANGED_CASES[0]
    if old[0] == new[0] == "ParseError" and old[2] is None and new[2] is not None \
            and new[1] == f"{old[1]} (line {new[2]})":
        if old[1].startswith("unknown header ") and new[2] == next(fileio._tokens(text))[0]:
            return CHANGED_CASES[1]
        lines = [n for n, _ in fileio._tokens(text)]
        if old[1].startswith("EXT declares d=") and new[2] == lines[1]:
            return CHANGED_CASES[2]
    if old == ("InputError", "duplicate vertices are not allowed") and new[0] == "ParseError" \
            and new[1] == f"{old[1]} (line {new[2]})" and new[2] == _first_repeat_line(text):
        return CHANGED_CASES[3]
    return None


SEEDS = [
    fileio.serialize_hpoly(zoo.cube_hrep(2)),
    fileio.serialize_hpoly(HPoly(2, [([F(1, 3), F(-7, 2)], F(22, 7))], [([F(0), F(5)], F(-1, 9))])),
    fileio.serialize_hpoly(HPoly(0, [((), F(1))], [((), F(0))])),
    fileio.serialize_vpoly(vertices(zoo.cube_hrep(2))),
    fileio.serialize_vpoly(VPoly(0, [()])),
    fileio.serialize_vpoly(VPoly(2, [])),
    fileio.serialize_extension(cx.birkhoff_extension(2)),
    "EXT 0 1\nHPOLY 0 1 0\n <= 1\nPROJ\n2\n",
    fileio.serialize_matrix([[F(1, 2), F(0)], [F(3), F(-4, 5)]], ["a", "b"], ["c", "d"]),
    fileio.serialize_matrix(slack_matrix(zoo.cube_hrep(2), VPoly(2, [])).entries),
    "MATRIX 0 0\n",
    "# a comment\n\n",
]
TOKENS = ["0", "1", "2", "-1", "1/2", "-3/4", "2/4", "-0", "00", "x", "<=", "=", "PROJ",
          "HPOLY", "VPOLY", "EXT", "MATRIX", "#", "#c"]
HEADER_WORDS = ["HPOLY", "VPOLY", "EXT", "MATRIX", "PROJ", "X"]
COUNTS = ["0", "1", "2", "3", "00", "-1", "x"]
KINDS = ["drop line", "insert line", "copy line", "blank line", "comment line", "trailing comment",
         "drop token", "insert token", "edit token", "header word", "header count"]


@st.composite
def mutated_files(draw, seed):
    lines = seed.split("\n")
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=4)):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        if kind == "drop line":
            del lines[i]
            if not lines:
                lines = [""]
        elif kind == "insert line":
            lines.insert(i, " ".join(draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4))))
        elif kind == "copy line":
            lines.insert(i, lines[draw(st.integers(0, len(lines) - 1))])
        elif kind == "blank line":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "comment line":
            lines.insert(i, "# " + " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=3))))
        elif kind == "trailing comment":
            lines[i] += " # " + draw(st.sampled_from(TOKENS))
        elif kind == "drop token" and toks:
            del toks[draw(st.integers(0, len(toks) - 1))]
            lines[i] = " ".join(toks)
        elif kind == "insert token":
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(TOKENS)))
            lines[i] = " ".join(toks)
        elif kind == "edit token" and toks:
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(toks)
        elif kind in ("header word", "header count"):
            j = next((k for k, line in enumerate(lines) if line.split()), None)
            if j is not None:
                toks = lines[j].split()
                if kind == "header word" or len(toks) == 1:
                    toks[0] = draw(st.sampled_from(HEADER_WORDS))
                else:
                    toks[draw(st.integers(1, len(toks) - 1))] = draw(st.sampled_from(COUNTS))
                lines[j] = " ".join(toks)
    return "\n".join(lines)


@pytest.mark.parametrize("seed", SEEDS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_readers_match_reference_on_mutated_files(seed, data):
    text = data.draw(mutated_files(seed))
    for name, (ref, new) in PARSERS.items():
        old, got = outcome(ref, text), outcome(new, text)
        if old != got:
            assert changed_case(text, old, got) is not None, (name, text, old, got)


@pytest.mark.parametrize("name, text, case", [
    ("parse_vpoly", "VPOLY 0 1\n", CHANGED_CASES[0]),
    ("sniff_poly", "VPOLY 0 2\n1\n", CHANGED_CASES[0]),
    ("parse_matrix", "MATRIX 2 0\n1\n", CHANGED_CASES[0]),
    ("sniff_poly", "# c\nX 1\n", CHANGED_CASES[1]),
    ("parse_extension", "EXT 2 0\n\nHPOLY 1 0 0\nPROJ\n", CHANGED_CASES[2]),
    ("parse_vpoly", "VPOLY 1 2\n0\n0\n", CHANGED_CASES[3]),
    ("sniff_poly", "VPOLY 1 3\n0\n# c\n1\n0\n", CHANGED_CASES[3]),
])
def test_each_changed_case_differs_from_reference(name, text, case):
    ref, parse = PARSERS[name]
    old, new = outcome(ref, text), outcome(parse, text)
    assert old != new
    assert changed_case(text, old, new) == case


def test_zero_width_malformed_outcomes():
    # a zero-width row reads no line, so what follows is trailing content
    with pytest.raises(ParseError) as info:
        fileio.parse_matrix("MATRIX 2 0\n1\n")
    assert str(info.value) == "trailing content (line 2)"
    with pytest.raises(ParseError) as info:
        fileio.parse_vpoly("VPOLY 0 1\n0\n")
    assert str(info.value) == "trailing content (line 2)"


def test_trailing_content_is_reported_before_the_value_is_checked():
    # the two points are duplicates, but the file's shape is wrong first
    with pytest.raises(ParseError) as info:
        fileio.parse_vpoly("VPOLY 1 2\n0\n0\n1\n")
    assert str(info.value) == "trailing content (line 4)"


def test_a_repeated_point_names_its_line():
    with pytest.raises(ParseError) as info:
        fileio.parse_vpoly("VPOLY 1 2\n0\n0\n")
    assert (str(info.value), info.value.line) == ("duplicate vertices are not allowed (line 3)", 3)
    # points of dimension 0 take no line, so the header's count is at fault
    with pytest.raises(ParseError) as info:
        fileio.sniff_poly("# c\nVPOLY 0 2\n")
    assert info.value.line == 2


def test_unknown_header_names_its_line():
    with pytest.raises(ParseError) as info:
        fileio.sniff_poly("# comment\n\nMATRIX 1 1\n1\n")
    assert info.value.line == 3
    assert str(info.value) == "unknown header 'MATRIX' (line 3)"


def test_ext_dimension_mismatch_names_the_hpoly_header_line():
    with pytest.raises(ParseError) as info:
        fileio.parse_extension("EXT 2 1\n# Q\nHPOLY 1 1 0\n1 <= 1\nPROJ\n1 0\n")
    assert info.value.line == 3
    assert str(info.value) == "EXT declares d=2 but HPOLY has dim 1 (line 3)"


# ---------------------------------------------------------------------------
# The token memo: each block parses each distinct token once.
# ---------------------------------------------------------------------------

def test_a_repeated_bad_token_names_its_first_line():
    with pytest.raises(ParseError) as info:
        fileio.parse_matrix("MATRIX 3 2\n1 0\n0 2/4\n2/4 1\n")
    assert (str(info.value), info.value.line) == (
        "bad rational '2/4', expected a canonical rational such as 3 or -1/2 (line 3)", 3)
    with pytest.raises(ParseError) as info:
        fileio.parse_hpoly("HPOLY 1 2 1\n-0 <= 1\n1 <= -0\n1 = 1\n")
    assert info.value.line == 2


# every entry of each format marked @
TEMPLATES = [
    (fileio.parse_matrix, "MATRIX 2 2\n@ @\n@ @\n"),
    (fileio.parse_hpoly, "HPOLY 2 2 1\n@ @ <= @\n@ @ <= @\n@ @ = @\n"),
    (fileio.sniff_poly, "VPOLY 2 2\n@ @\n@ @\n"),
    (fileio.parse_extension, "EXT 1 2\nHPOLY 1 1 1\n@ <= @\n@ = @\nPROJ\n@ @\n@ @\n"),
]


@pytest.mark.parametrize("bad, twin", [("-0", "0"), ("2/4", "1/2"), ("1/1", "1")])
@pytest.mark.parametrize("parse, template", TEMPLATES)
def test_non_canonical_tokens_are_rejected_wherever_they_appear(bad, twin, parse, template):
    # twin, the canonical token of bad's value, fills every other entry of
    # the file, before and after bad
    parts = template.split("@")
    for k in range(1, len(parts)):
        text = twin.join(parts[:k]) + bad + twin.join(parts[k:])
        line = "".join(parts[:k]).count("\n") + 1
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.line) == (
            f"bad rational {bad!r}, expected a canonical rational such as 3 or -1/2 (line {line})", line)


def test_repeated_entries_roundtrip_and_share_one_value_per_token():
    third = F(-1, 3)
    ext = cx.Extension(
        HPoly(2, [([third, third], third), ([F(0), third], F(1))] * 2, [([third, F(0)], third)]),
        AffineMap([[third, third], [F(0), F(0)], [third, F(1)]], [third, F(0), third]), 3, "repeated")
    text = fileio.serialize_extension(ext)
    back = fileio.parse_extension(text, name=ext.name)
    assert _same_hpoly(back.q, ext.q)
    assert (back.proj, back.target_dim) == (ext.proj, ext.target_dim)
    assert fileio.serialize_extension(back) == text
    m = fileio.parse_matrix("MATRIX 2 2\n-1/3 0\n0 -1/3\n")
    assert m == linalg.mat([[third, 0], [0, third]]) and m[0][0] is m[1][1] and m[0][1] is m[1][0]


def test_the_token_memo_is_local_to_each_call():
    # no module-level cache: a second read builds its own values
    text = "MATRIX 1 1\n-1/3\n"
    assert fileio.parse_matrix(text)[0][0] is not fileio.parse_matrix(text)[0][0]
    assert not [name for name, v in vars(fileio).items()
                if not name.startswith("__") and (isinstance(v, (dict, set, list)) or hasattr(v, "cache_info"))]
    assert list(inspect.signature(fileio._block).parameters) == ["lines", "count", "what", "width", "expected", "sep", "at"]


# ---------------------------------------------------------------------------
# Round trips: parse(serialize(x)) == x and serialize(parse(text)) == text.
# ---------------------------------------------------------------------------

HPOLYS = [
    zoo.matching_hrep(4), zoo.permutahedron_hrep(3), zoo.birkhoff_hrep(3), zoo.spanning_tree_hrep(4),
    zoo.cube_hrep(2), zoo.simplex_hrep(3),
    HPoly(0, [((), F(1)), ((), F(-1, 2))], [((), F(0))]), HPoly(0), HPoly(2),
]
VPOLYS = [
    zoo.matching_vrep(4), zoo.matching_vrep(4, 2), zoo.permutahedron_vrep(3), zoo.spanning_tree_vrep(4),
    zoo.knapsack_vrep([2, 3], 4), zoo.cross_polytope_vrep(3), vertices(zoo.cube_hrep(2)),
    VPoly(0, [()]), VPoly(0, []), VPoly(3, []),
]
EXTENSIONS = [
    cx.birkhoff_extension(2), cx.martin_spanning_tree_extension(3),
    cx.balas_union([zoo.cube_hrep(1), HPoly(1, [([F(1)], F(3)), ([F(-1)], F(-2))])]),
    cx.knapsack_flow_extension([1, 2], 3), cx.sorting_network_extension(3, cx.bubble_network(3)),
    cx.sorting_network_extension(4, cx.batcher_network(4)), cx.colorful_matching_extension(4, 2),
    cx.Extension(HPoly(0, [((), F(1))]), AffineMap([[], []], [F(1), F(-1, 3)]), 2, "point"),
]


def _same_hpoly(p, q):
    return (p.dim, p.ineqs, p.eqs) == (q.dim, q.ineqs, q.eqs)


@pytest.mark.parametrize("poly", HPOLYS)
def test_hpoly_roundtrip_all(poly):
    text = fileio.serialize_hpoly(poly)
    back = fileio.parse_hpoly(text)
    assert _same_hpoly(back, poly)
    assert _same_hpoly(fileio.sniff_poly(text), poly)
    assert fileio.serialize_hpoly(back) == text


@pytest.mark.parametrize("poly", VPOLYS)
def test_vpoly_roundtrip_all(poly):
    text = fileio.serialize_vpoly(poly)
    back = fileio.parse_vpoly(text)
    assert (back.dim, back.vertices) == (poly.dim, poly.vertices)
    assert fileio.sniff_poly(text) == back
    assert fileio.serialize_vpoly(back) == text


def test_dimension_zero_point_roundtrips():
    assert fileio.parse_vpoly(fileio.serialize_vpoly(VPoly(0, [()]))) == VPoly(0, [()])


@pytest.mark.parametrize("ext", EXTENSIONS, ids=lambda e: e.name)
def test_extension_roundtrip_all(ext):
    text = fileio.serialize_extension(ext)
    back = fileio.parse_extension(text, name=ext.name)
    assert _same_hpoly(back.q, ext.q)
    assert (back.proj, back.target_dim, back.name) == (ext.proj, ext.target_dim, ext.name)
    assert fileio.serialize_extension(back) == text


@pytest.mark.parametrize("hpoly, vpoly", [
    (zoo.cube_hrep(2), vertices(zoo.cube_hrep(2))),
    (zoo.permutahedron_hrep(3), zoo.permutahedron_vrep(3)),
    (zoo.cube_hrep(2), VPoly(2, [])),                     # zero columns
    (HPoly(0, [((), F(1)), ((), F(5, 2))]), VPoly(0, [()])),  # dimension 0
    (HPoly(0), VPoly(0, [()])),                           # zero rows
])
def test_slack_matrix_roundtrip(hpoly, vpoly):
    sm = slack_matrix(hpoly, vpoly)
    text = fileio.serialize_matrix(sm.entries, sm.row_provenance, sm.col_provenance)
    back = fileio.parse_matrix(text)
    assert back == sm.entries
    assert fileio.serialize_matrix(back, sm.row_provenance, sm.col_provenance) == text


def test_cli_slack_with_empty_vpoly_reads_back(tmp_path, capsys):
    hp, vp, out = tmp_path / "c2.hpoly", tmp_path / "empty.vpoly", tmp_path / "phi.mat"
    hp.write_text(fileio.serialize_hpoly(zoo.cube_hrep(2)))
    vp.write_text("VPOLY 2 0\n")
    assert main(["slack", str(hp), str(vp), "--out", str(out)]) == 0
    capsys.readouterr()
    back = fileio.parse_matrix(out.read_text())
    assert back == slack_matrix(zoo.cube_hrep(2), VPoly(2, [])).entries == ((), (), (), ())
