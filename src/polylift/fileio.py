"""Bit-exact text formats for polyhedra, extensions, and matrices.

All rationals are written canonically ("3", "-1/2") and parse back exactly;
lines starting with '#' are comments.  parse(serialize(x)) == x for every
format here.

One reader serves every format: _document frames a file (empty file,
header, body, trailing content), _header reads a header line's word and
counts, and _block reads every block of rows.  A row with no token (a point
of dimension 0, a matrix row with no column) is written as a blank line,
which the reader skips, so such a row takes no line.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import gcd

from .errors import InputError
from .kernel import AffineMap, HPoly, VPoly
from .constructions import Extension
from . import linalg

# a canonical rational: no sign but a leading minus, no leading zero; the
# checks after the match reject -0, a denominator 1 and an unreduced pair
_RATIONAL = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")


class ParseError(InputError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def _tokens(text):
    """Yield (line_number, token_list) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_frac(tok, lineno):
    """An entry: a canonical rational in ASCII digits, such as 3 or -1/2.

    Built from the match's digit groups, so only the pattern reads the
    string, and an exponent such as 1e999999999 never reaches int()."""
    m = _RATIONAL.fullmatch(tok)
    try:
        if m:
            sign, num, den = m.groups()
            n = -int(num) if sign else int(num)
            if den is None:
                if n or not sign:
                    return Fraction(n)
            else:
                d = int(den)
                if d > 1 and gcd(n, d) == 1:
                    return Fraction(n, d)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"bad rational {tok!r}, expected a canonical rational such as 3 or -1/2", lineno)


def _document(text, parse_body):
    """A whole file.  parse_body(lines, header) reads all that follows the
    header and returns the value's constructor, called once no content
    trails, so a file's shape is checked before its value."""
    lines = _tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    build = parse_body(lines, header)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return build()


def _header(header, usage):
    """The counts of a header line shaped like usage, e.g. 'VPOLY <dim> <#pts>';
    each is a nonnegative decimal integer."""
    lineno, toks = header
    if len(toks) != len(usage.split()) or toks[0] != usage.split()[0]:
        raise ParseError(f"expected '{usage}'", lineno)
    for tok in toks[1:]:
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"bad count {tok!r}, expected a nonnegative integer", lineno)
    return [int(tok) for tok in toks[1:]]


def _block(lines, count, what, width, expected, sep=None, at=None):
    """count rows of a block: width rationals each, or, given sep, pairs of
    width coefficients and the rhs that follows sep.  A row with no token
    reads no line.  Each row's line number (None when it has none) goes to at.
    Each distinct token is parsed once, where it first occurs."""
    size = width + 2 if sep else width
    rows = []
    memo = {}  # token -> its value
    for _ in range(count):
        lineno, toks = next(lines, (None, None)) if size else (None, [])
        if at is not None:
            at.append(lineno)
        if toks is None:
            raise ParseError(f"unexpected end of file in {what} block")
        if len(toks) != size or (sep and toks[width] != sep):
            raise ParseError(f"expected {expected}", lineno)
        if sep:
            del toks[width]
        row = [memo[t] if t in memo else memo.setdefault(t, _parse_frac(t, lineno)) for t in toks]
        rows.append((row[:width], row[width]) if sep else row)
    return rows


def serialize_hpoly(poly: HPoly) -> str:
    out = [f"HPOLY {poly.dim} {len(poly.ineqs)} {len(poly.eqs)}"]
    for a, b in poly.ineqs:
        out.append(" ".join(str(x) for x in a) + f" <= {b}")
    for c, d in poly.eqs:
        out.append(" ".join(str(x) for x in c) + f" = {d}")
    return "\n".join(out) + "\n"


def _hpoly(lines, header):
    dim, ni, ne = _header(header, "HPOLY <dim> <#ineq> <#eq>")
    ineqs = _block(lines, ni, "inequality", dim, f"{dim} coefficients, '<=', rhs", "<=")
    eqs = _block(lines, ne, "equation", dim, f"{dim} coefficients, '=', rhs", "=")
    return partial(HPoly, dim, ineqs, eqs)


def parse_hpoly(text: str) -> HPoly:
    return _document(text, _hpoly)


def serialize_vpoly(poly: VPoly) -> str:
    out = [f"VPOLY {poly.dim} {len(poly.vertices)}"]
    for p in poly.vertices:
        out.append(" ".join(str(x) for x in p))
    return "\n".join(out) + "\n"


def _vpoly(lines, header):
    dim, npts = _header(header, "VPOLY <dim> <#pts>")
    at = []
    pts = _block(lines, npts, "point", dim, f"{dim} coordinates", at=at)

    def build():
        first = {}
        for i, p in enumerate(map(tuple, pts)):
            if first.setdefault(p, i) != i:  # a point of dimension 0 has no line of its own
                raise ParseError("duplicate vertices are not allowed", at[i] or header[0])
        return VPoly(dim, pts)

    return build


def parse_vpoly(text: str) -> VPoly:
    return _document(text, _vpoly)


def serialize_extension(ext: Extension) -> str:
    d = ext.q.dim
    n = ext.target_dim
    out = [f"EXT {d} {n}"]
    out.append(serialize_hpoly(ext.q).rstrip("\n"))
    out.append("PROJ")
    for row, off in zip(ext.proj.matrix, ext.proj.offset):
        out.append(" ".join(str(x) for x in row) + f" {off}")
    return "\n".join(out) + "\n"


def parse_extension(text: str, name: str = "file") -> Extension:
    def body(lines, header):
        d, n = _header(header, "EXT <d> <n>")
        hheader = next(lines, None)
        if hheader is None:
            raise ParseError("missing HPOLY block")
        q = _hpoly(lines, hheader)()
        if q.dim != d:
            raise ParseError(f"EXT declares d={d} but HPOLY has dim {q.dim}", hheader[0])
        lineno, toks = next(lines, (None, None))
        if toks != ["PROJ"]:
            raise ParseError("expected 'PROJ'", lineno)
        rows = _block(lines, n, "projection", d + 1, f"{d}+1 rationals")
        return partial(Extension, q, AffineMap([r[:d] for r in rows], [r[d] for r in rows]), n, name)

    return _document(text, body)


def serialize_matrix(m, row_labels=None, col_labels=None) -> str:
    mm = linalg.mat(m)
    rows = len(mm)
    cols = len(mm[0]) if mm else 0
    out = [f"MATRIX {rows} {cols}"]
    if row_labels:
        for i, lab in enumerate(row_labels):
            out.append(f"# row {i}: {lab}")
    if col_labels:
        for j, lab in enumerate(col_labels):
            out.append(f"# col {j}: {lab}")
    for row in mm:
        out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"


def parse_matrix(text: str):
    def body(lines, header):
        rows, cols = _header(header, "MATRIX <rows> <cols>")
        return partial(linalg.mat, _block(lines, rows, "matrix", cols, f"{cols} entries"))

    return _document(text, body)


def sniff_poly(text: str):
    """Parse an .hpoly or .vpoly file by its header token."""
    def body(lines, header):
        lineno, toks = header
        parse_body = {"HPOLY": _hpoly, "VPOLY": _vpoly}.get(toks[0])
        if parse_body is None:
            raise ParseError(f"unknown header {toks[0]!r}", lineno)
        return parse_body(lines, header)

    return _document(text, body)
