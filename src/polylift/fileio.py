"""Bit-exact text formats for polyhedra, extensions, and matrices.

All rationals are written canonically ("3", "-1/2") and parse back exactly;
lines starting with '#' are comments.  parse(serialize(x)) == x for every
format here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import InputError
from .kernel import AffineMap, HPoly, VPoly
from .constructions import Extension
from . import linalg

F = Fraction
# a canonical rational: no sign but a leading minus, no leading zero; the
# checks after the match reject -0, a denominator 1 and an unreduced pair
_RATIONAL = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")


class ParseError(InputError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def _fmt(x: Fraction) -> str:
    return str(x)


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


def _parse_count(tok, lineno):
    """A header count or dimension: a nonnegative decimal integer."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"bad count {tok!r}, expected a nonnegative integer", lineno)
    return int(tok)


def serialize_hpoly(poly: HPoly) -> str:
    out = [f"HPOLY {poly.dim} {len(poly.ineqs)} {len(poly.eqs)}"]
    for a, b in poly.ineqs:
        out.append(" ".join(_fmt(x) for x in a) + f" <= {_fmt(b)}")
    for c, d in poly.eqs:
        out.append(" ".join(_fmt(x) for x in c) + f" = {_fmt(d)}")
    return "\n".join(out) + "\n"


def _parse_hpoly_lines(lines, header):
    lineno, toks = header
    if len(toks) != 4 or toks[0] != "HPOLY":
        raise ParseError("expected 'HPOLY <dim> <#ineq> <#eq>'", lineno)
    dim, ni, ne = (_parse_count(t, lineno) for t in toks[1:])
    ineqs = []
    eqs = []
    for _ in range(ni):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in inequality block")
        if len(toks) != dim + 2 or toks[dim] != "<=":
            raise ParseError(f"expected {dim} coefficients, '<=', rhs", lineno)
        a = [_parse_frac(t, lineno) for t in toks[:dim]]
        ineqs.append((a, _parse_frac(toks[dim + 1], lineno)))
    for _ in range(ne):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in equation block")
        if len(toks) != dim + 2 or toks[dim] != "=":
            raise ParseError(f"expected {dim} coefficients, '=', rhs", lineno)
        c = [_parse_frac(t, lineno) for t in toks[:dim]]
        eqs.append((c, _parse_frac(toks[dim + 1], lineno)))
    return HPoly(dim, ineqs, eqs)


def parse_hpoly(text: str) -> HPoly:
    lines = _tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    poly = _parse_hpoly_lines(lines, header)
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return poly


def serialize_vpoly(poly: VPoly) -> str:
    out = [f"VPOLY {poly.dim} {len(poly.vertices)}"]
    for p in poly.vertices:
        out.append(" ".join(_fmt(x) for x in p))
    return "\n".join(out) + "\n"


def parse_vpoly(text: str) -> VPoly:
    lines = _tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    lineno, toks = header
    if len(toks) != 3 or toks[0] != "VPOLY":
        raise ParseError("expected 'VPOLY <dim> <#pts>'", lineno)
    dim, np_ = (_parse_count(t, lineno) for t in toks[1:])
    pts = []
    for _ in range(np_):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in point block")
        if len(toks) != dim:
            raise ParseError(f"expected {dim} coordinates", lineno)
        pts.append([_parse_frac(t, lineno) for t in toks])
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return VPoly(dim, pts)


def serialize_extension(ext: Extension) -> str:
    d = ext.q.dim
    n = ext.target_dim
    out = [f"EXT {d} {n}"]
    out.append(serialize_hpoly(ext.q).rstrip("\n"))
    out.append("PROJ")
    for row, off in zip(ext.proj.matrix, ext.proj.offset):
        out.append(" ".join(_fmt(x) for x in row) + f" {_fmt(off)}")
    return "\n".join(out) + "\n"


def parse_extension(text: str, name: str = "file") -> Extension:
    lines = _tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    lineno, toks = header
    if len(toks) != 3 or toks[0] != "EXT":
        raise ParseError("expected 'EXT <d> <n>'", lineno)
    d, n = (_parse_count(t, lineno) for t in toks[1:])
    hheader = next(lines, None)
    if hheader is None:
        raise ParseError("missing HPOLY block")
    q = _parse_hpoly_lines(lines, hheader)
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
        vals = [_parse_frac(t, lineno) for t in toks]
        rows.append(vals[:d])
        offs.append(vals[d])
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return Extension(q, AffineMap(rows, offs), n, name)


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
        out.append(" ".join(_fmt(x) for x in row))
    return "\n".join(out) + "\n"


def parse_matrix(text: str):
    lines = _tokens(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty file")
    lineno, toks = header
    if len(toks) != 3 or toks[0] != "MATRIX":
        raise ParseError("expected 'MATRIX <rows> <cols>'", lineno)
    rows, cols = (_parse_count(t, lineno) for t in toks[1:])
    out = []
    for _ in range(rows):
        lineno, toks = next(lines, (None, None))
        if toks is None:
            raise ParseError("unexpected end of file in matrix block")
        if len(toks) != cols:
            raise ParseError(f"expected {cols} entries", lineno)
        out.append([_parse_frac(t, lineno) for t in toks])
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("trailing content", extra[0])
    return linalg.mat(out)


def sniff_poly(text: str):
    """Parse an .hpoly or .vpoly file by its header token."""
    for _lineno, toks in _tokens(text):
        if toks[0] == "HPOLY":
            return parse_hpoly(text)
        if toks[0] == "VPOLY":
            return parse_vpoly(text)
        raise ParseError(f"unknown header {toks[0]!r}")
    raise ParseError("empty file")
