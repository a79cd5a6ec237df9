"""Bit-exact text format for Kronecker modules.

Grammar (UTF-8, line oriented, ``#`` starts a comment):

    kron n=<int> field=<gf(p)|q> dims=<a>,<b>
    alpha 1
    <b rows of a whitespace-separated entries>
    ...
    alpha n
    <b rows>

Entries are integers in [0, p) over gf(p), or rationals ``num`` /
``num/den`` in lowest terms with positive denominator over q.  Every digit,
in the header and in the entries, is an ASCII digit 0-9.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .linalg import CharacteristicError, FieldSpec, Matrix
from .modules import KroneckerModule


class ModuleFileError(ValueError):
    """Malformed module file; carries 1-based line and column positions."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# [0-9], not ``\d`` or ``str.isdigit``, which take other scripts' digits and superscripts
_HEADER_RE = re.compile(
    r"^kron\s+n=([0-9]+)\s+field=(gf\([0-9]+\)|q)\s+dims=([0-9]+),([0-9]+)\s*$")
_ALPHA_RE = re.compile(r"^alpha\s+([0-9]+)\s*$")
_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _logical_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        if stripped.strip():
            yield idx, raw, stripped


def _parse_entry(token: str, field: FieldSpec, line: int, column: int):
    if field.is_finite:
        if not _INTEGER_RE.fullmatch(token):
            raise ModuleFileError(f"expected an integer entry, got {token!r}", line, column)
        value = int(token)
        if not (0 <= value < field.characteristic):
            raise ModuleFileError(
                f"entry {value} out of range [0, {field.characteristic})", line, column)
        return value
    m = _RATIONAL_RE.fullmatch(token)
    if not m:
        raise ModuleFileError(f"expected num or num/den, got {token!r}", line, column)
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise ModuleFileError("zero denominator", line, column)
    if gcd(abs(num), den) != 1:
        raise ModuleFileError(f"rational {token} is not in lowest terms", line, column)
    return Fraction(num, den)


def parse_module_file(text: str) -> KroneckerModule:
    lines = list(_logical_lines(text))
    if not lines:
        raise ModuleFileError("empty file: missing header", 1)
    cursor = 0

    def take():
        nonlocal cursor
        if cursor >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ModuleFileError("unexpected end of file", last + 1)
        item = lines[cursor]
        cursor += 1
        return item

    lineno, raw, stripped = take()
    m = _HEADER_RE.match(stripped.strip())
    if not m:
        raise ModuleFileError(
            "malformed header; expected 'kron n=<int> field=<gf(p)|q> dims=<a>,<b>'", lineno)
    n = int(m.group(1))
    if n < 1:
        raise ModuleFileError("need n >= 1", lineno)
    field_token = m.group(2)
    if field_token == "q":
        field = FieldSpec.rationals()
    else:
        p = int(field_token[3:-1])
        try:
            field = FieldSpec.gf(p)
        except CharacteristicError as exc:
            raise ModuleFileError(str(exc), lineno) from None
    a, b = int(m.group(3)), int(m.group(4))

    alphas = []
    for i in range(1, n + 1):
        lineno, raw, stripped = take()
        am = _ALPHA_RE.match(stripped.strip())
        if not am or int(am.group(1)) != i:
            raise ModuleFileError(f"expected 'alpha {i}'", lineno)
        if a == 0:
            # rows of width zero carry no entries and are not written out
            alphas.append(Matrix.zeros(field, b, 0))
            continue
        rows = []
        for _ in range(b):
            lineno, raw, stripped = take()
            tokens = [(t.group(0), t.start() + 1) for t in re.finditer(r"\S+", stripped)]
            if len(tokens) != a:
                raise ModuleFileError(
                    f"matrix row has {len(tokens)} entries, expected {a}", lineno)
            row = [_parse_entry(tok, field, lineno, column) for tok, column in tokens]
            rows.append(row)
        alphas.append(Matrix.from_rows(field, rows, cols=a))
    if cursor != len(lines):
        lineno = lines[cursor][0]
        raise ModuleFileError("trailing content after the last matrix block", lineno)
    return KroneckerModule(tuple(alphas))
