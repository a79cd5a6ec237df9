"""Module file format: round trips through the tests' canonical writer and
positioned parse errors."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from kronbrist.bristles import bristle, is_bristled, unit_point
from kronbrist.families import preinjective
from kronbrist.linalg import GF, QQ, Matrix
from kronbrist.modfile import ModuleFileError, parse_module_file
from kronbrist.modules import KroneckerModule, simple_module

from oracles import kron_fixture, write_module_file

DATA = Path(__file__).parent / "data"

B1_FILE = """kron n=3 field=gf(5) dims=1,1
alpha 1
1
alpha 2
0
alpha 3
0
"""


class TestRoundTrip:
    def test_unit_bristle(self):
        M = parse_module_file(B1_FILE)
        assert M == bristle(unit_point(3, GF(5), 1))
        assert write_module_file(M) == B1_FILE

    def test_write_then_parse_identity(self):
        for M in (preinjective(3, 2, GF(5)), preinjective(2, 3, GF(3)),
                  kron_fixture("dim32_bristled", GF(2))):
            assert parse_module_file(write_module_file(M)) == M

    def test_sink_simple_has_empty_blocks(self):
        S2 = simple_module(3, GF(5), 2)
        text = write_module_file(S2)
        assert text == "kron n=3 field=gf(5) dims=0,1\nalpha 1\nalpha 2\nalpha 3\n"
        assert parse_module_file(text) == S2

    def test_rational_entries(self):
        M = KroneckerModule((Matrix.from_rows(QQ, [[Fraction(3, 2)]]),
                             Matrix.from_rows(QQ, [[Fraction(-1)]])))
        text = write_module_file(M)
        assert "3/2" in text and "field=q" in text
        assert parse_module_file(text) == M

    def test_comments_and_blank_lines_ignored(self):
        text = """# a module
kron n=3 field=gf(5) dims=1,1   # header comment

alpha 1
1  # entry comment
alpha 2
0
alpha 3
0
"""
        assert parse_module_file(text) == bristle(unit_point(3, GF(5), 1))

    def test_canonicalizes_noncanonical_whitespace(self):
        text = "kron n=3  field=gf(5)  dims=1,1\nalpha  1\n 1 \nalpha 2\n0\nalpha 3\n0\n"
        M = parse_module_file(text)
        assert write_module_file(M) == B1_FILE


class TestFixtureFiles:
    def test_dim32_bristled_file(self):
        """The zig-zag fixture: over v1, v2 the first map sends u0 to v1, the
        second u1 to v1 + v2, the third u2 to v2."""
        M = parse_module_file((DATA / "dim32_bristled.kron").read_text())
        F2 = GF(2)
        alphas = (Matrix.from_rows(F2, [[1, 0, 0], [0, 0, 0]]),
                  Matrix.from_rows(F2, [[0, 1, 0], [0, 1, 0]]),
                  Matrix.from_rows(F2, [[0, 0, 0], [0, 0, 1]]))
        assert M == KroneckerModule(alphas)
        assert is_bristled(M)

    def test_dim32_not_bristled_file(self):
        M = parse_module_file((DATA / "dim32_not_bristled.kron").read_text())
        assert not is_bristled(M)


class TestErrors:
    def test_wrong_shape(self):
        text = "kron n=3 field=gf(5) dims=2,1\nalpha 1\n1\nalpha 2\n0 0\nalpha 3\n0 0\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert err.value.line == 3
        assert "expected 2" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ModuleFileError):
            parse_module_file("kron n=3 dims=1,1\n")

    def test_nonprime_field(self):
        with pytest.raises(ModuleFileError):
            parse_module_file("kron n=1 field=gf(4) dims=0,0\nalpha 1\n")

    def test_entry_out_of_range(self):
        text = "kron n=1 field=gf(5) dims=1,1\nalpha 1\n7\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert err.value.line == 3 and err.value.column == 1
        assert "out of range" in str(err.value)

    def test_column_of_later_entry(self):
        text = "kron n=1 field=gf(5) dims=3,1\nalpha 1\n1 1 9\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert err.value.line == 3 and err.value.column == 5

    def test_non_reduced_rational(self):
        text = "kron n=1 field=q dims=1,1\nalpha 1\n2/4\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert "lowest terms" in str(err.value)

    def test_missing_block(self):
        text = "kron n=2 field=gf(2) dims=1,1\nalpha 1\n1\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert "unexpected end of file" in str(err.value)

    def test_wrong_block_label(self):
        text = "kron n=2 field=gf(2) dims=1,1\nalpha 1\n1\nalpha 3\n1\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert "expected 'alpha 2'" in str(err.value)

    def test_trailing_garbage(self):
        text = B1_FILE + "extra\n"
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert "trailing" in str(err.value)

    @pytest.mark.parametrize("text, line, column", [
        ("kron n=1 field=gf(5) dims=2,1\nalpha 1\n1 \u00b2\n", 3, 3),  # superscript two
        ("kron n=1 field=gf(5) dims=1,1\nalpha 1\n\u0663\n", 3, 1),  # Arabic-Indic three
        ("kron n=1 field=gf(5) dims=1,1\nalpha 1\n--3\n", 3, 1),
        ("kron n=1 field=q dims=2,1\nalpha 1\n0 1/\u0663\n", 3, 3),
        ("kron n=1 field=q dims=1,1\nalpha 1\n\u00b9\n", 3, 1),
        ("kron n=\u0661 field=gf(5) dims=1,1\nalpha 1\n1\n", 1, 1),
        ("kron n=1 field=gf(\u0665) dims=1,1\nalpha 1\n1\n", 1, 1),
        ("kron n=1 field=gf(5) dims=1,\u0661\nalpha 1\n1\n", 1, 1),
        ("kron n=1 field=gf(5) dims=1,1\nalpha \u0661\n1\n", 2, 1),
    ])
    def test_digits_are_ascii(self, text, line, column):
        """A digit of another script, or a superscript, is refused where it
        stands: read as its value it would make two byte strings one
        module, and ``int`` refuses a superscript outright."""
        with pytest.raises(ModuleFileError) as err:
            parse_module_file(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_empty_file(self):
        with pytest.raises(ModuleFileError):
            parse_module_file("# nothing here\n")
