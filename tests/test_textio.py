"""Text grammar for scalars, series, and module files."""

import contextlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import abmod

from abmod import (
    BadParameter,
    ParseError,
    Scalar,
    Series,
    emit_module_file,
    format_scalar,
    format_series,
    from_expression,
    make_E_lambda_mu_alpha,
    make_J_k,
    parse_module_file,
    parse_scalar,
    parse_series,
    random_regular,
)
from abmod import textio
from abmod.cli import main
from abmod.textio import MAX_FILE_RANK, MAX_PRECISION


# -- scalars ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Scalar(0)),
        ("3", Scalar(3)),
        ("-2", Scalar(-2)),
        ("1/2", Scalar(Fraction(1, 2))),
        ("-5/3", Scalar(Fraction(-5, 3))),
        ("i", Scalar(0, 1)),
        ("-i", Scalar(0, -1)),
        ("(2*i)", Scalar(0, 2)),
        ("(1+i)", Scalar(1, 1)),
        ("(1/2-3*i)", Scalar(Fraction(1, 2), -3)),
        ("(3+i)", Scalar(3, 1)),
        ("(i)", Scalar(0, 1)),
        ("(1/2*i)", Scalar(0, Fraction(1, 2))),
        ("(1-i)", Scalar(1, -1)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


def test_scalar_round_trip():
    values = [
        Scalar(0), Scalar(1), Scalar(-1), Scalar(Fraction(7, 3)),
        Scalar(0, 1), Scalar(0, -1), Scalar(2, -3),
        Scalar(Fraction(-1, 2), Fraction(5, 4)),
    ]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_parse_scalar_rejects_garbage():
    for bad in ["", "1//2", "b", "1..5", "+"]:
        with pytest.raises(ParseError):
            parse_scalar(bad)


@pytest.mark.parametrize("digit", ["²", "①"])  # superscript 2, circled 1
def test_a_digit_int_refuses_is_an_unexpected_character(digit):
    message = f"^unexpected character '{digit}'"
    with pytest.raises(ParseError, match=message):
        parse_scalar(digit)
    with pytest.raises(ParseError, match=message):
        parse_series(f"3/{digit}", 9)
    with pytest.raises(ParseError, match=f"^in catalog expression 'E\\({digit}\\)': "
                                         f"unexpected character '{digit}'$"):
        from_expression(f"E({digit})", 8)
    with pytest.raises(ParseError) as info:
        parse_module_file(f"rank 1\nprecision 4\nm 1 1: b^{digit}\n")
    assert str(info.value) == f"unexpected character '{digit}' (line 3, column 10)"


@pytest.mark.parametrize("entry,column", [("m 1 1: b +* b", 11), ("  m 1 1: b +* b", 13)])
def test_a_module_file_error_counts_its_column_in_the_whole_line(entry, column):
    with pytest.raises(ParseError) as info:
        parse_module_file(f"rank 1\nprecision 4\n{entry}  # comment\n")
    assert str(info.value) == f"expected 'INT', found '*' (line 3, column {column})"


@pytest.mark.parametrize("entry,column", [("m 1 1: 1/2*b +", 15), ("m 1 1: (1/2", 12),
                                          ("m 1 1:", 7), ("m 1 1: 1/2*b +   ", 15)])
def test_a_module_file_line_that_ends_early_points_past_its_last_character(
        tmp_path, entry, column):
    text = f"rank 2\nprecision 8\n{entry}  # comment\n"
    with pytest.raises(ParseError) as info:
        parse_module_file(text)
    assert str(info.value) == f"unexpected end of input (line 3, column {column})"
    path = tmp_path / "early.txt"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["info", str(path)]) == 2
    assert out.getvalue() == ""


def test_a_scalar_that_ends_early_says_so_with_its_column():
    with pytest.raises(ParseError, match="^unexpected end of input$") as info:
        parse_scalar("(")
    assert (info.value.line, info.value.column) == (None, 2)


@pytest.mark.parametrize("precision,entry,message", [
    (4, "m 1 1: 1 + 3*b^7",
     "term of order b^7 exceeds stated precision 4 (line 3, column 12)"),
    (1, "m 1 1:  b", "term of order b^1 exceeds stated precision 1 (line 3, column 9)"),
    (4, "m 1 1: 1/0*b", "zero denominator (line 3, column 10)"),
    (4, "m 1 1: (2+3/0*i)", "zero denominator (line 3, column 13)"),
])
def test_precision_and_denominator_errors_carry_their_column(precision, entry, message):
    with pytest.raises(ParseError) as info:
        parse_module_file(f"rank 1\nprecision {precision}\n{entry}\n")
    assert str(info.value) == message


def test_an_integer_too_long_for_int_is_a_parse_error():
    digits = "1" * 5000
    with pytest.raises(ParseError) as info:
        parse_module_file(f"rank 1\nprecision 4\nm 1 1: b^{digits}\n")
    assert str(info.value) == "integer of 5000 digits is too long (line 3, column 10)"


@pytest.mark.parametrize("parse", [lambda: parse_scalar("--1"),
                                   lambda: parse_series("1 - -2*b", 4),
                                   lambda: parse_series("--b", 4),
                                   lambda: from_expression("E(--1)", 8)],
                         ids=["--1", "1 - -2*b", "--b", "E(--1)"])
def test_a_bare_coefficient_takes_no_sign(parse):
    with pytest.raises(ParseError, match="expected 'INT', found '-'"):
        parse()


def test_a_scalar_a_first_term_and_a_real_in_parentheses_keep_their_sign():
    assert parse_series("1 - b", 4) == -parse_series("-1 + b", 4)
    with pytest.raises(ParseError):
        parse_series("1 - -b", 4)
    assert parse_scalar("-2") == Scalar(-2)
    assert parse_scalar("(-1/2*i)") == Scalar(0, Fraction(-1, 2))
    assert parse_scalar("(-1/2+i)") == Scalar(Fraction(-1, 2), 1)
    assert parse_series("-2*b - 1", 4) == parse_series("-1 - 2*b", 4)
    assert from_expression("E(-1/3)", 8) == from_expression("E((-1/3))", 8)


def test_decimal_digits_of_any_script_are_integers():
    arabic_indic_12 = "١٢"
    assert parse_scalar(arabic_indic_12) == Scalar(12)
    assert parse_series(f"{arabic_indic_12}*b", 4) == parse_series("12*b", 4)


# -- series -----------------------------------------------------------------


def test_parse_series_basic():
    s = parse_series("1 + 2*b - (1/2)*b^3", 6)
    assert s.coefficient(0) == Scalar(1)
    assert s.coefficient(1) == Scalar(2)
    assert s.coefficient(2).is_zero()
    assert s.coefficient(3) == Scalar(Fraction(-1, 2))
    assert s.precision == 6


def test_parse_series_complex_coefficients():
    s = parse_series("(1+i)*b + i*b^2", 5)
    assert s.coefficient(1) == Scalar(1, 1)
    assert s.coefficient(2) == Scalar(0, 1)
    assert parse_series("(i)*b", 5) == parse_series("i*b", 5)


def test_parse_series_power_at_or_above_precision_rejected():
    with pytest.raises(ParseError):
        parse_series("b^6", 6)
    parse_series("b^5", 6)  # highest representable power is fine


def test_series_round_trip():
    for text in ["0", "1", "b", "2*b^2 - b + 1/3", "(1-i)*b^4",
                 "(i)", "(i)*b", "(1/2*i)", "(1-i)"]:
        s = parse_series(text, 8)
        assert parse_series(format_series(s), 8) == s


def test_parse_series_cost_follows_the_text_not_the_precision():
    # Only the terms are built: a one-term entry at a stated precision of
    # 10^7 must not allocate anything of that size.
    tracemalloc.start()
    try:
        s = parse_series("(1/2)*b^3 + b - b^3 + 2 - b", 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.precision == 10**7
    assert s.terms == ((0, Scalar(2)), (3, Scalar(Fraction(-1, 2))))
    assert peak < 100_000
    with pytest.raises(ParseError, match="exceeds stated precision 10000000"):
        parse_series("b^10000000", 10**7)


# -- module files -----------------------------------------------------------


GOLDEN = """\
# a rank-2 example
rank 2
precision 6

m 1 1: (1/2)*b
m 1 2: 1
m 2 2: -(1/2)*b
"""


def test_parse_module_file_golden():
    m = parse_module_file(GOLDEN)
    assert m.rank == 2
    assert m.precision == 6
    assert m.matrix[0][0].coefficient(1) == Scalar(Fraction(1, 2))
    assert m.matrix[0][1].coefficient(0) == Scalar(1)
    assert m.matrix[1][0].is_zero()          # omitted entries are zero


def test_emit_parse_round_trip_on_catalog():
    mods = [
        from_expression("E(1/2)", 8),
        from_expression("E(1,2)", 8),
        make_J_k(Scalar(1), 3, 8),
        make_E_lambda_mu_alpha(Scalar(2), 1, Scalar(0, 1), 8),
        random_regular(3, 11, 10),
    ]
    for m in mods:
        text = emit_module_file(m)
        again = parse_module_file(text)
        assert again.rank == m.rank and again.precision == m.precision
        assert all(
            again.matrix[i][j] == m.matrix[i][j]
            for i in range(m.rank) for j in range(m.rank)
        )
        assert emit_module_file(again) == text  # emission is canonical


def test_parse_module_file_error_carries_line():
    text = "rank 1\nprecision 4\nm 1 1: 1//2\n"
    with pytest.raises(ParseError) as info:
        parse_module_file(text)
    assert info.value.line == 3


def test_parse_module_file_rejects_duplicates():
    text = "rank 1\nprecision 4\nm 1 1: b\nm 1 1: 2*b\n"
    with pytest.raises(ParseError):
        parse_module_file(text)


def test_parse_module_file_rejects_a_second_rank_line():
    text = "rank 1\nprecision 4\nrank 2\nm 1 1: b\n"
    with pytest.raises(ParseError, match="duplicate rank line") as info:
        parse_module_file(text)
    assert info.value.line == 3


def test_parse_module_file_rejects_out_of_range_indices():
    text = "rank 1\nprecision 4\nm 2 1: b\n"
    with pytest.raises(ParseError):
        parse_module_file(text)


def test_parse_module_file_rank_ceiling():
    assert parse_module_file(f"rank {MAX_FILE_RANK}\nprecision 1\n").rank == MAX_FILE_RANK
    with pytest.raises(BadParameter):
        parse_module_file(f"rank {MAX_FILE_RANK + 1}\nprecision 1\n")


def test_parse_module_file_precision_ceiling(monkeypatch):
    at = parse_module_file(f"rank 1\nprecision {MAX_PRECISION}\nm 1 1: b\n")
    assert at.precision == MAX_PRECISION

    def never(*args, **kwargs):
        raise AssertionError("an entry was built above the precision ceiling")

    monkeypatch.setattr(Series, "zero", staticmethod(never))
    monkeypatch.setattr(textio, "parse_series", never)
    with pytest.raises(BadParameter, match=f"{MAX_PRECISION + 1} exceeds the ceiling"):
        parse_module_file(f"rank 2\nprecision {MAX_PRECISION + 1}\nm 1 1: b\n")


@pytest.mark.parametrize(
    "header",
    ["rankle 1", "rank 1 2", "rank", "rank1", "precisionxyz 6 junk", "precision 6 junk",
     "rank +2", "precision 1_0", "rank 0", "precision -1"],
)
def test_parse_module_file_requires_exact_header_keyword_and_one_integer(header):
    # Only the keyword itself followed by exactly one integer is a header.
    lines = ["rank 1", "precision 6", "m 1 1: b"]
    lines[0 if header.startswith("rank") else 1] = header
    with pytest.raises(ParseError) as info:
        parse_module_file("\n".join(lines) + "\n")
    assert info.value.line == (1 if header.startswith("rank") else 2)


@pytest.mark.parametrize("entry", ["m1 1: b", "mm 1 1: b", "m +1 1: b", "m 1 x: b",
                                   "m 1 1 b", "m 1: b", "m 1 1 1: b"])
def test_an_entry_line_is_m_two_integers_and_a_colon(entry):
    with pytest.raises(ParseError) as info:
        parse_module_file(f"rank 1\nprecision 6\n{entry}\n")
    assert info.value.line == 3


def test_a_missing_header_points_one_line_past_the_last():
    for text, message in (("precision 4\nm 1 1: b\n", "missing rank line (line 3)"),
                          ("rank 1\n", "missing precision line (line 2)"),
                          ("", "missing rank line (line 1)")):
        with pytest.raises(ParseError) as info:
            parse_module_file(text)
        assert str(info.value) == message


# -- whitespace between tokens ---------------------------------------------

# a run of digits, a run of letters, or any other single non-space character
_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+|\S")
_GAPS = st.sampled_from(["", "", " ", "  ", "\t"])


def _spaced(draw, text):
    """text with drawn whitespace added before, between and after its
    tokens (the whitespace it already has stays)."""
    pieces, at = [], 0
    for token in _TOKEN.finditer(text):
        pieces += [text[at:token.start()], draw(_GAPS), token.group()]
        at = token.end()
    return "".join(pieces) + text[at:] + draw(_GAPS)


_REALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_SCALARS = st.builds(Scalar, _REALS, st.one_of(st.just(0), _REALS))
_NONZERO = _SCALARS.filter(bool)


@st.composite
def catalog_expressions(draw):
    """A valid expression of every catalog family, arguments negative and
    complex included."""
    s = lambda strategy=_SCALARS: format_scalar(draw(strategy))  # noqa: E731
    n = lambda lo: draw(st.integers(lo, 3))  # noqa: E731
    return draw(st.sampled_from([
        f"E({s()})", f"E({s()};{n(0)})", f"E({s()},{s()})",
        f"E({s()},{n(1)};{s(_NONZERO)})", f"J({n(1)};{s()})",
        f"F({n(2)};{s()};{s(_NONZERO)})", f"rand({n(1)};{draw(st.integers(0, 99))})",
    ]))


def test_whitespace_between_tokens_does_not_matter():
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        expr = data.draw(catalog_expressions())
        module = from_expression(expr, 6)
        assert from_expression(_spaced(data.draw, expr), 6) == module
        text = emit_module_file(module)
        spaced = "\n".join(_spaced(data.draw, line) for line in text.splitlines())
        assert parse_module_file(spaced) == module

    check()


# -- fuzzing ----------------------------------------------------------------

FUZZ_SOURCES = [
    emit_module_file(from_expression(expr, 10))
    for expr in ("E(1/2,1/3)", "J(3;0)", "rand(3;1000)", "E(1/3,2;(1+i))")
]

# Inserted characters are never digits: one digit inserted into the rank
# header can ask for a rank in the thousands, whose zero matrix alone takes
# gigabytes (there is no ceiling on the rank yet).  Replacements, which
# cannot lengthen a number, may be digits.
INSERTED = " \n\t#:;,.+-*/^()ibmrankpecisoxyzé\x00"
REPLACED = INSERTED + "0123456789"


@st.composite
def mutated_files(draw):
    text = draw(st.sampled_from(FUZZ_SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace", "cut")))
        if kind == "insert":
            text = text[:pos] + draw(st.sampled_from(INSERTED)) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 3)):]
        elif kind == "replace":
            text = text[:pos] + draw(st.sampled_from(REPLACED)) + text[pos + 1:]
        else:
            text = text[:pos]
    return text


def test_mutated_module_files_fail_only_with_parse_errors(tmp_path):
    path = tmp_path / "mutated.txt"

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(mutated_files())
    def check(text):
        try:
            parse_module_file(text)
        except ParseError as exc:
            assert exc.line is not None
        else:
            return
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["info", str(path)]) == 2
        assert err.getvalue().startswith("abmod: parse error: ")
        assert "Traceback" not in err.getvalue()

    check()


def test_malformed_module_file_exits_2_without_traceback(tmp_path):
    path = tmp_path / "malformed.txt"
    path.write_text(FUZZ_SOURCES[1].replace("m 2 2: b", "m 2 2: b +* b"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(abmod.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "abmod.cli", "info", str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("abmod: parse error: ")
    assert "Traceback" not in proc.stderr
