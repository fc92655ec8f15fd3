"""Text grammar for scalars, series, and module files."""

from fractions import Fraction

import pytest

from abmod import (
    ParseError,
    Scalar,
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


def test_parse_series_power_at_or_above_precision_rejected():
    with pytest.raises(ParseError):
        parse_series("b^6", 6)
    parse_series("b^5", 6)  # highest representable power is fine


def test_series_round_trip():
    for text in ["0", "1", "b", "2*b^2 - b + 1/3", "(1-i)*b^4"]:
        s = parse_series(text, 8)
        assert parse_series(format_series(s), 8) == s


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


def test_parse_module_file_rejects_out_of_range_indices():
    text = "rank 1\nprecision 4\nm 2 1: b\n"
    with pytest.raises(ParseError):
        parse_module_file(text)


@pytest.mark.parametrize(
    "header",
    ["rankle 1", "rank 1 2", "rank", "rank1", "precisionxyz 6 junk", "precision 6 junk"],
)
def test_parse_module_file_requires_exact_header_keyword_and_one_integer(header):
    # Only the keyword itself followed by exactly one integer is a header.
    lines = ["rank 1", "precision 6", "m 1 1: b"]
    lines[0 if header.startswith("rank") else 1] = header
    with pytest.raises(ParseError) as info:
        parse_module_file("\n".join(lines) + "\n")
    assert info.value.line == (1 if header.startswith("rank") else 2)
