"""Truncated power series with precision tracking."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abmod import NotAUnit, PrecisionExhausted, Scalar, Series

HALF = Scalar(Fraction(1, 2))


def S(coeffs, precision):
    return Series([Scalar.of(c) for c in coeffs], precision)


def test_constructors():
    z = Series.zero(5)
    assert z.is_zero() and z.precision == 5
    one = Series.one(4)
    assert one.constant_term() == Scalar(1)
    m = Series.monomial(HALF, 2, 6)
    assert m.coefficient(2) == HALF and m.coefficient(1).is_zero()
    assert Series.b(3).coefficient(1) == Scalar(1)


def test_valuation():
    assert S([0, 0, 3], 6).valuation() == 2
    assert Series.zero(6).valuation() is None
    assert S([1], 6).valuation() == 0


def test_add_mul_exact():
    a = S([1, 2, 3], 8)
    b = S([0, 1], 8)
    assert (a + b).coefficient(1) == Scalar(3)
    prod = a * b           # (1 + 2b + 3b^2) * b
    assert prod.coefficient(0).is_zero()
    assert prod.coefficient(1) == Scalar(1)
    assert prod.coefficient(2) == Scalar(2)
    assert prod.coefficient(3) == Scalar(3)


def test_mul_precision_is_min():
    a = S([1, 1], 8)
    b = S([1], 3)
    assert (a * b).precision == 3
    assert (a + b).precision == 3


def test_derivative():
    a = S([5, 1, 3, 2], 7)   # 5 + b + 3b^2 + 2b^3
    d = a.derivative()
    assert d.coefficient(0) == Scalar(1)
    assert d.coefficient(1) == Scalar(6)
    assert d.coefficient(2) == Scalar(6)
    assert d.precision == 6


def test_shift_up_gains_precision():
    a = S([1, 2], 5)
    up = a.shift_up(3)
    assert up.precision == 8
    assert up.coefficient(3) == Scalar(1) and up.coefficient(4) == Scalar(2)


def test_shift_down_requires_divisibility():
    a = S([0, 0, 1, 4], 6)
    down = a.shift_down(2)
    assert down.coefficient(0) == Scalar(1) and down.coefficient(1) == Scalar(4)
    assert down.precision == 4
    with pytest.raises(ValueError):
        S([1], 4).shift_down(1)


def test_negate_variable():
    a = S([1, 1, 1, 1], 6)
    n = a.negate_variable()
    assert n.coefficient(0) == Scalar(1)
    assert n.coefficient(1) == Scalar(-1)
    assert n.coefficient(2) == Scalar(1)
    assert n.coefficient(3) == Scalar(-1)


def test_invert_unit():
    a = S([1, 1], 6)          # 1 + b
    inv = a.invert()
    prod = a * inv
    assert prod.coefficient(0) == Scalar(1)
    assert all(prod.coefficient(k).is_zero() for k in range(1, 6))
    with pytest.raises(NotAUnit):
        S([0, 1], 6).invert()


def test_split_at_quotient_remainder():
    a = S([1, 2, 3, 4], 6)
    quotient, remainder = a.split_at(2)
    assert quotient.coefficient(0) == Scalar(3) and quotient.coefficient(1) == Scalar(4)
    assert remainder.coefficient(0) == Scalar(1) and remainder.coefficient(1) == Scalar(2)
    assert quotient.shift_up(2) + remainder == a


def test_at_precision_truncates():
    a = S([1, 2, 3, 4], 6)
    t = a.at_precision(2)
    assert t.precision == 2
    assert t.coefficient(1) == Scalar(2)
    with pytest.raises(PrecisionExhausted):
        t.coefficient(3)


def test_equality_respects_common_precision():
    assert S([1, 2], 4) == S([1, 2, 0, 0], 4)
    assert S([1, 2], 4) != S([1, 3], 4)


# -- ring laws ---------------------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

scalars = st.builds(
    Scalar,
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
)


@st.composite
def series(draw, precision=None):
    w = draw(st.integers(1, 8)) if precision is None else precision
    return Series(draw(st.lists(scalars, min_size=0, max_size=w)), w)


@PROPERTY
@given(series(), series(), series())
def test_mul_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(series(), series(), series())
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROPERTY
@given(series(), series())
def test_mul_is_commutative_and_has_unit(a, b):
    assert a * b == b * a
    assert a * Series.one(a.precision) == a


@PROPERTY
@given(st.integers(1, 8).flatmap(series), scalars)
def test_units_invert(s, c0):
    if not c0:
        c0 = Scalar(1)
    s = Series((c0,) + s.coeffs[1:], s.precision)
    assert s.invert() * s == Series.one(s.precision)
    assert s * s.invert() == Series.one(s.precision)
