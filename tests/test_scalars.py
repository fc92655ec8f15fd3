"""Exact rational-complex scalar arithmetic."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from abmod import (
    ONE,
    BadParameter,
    Element,
    Scalar,
    Series,
    ZERO,
    eigen_lift,
    from_expression,
    make_E_lambda,
    make_J_k,
    n_lambda,
    twist,
)


def test_construction_and_predicates():
    assert ZERO.is_zero() and not ZERO.is_one()
    assert ONE.is_one() and not ONE.is_zero()
    assert Scalar(3).is_integer() and Scalar(3).is_real()
    assert Scalar(Fraction(1, 2)).is_real() and not Scalar(Fraction(1, 2)).is_integer()
    assert not Scalar(0, 1).is_real()
    assert bool(Scalar(0, 1)) and not bool(ZERO)


def test_of_coercion():
    assert Scalar.of(3) == Scalar(3)
    assert Scalar.of(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    s = Scalar(1, 2)
    assert Scalar.of(s) is s


@pytest.mark.parametrize("x", [0.5, "1/2", None, 1j])
def test_of_refuses_a_value_that_is_not_exact(x):
    with pytest.raises(BadParameter, match=r"is not exact: a scalar is a Scalar, an int or a Fraction$"):
        Scalar.of(x)


def _e_half():
    return from_expression("E(1/2)", 8)


# Each library entry point that takes a scalar argument reads it through
# Scalar.of, so a string or a float is refused with BadParameter there.
NOT_EXACT_CALLS = {
    "make_J_k": lambda: make_J_k("1/2", 2, 8),
    "make_E_lambda": lambda: make_E_lambda(0.5, 8),
    "twist": lambda: twist(_e_half(), "1"),
    "n_lambda": lambda: n_lambda(_e_half(), "3"),
    "eigen_lift": lambda: eigen_lift(_e_half(), "1/2", Element([Series.one(8)]), 0),
}


@pytest.mark.parametrize("entry", sorted(NOT_EXACT_CALLS))
def test_entry_points_refuse_a_scalar_that_is_not_exact(entry):
    with pytest.raises(BadParameter, match="is not exact"):
        NOT_EXACT_CALLS[entry]()


def test_field_arithmetic():
    a = Scalar(1, 2)          # 1 + 2i
    b = Scalar(3, -1)         # 3 - i
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert a * b == Scalar(5, 5)          # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert a * b / b == a
    assert -a == Scalar(-1, -2)
    assert 1 - a == Scalar(0, -2)
    assert 1 / Scalar(0, 1) == Scalar(0, -1)     # 1/i = -i


def test_inverse_exact():
    a = Scalar(Fraction(2, 3), Fraction(-1, 5))
    assert a * a.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sort_key_orders_by_real_then_imaginary():
    values = [Scalar(1), Scalar(0, 1), Scalar(0, -1), Scalar(Fraction(1, 2)), ZERO]
    ordered = sorted(values, key=Scalar.sort_key)
    assert ordered == [Scalar(0, -1), ZERO, Scalar(0, 1), Scalar(Fraction(1, 2)), Scalar(1)]


def test_equality_and_hash():
    assert Scalar(Fraction(2, 4)) == Scalar(Fraction(1, 2))
    assert hash(Scalar(1, 1)) == hash(Scalar(1, 1))
    assert Scalar(1) != Scalar(1, 1)


def test_real_scalar_hashes_like_its_value():
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
        assert Scalar(value) == value
        assert hash(Scalar(value)) == hash(value)
        assert len({Scalar(value), value}) == 1
    assert {Scalar(3): "x"}[3] == "x"
    assert hash(Scalar(Fraction(6, 2))) == hash(3)


MODULUS = sys.hash_info.modulus

rationals_for_hashing = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    # Denominators that are multiples of the hash modulus have no inverse
    # modulo it: Fraction hashes them as infinity.
    st.builds(lambda n, k: Fraction(n, k * MODULUS),
              st.integers(-10**30, 10**30), st.integers(1, 3)),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(rationals_for_hashing)
@example(Fraction(1, MODULUS))
@example(Fraction(-3, MODULUS))
@example(Fraction(-(MODULUS + 2), 2))  # hashes to -1 before the -1 -> -2 rule
@example(Fraction(-1, 2))
@example(-1)
def test_real_scalar_hash_is_fraction_hash(q):
    assert hash(Scalar(q)) == hash(q)


def test_parts_are_read_only_fractions():
    a = Scalar(Fraction(3, 4), Fraction(-1, 6))
    assert a.re == Fraction(3, 4) and isinstance(a.re, Fraction)
    assert a.im == Fraction(-1, 6) and isinstance(a.im, Fraction)
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
    with pytest.raises(AttributeError):
        a.den = 2
    for parts in ((0.5,), ("1",), (1, 0.5)):
        with pytest.raises(BadParameter, match="is not exact: a scalar part is an int or"):
            Scalar(*parts)


def test_repr_is_unchanged():
    assert repr(Scalar(3)) == "Scalar(Fraction(3, 1), Fraction(0, 1))"
    assert repr(Scalar(Fraction(1, 2), -2)) == "Scalar(Fraction(1, 2), Fraction(-2, 1))"


def test_division_by_rational_and_zero():
    a = Scalar(1, 2)
    assert a / 2 == Scalar(Fraction(1, 2), 1)
    assert a / Fraction(-2, 3) == Scalar(Fraction(-3, 2), -3)
    assert Fraction(1, 2) / Scalar(0, 1) == Scalar(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        a / 0
    with pytest.raises(ZeroDivisionError):
        a / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


# -- properties against a (Fraction, Fraction) reference ------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
rational_like = st.one_of(st.integers(-20, 20), rationals)
pairs = st.tuples(rationals, rationals)


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _pair(s):
    return (s.re, s.im)


@PROPERTY
@given(pairs)
def test_normalization_invariant(x):
    s = Scalar(*x)
    assert s.den > 0
    assert gcd(s.re_num, s.im_num, s.den) == 1
    assert (Fraction(s.re_num, s.den), Fraction(s.im_num, s.den)) == x
    assert _pair(s) == x


@PROPERTY
@given(pairs, pairs)
def test_field_operations_match_reference(x, y):
    a, b = Scalar(*x), Scalar(*y)
    assert _pair(a + b) == (x[0] + y[0], x[1] + y[1])
    assert _pair(a - b) == (x[0] - y[0], x[1] - y[1])
    assert _pair(-a) == (-x[0], -x[1])
    assert _pair(a * b) == _ref_mul(x, y)
    if any(y):
        assert _pair(b.inverse()) == _ref_inverse(y)
        assert _pair(a / b) == _ref_mul(x, _ref_inverse(y))
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b


@PROPERTY
@given(pairs, rational_like)
def test_mixed_operations_match_reference(x, r):
    a = Scalar(*x)
    assert _pair(a + r) == _pair(r + a) == (x[0] + r, x[1])
    assert _pair(a - r) == (x[0] - r, x[1])
    assert _pair(r - a) == (r - x[0], -x[1])
    assert _pair(a * r) == _pair(r * a) == (x[0] * r, x[1] * r)
    if r:
        assert _pair(a / r) == (x[0] / r, x[1] / r)
    if any(x):
        assert _pair(r / a) == _ref_mul((Fraction(r), Fraction(0)), _ref_inverse(x))


@PROPERTY
@given(pairs, pairs)
def test_equality_hash_order_and_repr_match_reference(x, y):
    a, b = Scalar(*x), Scalar(*y)
    assert (a == b) == (x == y)
    assert (a != b) == (x != y)
    if x == y:
        assert hash(a) == hash(b)
    if not x[1]:
        assert a == x[0] and hash(a) == hash(x[0])
    assert a.sort_key() == x
    assert (a.sort_key() < b.sort_key()) == (x < y)
    assert repr(a) == f"Scalar({x[0]!r}, {x[1]!r})"
    assert a.is_zero() == (x == (0, 0))
    assert a.is_one() == (x == (1, 0))
    assert a.is_real() == (x[1] == 0)
    assert a.is_integer() == (x[1] == 0 and x[0].denominator == 1)
    assert bool(a) == any(x)
