"""Truncated power series with precision tracking."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from abmod import BadParameter, NotAUnit, PrecisionExhausted, Scalar, Series
from abmod.series import _product

HALF = Scalar(Fraction(1, 2))


def S(coeffs, precision):
    return Series([Scalar.of(c) for c in coeffs], precision)


def test_constructors():
    z = Series.zero(5)
    assert z.is_zero() and z.precision == 5
    one = Series.one(4)
    assert one.coefficient(0) == Scalar(1)
    m = Series.monomial(HALF, 2, 6)
    assert m.coefficient(2) == HALF and m.coefficient(1).is_zero()
    assert Series.b(3).coefficient(1) == Scalar(1)


def test_repr_shows_the_series_and_its_precision():
    s = Series([Scalar(1), Scalar(0), Scalar(-2)], 5)
    assert repr(s) == "Series('1 - 2*b^2', W=5)"
    assert repr(Series.zero(3)) == "Series('0', W=3)"


def test_valuation():
    assert S([0, 0, 3], 6).valuation() == 2
    assert Series.zero(6).valuation() is None
    assert S([1], 6).valuation() == 0


def test_mul_dispatch_keeps_every_operand_type():
    a = S([1, 2, 0, 3], 6)
    assert a * S([0, 1], 5) == S([0, 1, 2, 0, 3], 5)
    assert a * HALF == S([HALF, 1, 0, Fraction(3, 2)], 6)
    assert a * 2 == 2 * a == S([2, 4, 0, 6], 6)
    assert a * Fraction(1, 2) == a * HALF
    assert a * 0 == Series.zero(6)
    assert Series.__mul__(a, 1.5) is NotImplemented
    with pytest.raises(TypeError):
        a * 1.5
    with pytest.raises(TypeError):
        a * "b"


@pytest.mark.parametrize("build", [
    lambda: Series([0.5], 3),
    lambda: Series(["1"], 2),
    lambda: Series.monomial(0.5, 1, 3),
], ids=["float", "str", "monomial"])
def test_an_inexact_coefficient_is_refused(build):
    with pytest.raises(BadParameter, match="is not exact"):
        build()


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
    with pytest.raises(BadParameter):
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


def test_at_precision_truncates():
    a = S([1, 2, 3, 4], 6)
    t = a.at_precision(2)
    assert t.precision == 2
    assert t.coefficient(1) == Scalar(2)
    with pytest.raises(PrecisionExhausted):
        t.coefficient(3)


def test_coefficient_refuses_negative_order():
    a = S([1, 2, 3], 3)
    for k in (-1, -3, -4):
        with pytest.raises(BadParameter):
            a.coefficient(k)
    with pytest.raises(BadParameter):
        Series.zero(0).coefficient(-1)


def test_bad_orders_and_precisions_raise_bad_parameter():
    a = S([0, 1, 2], 4)
    refused = [
        lambda: Series.zero(-1),
        lambda: Series([1], -2),
        lambda: Series.monomial(1, -1, 4),
        lambda: a.at_precision(-1),
        lambda: a.shift_up(-1),
        lambda: a.shift_down(-1),
        lambda: a.shift_down(2),
    ]
    for call in refused:
        with pytest.raises(BadParameter):
            call()


def _not_integers():
    from abmod import Element, from_expression

    return {
        "Series.zero": lambda: Series.zero(2.5),
        "Series": lambda: Series([1, 2, 3], 2.5),
        "Series.monomial": lambda: Series.monomial(1, 1.5, 4),
        "Series.coefficient": lambda: Series([1, 2, 3], 4).coefficient(0.5),
        "Series.shift_up": lambda: Series([1, 2, 3], 4).shift_up(1.5),
        "Series.shift_down": lambda: Series([0, 0, 3], 4).shift_down(1.5),
        "Series.at_precision": lambda: Series([1, 2, 3], 4).at_precision(2.5),
        "Series.at_precision above": lambda: Series([1, 2, 3], 4).at_precision(4.5),
        "Series.at_precision equal": lambda: Series([1, 2, 3], 4).at_precision(4.0),
        "AbModule.at_precision": lambda: from_expression("J(3;0)", 8).at_precision(4.5),
        "AbModule.at_precision above":
            lambda: from_expression("J(3;0)", 8).at_precision(8.5),
        "AbModule.at_precision equal":
            lambda: from_expression("J(3;0)", 8).at_precision(8.0),
        "AbModule.coefficient_matrix":
            lambda: from_expression("J(3;0)", 8).coefficient_matrix(0.5),
        "from_expression": lambda: from_expression("J(3;0)", 8.5),
        "Element": lambda: Element([Series.one(4)], 0.5),
    }


@pytest.mark.parametrize("site", list(_not_integers()))
def test_a_precision_exponent_or_shift_that_is_not_an_integer_is_refused(site):
    with pytest.raises(BadParameter, match="must be an integer, not [0-9.]+$"):
        _not_integers()[site]()


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


# -- the sparse representation against a dense reference ---------------------
#
# ``_Dense`` spells out every operation on a plain list of W Scalars, the way
# the coefficients are defined; each Series operation must give the same
# coefficients and precision, or raise the same exception.

ZERO = Scalar(0)


class _Dense:
    def __init__(self, coeffs, precision):
        self.c = list(coeffs[:precision]) + [ZERO] * (precision - len(coeffs))
        self.w = precision

    def need(self):
        if self.w == 0:
            raise PrecisionExhausted("precision 0")

    def add(self, other, sign=1):
        self.need(); other.need()
        w = min(self.w, other.w)
        return _Dense([self.c[k] + other.c[k] * sign for k in range(w)], w)

    def neg(self):
        return _Dense([-c for c in self.c], self.w)

    def scale(self, s):
        return _Dense([c * s for c in self.c], self.w)

    def mul(self, other):
        self.need(); other.need()
        w = min(self.w, other.w)
        out = [ZERO] * w
        for j in range(w):
            for k in range(w - j):
                out[j + k] = out[j + k] + self.c[j] * other.c[k]
        return _Dense(out, w)

    def invert(self):
        self.need()
        if not self.c[0]:
            raise NotAUnit("zero constant term")
        out = [self.c[0].inverse()]
        for k in range(1, self.w):
            acc = sum((self.c[j] * out[k - j] for j in range(1, k + 1)), ZERO)
            out.append(-out[0] * acc)
        return _Dense(out, self.w)

    def derivative(self):
        self.need()
        return _Dense([self.c[k] * k for k in range(1, self.w)], self.w - 1)

    def negate_variable(self):
        return _Dense([-c if k % 2 else c for k, c in enumerate(self.c)], self.w)

    def shift_up(self, m):
        if m < 0:
            raise BadParameter("m < 0")
        return _Dense([ZERO] * m + self.c, self.w + m)

    def shift_down(self, m):
        if m < 0:
            raise BadParameter("m < 0")
        if m > self.w:
            raise PrecisionExhausted("past the precision")
        if any(self.c[:m]):
            raise BadParameter("not divisible")
        return _Dense(self.c[m:], self.w - m)

    def at_precision(self, m):
        if m > self.w:
            raise PrecisionExhausted("raising the precision")
        if m < 0:
            raise BadParameter("m < 0")
        return _Dense(self.c[:m], m)

    def valuation(self):
        return next((k for k, c in enumerate(self.c) if c), None)

    def is_zero(self):
        return not any(self.c)

    def is_unit(self):
        self.need()
        return bool(self.c[0])

    def coefficient(self, k):
        if k < 0:
            raise BadParameter("k < 0")
        if k >= self.w:
            raise PrecisionExhausted("past the precision")
        return self.c[k]


def _assert_canonical(s):
    orders = [k for k, _ in s.terms]
    assert orders == sorted(set(orders))
    assert all(c and 0 <= k < s.precision for k, c in s.terms)


def _outcome(thunk):
    """What a call gives, in comparable form: the exception type it raises,
    or its value with every series (Series or _Dense) as (coeffs, precision)."""
    try:
        value = thunk()
    except (PrecisionExhausted, NotAUnit, BadParameter) as exc:
        return type(exc)

    def plain(v):
        if isinstance(v, tuple):
            return tuple(plain(x) for x in v)
        if isinstance(v, Series):
            _assert_canonical(v)
            return (list(v.coeffs), v.precision)
        if isinstance(v, _Dense):
            return (v.c, v.w)
        return v

    return plain(value)


sparse_scalars = st.one_of(st.just(ZERO), st.just(ZERO), scalars)


@st.composite
def dense_pairs(draw, max_w=8):
    """(Series, _Dense) with the same coefficients, W in 0..max_w, mostly zero."""
    w = draw(st.integers(0, max_w))
    coeffs = draw(st.lists(sparse_scalars, min_size=0, max_size=w))
    return Series(coeffs, w), _Dense(coeffs, w)


REFERENCE = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@REFERENCE
@given(dense_pairs(), dense_pairs(), sparse_scalars, st.integers(-1, 10))
def test_every_operation_matches_the_dense_reference(x, y, c, m):
    (s, d), (t, e) = x, y
    cases = [
        (lambda: s + t, lambda: d.add(e)),
        (lambda: s - t, lambda: d.add(e, -1)),
        (lambda: -s, d.neg),
        (lambda: s * c, lambda: d.scale(c)),
        (lambda: 3 * s, lambda: d.scale(Scalar(3))),
        (lambda: s * t, lambda: d.mul(e)),
        (s.invert, d.invert),
        (s.derivative, d.derivative),
        (s.negate_variable, d.negate_variable),
        (lambda: s.shift_up(m), lambda: d.shift_up(m)),
        (lambda: s.shift_down(m), lambda: d.shift_down(m)),
        (lambda: s.at_precision(m), lambda: d.at_precision(m)),
        (s.valuation, d.valuation),
        (s.is_zero, d.is_zero),
        (s.is_unit, d.is_unit),
        (lambda: s.coefficient(m), lambda: d.coefficient(m)),
        (lambda: Series.monomial(c, max(m, 0), s.precision),
         lambda: _Dense([ZERO] * max(m, 0) + [c], d.w)),
    ]
    for sparse, dense in cases:
        assert _outcome(sparse) == _outcome(dense)


@REFERENCE
@given(dense_pairs(), dense_pairs(max_w=4), st.integers(0, 4))
def test_equal_series_are_built_equal_and_hash_equal(x, y, m):
    s, d = x
    t, _ = y
    _assert_canonical(s)
    routes = [
        Series(d.c + [Scalar(1)], d.w),     # a coefficient past the precision
        Series(list(s.coeffs), s.precision),
        pickle.loads(pickle.dumps(s)),
        s.shift_up(m).shift_down(m),
        s.negate_variable().negate_variable(),
        -(-s),
    ]
    if s.precision:
        routes += [s * Series.one(s.precision), s + Series.zero(s.precision)]
        if t.precision >= s.precision:
            routes.append((s + t) - t.at_precision(s.precision))
    for r in routes:
        _assert_canonical(r)
        assert r == s and hash(r) == hash(s) and r.terms == s.terms


# -- the raw-triple sums of the product and the inverse ------------------------
#
# ``_product`` and ``invert`` sum unnormalized integer triples and normalize
# once per coefficient; the schoolbook ``_Dense.mul`` and ``_Dense.invert``
# normalize every partial product and partial sum with Scalar ``+`` and
# ``*``.  The coefficients mix denominators 1..6 and imaginary parts, so
# the sums meet unequal denominators, and W reaches 16.

RAW = settings(derandomize=True, database=None, max_examples=200, deadline=None)

gaussian = st.builds(
    Scalar,
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.one_of(st.just(0), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))),
)


@st.composite
def raw_pairs(draw, unit=False):
    """(Series, _Dense) with W in 1..16, either sparse (mostly zero) or
    dense (no zero coefficient); a unit when asked."""
    w = draw(st.integers(1, 16))
    nonzero = gaussian.filter(bool)
    sparse = st.one_of(st.just(ZERO), st.just(ZERO), nonzero)
    coeff = draw(st.sampled_from([nonzero, sparse]))
    coeffs = draw(st.lists(coeff, min_size=w, max_size=w))
    if unit:
        coeffs[0] = draw(nonzero)
    return Series(coeffs, w), _Dense(coeffs, w)


def _assert_canonical_coefficients(terms):
    for _, c in terms:
        assert c.den > 0 and gcd(c.re_num, c.im_num, c.den) == 1, c


@RAW
@given(raw_pairs(), raw_pairs())
def test_product_matches_the_schoolbook_product(x, y):
    (s, d), (t, e) = x, y
    w = min(s.precision, t.precision)
    terms = _product(s.terms, t.terms, w) if s.terms and t.terms else ()
    _assert_canonical_coefficients(terms)
    assert Series(d.mul(e).c, w).terms == terms
    assert (s * t).terms == terms


@RAW
@given(raw_pairs(unit=True))
def test_invert_matches_the_schoolbook_recurrence(x):
    s, d = x
    inverse = s.invert()
    _assert_canonical_coefficients(inverse.terms)
    assert _outcome(lambda: inverse) == _outcome(d.invert)
