"""Exact Gaussian-rational scalars.

The coefficient field everywhere in this library is Q(i): complex numbers
whose real and imaginary parts are rational.  A ``Scalar`` is an immutable
triple of Python ints ``(re_num, im_num, den)`` standing for
(re_num + im_num*i) / den, normalized so that

    den > 0   and   gcd(re_num, im_num, den) == 1.

That form is unique, so equality is structural.  Every operation computes an
unnormalized triple from plain ints and hands it to the one private
constructor ``_make``, which normalizes it with a single ``math.gcd``; there is
no ``Fraction`` on the arithmetic path.  ``re`` and ``im`` are read-only
``Fraction`` views built on demand for printing and ordering.  A real scalar
compares and hashes like its ``int`` or ``Fraction`` value.

Scalars deliberately do not define ``<``: Q(i) is not an ordered field.  For
deterministic output and canonical choices use ``sort_key()``, which orders by
(real part, imaginary part).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

_RatLike = Union[int, Fraction]


def _ratio(x: _RatLike) -> tuple:
    """(numerator, denominator) of an int or Fraction, denominator > 0."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact scalar part from {type(x).__name__}")


class Scalar:
    """An element of Q(i), held exactly as (re_num + im_num*i) / den.

    All arithmetic is exact; there is no float path anywhere.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __new__(cls, re: _RatLike = 0, im: _RatLike = 0):
        p, q = _ratio(re)
        r, t = _ratio(im)
        if q == t:
            return _make(p, r, q)
        return _make(p * t, r * q, q * t)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return (Scalar, (self.re, self.im))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def of(x: "Scalar | int | Fraction") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(x)

    # -- parts ------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re_num and not self.im_num

    def is_one(self) -> bool:
        return self.re_num == 1 and self.den == 1 and not self.im_num

    def is_real(self) -> bool:
        return not self.im_num

    def is_integer(self) -> bool:
        return not self.im_num and self.den == 1

    def __bool__(self) -> bool:
        return self.re_num != 0 or self.im_num != 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Scalar":
        a, b, d = self.re_num, self.im_num, self.den
        if isinstance(other, Scalar):
            e, f, g = other.re_num, other.im_num, other.den
            if d == g:
                return _make(a + e, b + f, d)
            return _make(a * g + e * d, b * g + f * d, d * g)
        if isinstance(other, int):
            return _make(a + other * d, b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(a * q + p * d, b * q, d * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        a, b, d = self.re_num, self.im_num, self.den
        if isinstance(other, Scalar):
            e, f, g = other.re_num, other.im_num, other.den
            if d == g:
                return _make(a - e, b - f, d)
            return _make(a * g - e * d, b * g - f * d, d * g)
        if isinstance(other, int):
            return _make(a - other * d, b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(a * q - p * d, b * q, d * q)
        return NotImplemented

    def __rsub__(self, other) -> "Scalar":
        a, b, d = self.re_num, self.im_num, self.den
        if isinstance(other, int):
            return _make(other * d - a, -b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(p * d - a * q, -b * q, d * q)
        return NotImplemented

    def __neg__(self) -> "Scalar":
        return _make(-self.re_num, -self.im_num, self.den)

    def __mul__(self, other) -> "Scalar":
        a, b, d = self.re_num, self.im_num, self.den
        if isinstance(other, Scalar):
            e, f, g = other.re_num, other.im_num, other.den
            # Real-by-real is by far the dominant case; skip the full product.
            if not b and not f:
                return _make(a * e, 0, d * g)
            return _make(a * e - b * f, a * f + b * e, d * g)
        if isinstance(other, int):
            return _make(a * other, b * other, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _make(a * p, b * p, d * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            if not p:
                raise ZeroDivisionError("division of a scalar by zero")
            if p < 0:
                p, q = -p, -q
            return _make(self.re_num * q, self.im_num * q, self.den * p)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar.of(other) * self.inverse()
        return NotImplemented

    def inverse(self) -> "Scalar":
        a, b, d = self.re_num, self.im_num, self.den
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero scalar")
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        # 1 / ((a + bi)/d) = d (a - bi) / (a^2 + b^2)
        return _make(d * a, -d * b, a * a + b * b)

    def conjugate(self) -> "Scalar":
        return _make(self.re_num, -self.im_num, self.den)

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return (
                self.re_num == other.re_num
                and self.im_num == other.im_num
                and self.den == other.den
            )
        if isinstance(other, int):
            return not self.im_num and self.den == 1 and self.re_num == other
        if isinstance(other, Fraction):
            return (
                not self.im_num
                and self.re_num == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # A real scalar equals its int/Fraction value, so it hashes like it.
        if self.im_num:
            return hash((self.re_num, self.im_num, self.den))
        if self.den == 1:
            return hash(self.re_num)
        return hash(Fraction(self.re_num, self.den))

    def sort_key(self):
        """Total order on Q(i) used only for canonical output ordering."""
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        from .textio import format_scalar

        return format_scalar(self)


_new = object.__new__
_set_re = Scalar.re_num.__set__
_set_im = Scalar.im_num.__set__
_set_den = Scalar.den.__set__


def _make(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d for ints with d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    s = _new(Scalar)
    _set_re(s, a)
    _set_im(s, b)
    _set_den(s, d)
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
IMAG = Scalar(0, 1)


def rational(p: int, q: int = 1) -> Scalar:
    """Convenience constructor for the rational scalar p/q."""
    return Scalar(Fraction(p, q))
