"""Truncated formal power series in b over Q(i), with precision tracking.

A ``Series`` knows its own precision W: it represents an element of
C[[b]] / b^W, i.e. the coefficients of b^0 .. b^{W-1} are known exactly and
nothing is known beyond.  Arithmetic propagates precision pessimistically
(min of the operands; derivative loses one order).  A series of precision 0
carries no information: operations may *produce* one, but any operation that
needs to look at a coefficient of a precision-0 operand raises
``PrecisionExhausted`` instead of silently inventing data.

The invariant throughout: ``len(coeffs) == precision``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import NotAUnit, PrecisionExhausted
from .scalars import Scalar, ZERO, ONE


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot use {type(x).__name__} as a series coefficient")


class Series:
    """An element of C[[b]] known modulo b^precision."""

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs: Sequence, precision: int):
        if precision < 0:
            raise ValueError("precision must be >= 0")
        cs = [_as_scalar(c) for c in coeffs[:precision]]
        if len(cs) < precision:
            cs.extend([ZERO] * (precision - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __delattr__(self, name):
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        return (Series, (self.coeffs, self.precision))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(precision: int) -> "Series":
        return Series((), precision)

    @staticmethod
    def one(precision: int) -> "Series":
        return Series((ONE,), precision)

    @staticmethod
    def monomial(c, k: int, precision: int) -> "Series":
        """The series c * b^k at the given precision."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return Series([ZERO] * k + [_as_scalar(c)], precision)

    @staticmethod
    def b(precision: int) -> "Series":
        return Series.monomial(ONE, 1, precision)

    # -- inspection -------------------------------------------------------

    def _need(self):
        if self.precision == 0:
            raise PrecisionExhausted("operating on a series of precision 0")

    def coefficient(self, k: int) -> Scalar:
        """The coefficient of b^k; raises if k is beyond the precision."""
        if k >= self.precision:
            raise PrecisionExhausted(
                f"coefficient of b^{k} requested at precision {self.precision}"
            )
        return self.coeffs[k]

    def constant_term(self) -> Scalar:
        self._need()
        return self.coeffs[0]

    def is_zero(self) -> bool:
        """True when every *visible* coefficient vanishes."""
        return all(not c for c in self.coeffs)

    def valuation(self):
        """The b-adic valuation, or None meaning ">= precision".

        None is the only honest answer for a series whose visible
        coefficients all vanish: it may be 0 or b^1000.
        """
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def is_unit(self) -> bool:
        self._need()
        return bool(self.coeffs[0])

    # -- precision plumbing ----------------------------------------------

    def at_precision(self, precision: int) -> "Series":
        """A lower-precision view; raising precision is refused."""
        if precision > self.precision:
            raise PrecisionExhausted(
                f"cannot raise precision {self.precision} -> {precision}"
            )
        if precision == self.precision:
            return self
        return Series(self.coeffs[:precision], precision)

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._need(); other._need()
        w = min(self.precision, other.precision)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(w)], w)

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._need(); other._need()
        w = min(self.precision, other.precision)
        return Series([self.coeffs[k] - other.coeffs[k] for k in range(w)], w)

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.precision)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (Scalar, int, Fraction)):
            s = _as_scalar(other)
            if not s:
                return Series.zero(self.precision)
            return Series([c * s for c in self.coeffs], self.precision)
        if not isinstance(other, Series):
            return NotImplemented
        self._need(); other._need()
        w = min(self.precision, other.precision)
        out = [ZERO] * w
        for j, a in enumerate(self.coeffs[:w]):
            if not a:
                continue
            for k, b in enumerate(other.coeffs[: w - j]):
                if b:
                    out[j + k] = out[j + k] + a * b
        return Series(out, w)

    __rmul__ = __mul__

    def invert(self) -> "Series":
        """Multiplicative inverse; ``NotAUnit`` when the constant term is 0."""
        self._need()
        c0 = self.coeffs[0]
        if not c0:
            raise NotAUnit("series has zero constant term, cannot invert")
        inv0 = c0.inverse()
        w = self.precision
        out = [inv0] + [ZERO] * (w - 1)
        for k in range(1, w):
            acc = ZERO
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -inv0 * acc
        return Series(out, w)

    def derivative(self) -> "Series":
        """d/db; knows one order less than its input."""
        self._need()
        w = self.precision - 1
        return Series([self.coeffs[k + 1] * (k + 1) for k in range(w)], w)

    def negate_variable(self) -> "Series":
        """The substitution b -> -b (a ring automorphism and an involution)."""
        return Series(
            [(-c if k % 2 else c) for k, c in enumerate(self.coeffs)],
            self.precision,
        )

    # -- b-power plumbing -------------------------------------------------

    def shift_up(self, m: int) -> "Series":
        """Multiply by b^m.  Precision *gains* m: if x is known mod b^W then
        b^m * x is honestly known mod b^{W+m}."""
        if m < 0:
            raise ValueError("shift_up takes m >= 0")
        if m == 0:
            return self
        return Series([ZERO] * m + list(self.coeffs), self.precision + m)

    def shift_down(self, m: int) -> "Series":
        """Exact division by b^m; the first m coefficients must vanish.

        The result is known to precision - m only.
        """
        if m < 0:
            raise ValueError("shift_down takes m >= 0")
        if m == 0:
            return self
        if m > self.precision:
            raise PrecisionExhausted(
                f"dividing by b^{m} at precision {self.precision}"
            )
        if any(self.coeffs[k] for k in range(m)):
            raise ValueError("series is not divisible by the requested b power")
        return Series(self.coeffs[m:], self.precision - m)

    def split_at(self, m: int) -> tuple["Series", "Series"]:
        """Quotient and remainder by b^m: self = b^m * q + r, deg r < m."""
        if m < 0:
            raise ValueError("split_at takes m >= 0")
        if m > self.precision:
            raise PrecisionExhausted(
                f"splitting at b^{m} at precision {self.precision}"
            )
        q = Series(self.coeffs[m:], self.precision - m)
        r = Series(self.coeffs[:m], self.precision)
        return q, r

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.precision == other.precision and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.precision))

    def __repr__(self) -> str:
        from .textio import format_series

        return f"Series({format_series(self)!r}, W={self.precision})"

    def __str__(self) -> str:
        from .textio import format_series

        return format_series(self)
