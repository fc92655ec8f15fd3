"""Truncated formal power series in b over Q(i), with precision tracking.

A ``Series`` knows its own precision W: it represents an element of
C[[b]] / b^W, i.e. the coefficients of b^0 .. b^{W-1} are known exactly and
nothing is known beyond.  Arithmetic propagates precision pessimistically
(min of the operands; derivative loses one order).  A series of precision 0
carries no information: operations may *produce* one, but any operation that
needs to look at a coefficient of a precision-0 operand raises
``PrecisionExhausted`` instead of silently inventing data.

Only the nonzero coefficients are stored.  The invariant throughout:
``terms`` is a tuple of ``(k, c)`` pairs with ``c != 0``, ``k < precision``
and k strictly increasing.  That form is unique, so equality, hash and
pickle are structural.  The series met in practice are sparse (mostly zero
or a single monomial), so every operation works on the terms alone and
costs O(nonzeros), not O(W).  ``coeffs`` is a dense read-only view built on
demand; the public constructor takes dense input, and results are built by
the private ``_make``, which trusts its terms.

Most series met in practice have no terms at all, and such an operand adds
nothing to a sum and makes a product vanish.  So ``+``, ``-`` and ``*``
return at once when an operand has no terms: the term loops ``_combine``
and ``_product`` only ever see two nonempty operands.  The early result is
exactly the one the loops would give, at the same precision, and an
operand of precision 0 still raises ``PrecisionExhausted`` first.

Sums of products of series are accumulated as unnormalized integer
triples [re, im, den], one per output order: numerators are added when the
denominators agree, and otherwise brought over the lcm of the two
denominators, never their bare product.  Each output coefficient is then
normalized once by ``scalars._make``, which is exact and gives the same
canonical Scalar as normalizing every partial product and partial sum.
One loop, ``_fold`` (acc += sign * x * y below w), does this for
``_product`` past the monomial case, for ``_sub_mul`` (the terms of
x - q * y) and for every sum of products above: ``seriesmat.smat_mul``
(through its row fold ``_fold_row``), ``seriesmat._a_image_accs`` (under
``a_image``), the row updates of ``smat_inverse`` and the reductions of
the lattice kernels ``_echelon`` and ``_back_substitute_terms`` (through
``_sub_mul``).
A caller folds each product of an entry into one accumulator and calls
``_done`` once for the entry; ``verify_intertwiner`` folds a(P) - P*Ms
through ``_a_image_accs`` and ``_fold_row``, only tests the raw
numerators for zero and normalizes nothing.  Callers skip operands without
terms before they fold.  The recurrence of ``invert`` reads the
coefficients it is producing, so it keeps its own raw-triple loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import BadParameter, NotAUnit, PrecisionExhausted
from .record import Immutable
from .scalars import Scalar, ZERO, ONE
from .scalars import _make as _scalar


def _checked_count(n, what: str, least: int = None, most: int = None) -> int:
    """n, when it is an int (a bool is not) and least <= n <= most (a bound
    of None is absent); BadParameter otherwise.  Every integer argument of
    the package (a count, level, precision, rank, shift or seed) and every
    ceiling on one is checked here, so each refusal has the same text."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise BadParameter(f"{what} must be an integer, not {n!r}")
    if least is not None and n < least:
        raise BadParameter(f"{what} must be at least {least}, got {n}")
    if most is not None and n > most:
        raise BadParameter(f"{what} must be at most {most}, got {n}")
    return n


def _checked_series(rows, what: str) -> None:
    """BadParameter ("{what} must be Series") unless every entry of every row
    is a Series; rows or a row that cannot be iterated, such as None, are
    refused alike.  Each public entry point that takes Series checks them
    here, before it reads one."""
    try:
        if all(isinstance(e, Series) for row in rows for e in row):
            return
    except TypeError:
        pass
    raise BadParameter(f"{what} must be Series")


def _below(terms: tuple, w: int) -> tuple:
    """The terms of order < w."""
    if not terms or terms[-1][0] < w:
        return terms
    n = 0
    for k, _ in terms:
        if k >= w:
            break
        n += 1
    return terms[:n]


def _combine(x: tuple, y: tuple, w: int, sign: int) -> tuple:
    """The terms of x + sign * y below w (sign is 1 or -1)."""
    out = []
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx or j < ny:
        if j == ny or (i < nx and x[i][0] < y[j][0]):
            k, c = x[i]
            i += 1
        elif i == nx or y[j][0] < x[i][0]:
            k, c = y[j]
            j += 1
            if sign < 0:
                c = -c
        else:
            k = x[i][0]
            c = x[i][1] + y[j][1] if sign > 0 else x[i][1] - y[j][1]
            i += 1
            j += 1
            if not c:
                continue
        if k >= w:
            break
        out.append((k, c))
    return tuple(out)


def _fold(acc: dict, x: tuple, y: tuple, w: int, sign: int = 1) -> None:
    """acc += sign * x * y below w (sign is 1 or -1), for acc mapping each
    order to an unnormalized triple [re, im, den]; ``_done`` normalizes it."""
    get = acc.get
    for j, s in x:
        e, f, g = s.re_num, s.im_num, s.den
        if sign < 0:
            e, f = -e, -f
        for k, c in y:
            n = j + k
            if n >= w:
                break
            a, b, d = c.re_num, c.im_num, c.den * g
            if f:
                a, b = a * e - b * f, a * f + b * e
            else:
                a, b = a * e, b * e
            cur = get(n)
            if cur is None:
                acc[n] = [a, b, d]
            elif cur[2] == d:
                cur[0] += a
                cur[1] += b
            else:
                h = cur[2]
                q = gcd(h, d)
                u, v = d // q, h // q
                cur[0] = cur[0] * u + a * v
                cur[1] = cur[1] * u + b * v
                cur[2] = h * u


def _done(acc: dict) -> tuple:
    """The canonical terms of a raw-triple accumulator: each order
    normalized once, the vanishing ones dropped."""
    if not acc:
        return ()
    return tuple(
        (n, _scalar(a, b, d)) for n, (a, b, d) in sorted(acc.items()) if a or b
    )


def _product(x: tuple, y: tuple, w: int) -> tuple:
    """The terms of x * y below w."""
    if len(x) > len(y):
        x, y = y, x
    if len(x) == 1:
        # A monomial times a series: the products land on distinct orders.
        j, a = x[0]
        out = []
        for k, c in y:
            if j + k >= w:
                break
            out.append((j + k, a * c))
        return tuple(out)
    acc = {}
    _fold(acc, x, y, w)
    return _done(acc)


def _sub_mul(x: tuple, q: tuple, y: tuple, w: int) -> tuple:
    """The terms of x - q * y below w, for nonempty terms q and y and w at
    most the precision of x and of q * y (the caller checks both)."""
    acc = {k: [c.re_num, c.im_num, c.den] for k, c in _below(x, w)}
    _fold(acc, q, y, w, -1)
    return _done(acc)


class Series(Immutable):
    """An element of C[[b]] known modulo b^precision."""

    __slots__ = ("terms", "precision")

    def __init__(self, coeffs: Sequence, precision: int):
        _checked_count(precision, "precision", 0)
        terms = []
        for k, c in enumerate(coeffs[:precision]):
            c = Scalar.of(c)
            if c:
                terms.append((k, c))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "precision", precision)

    def __reduce__(self):
        return (Series, (self.coeffs, self.precision))

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient tuple of b^0 .. b^{precision-1}."""
        out = [ZERO] * self.precision
        for k, c in self.terms:
            out[k] = c
        return tuple(out)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(precision: int) -> "Series":
        _checked_count(precision, "precision", 0)
        return _make((), precision)

    @staticmethod
    def one(precision: int) -> "Series":
        _checked_count(precision, "precision", 0)
        return _make(((0, ONE),) if precision else (), precision)

    @staticmethod
    def monomial(c, k: int, precision: int) -> "Series":
        """The series c * b^k at the given precision."""
        _checked_count(k, "monomial exponent", 0)
        c = Scalar.of(c)
        _checked_count(precision, "precision", 0)
        return _make(((k, c),) if c and k < precision else (), precision)

    @staticmethod
    def b(precision: int) -> "Series":
        return Series.monomial(ONE, 1, precision)

    # -- inspection -------------------------------------------------------

    def _need(self):
        if self.precision == 0:
            raise PrecisionExhausted("a series operand", 1, 0)

    def coefficient(self, k: int) -> Scalar:
        """The coefficient of b^k; raises if k is beyond the precision."""
        if _checked_count(k, "coefficient order", 0) >= self.precision:
            raise PrecisionExhausted(f"the coefficient of b^{k}", k + 1, self.precision)
        for j, c in self.terms:
            if j >= k:
                return c if j == k else ZERO
        return ZERO

    def is_zero(self) -> bool:
        """True when every *visible* coefficient vanishes."""
        return not self.terms

    def valuation(self):
        """The b-adic valuation, or None meaning ">= precision".

        None is the only honest answer for a series whose visible
        coefficients all vanish: it may be 0 or b^1000.
        """
        return self.terms[0][0] if self.terms else None

    def is_unit(self) -> bool:
        self._need()
        return bool(self.terms) and self.terms[0][0] == 0

    # -- precision plumbing ----------------------------------------------

    def at_precision(self, precision: int) -> "Series":
        """A lower-precision view; raising precision is refused."""
        if _checked_count(precision, "precision", 0) > self.precision:
            raise PrecisionExhausted(f"cutting a series at b^{precision}", precision,
                                     self.precision)
        if precision == self.precision:
            return self
        return _make(_below(self.terms, precision), precision)

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        w = min(self.precision, other.precision)
        if not w:
            raise PrecisionExhausted("a series operand", 1, 0)
        if not other.terms:
            return self.at_precision(w)
        if not self.terms:
            return other.at_precision(w)
        return _make(_combine(self.terms, other.terms, w, 1), w)

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        w = min(self.precision, other.precision)
        if not w:
            raise PrecisionExhausted("a series operand", 1, 0)
        if not other.terms:
            return self.at_precision(w)
        if not self.terms:
            return _make(tuple((k, -c) for k, c in _below(other.terms, w)), w)
        return _make(_combine(self.terms, other.terms, w, -1), w)

    def __neg__(self) -> "Series":
        return _make(tuple((k, -c) for k, c in self.terms), self.precision)

    def __mul__(self, other) -> "Series":
        # The Series case is tested first: ``isinstance(x, Fraction)`` goes
        # through ABCMeta, and Series x Series is the hot case.
        if type(other) is not Series:
            if isinstance(other, (Scalar, int, Fraction)):
                if not self.terms:
                    return self
                s = Scalar.of(other)
                if not s:
                    return _make((), self.precision)
                return _make(tuple((k, c * s) for k, c in self.terms), self.precision)
            if not isinstance(other, Series):
                return NotImplemented
        w = min(self.precision, other.precision)
        if not w:
            raise PrecisionExhausted("a series operand", 1, 0)
        if not (self.terms and other.terms):
            return _make((), w)
        return _make(_product(self.terms, other.terms, w), w)

    __rmul__ = __mul__

    def invert(self) -> "Series":
        """Multiplicative inverse; ``NotAUnit`` when the constant term is 0."""
        if not self.is_unit():
            raise NotAUnit("series has zero constant term, cannot invert")
        inv0 = self.terms[0][1].inverse()
        neg0 = -inv0
        rest = self.terms[1:]
        w = self.precision
        # out[k] is the coefficient of b^k, or None when it vanishes; the
        # recurrence reads out[k - j] for every term j of the input.
        out = [inv0]
        terms = [(0, inv0)]
        e0, f0, g0 = neg0.re_num, neg0.im_num, neg0.den
        for k in range(1, w if rest else 1):
            a = b = 0
            d = 1
            for j, c in rest:
                if j > k:
                    break
                o = out[k - j]
                if o is not None:
                    e, f, g = c.re_num, c.im_num, c.den * o.den
                    p, r = o.re_num, o.im_num
                    e, f = e * p - f * r, e * r + f * p
                    if d == g:
                        a += e
                        b += f
                    else:
                        q = gcd(d, g)
                        u, v = g // q, d // q
                        a, b, d = a * u + e * v, b * u + f * v, d * u
            if not (a or b):
                out.append(None)
            else:
                v = _scalar(a * e0 - b * f0, a * f0 + b * e0, d * g0)
                out.append(v)
                terms.append((k, v))
        return _make(tuple(terms), w)

    def derivative(self) -> "Series":
        """d/db; knows one order less than its input."""
        self._need()
        return _make(
            tuple((k - 1, c * k) for k, c in self.terms if k), self.precision - 1
        )

    def negate_variable(self) -> "Series":
        """The substitution b -> -b (a ring automorphism and an involution)."""
        return _make(
            tuple((k, -c if k % 2 else c) for k, c in self.terms), self.precision
        )

    # -- b-power plumbing -------------------------------------------------

    def shift_up(self, m: int) -> "Series":
        """Multiply by b^m.  Precision *gains* m: if x is known mod b^W then
        b^m * x is honestly known mod b^{W+m}."""
        if _checked_count(m, "shift_up's m", 0) == 0:
            return self
        return _make(tuple((k + m, c) for k, c in self.terms), self.precision + m)

    def shift_down(self, m: int) -> "Series":
        """Exact division by b^m; the first m coefficients must vanish.

        The result is known to precision - m only.
        """
        if _checked_count(m, "shift_down's m", 0) == 0:
            return self
        if m > self.precision:
            raise PrecisionExhausted(f"dividing by b^{m}", m, self.precision)
        if self.terms and self.terms[0][0] < m:
            raise BadParameter("series is not divisible by the requested b power")
        return _make(tuple((k - m, c) for k, c in self.terms), self.precision - m)

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.precision == other.precision and self.terms == other.terms

    def __hash__(self):
        return hash((self.terms, self.precision))

    def __repr__(self) -> str:
        from .textio import format_series

        return f"Series({format_series(self)!r}, W={self.precision})"

    def __str__(self) -> str:
        from .textio import format_series

        return format_series(self)


_new = object.__new__
_set_terms = Series.terms.__set__
_set_precision = Series.precision.__set__


def _make(terms: tuple, precision: int) -> Series:
    """The Series with these canonical terms; no check, no padding."""
    s = _new(Series)
    _set_terms(s, terms)
    _set_precision(s, precision)
    return s
