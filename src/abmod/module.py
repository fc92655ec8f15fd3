"""Finite-rank modules over C[[b]] with a twisted operator a.

An ``AbModule`` of rank p is the free module C[[b]]^p with basis e_1..e_p and
a C-linear, b-adically continuous operator a obeying the commutation rule

    a(b x) = b a(x) + b^2 x        (equivalently  ab - ba = b^2).

The structure matrix M determines a completely: column j of M holds the
coordinates of a(e_j), and on a coordinate vector x(b),

    a(x) = M x + b^2 x'.

Elements may live in the localized module: an ``Element`` with shift K stands
for b^{-K} times its coordinate vector, using  a b^{-K} = b^{-K}(a - K b).
"""

from __future__ import annotations

import functools

from .errors import BadParameter, PrecisionExhausted
from .record import Immutable, Record
from .series import _checked_count, _checked_series
from .seriesmat import (
    a_image,
    col_shift_up,
    smat_inverse,
    smat_min_precision,
    smat_mul,
)


class AbModule(Immutable):
    """A rank-p free C[[b]]-module with a-action given by a structure matrix.

    All entries are held at one common precision (the minimum of the inputs);
    a module needs precision >= 1 to mean anything.  ``_memo`` holds the
    values of the ``_memoized`` invariants of this module object (None until
    the first is stored); it is never pickled, compared or copied.
    """

    __slots__ = ("matrix", "rank", "precision", "_memo")

    def __init__(self, matrix):
        _checked_series(matrix, "structure matrix entries")
        p = len(matrix)
        if p == 0 or any(len(row) != p for row in matrix):
            raise BadParameter("structure matrix must be square and nonempty")
        w = smat_min_precision(matrix)
        if w < 1:
            raise PrecisionExhausted("a module", 1, w)
        rows = tuple(
            tuple(entry.at_precision(w) for entry in row) for row in matrix
        )
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "rank", p)
        object.__setattr__(self, "precision", w)
        object.__setattr__(self, "_memo", None)

    def __reduce__(self):
        return (AbModule, (self.matrix,))

    # -- inspection -------------------------------------------------------

    def coefficient_matrix(self, k: int):
        """The Scalar matrix of b^k coefficients of the structure matrix."""
        return [[entry.coefficient(k) for entry in row] for row in self.matrix]

    def residue_matrix(self):
        """The b^1 coefficient matrix (the residue when the pole is simple)."""
        return self.coefficient_matrix(1)

    def is_simple_pole(self) -> bool:
        """True when a E is contained in b E, i.e. M has no constant term."""
        return not any(
            e.terms and not e.terms[0][0] for row in self.matrix for e in row
        )

    def at_precision(self, w: int) -> "AbModule":
        if _checked_count(w, "precision") == self.precision:
            return self
        return AbModule(
            [[entry.at_precision(w) for entry in row] for row in self.matrix]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbModule):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.precision == other.precision
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"AbModule(rank={self.rank}, precision={self.precision})"


class _MemoInfo(Record):
    # currsize: the values stored since the last cache_clear
    __slots__ = ("hits", "misses", "currsize")


def _memoized(fn):
    """Memoize ``fn(module, *args)`` on the module object itself.

    The value is stored in ``module._memo`` under ``(fn, args)``, so it
    lives as long as the module, and a lookup reads an attribute and hashes
    no matrix.  A value that refers back to its module (``saturate`` of a
    simple-pole module is the module itself) makes a reference cycle, which
    the cyclic collector frees later than the module's last reference.
    Equal but distinct modules are computed separately.  A raised error is
    not stored, and a hit returns the identical object.
    ``cache_info()`` gives the hits, the misses and the values stored since
    the last ``cache_clear()``, which zeroes the counts and turns every
    stored value stale by renewing the stamp it was stored with."""
    stamp = object()
    hits = misses = stored = 0

    @functools.wraps(fn)
    def memoized(module, *args):
        nonlocal hits, misses, stored
        key = (fn, args)
        memo = module._memo
        if memo is not None:
            entry = memo.get(key)
            if entry is not None and entry[0] is stamp:
                hits += 1
                return entry[1]
        misses += 1
        value = fn(module, *args)
        # fn may have stored the module's first value itself
        memo = module._memo
        if memo is None:
            memo = {}
            object.__setattr__(module, "_memo", memo)
        memo[key] = (stamp, value)
        stored += 1
        return value

    def cache_info():
        return _MemoInfo(hits, misses, stored)

    def cache_clear():
        nonlocal stamp, hits, misses, stored
        stamp = object()
        hits = misses = stored = 0

    memoized.cache_info = cache_info
    memoized.cache_clear = cache_clear
    return memoized


class Element(Record):
    """A vector of the localized module: shift K means b^{-K} * coords."""

    __slots__ = ("coords", "shift")

    def __init__(self, coords, shift: int = 0):
        if not coords:
            raise BadParameter("an element needs at least one coordinate")
        _checked_series([coords], "element coordinates")
        _checked_count(shift, "element shift", 0)
        w = min(c.precision for c in coords)
        super().__init__(tuple(c.at_precision(w) for c in coords), shift)

    @property
    def precision(self) -> int:
        return self.coords[0].precision

    def in_frame(self, shift: int) -> list:
        """Coordinates as seen in the b^{-shift} frame (shift >= self.shift)."""
        _checked_count(shift, "the frame shift")
        if shift < self.shift:
            raise BadParameter(
                f"cannot lower an element's frame from b^-{self.shift} to "
                f"b^-{shift} without dividing"
            )
        return col_shift_up(list(self.coords), shift - self.shift)

    def normalize(self) -> "Element":
        """Cancel common b powers against the shift (loses that much
        precision on the coordinates, which is honest: nothing more was
        known about the divided series)."""
        if self.shift == 0:
            return self
        # invisible entries count as divisible throughout
        m = min([self.shift] + [c.valuation() for c in self.coords if c.terms])
        if m == 0:
            return self
        # all coordinates share one precision w, so shift_down refuses an
        # m > w, and an entry without terms becomes Series.zero(w - m) like
        # every other
        return Element([c.shift_down(m) for c in self.coords], self.shift - m)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        k = max(self.shift, other.shift)
        a, b = self.in_frame(k), other.in_frame(k)
        w = min(x.precision for x in a + b)
        return [x.at_precision(w) for x in a] == [x.at_precision(w) for x in b]

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coords)
        if self.shift:
            return f"Element(b^-{self.shift} * [{body}])"
        return f"Element([{body}])"


# ---------------------------------------------------------------------------
# the a-action on elements, and base change
# ---------------------------------------------------------------------------


def base_change(module: AbModule, q) -> AbModule:
    """The same module in the basis formed by the columns of q.

    q is a square series matrix invertible over C[[b]] (NotAUnit
    otherwise); the new structure matrix is Q^{-1} (M Q + b^2 Q').
    """
    if len(q) != module.rank or any(len(row) != module.rank for row in q):
        raise BadParameter("base change needs a square matrix of the module's rank")
    _checked_series(q, "base change entries")
    images = a_image(module.matrix, zip(*q))
    return AbModule(smat_mul(smat_inverse(q), list(zip(*images))))
