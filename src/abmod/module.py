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

from .errors import PrecisionExhausted
from .scalars import Scalar, ZERO
from .series import Series
from .seriesmat import (
    col_add,
    col_scale,
    col_shift_up,
    col_sub,
    smat_coefficient,
    smat_min_precision,
)


class AbModule:
    """A rank-p free C[[b]]-module with a-action given by a structure matrix.

    All entries are held at one common precision (the minimum of the inputs);
    a module needs precision >= 1 to mean anything.
    """

    __slots__ = ("matrix", "rank", "precision")

    def __init__(self, matrix):
        p = len(matrix)
        if p == 0 or any(len(row) != p for row in matrix):
            raise ValueError("structure matrix must be square and nonempty")
        w = smat_min_precision(matrix)
        if w < 1:
            raise PrecisionExhausted("module structure matrix has precision 0")
        rows = tuple(
            tuple(entry.at_precision(w) for entry in row) for row in matrix
        )
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "rank", p)
        object.__setattr__(self, "precision", w)

    def __setattr__(self, name, value):
        raise AttributeError("AbModule is immutable")

    def __reduce__(self):
        return (AbModule, (self.matrix,))

    # -- inspection -------------------------------------------------------

    def coefficient_matrix(self, k: int):
        """The Scalar matrix of b^k coefficients of the structure matrix."""
        return smat_coefficient(self.matrix, k)

    def constant_matrix(self):
        return self.coefficient_matrix(0)

    def residue_matrix(self):
        """The b^1 coefficient matrix (the residue when the pole is simple)."""
        return self.coefficient_matrix(1)

    def is_simple_pole(self) -> bool:
        """True when a E is contained in b E, i.e. M has no constant term."""
        return all(not c for row in self.constant_matrix() for c in row)

    def at_precision(self, w: int) -> "AbModule":
        if w == self.precision:
            return self
        return AbModule(
            [[entry.at_precision(w) for entry in row] for row in self.matrix]
        )

    def basis_element(self, j: int) -> "Element":
        """The j-th basis vector (0-based) as an Element."""
        w = self.precision
        coords = [
            Series.one(w) if i == j else Series.zero(w) for i in range(self.rank)
        ]
        return Element(coords, 0)

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


class Element:
    """A vector of the localized module: shift K means b^{-K} * coords."""

    __slots__ = ("coords", "shift")

    def __init__(self, coords, shift: int = 0):
        if shift < 0:
            raise ValueError("element shift must be >= 0")
        w = min(c.precision for c in coords)
        object.__setattr__(
            self, "coords", tuple(c.at_precision(w) for c in coords)
        )
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        return (Element, (self.coords, self.shift))

    @property
    def precision(self) -> int:
        return self.coords[0].precision if self.coords else 0

    def in_frame(self, shift: int) -> list:
        """Coordinates as seen in the b^{-shift} frame (shift >= self.shift)."""
        if shift < self.shift:
            raise ValueError("cannot lower an element's frame without dividing")
        return col_shift_up(list(self.coords), shift - self.shift)

    def normalize(self) -> "Element":
        """Cancel common b powers against the shift (loses that much
        precision on the coordinates, which is honest: nothing more was
        known about the divided series)."""
        if self.shift == 0:
            return self
        vals = [c.valuation() for c in self.coords]
        if any(v is None for v in vals):
            m = self.shift  # treat invisible entries as divisible throughout
            m = min([m] + [v for v in vals if v is not None])
        else:
            m = min([self.shift] + vals)
        if m == 0:
            return self
        w = self.precision
        if m > w:
            raise PrecisionExhausted(
                f"normalizing through b^{m} at precision {w}"
            )
        coords = []
        for c in self.coords:
            if c.valuation() is None:
                coords.append(Series.zero(w - m))
            else:
                coords.append(c.shift_down(m))
        return Element(coords, self.shift - m)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        k = max(self.shift, other.shift)
        return Element(col_add(self.in_frame(k), other.in_frame(k)), k)

    def __sub__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        k = max(self.shift, other.shift)
        return Element(col_sub(self.in_frame(k), other.in_frame(k)), k)

    def __neg__(self) -> "Element":
        return Element([-c for c in self.coords], self.shift)

    def __mul__(self, other) -> "Element":
        if isinstance(other, (Scalar, Series, int)):
            return Element(col_scale(list(self.coords), other), self.shift)
        return NotImplemented

    __rmul__ = __mul__

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
# the two operators
# ---------------------------------------------------------------------------


def apply_a(module: AbModule, x: Element) -> Element:
    """a(x) for x in the localized module.

    On the b^{-K} frame:  a(b^{-K} v) = b^{-K} (M v + b^2 v' - K b v).
    """
    k = x.shift
    out = []
    for i in range(module.rank):
        acc = None
        for j in range(module.rank):
            t = module.matrix[i][j] * x.coords[j]
            acc = t if acc is None else acc + t
        acc = acc + x.coords[i].derivative().shift_up(2)
        if k:
            acc = acc - (x.coords[i].shift_up(1) * Scalar(k))
        out.append(acc)
    return Element(out, k)


def apply_b(module: AbModule, x: Element) -> Element:
    """b(x): lower the shift when possible, otherwise push a b into the
    coordinates (gaining one order of precision — honestly)."""
    if x.shift > 0:
        return Element(list(x.coords), x.shift - 1)
    return Element(col_shift_up(list(x.coords), 1), 0)


def apply_b_inverse(x: Element) -> Element:
    """b^{-1}(x): always representable by raising the shift."""
    return Element(list(x.coords), x.shift + 1)
