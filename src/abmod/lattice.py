"""Lattices: finitely generated C[[b]]-submodules of b^{-K} C[[b]]^p.

A lattice is stored as a canonical echelon system of generating columns in
the b^{-K} frame (the stored column c stands for the vector b^{-K} c).  The
echelon form is characterized by, for generator columns g_1..g_r with pivot
positions (row_c, val_c):

  * the pivot entry of g_c is exactly b^{val_c};
  * pivot pairs (val_c, row_c) are lexicographically non-decreasing in c and
    the pivot rows are distinct;
  * g_d has entry exactly 0 at row_c for d > c, and an entry of b-degree
    < val_c at row_c for d < c.

Two generating systems of the same submodule reduce to the same echelon form
(at a common frame and precision), so lattice equality is structural.

Precision discipline: a pivot of valuation v is trusted only when v is at
least two orders below the working precision (v < precision - 1); otherwise
the lattice is not determined by the data and ``PrecisionExhausted`` is
raised.  All membership decisions are made at the working precision.
"""

from __future__ import annotations

from .errors import NotAStable, NotContained, PrecisionExhausted
from .scalars import Scalar
from .series import Series
from .seriesmat import col_at_precision, col_shift_up, scaled_col_mul

from .module import AbModule, Element, apply_a


class Lattice:
    """Canonical echelon presentation of a C[[b]]-submodule of b^{-K} C[[b]]^p.

    Build through ``lattice_from_columns`` (or the helpers below); the raw
    constructor trusts its inputs.
    """

    __slots__ = ("dim", "shift", "gens", "pivots", "precision")

    def __init__(self, dim, shift, gens, pivots, precision):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def __reduce__(self):
        return (
            Lattice,
            (self.dim, self.shift, self.gens, self.pivots, self.precision),
        )

    @property
    def rank(self) -> int:
        return len(self.gens)

    def is_full_rank(self) -> bool:
        return len(self.gens) == self.dim

    def pivot_valuation_sum(self) -> int:
        return sum(v for _, v in self.pivots)

    # -- frame plumbing ---------------------------------------------------

    def at_shift(self, shift: int) -> "Lattice":
        """The same lattice presented in a deeper frame (shift >= current).

        Columns pick up b^{shift - K}; the echelon form stays canonical
        because the whole construction is homogeneous in b.
        """
        d = shift - self.shift
        if d < 0:
            raise ValueError("cannot shallow a lattice frame; shifts only grow")
        if d == 0:
            return self
        gens = tuple(tuple(col_shift_up(list(g), d)) for g in self.gens)
        pivots = tuple((r, v + d) for r, v in self.pivots)
        return Lattice(self.dim, shift, gens, pivots, self.precision + d)

    def scaled_by_b(self, m: int) -> "Lattice":
        """b^m * L for m of either sign (negative m raises the shift)."""
        if m >= 0:
            gens = tuple(tuple(col_shift_up(list(g), m)) for g in self.gens)
            pivots = tuple((r, v + m) for r, v in self.pivots)
            return Lattice(self.dim, self.shift, gens, pivots, self.precision + m)
        return Lattice(self.dim, self.shift - m, self.gens, self.pivots, self.precision)

    # -- membership -------------------------------------------------------

    def reduce_column(self, col, shift: int = 0):
        """Remainder of b^{-shift} col after reduction modulo this lattice.

        Returns (remainder_column, frame_shift): the remainder in the frame
        of max(self.shift, shift).  The input is in the lattice iff the
        remainder is visibly zero.
        """
        k = max(self.shift, shift)
        lat = self.at_shift(k)
        work = list(col_shift_up(list(col), k - shift))
        for (row, v), gen in zip(lat.pivots, lat.gens):
            entry = work[row]
            if entry.precision < v:
                raise PrecisionExhausted(
                    "column too shallow to reduce against pivot"
                )
            q, _ = entry.split_at(v)
            if q.is_zero():
                continue
            sub = scaled_col_mul(q, list(gen), v)
            work = [x - y for x, y in zip(work, sub)]
        return work, k

    def contains_column(self, col, shift: int = 0) -> bool:
        rem, _ = self.reduce_column(col, shift)
        return all(x.is_zero() for x in rem)

    def contains(self, x: Element) -> bool:
        return self.contains_column(list(x.coords), x.shift)

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return lattice_equal(self, other)

    def __hash__(self):
        # Hash only frame-free invariants; equality is finer.
        return hash((self.dim, len(self.gens)))

    def __repr__(self) -> str:
        pivs = ", ".join(f"(r{r},v{v})" for r, v in self.pivots)
        return (
            f"Lattice(dim={self.dim}, shift={self.shift}, "
            f"pivots=[{pivs}], precision={self.precision})"
        )


# ---------------------------------------------------------------------------
# echelon construction
# ---------------------------------------------------------------------------


def _column_min(col):
    """(valuation, row) of the deepest-reaching entry, or None if invisible."""
    best = None
    for i, e in enumerate(col):
        v = e.valuation()
        if v is not None and (best is None or v < best[0]):
            best = (v, i)
    return best


def lattice_from_columns(dim: int, columns, shift: int = 0, precision=None) -> Lattice:
    """Echelonize generating columns into a canonical Lattice.

    ``columns`` are coordinate columns in the b^{-shift} frame.  Visibly zero
    columns are dropped.  A pivot valuation too close to the precision
    horizon (v >= precision - 1) raises PrecisionExhausted: the data does not
    determine the lattice.
    """
    cols = [list(c) for c in columns]
    if precision is None:
        precision = min(
            (e.precision for c in cols for e in c), default=0
        )
    if precision < 1:
        raise PrecisionExhausted("lattice needs columns of precision >= 1")
    work = [col_at_precision(c, precision) for c in cols]
    for c in work:
        if len(c) != dim:
            raise ValueError("column length does not match the ambient rank")
    done: list[list] = []
    pivots: list[tuple[int, int]] = []
    while True:
        best = None
        for idx, col in enumerate(work):
            m = _column_min(col)
            if m is not None and (best is None or m < best[0]):
                best = (m, idx)
        if best is None:
            break
        (v, row), idx = best
        if v >= precision - 1:
            raise PrecisionExhausted(
                f"pivot valuation {v} is not safely below precision {precision}"
            )
        col = work.pop(idx)
        unit_inv = col[row].shift_down(v).invert()
        norm = [
            (e.shift_down(v) * unit_inv).shift_up(v).at_precision(precision)
            if e.valuation() is not None
            else Series.zero(precision)
            for e in col
        ]
        norm[row] = Series.monomial(Scalar(1), v, precision)
        for group in (done, work):
            for other in group:
                q, r = other[row].split_at(v)
                if q.is_zero():
                    continue
                sub = scaled_col_mul(q, norm, v)
                for i in range(dim):
                    other[i] = (other[i] - sub[i]).at_precision(precision)
        done.append(norm)
        pivots.append((row, v))
    return Lattice(
        dim,
        shift,
        tuple(tuple(c) for c in done),
        tuple(pivots),
        precision,
    )


def standard_lattice(module: AbModule) -> Lattice:
    """The tautological lattice C[[b]]^p inside its own module."""
    p, w = module.rank, module.precision
    gens = tuple(
        tuple(
            Series.one(w) if i == j else Series.zero(w) for i in range(p)
        )
        for j in range(p)
    )
    pivots = tuple((j, 0) for j in range(p))
    return Lattice(p, 0, gens, pivots, w)


# ---------------------------------------------------------------------------
# lattice arithmetic
# ---------------------------------------------------------------------------


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.dim != b.dim:
        raise ValueError("lattice sum needs a common ambient module")
    k = max(a.shift, b.shift)
    aa, bb = a.at_shift(k), b.at_shift(k)
    w = min(aa.precision, bb.precision)
    cols = [list(g) for g in aa.gens] + [list(g) for g in bb.gens]
    return lattice_from_columns(a.dim, cols, shift=k, precision=w)


def lattice_equal(a: Lattice, b: Lattice) -> bool:
    """Equality of the underlying submodules, decided structurally on the
    canonical forms at a common frame and precision."""
    if a.dim != b.dim:
        return False
    k = max(a.shift, b.shift)
    aa, bb = a.at_shift(k), b.at_shift(k)
    if aa.pivots != bb.pivots:
        return False
    w = min(aa.precision, bb.precision)
    for ga, gb in zip(aa.gens, bb.gens):
        if col_at_precision(list(ga), w) != col_at_precision(list(gb), w):
            return False
    return True


def lattice_quotient_dim(big: Lattice, small: Lattice) -> int:
    """dim_C(big / small) for small contained in big with equal rank.

    Raises NotContained when a generator of small falls outside big or when
    the ranks differ (the quotient would be infinite dimensional).
    """
    if big.dim != small.dim:
        raise ValueError("quotient needs a common ambient module")
    if len(big.gens) != len(small.gens):
        raise NotContained(
            "lattices of different rank: quotient is not finite dimensional"
        )
    k = max(big.shift, small.shift)
    s_small, s_big = small.at_shift(k), big.at_shift(k)
    for g in s_small.gens:
        if not s_big.contains_column(list(g), k):
            raise NotContained("generator of the claimed sublattice falls outside")
    return s_small.pivot_valuation_sum() - s_big.pivot_valuation_sum()


# ---------------------------------------------------------------------------
# a-stable lattices as modules
# ---------------------------------------------------------------------------


def module_on_lattice(module: AbModule, lat: Lattice) -> AbModule:
    """The structure matrix of a restricted to a full-rank a-stable lattice.

    For each generator g_c, the image a(b^{-K} g_c) is re-expressed in the
    generator basis by back-substitution along the pivots; a fractional
    coefficient means the lattice was not a-stable (NotAStable).
    """
    if not lat.is_full_rank():
        raise ValueError("module_on_lattice needs a full-rank lattice")
    p = lat.dim
    k = lat.shift
    wmod = module.at_precision(
        min(module.precision, lat.precision)
    )
    new_cols = []
    for g in lat.gens:
        residual = list(apply_a(wmod, Element(list(g), k)).coords)
        coeffs = []
        for (row, v), gen in zip(lat.pivots, lat.gens):
            q, r = residual[row].split_at(v)
            if not r.is_zero():
                raise NotAStable(
                    "image of a generator has a fractional coefficient: "
                    "the lattice is not a-stable"
                )
            coeffs.append(q)
            sub = scaled_col_mul(q, list(gen), v)
            residual = [x - y for x, y in zip(residual, sub)]
        new_cols.append(coeffs)
    matrix = [[new_cols[j][i] for j in range(p)] for i in range(p)]
    return AbModule(matrix)
