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

from .errors import NotAStable, PrecisionExhausted
from .record import Record
from .scalars import ONE, Scalar
from .series import Series, _sub_mul
from .seriesmat import (
    a_image,
    col_at_precision,
    col_shift_up,
    col_sub_mul,
)

from .module import AbModule


class Lattice(Record):
    """Canonical echelon presentation of a C[[b]]-submodule of b^{-K} C[[b]]^p.

    Build through ``lattice_from_columns`` (or the helpers below); the raw
    constructor trusts its inputs.
    """

    __slots__ = ("dim", "shift", "gens", "pivots", "precision")

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

    # -- membership -------------------------------------------------------

    def contains_column(self, col, shift: int = 0) -> bool:
        """Whether b^{-shift} col lies in this lattice: its remainder after
        back-substitution along the pivots, in the frame of
        max(self.shift, shift), is visibly zero."""
        k = max(self.shift, shift)
        work = col_shift_up(list(col), k - shift)
        rem = _back_substitute(self.at_shift(k), work)[0]
        return all(x.is_zero() for x in rem)

    # -- structure --------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equality of the underlying submodules, decided structurally on
        the canonical forms at a common frame and precision."""
        if not isinstance(other, Lattice):
            return NotImplemented
        if self.dim != other.dim:
            return False
        k = max(self.shift, other.shift)
        a, b = self.at_shift(k), other.at_shift(k)
        if a.pivots != b.pivots:
            return False
        w = min(a.precision, b.precision)
        return all(
            col_at_precision(list(ga), w) == col_at_precision(list(gb), w)
            for ga, gb in zip(a.gens, b.gens)
        )

    def __hash__(self):
        # Hash only frame-free invariants; equality is finer.
        return hash((self.dim, len(self.gens)))

    def __repr__(self) -> str:
        pivs = ", ".join(f"(r{r},v{v})" for r, v in self.pivots)
        return (
            f"Lattice(dim={self.dim}, shift={self.shift}, "
            f"pivots=[{pivs}], precision={self.precision})"
        )


def _back_substitute(lat: Lattice, work: list):
    """Reduce a column along the pivots of lat, in order: (remainder, the
    quotient taken at each pivot)."""
    quotients = []
    for (row, v), gen in zip(lat.pivots, lat.gens):
        entry = work[row]
        if entry.precision < v:
            raise PrecisionExhausted("column too shallow to reduce against pivot")
        q, _ = entry.split_at(v)
        quotients.append(q)
        if not q.is_zero():
            work = col_sub_mul(work, q, list(gen), v)
    return work, quotients


def _quotient_columns(lat: Lattice, images):
    """The quotient column of each image column along the pivots of lat, or
    None at the first image column with a visibly nonzero remainder (one
    that lies outside lat)."""
    out = []
    for image in images:
        remainder, quotients = _back_substitute(lat, image)
        if any(x.terms for x in remainder):
            return None
        out.append(quotients)
    return out


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


def _reduce_at(col, row, v, pivot_col, precision) -> bool:
    """col -= q * norm in place, q = col[row] // b^v and pivot_col the
    nonzero entries of norm; whether col changed.  Every entry of norm has
    valuation >= v and q is known to precision - v, so each difference is
    known to the working precision."""
    if not col[row].terms:
        return False
    q, _ = col[row].split_at(v)
    if q.is_zero():
        return False
    for i, e in pivot_col:
        col[i] = _sub_mul(col[i], q, e, precision)
    return True


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
    # (valuation, row) of each column still to place; zero columns stay zero
    pending = [(m, c) for c in work if (m := _column_min(c)) is not None]
    done: list[list] = []
    pivots: list[tuple[int, int]] = []
    while pending:
        idx = min(range(len(pending)), key=lambda k: pending[k][0])
        (v, row), col = pending.pop(idx)
        if v >= precision - 1:
            raise PrecisionExhausted(
                f"pivot valuation {v} is not safely below precision {precision}"
            )
        if col[row].terms == ((v, ONE),):
            # The pivot is already b^v and every entry is at the working
            # precision: dividing by the unit 1 would give the column back.
            norm = col
        else:
            unit_inv = col[row].shift_down(v).invert()
            norm = [
                (e.shift_down(v) * unit_inv).shift_up(v).at_precision(precision)
                if e.valuation() is not None
                else Series.zero(precision)
                for e in col
            ]
            norm[row] = Series.monomial(Scalar(1), v, precision)
        # Every entry here is at the working precision, so subtracting
        # q * norm leaves the rows where norm is zero as they are.
        pivot_col = [(i, e) for i, e in enumerate(norm) if e.terms]
        for other in done:
            _reduce_at(other, row, v, pivot_col, precision)
        still = []
        for m, other in pending:
            if _reduce_at(other, row, v, pivot_col, precision):
                m = _column_min(other)
            if m is not None:
                still.append((m, other))
        pending = still
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
# a-stable lattices as modules
# ---------------------------------------------------------------------------


def module_on_lattice(module: AbModule, lat: Lattice) -> AbModule:
    """The structure matrix of a restricted to a full-rank a-stable lattice.

    For each generator g_c, the image a(b^{-K} g_c) is re-expressed in the
    generator basis by back-substitution along the pivots; a nonzero
    remainder (a fractional coefficient) means the lattice was not a-stable
    (NotAStable).
    """
    if not lat.is_full_rank():
        raise ValueError("module_on_lattice needs a full-rank lattice")
    new_cols = _quotient_columns(lat, _lattice_a_image(module, lat))
    if new_cols is None:
        raise NotAStable(
            "image of a generator has a fractional coefficient: "
            "the lattice is not a-stable"
        )
    p = lat.dim
    return AbModule([[new_cols[j][i] for j in range(p)] for i in range(p)])


def _lattice_a_image(module: AbModule, lat: Lattice) -> list:
    """a on the generators of lat, in lat's frame, with the structure matrix
    cut to the lattice's precision."""
    wmod = module.at_precision(min(module.precision, lat.precision))
    return a_image(wmod.matrix, lat.gens, lat.shift)
