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

The echelon (``_echelon``) and the back-substitution
(``_back_substitute_terms``) run on ``Series.terms`` tuples;
``lattice_from_columns``, ``contains_column`` and ``module_on_lattice``
(through ``_back_substitute``) build ``Series`` only for what they return, and ``saturate`` calls the
kernels directly.
"""

from __future__ import annotations

from .errors import BadParameter, NotAStable, PrecisionExhausted
from .record import Record
from .scalars import ONE
from .series import Series, _below, _checked_series, _make, _sub_mul
from .seriesmat import _checked_length, a_image, col_shift_up

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

    # -- frame plumbing ---------------------------------------------------

    def at_shift(self, shift: int) -> "Lattice":
        """The same lattice presented in a deeper frame (shift >= current).

        Columns pick up b^{shift - K}; the echelon form stays canonical
        because the whole construction is homogeneous in b.
        """
        d = shift - self.shift
        if d < 0:
            raise BadParameter("cannot shallow a lattice frame; shifts only grow")
        if d == 0:
            return self
        gens = tuple(tuple(col_shift_up(list(g), d)) for g in self.gens)
        pivots = tuple((r, v + d) for r, v in self.pivots)
        return Lattice(self.dim, shift, gens, pivots, self.precision + d)

    # -- membership -------------------------------------------------------

    def contains_column(self, col, shift: int = 0) -> bool:
        """Whether b^{-shift} col lies in this lattice: its remainder after
        back-substitution along the pivots, in the frame of
        max(self.shift, shift), is visibly zero.  A column whose length is
        not the lattice's dimension is refused (BadParameter)."""
        _checked_length(col, self.dim)
        _checked_series([col], "column entries")
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
            [_below(e.terms, w) for e in ga] == [_below(e.terms, w) for e in gb]
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
    gens = [[e.terms for e in g] for g in lat.gens]
    rem, ws, quotients = _back_substitute_terms(
        lat.pivots, gens, lat.precision,
        [x.terms for x in work], [x.precision for x in work],
    )
    return (
        [_make(t, w) for t, w in zip(rem, ws)],
        [_make(q, w) for q, w in quotients],
    )


def _back_substitute_terms(pivots, gens, precision: int, work, ws):
    """Back-substitution on terms: the term column work, entry i known
    below ws[i], reduced along the pivots (row, v) of the generator term
    columns gens, known below precision.  Returns the remainder, the
    precision of each of its entries and the (terms, precision) of the
    quotient taken at each pivot.

    The generators are a canonical echelon's: every entry of g has
    valuation >= v, and precision > v + 1.  So subtracting q * g,
    q = work[row] // b^v, loses no precision to the division and leaves
    entry i known to min(ws[i], precision of work[row], precision).  That
    bound only falls, so the precision of entry i is min(ws[i], cap) for
    one running cap, and the remainder is cut to it at the end.  A
    subtraction that would read an entry of precision 0 raises
    PrecisionExhausted, as the Series difference would.
    """
    work, eff, cap = list(work), ws, None
    quotients = []
    for (row, v), gen in zip(pivots, gens):
        wr = eff[row]
        if wr < v:
            raise PrecisionExhausted(f"reducing against the pivot b^{v}", v, wr)
        q = tuple((k - v, c) for k, c in work[row] if v <= k < wr) if work[row] else ()
        quotients.append((q, wr - v))
        if q:
            if 0 in ws:
                raise PrecisionExhausted("a series operand", 1, 0)
            if cap != min(wr, precision):
                cap = min(wr, precision)
                eff = [x if x < cap else cap for x in ws]
            for i, g in enumerate(gen):
                if g:
                    work[i] = _sub_mul(work[i], q, g, eff[i])
    if cap is not None:
        work = [_below(t, x) for t, x in zip(work, eff)]
    return work, eff, quotients


# ---------------------------------------------------------------------------
# echelon construction
# ---------------------------------------------------------------------------


def _echelon(columns, w: int):
    """The canonical echelon (gens, pivots) of term columns whose entries
    all lie below w; gens are term columns known below w.

    The pending column of least (valuation, row) is placed next; its pivot
    is made exactly b^v by the inverse of its unit part (a pivot already
    b^v is taken as it is), and every column placed or pending is reduced
    by q times it, q = its entry at the pivot row // b^v.  Every entry of
    the pivot column has valuation >= v and q is known to w - v, so each
    difference is known below w.  A pivot valuation v >= w - 1 raises
    PrecisionExhausted.  The lists of columns are reduced in place.
    """

    def lowest(col):  # (valuation, row) of the deepest-reaching entry
        best = None
        for i, t in enumerate(col):
            if t and (best is None or t[0][0] < best[0]):
                best = (t[0][0], i)
        return best

    pending = [(m, c) for c in columns if (m := lowest(c)) is not None]
    gens, pivots = [], []
    while pending:
        idx = min(range(len(pending)), key=lambda k: pending[k][0])
        (v, row), col = pending.pop(idx)
        if v >= w - 1:
            raise PrecisionExhausted(f"a lattice pivot b^{v}", v + 2, w)
        if col[row] != ((v, ONE),):
            # t / u is 0 - (-1/u) * t for the unit part u of the pivot
            neg = _make(tuple((k - v, -c) for k, c in col[row]), w - v).invert().terms
            col = [_sub_mul((), neg, t, w) if t else t for t in col]
            col[row] = ((v, ONE),)
        pivot_col = [(i, t) for i, t in enumerate(col) if t]

        def eliminate(other):  # other -= q * col, q = other[row] // b^v
            q = tuple((k - v, c) for k, c in other[row] if k >= v)
            if q:
                for i, t in pivot_col:
                    other[i] = _sub_mul(other[i], q, t, w)
            return q

        for other in gens:
            if other[row]:
                eliminate(other)
        pending = [
            (lowest(c) if c[row] and eliminate(c) else m, c) for m, c in pending
        ]
        pending = [(m, c) for m, c in pending if m is not None]
        gens.append(col)
        pivots.append((row, v))
    return gens, pivots


def lattice_from_columns(dim: int, columns, shift: int = 0, precision=None) -> Lattice:
    """Echelonize generating columns into a canonical Lattice.

    ``columns`` are coordinate columns in the b^{-shift} frame.  Visibly zero
    columns are dropped.  A pivot valuation too close to the precision
    horizon (v >= precision - 1) raises PrecisionExhausted: the data does not
    determine the lattice.
    """
    cols = [list(c) for c in columns]
    _checked_series(cols, "column entries")
    if precision is None:
        precision = min(
            (e.precision for c in cols for e in c), default=0
        )
    if precision < 1:
        raise PrecisionExhausted("a lattice", 1, precision)
    work = [[e.at_precision(precision).terms for e in c] for c in cols]
    for c in work:
        _checked_length(c, dim)
    gens, pivots = _echelon(work, precision)
    return Lattice(
        dim,
        shift,
        tuple(tuple(_make(t, precision) for t in g) for g in gens),
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
        raise BadParameter("module_on_lattice needs a full-rank lattice")
    # a on the generators, with the structure matrix cut to lat's precision
    wmod = module.at_precision(min(module.precision, lat.precision))
    new_cols = []
    for image in a_image(wmod.matrix, lat.gens, lat.shift):
        remainder, quotients = _back_substitute(lat, image)
        if any(x.terms for x in remainder):
            raise NotAStable(
                "image of a generator has a fractional coefficient: "
                "the lattice is not a-stable"
            )
        new_cols.append(quotients)
    p = lat.dim
    return AbModule([[new_cols[j][i] for j in range(p)] for i in range(p)])
