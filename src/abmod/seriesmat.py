"""Rectangular matrices of truncated series (lists of rows of ``Series``).

Thin functional helpers shared by the module, lattice and functor layers.
A "column" here is a list of ``Series`` — the coordinate vector of a module
element in some basis.

Most entries met in practice are zero.  The ``Series`` operators already
return at once on an operand without terms; the kernels here go further and
skip such entries of a sum of products altogether, computing the result's
precision directly as the minimum the dense formula gives.  Where the dense
formula would raise (an operand of precision 0, or a division by b^v that an
entry cannot bear), the kernel raises the same error.

Each entry of a sum of products is folded into one accumulator of raw
integer triples by ``series._fold`` and normalized once by ``series._done``
(see ``series``): no partial product or partial sum becomes a Scalar.  The
two kernels fill their accumulators in cores that normalize nothing,
``_fold_row`` under ``smat_mul`` and ``_a_image_accs`` under ``a_image``;
``morphisms.verify_intertwiner`` folds a(P) - P*Ms through both.  The
oracles in ``tests/oracles.py`` keep the dense forms built from the
``Series`` operators, and the tests compare the two.
"""

from __future__ import annotations

from .errors import BadParameter, NotAUnit, PrecisionExhausted
from .series import Series, _done, _fold, _make, _sub_mul


def smat_mul(a, b) -> list:
    """The product a b; entry (i, j) is known to the least precision of row i
    of a and column j of b."""
    rb = len(b)
    cb = len(b[0]) if rb else 0
    if not cb:
        return [[] for _ in a]
    col_w = [min(b[k][j].precision for k in range(rb)) for j in range(cb)]
    wb = min(col_w)
    brows = _sparse_rows(b)
    out = []
    for arow in a:
        row_w = min(arow[k].precision for k in range(rb))
        if not row_w or not wb:
            raise PrecisionExhausted("a series operand", 1, 0)
        ws = [min(row_w, w) for w in col_w]
        accs = [{} for _ in range(cb)]
        _fold_row(accs, arow, brows, ws)
        out.append([_make(_done(acc), w) for acc, w in zip(accs, ws)])
    return out


def _fold_row(accs, row, brows, ws, sign: int = 1) -> None:
    """accs[j] += sign * (row b)_j below ws[j] (sign is 1 or -1), as
    ``series._fold`` does for one product: row is a row of Series and
    brows the rows of b as ``_sparse_rows`` gives them.  Nothing is
    normalized.  The entry of b leads each fold, so the sign negates its
    terms: a structure matrix, as b of verify_intertwiner's P*Ms, has
    fewer terms than a solved P."""
    for e, brow in zip(row, brows):
        x = e.terms
        if x:
            for j, y in brow:
                _fold(accs[j], y, x, ws[j], sign)


def a_image(m, cols, shift: int = 0) -> list:
    """The operator a on coordinate columns in the b^{-shift} frame.

    For structure matrix m and each column v,
    a(b^{-K} v) = b^{-K} (m v + b^2 v' - K b v); the images come back as
    columns in the same frame.  Elements, lattices and base changes apply a
    through here, saturate and truncate through its term kernel
    ``_a_image_terms``, and verify_intertwiner through that kernel's
    accumulators ``_a_image_accs``; only the compiled stencils of the
    intertwiner solver write the rule out again, as the drift 1 - k.

    An image entry is known to min(w + 1, the least precision of its row
    of m, the least precision of v), where w = min(least precision of m,
    least precision of v); for a structure matrix, which holds one common
    precision, that is w.  A column whose length is not the rank of m is
    refused (BadParameter).
    """
    row_w = [min(entry.precision for entry in row) for row in m]
    wm = min(row_w)
    rows = _sparse_rows(m)
    out = []
    for v in cols:
        v = list(v)
        _checked_length(v, len(m))
        cv = min(x.precision for x in v)
        w = min(wm, cv)
        if not w:
            raise PrecisionExhausted("a series operand", 1, 0)
        ws = [min(w + 1, r, cv) for r in row_w]
        image = _a_image_terms(rows, [x.terms for x in v], shift, ws)
        out.append([_make(t, wi) for t, wi in zip(image, ws)])
    return out


def _sparse_rows(m) -> list:
    """Per row of a series matrix, its (column, terms) pairs with terms."""
    return [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in m]


def _a_image_terms(rows, col, shift: int, ws) -> list:
    """a on one term column in the b^{-shift} frame, entry i below ws[i]:
    the terms of (m col + b^2 col' - shift b col)_i for m given by
    ``_sparse_rows``, each entry of ``_a_image_accs`` normalized once."""
    return [_done(acc) for acc in _a_image_accs(rows, col, shift, ws)]


def _a_image_accs(rows, col, shift: int, ws) -> list:
    """The raw-triple accumulators of ``_a_image_terms``, one per entry,
    unnormalized.  Each entry of col is cut to ws[i] - 1 before it is
    differentiated: the diagonal part b^2 x' - K b x of an entry is the
    single term (k - K) c b^(k+1) for each term c b^k of x; it starts the
    entry's accumulator, and each product of m col is folded in."""
    accs = []
    for x, row, wi in zip(col, rows, ws):
        acc = {
            k + 1: [(k - shift) * c.re_num, (k - shift) * c.im_num, c.den]
            for k, c in x
            if k + 1 < wi and k != shift
        }
        for j, mij in row:
            if col[j]:
                _fold(acc, mij, col[j], wi)
        accs.append(acc)
    return accs


def _checked_length(col, rank: int) -> None:
    """BadParameter unless the coordinate column col has rank entries."""
    if len(col) != rank:
        raise BadParameter(f"column length {len(col)} is not the rank {rank}")


def smat_min_precision(a) -> int:
    return min(entry.precision for row in a for entry in row)


def col_shift_up(x: list, m: int) -> list:
    return [u.shift_up(m) for u in x]


def smat_inverse(a) -> list:
    """Inverse of a square series matrix invertible over the series ring.

    Gauss elimination pivoting on unit entries only; a matrix whose
    determinant is a unit always offers a unit pivot in every column.
    Raises NotAUnit otherwise.
    """
    n = len(a)
    w = smat_min_precision(a)
    work = [
        [a[i][j].at_precision(w) for j in range(n)]
        + [Series.one(w) if i == j else Series.zero(w) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c].is_unit()), None)
        if pivot is None:
            raise NotAUnit("series matrix is not invertible over the series ring")
        work[c], work[pivot] = work[pivot], work[c]
        inv = work[c][c].invert()
        # Every entry of work stays at precision w, so a zero entry of the
        # pivot row leaves the other rows' entries in its column as they are.
        work[c] = [entry * inv if entry.terms else entry for entry in work[c]]
        pivot_row = [(j, e) for j, e in enumerate(work[c]) if e.terms]
        for r in range(n):
            if r != c and not work[r][c].is_zero():
                factor = work[r][c]
                row = list(work[r])
                for j, e in pivot_row:
                    row[j] = _make(_sub_mul(row[j].terms, factor.terms, e.terms, w), w)
                work[r] = row
    return [row[n:] for row in work]
