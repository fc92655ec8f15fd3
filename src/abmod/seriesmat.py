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
"""

from __future__ import annotations

from .errors import PrecisionExhausted
from .series import Series, _make


def smat_coefficient(m, k: int) -> list:
    """The Scalar matrix of b^k coefficients."""
    return [[entry.coefficient(k) for entry in row] for row in m]


def smat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_mul(a, b) -> list:
    """The product a b; entry (i, j) is known to the least precision of row i
    of a and column j of b."""
    rb = len(b)
    cb = len(b[0]) if rb else 0
    if not cb:
        return [[] for _ in a]
    col_w = [min(b[k][j].precision for k in range(rb)) for j in range(cb)]
    wb = min(col_w)
    brows = [[(j, e) for j, e in enumerate(row) if e.terms] for row in b]
    out = []
    for arow in a:
        row_w = min(arow[k].precision for k in range(rb))
        if not row_w or not wb:
            raise PrecisionExhausted("operating on a series of precision 0")
        acc = [None] * cb
        for k in range(rb):
            x = arow[k]
            if x.terms:
                for j, y in brows[k]:
                    t = x * y
                    acc[j] = t if acc[j] is None else acc[j] + t
        out.append([
            _make((), min(row_w, w)) if s is None else s.at_precision(min(row_w, w))
            for s, w in zip(acc, col_w)
        ])
    return out


def a_image(m, cols, shift: int = 0) -> list:
    """The operator a on coordinate columns in the b^{-shift} frame.

    For structure matrix m and each column v,
    a(b^{-K} v) = b^{-K} (m v + b^2 v' - K b v); the images come back as
    columns in the same frame.  Elements, lattices, base changes, the
    intertwiner check and eigen_lift's residual all apply a through here;
    only the coefficient-level forms (truncate and the intertwiner solver)
    write the rule out again.

    An image entry is known to min(w + 1, the least precision of its row
    of m, the least precision of v), where w = min(least precision of m,
    least precision of v); for a structure matrix, which holds one common
    precision, that is w.  Each entry of v is cut to w before it is
    differentiated.
    """
    row_w = [min(entry.precision for entry in row) for row in m]
    wm = min(row_w)
    rows = [[(j, e) for j, e in enumerate(row) if e.terms] for row in m]
    out = []
    for v in cols:
        v = list(v)
        cv = min(x.precision for x in v)
        w = min(wm, cv)
        if not w:
            raise PrecisionExhausted("operating on a series of precision 0")
        img = []
        for i, x in enumerate(v):
            acc = _make((), w + 1)
            x = x.at_precision(w)
            if x.terms:
                acc = x.derivative().shift_up(2)
                if shift:
                    acc = acc - x.shift_up(1) * shift
            for j, mij in rows[i]:
                xj = v[j]
                if xj.terms:
                    acc = acc + mij * xj
            img.append(acc.at_precision(min(w + 1, row_w[i], cv)))
        out.append(img)
    return out


def smat_min_precision(a) -> int:
    return min(entry.precision for row in a for entry in row)


def col_shift_up(x: list, m: int) -> list:
    return [u.shift_up(m) for u in x]


def col_at_precision(x: list, w: int) -> list:
    return [u.at_precision(w) for u in x]


def scaled_col_mul(q: Series, col: list, v: int) -> list:
    """q * col for a column all of whose entries have valuation >= v.

    Computed as b^v * (q * (col / b^v)) so no precision is lost to the
    valuation: the result is known to the full precision of col.
    """
    out = []
    for entry in col:
        if entry.terms or entry.precision <= v or not q.precision:
            out.append((q * entry.shift_down(v)).shift_up(v))
        else:
            out.append(_make((), min(q.precision + v, entry.precision)))
    return out


def smat_inverse(a) -> list:
    """Inverse of a square series matrix invertible over the series ring.

    Gauss elimination pivoting on unit entries only; a matrix whose
    determinant is a unit always offers a unit pivot in every column.
    Raises NotAUnit otherwise.
    """
    from .errors import NotAUnit

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
                    row[j] = row[j] - factor * e
                work[r] = row
    return [row[n:] for row in work]
