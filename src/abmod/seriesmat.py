"""Rectangular matrices of truncated series (lists of rows of ``Series``).

Thin functional helpers shared by the module, lattice and functor layers.
A "column" here is a list of ``Series`` — the coordinate vector of a module
element in some basis.
"""

from __future__ import annotations

from .series import Series


def smat_coefficient(m, k: int) -> list:
    """The Scalar matrix of b^k coefficients."""
    return [[entry.coefficient(k) for entry in row] for row in m]


def smat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_mul(a, b) -> list:
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = []
    for arow in a:
        orow = []
        for j in range(cb):
            acc = None
            for k in range(rb):
                t = arow[k] * b[k][j]
                acc = t if acc is None else acc + t
            orow.append(acc)
        out.append(orow)
    return out


def a_image(m, cols, shift: int = 0) -> list:
    """The operator a on coordinate columns in the b^{-shift} frame.

    For structure matrix m and each column v,
    a(b^{-K} v) = b^{-K} (m v + b^2 v' - K b v); the images come back as
    columns in the same frame.  Elements, lattices, base changes and the
    intertwiner check all apply a through here; only the coefficient-level
    forms (truncate, the intertwiner solver and eigen_lift's residual
    update) write the rule out again.

    m holds one common precision, as a structure matrix does.  An image is
    known to min(that precision, the least precision of its column), so each
    entry is cut to it before it is differentiated.
    """
    wm = smat_min_precision(m)
    out = []
    for v in cols:
        w = min(wm, min(x.precision for x in v))
        img = []
        for row, x in zip(m, v):
            x = x.at_precision(w)
            acc = x.derivative().shift_up(2)
            if shift:
                acc = acc - x.shift_up(1) * shift
            for mij, xj in zip(row, v):
                acc = acc + mij * xj
            img.append(acc)
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
    return [(q * entry.shift_down(v)).shift_up(v) for entry in col]


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
        work[c] = [entry * inv for entry in work[c]]
        for r in range(n):
            if r != c and not work[r][c].is_zero():
                factor = work[r][c]
                work[r] = [
                    work[r][j] - factor * work[c][j] for j in range(2 * n)
                ]
    return [row[n:] for row in work]
