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
oracles in ``tests/oracles.py`` keep the dense forms built from the
``Series`` operators, and the tests compare the two.
"""

from __future__ import annotations

from .errors import PrecisionExhausted
from .series import Series, _done, _fold, _make, _sub_mul


def smat_coefficient(m, k: int) -> list:
    """The Scalar matrix of b^k coefficients."""
    return [[entry.coefficient(k) for entry in row] for row in m]


def smat_mul(a, b) -> list:
    """The product a b; entry (i, j) is known to the least precision of row i
    of a and column j of b."""
    rb = len(b)
    cb = len(b[0]) if rb else 0
    if not cb:
        return [[] for _ in a]
    col_w = [min(b[k][j].precision for k in range(rb)) for j in range(cb)]
    wb = min(col_w)
    brows = [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in b]
    out = []
    for arow in a:
        row_w = min(arow[k].precision for k in range(rb))
        if not row_w or not wb:
            raise PrecisionExhausted("operating on a series of precision 0")
        ws = [min(row_w, w) for w in col_w]
        accs = [{} for _ in range(cb)]
        for k in range(rb):
            x = arow[k].terms
            if x:
                for j, y in brows[k]:
                    _fold(accs[j], x, y, ws[j])
        out.append([_make(_done(acc), w) for acc, w in zip(accs, ws)])
    return out


def a_image(m, cols, shift: int = 0) -> list:
    """The operator a on coordinate columns in the b^{-shift} frame.

    For structure matrix m and each column v,
    a(b^{-K} v) = b^{-K} (m v + b^2 v' - K b v); the images come back as
    columns in the same frame.  Elements, lattices, base changes and
    truncations all apply a through here; only the coefficient-level forms
    of the intertwiner solver and verify_intertwiner write the rule out
    again, for speed.

    An image entry is known to min(w + 1, the least precision of its row
    of m, the least precision of v), where w = min(least precision of m,
    least precision of v); for a structure matrix, which holds one common
    precision, that is w.  Each entry of v is cut to w before it is
    differentiated.  The diagonal part b^2 v' - K b v of an entry is the
    single term (k - K) c b^(k+1) for each term c b^k of v below w; it
    starts the entry's accumulator, and each product of m v is folded in.
    """
    row_w = [min(entry.precision for entry in row) for row in m]
    wm = min(row_w)
    rows = [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in m]
    out = []
    for v in cols:
        v = list(v)
        cv = min(x.precision for x in v)
        w = min(wm, cv)
        if not w:
            raise PrecisionExhausted("operating on a series of precision 0")
        img = []
        for i, x in enumerate(v):
            wi = min(w + 1, row_w[i], cv)
            acc = {
                k + 1: [(k - shift) * c.re_num, (k - shift) * c.im_num, c.den]
                for k, c in x.terms
                if k + 1 < wi and k != shift
            }
            for j, mij in rows[i]:
                xj = v[j].terms
                if xj:
                    _fold(acc, mij, xj, wi)
            img.append(_make(_done(acc), wi))
        out.append(img)
    return out


def smat_min_precision(a) -> int:
    return min(entry.precision for row in a for entry in row)


def col_shift_up(x: list, m: int) -> list:
    return [u.shift_up(m) for u in x]


def col_at_precision(x: list, w: int) -> list:
    return [u.at_precision(w) for u in x]


def col_sub_mul(x: list, q: Series, col: list, v: int) -> list:
    """x - q * col for a column all of whose entries have valuation >= v.

    q * col is taken as b^v * (q * (col / b^v)), so no precision is lost to
    the valuation: entry i is known to min(precision of x_i, precision of
    q + v, precision of col_i).  An entry of col that b^v does not divide
    raises ValueError, and a product or difference that would have to read
    a series of precision 0 raises PrecisionExhausted; every entry of col is
    checked before any of x, as forming q * col first and subtracting it
    after would.
    """
    for g in col:
        if g.precision < v:
            raise PrecisionExhausted(f"dividing by b^{v} at precision {g.precision}")
        if g.terms and g.terms[0][0] < v:
            raise ValueError("series is not divisible by the requested b power")
        if g.precision == v or not q.precision:
            raise PrecisionExhausted("operating on a series of precision 0")
    out = []
    for xi, g in zip(x, col):
        if not xi.precision:
            raise PrecisionExhausted("operating on a series of precision 0")
        w = min(xi.precision, q.precision + v, g.precision)
        out.append(_sub_mul(xi, q, g, w) if q.terms and g.terms else xi.at_precision(w))
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
                    row[j] = _sub_mul(row[j], factor, e, w)
                work[r] = row
    return [row[n:] for row in work]
