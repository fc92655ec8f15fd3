"""Dense exact linear algebra over Q(i).

Matrices are lists of rows of ``Scalar``; vectors are lists of ``Scalar``.
All exact elimination (rref, ranks, solves, nullspaces, determinants) runs
through one kernel, the incremental row basis ``Echelon``, whose every row
has a 1 at its pivot and a 0 at the pivots of the rows added before it.
The one place the library leans on sympy is factoring a characteristic
polynomial over Q(i) to extract exact eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadParameter, UnsupportedSpectrum
from .scalars import Scalar, ZERO, ONE

Matrix = list
Vector = list


def zeros(r: int, c: int) -> Matrix:
    return [[ZERO] * c for _ in range(r)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = zeros(len(a), cb)
    for i, arow in enumerate(a):
        orow = out[i]
        for k, aik in enumerate(arow):
            if not aik:
                continue
            brow = b[k]
            for j in range(cb):
                if brow[j]:
                    orow[j] = orow[j] + aik * brow[j]
    return out


def mat_vec(a: Matrix, x: Vector) -> Vector:
    out = [ZERO] * len(a)
    for i, arow in enumerate(a):
        acc = ZERO
        for k, aik in enumerate(arow):
            if aik and x[k]:
                acc = acc + aik * x[k]
        out[i] = acc
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s: Scalar) -> Matrix:
    return [[x * s for x in row] for row in a]


def trace(a: Matrix) -> Scalar:
    t = ZERO
    for i in range(len(a)):
        t = t + a[i][i]
    return t


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


class Echelon:
    """A row basis grown one vector at a time, starting from ``vectors``.

    ``rows[k]`` has a 1 in column ``pivots[k]`` and a 0 in the pivot column
    of every row added before it, so reducing in insertion order clears
    each pivot column for good.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, vectors: Sequence[Vector] = ()):
        self.rows: list[Vector] = []
        self.pivots: list[int] = []
        for v in vectors:
            self.add(v)

    def reduce(self, v: Vector) -> Vector:
        """v with every stored pivot column cleared."""
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains(self, v: Vector) -> bool:
        return not any(self.reduce(v))

    def add(self, v: Vector) -> Optional[Scalar]:
        """Store v reduced and scaled to a 1 at its first nonzero column.

        Returns the entry at that column before scaling, or None when v is
        already in the span (nothing is stored).
        """
        v = self.reduce(v)
        pc = next((i for i, x in enumerate(v) if x), None)
        if pc is None:
            return None
        value = v[pc]
        inv = value.inverse()
        self.rows.append([x * inv for x in v])
        self.pivots.append(pc)
        return value


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    # Each row of the first pass leads with its 1 and is 0 at the pivots of
    # the rows before it; adding the rows again in reverse order clears the
    # pivots of the rows after it too, and leaves each leading 1 in place.
    back = Echelon(Echelon(a).rows[::-1])
    ranked = sorted(zip(back.pivots, back.rows), key=lambda pr: pr[0])
    out = [row for _, row in ranked]
    out.extend([ZERO] * len(a[0]) for _ in range(len(a) - len(out)))
    return out, [pc for pc, _ in ranked]


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of ker(a): one vector per free column, with a 1 in
    the free coordinate and the pivot coordinates solved from rref."""
    if not a:
        return []
    cols = len(a[0])
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for k, pc in enumerate(pivots):
            v[pc] = -r[k][free]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a x = b (free coordinates set to 0), or None."""
    rows = len(a)
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    cols = len(a[0]) if rows else 0
    r, pivots = rref(aug)
    if cols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [ZERO] * cols
    for k, pc in enumerate(pivots):
        x[pc] = r[k][cols]
    return x


def det(a: Matrix) -> Scalar:
    """Determinant of a square matrix: the product of the pivot values met
    while adding its rows to an ``Echelon``, times the sign of the pivot
    permutation."""
    if any(len(row) != len(a) for row in a):
        raise BadParameter("the determinant needs a square matrix")
    ech = Echelon()
    d = ONE
    for row in a:
        value = ech.add(row)
        if value is None:
            return ZERO
        d = d * value
    p = ech.pivots
    inversions = sum(p[j] > p[i] for i in range(len(p)) for j in range(i))
    return -d if inversions % 2 else d


def is_invertible(a: Matrix) -> bool:
    return len(a) == (len(a[0]) if a else 0) and bool(det(a))


def inverse(a: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None when singular."""
    n = len(a)
    aug = [a[i][:] + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def charpoly(a: Matrix) -> list[Scalar]:
    """Coefficients of det(t*I - a), leading coefficient first.

    Faddeev-LeVerrier: exact, division only by integers, O(n^4).
    """
    n = len(a)
    coeffs = [ONE]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -(trace(am) / k)
        coeffs.append(c)
        if k < n:
            m = mat_add(am, mat_scale(identity(n), c))
    return coeffs


# ---------------------------------------------------------------------------
# eigenvalues over Q(i), via sympy factorization
# ---------------------------------------------------------------------------


def _scalar_to_sympy(s: Scalar):
    import sympy

    return sympy.Rational(s.re.numerator, s.re.denominator) + sympy.Rational(
        s.im.numerator, s.im.denominator
    ) * sympy.I


def _sympy_to_scalar(x) -> Scalar:
    import sympy

    xr, xi = sympy.re(x), sympy.im(x)
    if not (xr.is_rational and xi.is_rational):
        raise UnsupportedSpectrum(f"non-Gaussian-rational value {x}")
    return Scalar(
        Fraction(int(xr.p), int(xr.q)), Fraction(int(xi.p), int(xi.q))
    )


def poly_roots_qi(coeffs: Sequence[Scalar]) -> list[tuple[Scalar, int]]:
    """All roots in Q(i) of the polynomial with the given coefficients
    (leading first), with multiplicities, sorted for determinism.

    Raises UnsupportedSpectrum when the polynomial does not split over Q(i):
    results beyond that field cannot be represented exactly by this library.
    """
    import sympy

    t = sympy.Symbol("t")
    poly = sympy.Poly([_scalar_to_sympy(c) for c in coeffs], t, domain="QQ_I")
    degree = poly.degree()
    _, factors = poly.factor_list()
    roots: list[tuple[Scalar, int]] = []
    covered = 0
    for fac, mult in factors:
        d = fac.degree()
        if d == 0:
            continue
        if d > 1:
            raise UnsupportedSpectrum(
                f"irreducible factor of degree {d} over Q(i): {fac.as_expr()}"
            )
        lead, const = fac.all_coeffs()
        roots.append((_sympy_to_scalar(-const / lead), mult))
        covered += mult
    if covered != degree:
        raise UnsupportedSpectrum("factorization did not account for all roots")
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def eigenvalues(a: Matrix) -> list[tuple[Scalar, int]]:
    """Exact eigenvalues with algebraic multiplicities, sorted."""
    if not a:
        return []
    return poly_roots_qi(charpoly(a))
