"""Dense exact linear algebra over Q(i).

Matrices are lists of rows of ``Scalar``; vectors are lists of ``Scalar``.
All exact elimination (rref, ranks, solves, nullspaces, determinants) runs
through one kernel, the incremental row basis ``Echelon``, whose every row
has a 1 at its pivot and a 0 at the pivots of the rows added before it.
Exact eigenvalues come from ``poly_roots_qi``: the roots in Q(i) of the
characteristic polynomial, found p-adically (Hensel lifting at a prime
p = 1 mod 4) and each verified by exact division, with no sympy.
"""

from __future__ import annotations

from math import isqrt, lcm
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
# eigenvalues over Q(i): p-adic roots, each verified by exact division
# ---------------------------------------------------------------------------
#
# With den the common denominator of its coefficients, a monic squarefree g
# in Q(i)[t] becomes under t = s/den a monic polynomial in Z[i][s], whose
# roots in Q(i) are Gaussian integers a + b*i (they are algebraic integers).
# At a prime p = 1 (mod 4) with iota^2 = -1 (mod p), such a root maps to the
# root a + b*iota of the image of g under i -> iota and to a - b*iota under
# i -> -iota.  Once both are Hensel-lifted modulo p^k > 4 * (root bound),
# a and b are their half sum and half difference over iota, read as symmetric
# residues.  Candidates are checked by exact division, so a wrong pairing or
# a root outside Q(i) can never slip through.


def _strip(f: list) -> list:
    return f[next((k for k, c in enumerate(f) if c), len(f)):]


def _poly_divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by g over Q(i), coefficients leading first."""
    f = list(f)
    inv = g[0].inverse()
    n = max(len(f) - len(g) + 1, 0)
    for k in range(n):
        c = f[k] = f[k] * inv
        if c:
            for j in range(1, len(g)):
                f[k + j] = f[k + j] - c * g[j]
    return f[:n], _strip(f[n:])


def _derivative(f: list) -> list:
    return [c * (len(f) - 1 - k) for k, c in enumerate(f[:-1])]


def _squarefree(f: list) -> list:
    """f divided by gcd(f, f') and made monic, by Euclid's algorithm
    (deg f >= 1)."""
    g, h = f, _derivative(f)
    while h:
        g, h = h, _poly_divmod(g, h)[1]
    q = _poly_divmod(f, g)[0]
    inv = q[0].inverse()
    return [c * inv for c in q]


def _eval_mod(f: list, x: int, m: int) -> int:
    acc = 0
    for c in f:
        acc = (acc * x + c) % m
    return acc


def _hensel(f: list, x: int, p: int, m: int) -> int:
    """The root modulo m = p^k of the integer polynomial f that is congruent
    to x, a simple root of f modulo p (Newton's iteration)."""
    df = _derivative(f)
    q = p
    while q < m:
        q *= q
        x = (x - _eval_mod(f, x, m) * pow(_eval_mod(df, x, m), -1, m)) % m
    return x


def _primes_1_mod_4():
    p = 5
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def _gaussian_integer_roots(g: list) -> list[tuple[int, int]]:
    """Candidates (a, b) holding every root a + b*i in Z[i] of the monic
    polynomial g, given as (re, im) integer pairs leading first."""
    bound = 1 + max(abs(re) + abs(im) for re, im in g)  # Cauchy
    for p in _primes_1_mod_4():
        iota = next(r for r in (pow(x, (p - 1) // 4, p) for x in range(2, p))
                    if r * r % p == p - 1)
        images = [[(re + sign * im * iota) % p for re, im in g] for sign in (1, -1)]
        roots = [[x for x in range(p) if not _eval_mod(f, x, p)] for f in images]
        if all(_eval_mod(_derivative(f), x, p) for f, xs in zip(images, roots) for x in xs):
            break  # every root of both images is simple, so each one lifts
    m = p
    while m <= 4 * bound:
        m *= p
    iota = _hensel([1, 0, 1], iota, p, m)
    plus, minus = (
        [_hensel([(re + sign * im * iota) % m for re, im in g], x, p, m) for x in xs]
        for sign, xs in zip((1, -1), roots)
    )
    half, half_iota = pow(2, -1, m), pow(2 * iota, -1, m)
    out = []
    for x in plus:
        for y in minus:
            a, b = (x + y) * half % m, (x - y) * half_iota % m
            a, b = a - m if 2 * a > m else a, b - m if 2 * b > m else b
            if abs(a) <= bound and abs(b) <= bound:
                out.append((a, b))
    return out


def poly_roots_qi(coeffs: Sequence[Scalar]) -> list[tuple[Scalar, int]]:
    """All roots in Q(i) of the polynomial with the given coefficients
    (leading first), with multiplicities, sorted for determinism.

    Raises UnsupportedSpectrum when the polynomial does not split over Q(i):
    results beyond that field cannot be represented exactly by this library.
    """
    f = _strip(list(coeffs))
    if not f:
        raise UnsupportedSpectrum("the zero polynomial has no finite set of roots")
    degree = len(f) - 1
    zeros = next(k for k, c in enumerate(reversed(f)) if c)
    f = f[:len(f) - zeros]
    roots = [(ZERO, zeros)] if zeros else []
    if len(f) > 1:
        g = _squarefree(f)
        den = lcm(*(c.den for c in g))
        monic = [(c.re_num * den**k // c.den, c.im_num * den**k // c.den)
                 for k, c in enumerate(g)]
        for a, b in _gaussian_integer_roots(monic):
            # Exact division verifies the candidate and counts its multiplicity.
            root, count = Scalar(a, b) / den, 0
            quotient, rest = _poly_divmod(f, [ONE, -root])
            while not rest:
                f, count = quotient, count + 1
                quotient, rest = _poly_divmod(f, [ONE, -root])
            if count:
                roots.append((root, count))
    covered = sum(count for _, count in roots)
    if covered != degree:
        raise UnsupportedSpectrum(
            f"polynomial of degree {degree} does not split over Q(i)"
            f" (roots there, with multiplicity: {covered})"
        )
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def eigenvalues(a: Matrix) -> list[tuple[Scalar, int]]:
    """Exact eigenvalues with algebraic multiplicities, sorted."""
    if not a:
        return []
    return poly_roots_qi(charpoly(a))
