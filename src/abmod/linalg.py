"""Dense exact linear algebra over Q(i).

Matrices are lists of rows of ``Scalar``; vectors are lists of ``Scalar``.
All exact elimination (rref, ranks, nullspaces, inverses, determinants) runs
through one kernel, the incremental row basis ``Echelon``, whose every row
has a 1 at its pivot and a 0 at the pivots of the rows added before it.
Exact eigenvalues are read block by block off the block-triangular form of
the matrix (the strongly connected components of its nonzero pattern): a
1 x 1 block is its own eigenvalue, and a larger block gives the roots in
Q(i) of its characteristic polynomial, found by ``poly_roots_qi``
p-adically (Hensel lifting at a prime p = 1 mod 4) and each verified by
exact division, with no sympy.  The characteristic polynomial itself costs
O(n^3): a Hessenberg reduction by similarity, then a recurrence over its
leading blocks (Cohen, Algorithm 2.2.9).
"""

from __future__ import annotations

from functools import cache
from math import isqrt, lcm
from typing import Optional, Sequence

from .errors import BadParameter, UnsupportedSpectrum
from .scalars import Scalar, ZERO, ONE, _make

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

    Exact and O(n^3) (Cohen, *A Course in Computational Algebraic Number
    Theory*, Algorithm 2.2.9).  a is brought to upper Hessenberg form h by
    similarity over Q(i); then p_m, the characteristic polynomial of the
    leading m x m block of h (0-based, p_0 = 1), is

        p_(m+1) = (t - h[m][m]) p_m - sum over i < m of
                  h[i][m] * h[i+1][i] * h[i+2][i+1] * ... * h[m][m-1] * p_i.
    """
    h = _hessenberg(a)
    polys = [[ONE]]  # p_m, constant coefficient first
    for m in range(len(h)):
        prev = polys[-1]
        diag = -h[m][m]
        p = [diag * prev[0]] + [x + diag * y for x, y in zip(prev, prev[1:])] + [ONE]
        t = ONE
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i]  # h[i+1][i] * ... * h[m][m-1]
            if not t:
                break  # a zero subdiagonal entry ends every longer product
            c = h[i][m] * t
            if c:
                for k, y in enumerate(polys[i]):
                    if y:
                        p[k] = p[k] - c * y
        polys.append(p)
    return polys[-1][::-1]


def _hessenberg(a: Matrix) -> Matrix:
    """A matrix similar to a over Q(i), zero below its subdiagonal.

    Column by column: a nonzero entry below the subdiagonal becomes the
    pivot (its row and column swapped onto the subdiagonal), and each entry
    below it is cleared by a row operation whose inverse column operation
    keeps the similarity; a column with nothing below its diagonal but
    zeros is skipped.
    """
    n = len(a)
    h = [list(row) for row in a]
    for m in range(1, n - 1):
        c = m - 1
        r = next((r for r in range(m, n) if h[r][c]), None)
        if r is None:
            continue
        if r != m:
            h[r], h[m] = h[m], h[r]
            for line in h:
                line[r], line[m] = line[m], line[r]
        pivot_row = h[m]
        inv = pivot_row[c].inverse()
        for i in range(m + 1, n):
            row = h[i]
            if not row[c]:
                continue
            u = row[c] * inv
            row[c] = ZERO
            for j in range(m, n):
                if pivot_row[j]:
                    row[j] = row[j] - u * pivot_row[j]
            for line in h:
                if line[i]:
                    line[m] = line[m] + u * line[i]
    return h


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
# a root outside Q(i) can never slip through.  The division runs on plain
# ints: every root r of f is a root of g, so den * r is an algebraic integer
# and F(s) = den^n f(s/den) / lead is monic in Z[i][s], with the root den * r
# of the same multiplicity; synthetic division of F by s - (a + b*i) over
# Z[i] decides the candidate (a + b*i)/den and counts its multiplicity.


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


def _hensel(f: list, df: list, x: int, p: int, m: int) -> int:
    """The root modulo m = p^k of the integer polynomial f, with derivative
    df, that is congruent to x, a simple root of f modulo p (Newton's
    iteration)."""
    q = p
    while q < m:
        q *= q
        x = (x - _eval_mod(f, x, m) * pow(_eval_mod(df, x, m), -1, m)) % m
    return x


def _primes_1_mod_4():
    """The primes p = 1 (mod 4) in increasing order, each with a square
    root iota of -1 modulo p."""
    p = 5
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p, _sqrt_minus_one(p)
        p += 4


@cache
def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo the prime p = 1 (mod 4), found once per
    prime."""
    return next(r for r in (pow(x, (p - 1) // 4, p) for x in range(2, p))
                if r * r % p == p - 1)


def _gaussian_integer_roots(g: list) -> list[tuple[int, int]]:
    """Candidates (a, b) holding every root a + b*i in Z[i] of the monic
    polynomial g, given as (re, im) integer pairs leading first."""
    bound = 1 + max(abs(re) + abs(im) for re, im in g)  # Cauchy
    for p, iota in _primes_1_mod_4():
        images = [[(re + sign * im * iota) % p for re, im in g] for sign in (1, -1)]
        roots = [[x for x in range(p) if not _eval_mod(f, x, p)] for f in images]
        slopes = [_derivative(f) for f in images]
        if all(_eval_mod(df, x, p) for df, xs in zip(slopes, roots) for x in xs):
            break  # every root of both images is simple, so each one lifts
    m = p
    while m <= 4 * bound:
        m *= p
    iota = _hensel([1, 0, 1], [2, 0], iota, p, m)
    lifted = []
    for sign, xs in zip((1, -1), roots):
        image = [(re + sign * im * iota) % m for re, im in g]
        slope = _derivative(image)
        lifted.append([_hensel(image, slope, x, p, m) for x in xs])
    plus, minus = lifted
    half, half_iota = pow(2, -1, m), pow(2 * iota, -1, m)
    out = []
    for x in plus:
        for y in minus:
            a, b = (x + y) * half % m, (x - y) * half_iota % m
            a, b = a - m if 2 * a > m else a, b - m if 2 * b > m else b
            if abs(a) <= bound and abs(b) <= bound:
                out.append((a, b))
    return out


def _divide_linear(f: list, a: int, b: int) -> tuple[list, bool]:
    """Synthetic division of f in Z[i][s], given as (re, im) integer pairs
    leading first, by s - (a + b*i): the quotient, and whether the
    remainder is zero."""
    x = y = 0
    out = []
    for re, im in f:
        x, y = re + x * a - y * b, im + x * b + y * a
        out.append((x, y))
    return out[:-1], not (x or y)


def _gaussian_integer_form(f: list, den: int) -> list:
    """den^n f(s/den) for a monic f of degree n whose roots times den are
    algebraic integers, as (re, im) integer pairs leading first."""
    return [(c.re_num * den**k // c.den, c.im_num * den**k // c.den)
            for k, c in enumerate(f)]


def poly_roots_qi(coeffs: Sequence[Scalar]) -> list[tuple[Scalar, int]]:
    """All roots in Q(i) of the polynomial with the given coefficients
    (leading first), with multiplicities, sorted for determinism.

    Raises UnsupportedSpectrum when the polynomial does not split over Q(i):
    results beyond that field cannot be represented exactly by this library.
    """
    f = _strip(list(coeffs))
    if not f:
        raise UnsupportedSpectrum("the zero polynomial has no finite set of roots")
    roots = _roots_qi(f)
    _require_split(len(f) - 1, sum(count for _, count in roots))
    return roots


def _roots_qi(f: list) -> list[tuple[Scalar, int]]:
    """The roots in Q(i), with multiplicities and sorted, of the polynomial f
    (leading coefficient nonzero); they fall short of its degree when f
    does not split over Q(i)."""
    zeros = next(k for k, c in enumerate(reversed(f)) if c)
    f = f[:len(f) - zeros]
    den = 1
    found = [((0, 0), zeros)] if zeros else []  # (re, im) of den * root
    if len(f) > 1:
        g = _squarefree(f)
        den = lcm(*(c.den for c in g))
        inv = f[0].inverse()
        form = _gaussian_integer_form([c * inv for c in f], den)
        for a, b in _gaussian_integer_roots(_gaussian_integer_form(g, den)):
            # Exact division verifies the candidate and counts its multiplicity.
            count = 0
            quotient, exact = _divide_linear(form, a, b)
            while exact:
                form, count = quotient, count + 1
                quotient, exact = _divide_linear(form, a, b)
            if count:
                found.append(((a, b), count))
    # den > 0, so sorting den * root by (re, im) orders the roots as
    # Scalar.sort_key does.
    return [(_make(a, b, den), count) for (a, b), count in sorted(found)]


def _require_split(degree: int, covered: int) -> None:
    if covered != degree:
        raise UnsupportedSpectrum(
            f"polynomial of degree {degree} does not split over Q(i)"
            f" (roots there, with multiplicity: {covered})"
        )


def _diagonal_blocks(a: Matrix) -> list[list[int]]:
    """The index sets of the diagonal blocks of a's block-triangular form:
    the strongly connected components of the graph i -> j for a[i][j] != 0.

    Reachability is closed as bit sets (Warshall); i and j share a block
    when each reaches the other.
    """
    n = len(a)
    reach = []
    for i, row in enumerate(a):
        bits = 1 << i
        for j, x in enumerate(row):
            if x:
                bits |= 1 << j
        reach.append(bits)
    for k in range(n):
        bit, row_k = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row_k
    blocks = []
    left = (1 << n) - 1
    while left:
        i = (left & -left).bit_length() - 1
        block = [j for j in range(i, n) if reach[i] >> j & 1 and reach[j] >> i & 1]
        for j in block:
            left ^= 1 << j
        blocks.append(block)
    return blocks


def eigenvalues(a: Matrix) -> list[tuple[Scalar, int]]:
    """Exact eigenvalues with algebraic multiplicities, sorted.

    det(tI - a) is the product of the characteristic polynomials of the
    diagonal blocks of a's block-triangular form (``_diagonal_blocks``), so
    each block is read on its own: a 1 x 1 block is its diagonal entry, a
    larger one gives the roots of its ``charpoly``.  A triangular matrix has
    only 1 x 1 blocks and needs no polynomial at all.  Raises
    UnsupportedSpectrum, naming the degree n of a and the roots found over
    all blocks, when det(tI - a) does not split over Q(i).
    """
    counts: dict[Scalar, int] = {}
    for block in _diagonal_blocks(a):
        if len(block) == 1:
            i = block[0]
            roots = [(a[i][i], 1)]
        else:
            poly = charpoly([[a[i][j] for j in block] for i in block])
            try:
                roots = poly_roots_qi(poly)
            except UnsupportedSpectrum:
                # The roots it does have, for the message on the whole matrix.
                roots = _roots_qi(poly)
        for value, mult in roots:
            counts[value] = counts.get(value, 0) + mult
    _require_split(len(a), sum(counts.values()))
    den = lcm(*(value.den for value in counts))

    def key(item):
        # den > 0, so (re, im) of den * value orders the values as
        # Scalar.sort_key does.
        value, scale = item[0], den // item[0].den
        return value.re_num * scale, value.im_num * scale

    return sorted(counts.items(), key=key)
