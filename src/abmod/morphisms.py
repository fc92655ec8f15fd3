"""Exact order-by-order solver for the intertwining equation.

A map between module presentations with structure matrices Ms (source) and
Mt (target) is a series matrix P satisfying

    P * Ms - Mt * P - b^2 * P' = 0.

The coefficient blocks P_0, P_1, ... are introduced one order at a time;
each order contributes linear constraints which are eliminated immediately,
expressing the youngest constrained coefficients through older ones.  The
surviving freedom is carried exactly as affine expressions in free
parameters, so searching the solution space for an invertible element
never leaves exact arithmetic: random rational samples first, then, as the
deterministic fallback, the determinant of the generic block 0 expanded as a
polynomial in the free parameters by fraction-free (Bareiss) elimination.

Low-order blocks may be prescribed, which turns the solver into the lifting
engine for truncation isomorphisms: an inconsistent constraint then means
the prescribed truncation data does not extend.

The same solver decides eigen-kernels on truncations: with the rank-1
source [[c*b]] the solutions at w orders are the x in E/b^w E with
(a - c*b)x = 0, and with the source [[0]] the kernel of a.  Each free
parameter survives as one block entry, so the kernel has dimension
``len(alive)``, and ``rank_in_blocks`` gives the rank of its image in
chosen low-order blocks.  With the low blocks of x prescribed it is also
``functors.eigen_lift``, which lifts a seed to the exact solution of
(a - c*b)x = 0, and the unit normalizer of a rank-1 Jordan-Hoelder step.

``solve(w)`` resumes after the orders already processed, so a certificate
read at two consecutive levels grows one system by one order.  A search
for an isomorphism resumes through ``solve_until_singular`` instead, which
gives up as soon as block 0 has an empty row or column (``_singular_shape``):
an empty entry is zero on the whole solution space, and each further order
only substitutes parameters, so it stays empty.  ``retargeted`` copies a
partly solved system onto a target that agrees with the old one below the
orders processed, which are then shared rather than solved again.  n_lambda
reads k_N = dim ker(a - lam*b) on E/b^N E off one such system: as
T = a - lam*b preserves b^N E, b^N E lies in T(E) mod b^w exactly when the
cokernels of T mod b^N and mod b^w, hence k_N and k_w, are equal.

Affine expressions are dicts {parameter or CONST: nonzero Scalar}.  A sum of
products of them (an equation entry, a substitution, an evaluation) is
accumulated as unnormalized integer triples [re, im, den]: numerators are
added when the denominators agree, and otherwise brought over the lcm of the
two denominators, never their bare product, so a long sum keeps its
denominators small.  ``scalars._make`` then normalizes each output
coefficient once, which is exact and gives the same canonical Scalar as
normalizing every partial product and partial sum.  An equation entry is
never normalized: ``_eliminate`` reads its pivot, the largest parameter
whose raw numerators are not both zero, off the raw triples, and builds each
replacement coefficient as one product over the pivot's raw value,
normalized once; no inverse of the pivot is formed.  ``series_matrix``
evaluates only the nonempty entries.
"""

import copy
import random
from fractions import Fraction
from math import gcd
from operator import add, sub

from . import linalg
from .errors import BadParameter, PrecisionExhausted
from .scalars import ONE, ZERO, Scalar, _make
from .series import _below, _fold
from .series import _make as _series

CONST = -1


def _aff_fold(acc: dict, expr: dict, c: Scalar) -> None:
    """acc += c * expr, where acc maps each key to an unnormalized triple
    [re, im, den] (``_aff_done`` normalizes it, or ``_eliminate`` reads it
    as an equation).  The lcm rule stays inline rather than going through
    ``series._fold`` with the keys read as orders: that route was slower on
    the ``fd`` workload, and the generic determinant's monomial keys are
    tuples, not orders."""
    e, f, g = c.re_num, c.im_num, c.den
    get = acc.get
    for key, v in expr.items():
        a, b, d = v.re_num, v.im_num, v.den * g
        if f:
            a, b = a * e - b * f, a * f + b * e
        else:
            a, b = a * e, b * e
        cur = get(key)
        if cur is None:
            acc[key] = [a, b, d]
        elif cur[2] == d:
            cur[0] += a
            cur[1] += b
        else:
            h = cur[2]
            q = gcd(h, d)
            x, y = d // q, h // q
            cur[0] = cur[0] * x + a * y
            cur[1] = cur[1] * x + b * y
            cur[2] = h * x


def _aff_done(acc: dict) -> dict:
    """The affine expression of raw triples, each normalized, zeros dropped."""
    return {key: _make(a, b, d) for key, (a, b, d) in acc.items() if a or b}


def _singular_shape(block) -> bool:
    """Whether a block of affine entries has an empty row or column, so that
    it is singular for every value of the free parameters."""
    return not all(map(any, block)) or not all(map(any, zip(*block)))


def _aff_eval(expr: dict, values: dict) -> Scalar:
    a = b = 0
    d = 1
    for key, coeff in expr.items():
        e, f, g = coeff.re_num, coeff.im_num, coeff.den
        if key != CONST:
            v = values.get(key)
            if v is None:
                continue
            p, r = v.re_num, v.im_num
            e, f, g = e * p - f * r, e * r + f * p, g * v.den
        if d == g:
            a += e
            b += f
        else:
            q = gcd(d, g)
            x, y = g // q, d // q
            a, b, d = a * x + e * y, b * x + f * y, d * x
    return _make(a, b, d)


class IntertwinerSystem:
    """Solution space of the intertwining equation at a given order count."""

    def __init__(self, source, target, w: int, fixed=None):
        self.pe = len(source)
        self.pf = len(target)
        self._source_precision = min(e.precision for row in source for e in row)
        self.precision = min(
            self._source_precision, min(e.precision for row in target for e in row)
        )
        self.w = w
        # Per matrix entry, its nonzero (order, coefficient) terms; the
        # target's are negated once here, as the equation subtracts Mt * P.
        self.ms = [[entry.terms for entry in row] for row in source]
        self.mt = [[(-entry).terms for entry in row] for row in target]
        self.fixed = dict(fixed) if fixed else {}
        self.blocks = []
        self.occurrences = {}
        self.alive = set()
        self._next_param = 0
        self._consistent = True
        self._until_singular = False

    # -- bookkeeping ------------------------------------------------------

    def _new_block(self, k: int) -> None:
        if k in self.fixed:
            mat = self.fixed[k]
            block = [
                [
                    {CONST: mat[i][j]} if not mat[i][j].is_zero() else {}
                    for j in range(self.pe)
                ]
                for i in range(self.pf)
            ]
        else:
            block = []
            for i in range(self.pf):
                row = []
                for j in range(self.pe):
                    pid = self._next_param
                    self._next_param += 1
                    self.alive.add(pid)
                    self.occurrences[pid] = {(k, i, j)}
                    row.append({pid: ONE})
                block.append(row)
        self.blocks.append(block)

    def _substitute(self, pid: int, replacement: dict) -> None:
        keys = [key for key in replacement if key != CONST]
        occurrences = self.occurrences
        for (k, i, j) in occurrences.pop(pid):
            entry = self.blocks[k][i][j]
            c = entry.pop(pid, None)
            if c is None:
                continue
            if not entry:
                entry.update(
                    replacement if c.is_one()
                    else {key: val * c for key, val in replacement.items()}
                )
            else:
                acc = {
                    key: [v.re_num, v.im_num, v.den]
                    for key in replacement
                    if (v := entry.get(key)) is not None
                }
                _aff_fold(acc, replacement, c)
                for key, (a, b, d) in acc.items():
                    if a or b:
                        entry[key] = _make(a, b, d)
                    else:
                        del entry[key]
            for key in keys:
                occurrences[key].add((k, i, j))
        self.alive.discard(pid)

    def _equation_entry(self, k: int, i: int, j: int, drift: Scalar) -> dict:
        """Entry (i, j) of the order-k equation as raw triples
        {key: [re, im, den]}, not normalized; a key whose terms cancelled
        stays in with zero numerators.  ``drift`` is the Scalar 1 - k, built
        once per order."""
        acc = {}
        blocks = self.blocks
        for l in range(self.pe):
            for t, c in self.ms[l][j]:
                if t > k:
                    break
                entry = blocks[k - t][i][l]
                if entry:
                    _aff_fold(acc, entry, c)
        for l in range(self.pf):
            for t, c in self.mt[i][l]:
                if t > k:
                    break
                entry = blocks[k - t][l][j]
                if entry:
                    _aff_fold(acc, entry, c)
        if k >= 2:
            entry = blocks[k - 1][i][j]
            if entry:
                _aff_fold(acc, entry, drift)
        return acc

    def _eliminate(self, acc: dict) -> bool:
        """Solve the raw equation sum(acc) = 0 for its largest parameter
        whose numerators are not both zero, and substitute.  For the pivot
        (a + b*i)/d, each other key (e + f*i)/g gets the coefficient
        (e + f*i)/g * (-d)(a - b*i)/(a^2 + b^2), normalized once; keys that
        cancelled are dropped.  With no such parameter the equation is
        consistent exactly when CONST's numerators are zero: CONST is below
        every parameter, so it is the largest live key only when it is the
        one left."""
        pid = max((key for key, (a, b, _) in acc.items() if a or b), default=None)
        if pid is None or pid == CONST:
            return pid is None
        a, b, d = acc.pop(pid)
        # -1/pivot = (x + y*i)/n with n > 0; a real pivot skips a^2 + b^2.
        if b:
            x, y, n = -a * d, b * d, a * a + b * b
        else:
            x, y, n = (-d, 0, a) if a > 0 else (d, 0, -a)
        replacement = {
            key: _make(e * x - f * y, e * y + f * x, g * n)
            for key, (e, f, g) in acc.items()
            if e or f
        }
        self._substitute(pid, replacement)
        return True

    def _singular(self) -> bool:
        return self._until_singular and bool(self.blocks) and _singular_shape(
            self.blocks[0]
        )

    # -- public API -------------------------------------------------------

    def solve(self, w: int = None):
        """Process the orders up to w (default: the count given at
        construction) after those already processed, as a fresh solve to w
        would; None when prescribed blocks are inconsistent, or, once
        solve_until_singular has been called, when block 0 is singular by
        its shape."""
        w = self.w if w is None else w
        if w > self.precision:
            raise PrecisionExhausted(
                "truncation level exceeds the module's working precision"
            )
        if w < len(self.blocks):
            raise BadParameter("a system cannot be solved back to fewer orders")
        self.w = w
        if not self._consistent:
            return None
        for k in range(len(self.blocks), self.w):
            if self._singular():
                return None
            self._new_block(k)
            drift = _make(1 - k, 0, 1)
            for i in range(self.pf):
                for j in range(self.pe):
                    if not self._eliminate(self._equation_entry(k, i, j, drift)):
                        self._consistent = False
                        return None
        return None if self._singular() else self

    def solve_until_singular(self, w: int = None):
        """solve(w) for a search for an invertible block 0: the orders are
        processed one by one, and None is returned as soon as block 0 has an
        empty row or column.  Such an entry is zero on the whole solution
        space and later orders only cut that space down, so the answer at w
        is already None; from then on every solve returns None."""
        self._until_singular = True
        return self.solve(w)

    def retargeted(self, target):
        """A copy of this system with the target structure matrix replaced,
        keeping the orders already processed.  Those orders read the target
        only below their count, so the target must agree with the current
        one there (BadParameter otherwise); the copy then resumes as a fresh
        system on the new target would."""
        n = len(self.blocks)
        mt = [[(-entry).terms for entry in row] for row in target]
        if len(mt) != self.pf or any(len(row) != self.pf for row in mt) or any(
            entry.precision < n or _below(new, n) != _below(old, n)
            for row, new_row, old_row in zip(target, mt, self.mt)
            for entry, new, old in zip(row, new_row, old_row)
        ):
            raise BadParameter(
                "the new target differs from the old one below the orders "
                "already processed"
            )
        other = copy.copy(self)
        other.mt = mt
        other.precision = min(
            self._source_precision, min(e.precision for row in target for e in row)
        )
        other.blocks = [
            [[dict(entry) for entry in row] for row in block] for block in self.blocks
        ]
        other.occurrences = {pid: set(at) for pid, at in self.occurrences.items()}
        other.alive = set(self.alive)
        return other

    def parameters_in_blocks(self, lo: int, hi: int):
        """Free parameters genuinely appearing in blocks lo..hi-1."""
        found = set()
        for k in range(lo, min(hi, len(self.blocks))):
            for row in self.blocks[k]:
                for entry in row:
                    for key in entry:
                        if key != CONST:
                            found.add(key)
        return sorted(found)

    def block_ranks(self, lo: int, hi: int):
        """For k = lo..hi-1, the rank of the linear map from the free
        parameters of blocks lo..hi-1 to blocks lo..k, all from one echelon
        form; entries stop being added once the rank reaches the parameter
        count.  A parameter absent from blocks lo..k adds a zero column
        there, so each value is also the rank over the parameters of blocks
        lo..k alone."""
        params = self.parameters_in_blocks(lo, hi)
        span = linalg.Echelon()
        for k in range(lo, hi):
            for e in (e for row in self.blocks[k] for e in row if e):
                if len(span.pivots) == len(params):
                    break
                span.add([e.get(pid, ZERO) for pid in params])
            yield len(span.pivots)

    def rank_in_blocks(self, lo: int, hi: int) -> int:
        """Rank of the linear map from the free parameters to blocks lo..hi-1."""
        rank = 0
        for rank in self.block_ranks(lo, hi):
            pass
        return rank

    def block_matrix(self, k: int, values: dict):
        return [
            [_aff_eval(entry, values) if entry else ZERO for entry in row]
            for row in self.blocks[k]
        ]

    def series_matrix(self, values: dict):
        """The solution at the given parameter values, as series of precision
        w; only nonempty entries are evaluated, and zero values are dropped."""
        terms = [[[] for _ in range(self.pe)] for _ in range(self.pf)]
        for k in range(self.w):
            for row, out in zip(self.blocks[k], terms):
                for entry, at in zip(row, out):
                    if entry and (c := _aff_eval(entry, values)):
                        at.append((k, c))
        return [[_series(tuple(at), self.w) for at in row] for row in terms]


# Bound on the terms of one intermediate polynomial while the generic block-0
# determinant is expanded; a block that would pass it is refused with
# BadParameter rather than left to grow without limit.  The module pairs of
# the test suite and the benchmark stay below ten terms, the random 4 x 4
# blocks in five parameters of the oracle test below a hundred.
MAX_DET_TERMS = 20_000


def _poly_add_product(acc: dict, p: dict, q: dict) -> None:
    """acc += p * q for polynomials {exponent tuple: Scalar}, dropping
    cancelled terms; BadParameter once acc holds more than MAX_DET_TERMS."""
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(map(add, m1, m2))
            cur = acc.get(key)
            val = c1 * c2 if cur is None else cur + c1 * c2
            if val.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = val
        if len(acc) > MAX_DET_TERMS:
            raise BadParameter(
                f"the generic determinant exceeds {MAX_DET_TERMS} terms"
            )


def _poly_div_exact(p: dict, d: dict) -> dict:
    """p / d for a nonzero d known to divide p, by lex leading terms."""
    p = dict(p)
    lead = max(d)
    inv = d[lead].inverse()
    quotient = {}
    while p:
        top = max(p)
        mono = tuple(map(sub, top, lead))
        c = p[top] * inv
        quotient[mono] = c
        _poly_add_product(p, {mono: -c}, d)
    return quotient


def _generic_det(block, params) -> dict:
    """The determinant of a square block of affine entries, expanded as a
    polynomial {exponent tuple over params: Scalar} by fraction-free
    (Bareiss) elimination: row swaps on a zero pivot, and each step divided
    exactly by the previous pivot.  The zero polynomial is {}."""
    unit = {pid: tuple(int(q == pid) for q in params) for pid in params}
    const = (0,) * len(params)
    a = [
        [{const if key == CONST else unit[key]: c for key, c in entry.items()}
         for entry in row]
        for row in block
    ]
    n = len(a)
    sign, prev = ONE, None
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return {}
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            neg = {m: -c for m, c in a[i][k].items()}
            for j in range(k + 1, n):
                num = {}
                _poly_add_product(num, a[k][k], a[i][j])
                _poly_add_product(num, neg, a[k][j])
                a[i][j] = _poly_div_exact(num, prev) if prev else num
        prev = a[k][k]
    return {m: c * sign for m, c in a[n - 1][n - 1].items()}


def _nonvanishing_point(det: dict, params) -> dict:
    """Integer values, parameter by parameter, at which a nonzero det stays
    nonzero: ZERO for a parameter that no longer occurs, otherwise the least
    c in 0..deg whose substitution leaves a nonzero polynomial."""
    values = {}
    for n, pid in enumerate(params):
        degree = max(m[n] for m in det)
        if not degree:
            values[pid] = ZERO
            continue
        for c in range(degree + 1):
            acc = {}
            for m, coeff in det.items():
                key = m[:n] + (0,) + m[n + 1:]
                _aff_fold(acc, {key: coeff}, Scalar(c ** m[n]))
            candidate = _aff_done(acc)
            if candidate:
                det = candidate
                values[pid] = Scalar(c)
                break
    return values


def find_invertible(system: IntertwinerSystem, seed: int = 0, tries: int = 40):
    """An assignment of the free parameters making block 0 invertible.

    A row or column of block 0 with no entry (``_singular_shape``) makes
    every solution singular.  Otherwise random rational samples come first;
    if they all fail, the determinant of the generic block 0 decides:
    identically zero means no invertible solution exists, otherwise a
    nonvanishing integer point is found variable by variable.  The first
    case is a block 0 singular for every parameter value without an empty
    line, as for J(2;0) in the basis (e1 + e2, e1 + 2 e2) against its
    saturation, where P0 M(0) = 0 at order 0.  Returns the value dict, or
    None when every solution is singular.
    """
    if _singular_shape(system.blocks[0]):
        return None
    free0 = system.parameters_in_blocks(0, 1)
    if not free0:
        values = {}
        mat = system.block_matrix(0, values)
        return values if not linalg.det(mat).is_zero() else None
    rng = random.Random(seed)
    for _ in range(tries):
        values = {
            pid: Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for pid in free0
        }
        if not linalg.det(system.block_matrix(0, values)).is_zero():
            return values
    det = _generic_det(system.blocks[0], free0)
    return _nonvanishing_point(det, free0) if det else None


def verify_intertwiner(source, target, P, w: int) -> bool:
    """Check P*Ms - Mt*P - b^2*P' == 0 at all orders below w.

    Entry (i, j) of the residual is known to the least precision of row i
    of P, column j of Ms, row i of Mt and column j of P, and to at most one
    order past the least precision of Mt (as ``a_image`` gives it).  Its
    products are folded into one accumulator of raw integer triples below
    min(w, that precision), b^2 P' starting it as the terms -k c b^(k+1),
    and only the numerators are tested for zero: nothing is normalized.
    Any entry of P, Ms or Mt of precision 0 raises PrecisionExhausted; a P
    without rows or columns passes.  Comparing ``smat_mul(P, Ms)`` with
    ``a_image(Mt, P)`` instead was slower on the ``fd`` workload, since it
    normalizes every entry of both sides.
    """
    if not (P and P[0]):
        return True
    if not all(e.precision for m in (P, source, target) for row in m for e in row):
        raise PrecisionExhausted("operating on a series of precision 0")
    p_row_w = [min(e.precision for e in row) for row in P]
    p_col_w = [min(e.precision for e in col) for col in zip(*P)]
    s_col_w = [min(e.precision for e in col) for col in zip(*source)]
    t_row_w = [min(e.precision for e in row) for row in target]
    wt = min(t_row_w)
    p_terms = [[e.terms for e in row] for row in P]
    s_terms = [[e.terms for e in row] for row in source]
    t_rows = [[(l, e.terms) for l, e in enumerate(row) if e.terms] for row in target]
    for i, prow in enumerate(p_terms):
        for j, cw in enumerate(p_col_w):
            top = min(w, p_row_w[i], s_col_w[j], wt + 1, t_row_w[i], cw)
            acc = {
                k + 1: [-k * c.re_num, -k * c.im_num, c.den]
                for k, c in prow[j]
                if k and k + 1 < top
            }
            for l, x in enumerate(prow):
                y = s_terms[l][j]
                if x and y:
                    _fold(acc, x, y, top)
            for l, x in t_rows[i]:
                y = p_terms[l][j]
                if y:
                    _fold(acc, x, y, top, -1)
            if any(a or b for a, b, _ in acc.values()):
                return False
    return True
