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
chosen low-order blocks.

``solve(w)`` resumes after the orders already processed, so a certificate
read at two consecutive levels grows one system by one order.  n_lambda
reads k_N = dim ker(a - lam*b) on E/b^N E off one such system: as
T = a - lam*b preserves b^N E, b^N E lies in T(E) mod b^w exactly when the
cokernels of T mod b^N and mod b^w, hence k_N and k_w, are equal.
"""

import random
from fractions import Fraction
from operator import add, sub

from . import linalg
from .errors import BadParameter, PrecisionExhausted
from .scalars import ONE, ZERO, Scalar
from .series import Series
from .seriesmat import a_image, smat_mul, smat_sub

CONST = -1


def _aff_add_scaled(target: dict, expr: dict, c: Scalar) -> None:
    """target += c * expr, dropping cancelled keys."""
    if c.is_zero():
        return
    for key, val in expr.items():
        add = val if c.is_one() else val * c
        cur = target.get(key)
        if cur is None:
            if not add.is_zero():
                target[key] = add
        else:
            cur = cur + add
            if cur.is_zero():
                del target[key]
            else:
                target[key] = cur


def _aff_eval(expr: dict, values: dict) -> Scalar:
    acc = expr.get(CONST, ZERO)
    for key, coeff in expr.items():
        if key != CONST:
            acc = acc + coeff * values.get(key, ZERO)
    return acc


class IntertwinerSystem:
    """Solution space of the intertwining equation at a given order count."""

    def __init__(self, source, target, w: int, fixed=None):
        self.pe = len(source)
        self.pf = len(target)
        self.precision = min(e.precision for row in (*source, *target) for e in row)
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
        for (k, i, j) in self.occurrences.pop(pid):
            entry = self.blocks[k][i][j]
            c = entry.pop(pid, None)
            if c is None:
                continue
            _aff_add_scaled(entry, replacement, c)
            for key in replacement:
                if key != CONST:
                    self.occurrences[key].add((k, i, j))
        self.alive.discard(pid)

    def _equation_entry(self, k: int, i: int, j: int) -> dict:
        expr = {}
        blocks = self.blocks
        for l in range(self.pe):
            for t, c in self.ms[l][j]:
                if t > k:
                    break
                _aff_add_scaled(expr, blocks[k - t][i][l], c)
        for l in range(self.pf):
            for t, c in self.mt[i][l]:
                if t > k:
                    break
                _aff_add_scaled(expr, blocks[k - t][l][j], c)
        if k >= 2:
            _aff_add_scaled(expr, self.blocks[k - 1][i][j], Scalar(1 - k))
        return expr

    def _eliminate(self, expr: dict) -> bool:
        params = [key for key in expr if key != CONST]
        if not params:
            return CONST not in expr
        pid = max(params)
        inv = expr[pid].inverse()
        replacement = {
            key: -(val * inv) for key, val in expr.items() if key != pid
        }
        self._substitute(pid, replacement)
        return True

    # -- public API -------------------------------------------------------

    def solve(self, w: int = None):
        """Process the orders up to w (default: the count given at
        construction) after those already processed, as a fresh solve to w
        would; None when prescribed blocks are inconsistent."""
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
            self._new_block(k)
            for i in range(self.pf):
                for j in range(self.pe):
                    if not self._eliminate(self._equation_entry(k, i, j)):
                        self._consistent = False
                        return None
        return self

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

    def rank_in_blocks(self, lo: int, hi: int) -> int:
        """Rank of the linear map from the free parameters to blocks lo..hi-1;
        block entries are added until the rank reaches the parameter count."""
        params = self.parameters_in_blocks(lo, hi)
        span = linalg.Echelon()
        for k in range(lo, hi):
            for e in (e for row in self.blocks[k] for e in row if e):
                if len(span.pivots) == len(params):
                    return len(params)
                span.add([e.get(pid, ZERO) for pid in params])
        return len(span.pivots)

    def block_matrix(self, k: int, values: dict):
        return [
            [_aff_eval(entry, values) for entry in row] for row in self.blocks[k]
        ]

    def series_matrix(self, values: dict):
        coeffs = [self.block_matrix(k, values) for k in range(self.w)]
        return [
            [
                Series([coeffs[k][i][j] for k in range(self.w)], self.w)
                for j in range(self.pe)
            ]
            for i in range(self.pf)
        ]


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
            candidate = {}
            for m, coeff in det.items():
                key = m[:n] + (0,) + m[n + 1:]
                _aff_add_scaled(candidate, {key: coeff}, Scalar(c ** m[n]))
            if candidate:
                det = candidate
                values[pid] = Scalar(c)
                break
    return values


def find_invertible(system: IntertwinerSystem, seed: int = 0, tries: int = 40):
    """An assignment of the free parameters making block 0 invertible.

    Random rational samples first; if they all fail, the determinant of the
    generic block 0 decides: identically zero means no invertible solution
    exists, otherwise a nonvanishing integer point is found variable by
    variable.  Returns the value dict, or None when every solution is
    singular.
    """
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
    """Check P*Ms - Mt*P - b^2*P' == 0 at all orders below w."""
    images = a_image(target, zip(*P))
    residual = smat_sub(smat_mul(P, source), list(zip(*images)))
    return all(
        entry.at_precision(min(w, entry.precision)).is_zero()
        for row in residual
        for entry in row
    )
