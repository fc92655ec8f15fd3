"""Exact order-by-order solver for the intertwining equation.

A map between module presentations with structure matrices Ms (source) and
Mt (target) is a series matrix P satisfying

    P * Ms - Mt * P - b^2 * P' = 0.

The coefficient blocks P_0, P_1, ... are introduced one order at a time;
each order contributes linear constraints which are eliminated immediately,
expressing the youngest constrained coefficients through older ones.  The
surviving freedom is carried exactly as affine expressions in free
parameters, so searching the solution space for an invertible element
(random rational samples, then a symbolic determinant as the deterministic
fallback) never leaves exact arithmetic.

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
    import sympy

    symbols = {pid: sympy.Symbol("c%d" % pid) for pid in free0}

    def to_sympy(s: Scalar):
        return sympy.Rational(s.re_num, s.den) + sympy.Rational(s.im_num, s.den) * sympy.I

    def entry_expr(entry: dict):
        acc = to_sympy(entry.get(CONST, ZERO))
        for key, coeff in entry.items():
            if key != CONST:
                acc = acc + to_sympy(coeff) * symbols[key]
        return acc

    generic = sympy.Matrix(
        [[entry_expr(entry) for entry in row] for row in system.blocks[0]]
    )
    det = sympy.expand(generic.det())
    if det == 0:
        return None
    values = {}
    for pid in free0:
        sym = symbols[pid]
        if sym not in det.free_symbols:
            values[pid] = ZERO
            continue
        degree = sympy.degree(det, sym)
        for c in range(int(degree) + 1):
            candidate = sympy.expand(det.subs(sym, c))
            if candidate != 0:
                det = candidate
                values[pid] = Scalar(c)
                break
    return values


def verify_intertwiner(source, target, P, w: int) -> bool:
    """Check P*Ms - Mt*P - b^2*P' == 0 at all orders below w."""
    images = a_image(target, zip(*P))
    residual = smat_sub(smat_mul(P, source), list(zip(*images)))
    return all(
        entry.at_precision(min(w, entry.precision)).is_zero()
        for row in residual
        for entry in row
    )
