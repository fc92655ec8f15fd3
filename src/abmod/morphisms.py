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

Low-order blocks may be prescribed by a series prefix: a pf x pe Series
matrix P known mod b^n fixes blocks 0..n-1 to its coefficients, read once
from its terms.  A truncation isomorphism is such a matrix mod b^N, so this
turns the solver into the lifting engine for truncation isomorphisms: an
inconsistent constraint then means the prescribed truncation data does not
extend.

The same solver decides eigen-kernels on truncations: with the rank-1
source [[c*b]] the solutions at w orders are the x in E/b^w E with
(a - c*b)x = 0, and with the diagonal source diag(c_1*b, ..., c_m*b)
column j of the solutions is the kernel of a - c_j*b, as equation (i, j)
reads column j alone.  Hom questions are E -> F systems: the kernel of a on
Hom(E, F)/b^w is the space of intertwiners E -> F mod b^w, so
``ext_dims`` solves the source E and the target F, never the flattened
Hom.  Each free parameter survives as one block entry, so the kernel has
dimension ``len(alive)``, and ``rank_in_blocks(hi)`` gives the rank of its
image in blocks 0..hi-1: the count of live parameters whose home, the order
of the block that created them, is below hi (README derives it).  With
nothing prescribed it gives the primitive eigenvector
(``functors._eigenvector``) of a Jordan-Hoelder step, solved to the
module's precision, of the rank-2 split test, solved to its certified level
alone, and of the ``NonSplitAlpha`` classification, solved to the
n + 3 + delta orders that alpha, read off b^n, needs; ``width_table``
solves one diagonal system, a column per class mod Z, to 2*delta + 2
orders for lambda_min(E^b) of every class (all through
``invariants._eigen_system``).
With x prescribed mod b^(kappa+1) it is also ``functors.eigen_lift``,
which lifts a seed to the exact solution of (a - c*b)x = 0, and the unit
normalizer that alpha of a ``NonSplitAlpha`` module is read through.

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

Affine expressions are dicts {parameter or CONST: coefficient}.  A block
entry holds each coefficient as a normalized integer triple (re, im, den),
and a Scalar is built only where a value leaves the system: in
``block_matrix`` and ``series_matrix``, which evaluate nonempty entries at
raw parameter values (``_aff_eval``) and build a Scalar for the result
(``series_matrix`` for a nonzero one only), and in the generic
determinant.  Each equation entry reads a stencil compiled once per system
(``_stencils``; ``retargeted`` recompiles the target's part).  ``solve``
runs an order's equations in one loop, each in its own frame with no helper
call or comprehension: the drift term starts the sum, which adds a stencil's
products as raw triples, brought over the lcm of two denominators, never
their product, skipping empty entries and the complex product of a real
coefficient; the pivot is the largest parameter whose numerators are not
both zero; each replacement coefficient is one product over the pivot's raw
value, normalized once; and the substitution records an occurrence only
where a key first enters an entry.  ``_new_block`` creates a block's
parameters in one batch.
"""

import copy
import random
from fractions import Fraction
from math import gcd
from operator import add, sub

from . import linalg
from .errors import BadParameter, PrecisionExhausted
from .scalars import ONE, ZERO, Scalar, _make
from .series import _below, _checked_count, _checked_series, _combine
from .series import _make as _series
from .seriesmat import _a_image_accs, _fold_row, _sparse_rows

CONST = -1
_ONE = (1, 0, 1)


def _source_terms(ms, pf: int) -> list:
    """Per equation entry (i, j), the terms of Ms off its diagonal entry
    (j, j), as (t, i, l, re, im, den) reading block entry (i, l)."""
    return [[[(t, i, l, c.re_num, c.im_num, c.den)
              for l, col in enumerate(ms) if l != j for t, c in col[j]]
             for j in range(len(ms))] for i in range(pf)]


def _stencils(ms, mt, source_terms, w: int) -> list:
    """Per equation entry (i, j), its terms (t, row, column, re, im, den),
    each reading blocks[k - t] at that row and column at order k, sorted by
    t: the source's off the diagonal, the target's off the diagonal, negated
    as the equation subtracts Mt * P, and the diagonal terms of both, which
    read block entry (i, j), merged.  The merged t = 1 coefficient is kept
    apart, as the drift 1 - k is added to it at order k."""
    out = []
    for i, (mt_row, src_row) in enumerate(zip(mt, source_terms)):
        row = []
        for j, src in enumerate(src_row):
            terms = src + [(t, l, j, -c.re_num, -c.im_num, c.den)
                           for l, x in enumerate(mt_row) if l != i for t, c in x]
            drift = ZERO
            for t, c in _combine(ms[j][j], mt_row[i], w, -1):
                if t == 1:
                    drift = c
                else:
                    terms.append((t, i, j, c.re_num, c.im_num, c.den))
            terms.sort()
            row.append((terms, (drift.re_num, drift.im_num, drift.den)))
        out.append(row)
    return out


def _singular_shape(block) -> bool:
    """Whether a block of affine entries has an empty row or column, so that
    it is singular for every value of the free parameters."""
    return not all(map(any, block)) or not all(map(any, zip(*block)))


def _raw_values(values: dict) -> dict:
    """Parameter values as raw triples (re, im, den); BadParameter unless
    each is a value ``Scalar.of`` takes."""
    raw = {}
    for pid, x in values.items():
        v = Scalar.of(x)
        raw[pid] = (v.re_num, v.im_num, v.den)
    return raw


def _aff_eval(expr: dict, values: dict) -> tuple:
    """An affine entry at raw parameter values (``_raw_values``; an absent
    parameter is 0), as a raw triple, not normalized."""
    a = b = 0
    d = 1
    for key, (e, f, g) in expr.items():
        if key != CONST:
            v = values.get(key)
            if v is None:
                continue
            p, r, s = v
            e, f, g = e * p - f * r, e * r + f * p, g * s
        if d == g:
            a += e
            b += f
        else:
            q = gcd(d, g)
            x, y = g // q, d // q
            a, b, d = a * x + e * y, b * x + f * y, d * x
    return a, b, d


def _prefix_blocks(prefix, rows: int, cols: int) -> list:
    """The blocks 0..n-1 that a rows x cols Series matrix prescribes, n its
    entries' least precision, each entry {CONST: raw triple} or {} for 0;
    BadParameter unless the shape fits and every entry is a Series."""
    if len(prefix) != rows or any(len(row) != cols for row in prefix):
        raise BadParameter(f"a prescribed block must be {rows} x {cols}")
    _checked_series(prefix, "prescribed entries")
    n = min(x.precision for row in prefix for x in row)
    blocks = [[[{} for _ in range(cols)] for _ in range(rows)] for _ in range(n)]
    for i, row in enumerate(prefix):
        for j, x in enumerate(row):
            for k, c in _below(x.terms, n):
                blocks[k][i][j] = {CONST: (c.re_num, c.im_num, c.den)}
    return blocks


def _structure_terms(matrix) -> list:
    """Per entry of a structure matrix, its nonzero (order, coefficient)
    terms; BadParameter unless the matrix is square and nonempty with
    ``Series`` entries."""
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise BadParameter("source and target must be square and nonempty")
    _checked_series(matrix, "structure matrix entries")
    return [[entry.terms for entry in row] for row in matrix]


class IntertwinerSystem:
    """Solution space of the intertwining equation at a given order count."""

    def __init__(self, source, target, w: int, prefix=None):
        self.ms = _structure_terms(source)
        self.mt = _structure_terms(target)
        self.pe = len(source)
        self.pf = len(target)
        self._source_precision = min(e.precision for row in source for e in row)
        self.precision = min(
            self._source_precision, min(e.precision for row in target for e in row)
        )
        self.w = _checked_count(w, "the order count", 0)
        self.prefix = [] if prefix is None else _prefix_blocks(prefix, self.pf, self.pe)
        self._source_terms = _source_terms(self.ms, self.pf)
        self._stencils = _stencils(self.ms, self.mt, self._source_terms, self.precision)
        self.blocks = []
        self.occurrences = {}
        self.alive = set()
        # Per parameter, its home: the order of the block that created it.
        self.home = []
        self._consistent = True
        self._until_singular = False

    # -- bookkeeping ------------------------------------------------------

    def _new_block(self, k: int) -> None:
        if k < len(self.prefix):
            # A prescribed entry holds no parameter, so no substitution ever
            # changes it, and the block is shared with the prefix.
            block = self.prefix[k]
        else:
            # One batch of pf * pe parameters, numbered row by row, each
            # alone in its home entry.
            pid = len(self.home)
            self.home += [k] * (self.pf * self.pe)
            self.alive.update(range(pid, len(self.home)))
            occurrences = self.occurrences
            block = []
            for i in range(self.pf):
                row = []
                for j in range(self.pe):
                    occurrences[pid] = {(k, i, j)}
                    row.append({pid: _ONE})
                    pid += 1
                block.append(row)
        self.blocks.append(block)

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
        w = self.w if w is None else _checked_count(w, "the order count")
        if w > self.precision:
            raise PrecisionExhausted(f"an intertwiner mod b^{w}", w, self.precision)
        if w < len(self.blocks):
            raise BadParameter("a system cannot be solved back to fewer orders")
        self.w = w
        if not self._consistent:
            return None
        blocks = self.blocks
        occurrences = self.occurrences
        alive = self.alive
        for k in range(len(blocks), w):
            if self._singular():
                return None
            self._new_block(k)
            prev = blocks[k - 1]
            for i, row in enumerate(self._stencils):
                for j, (terms, (e, f, g)) in enumerate(row):
                    e += (1 - k) * g
                    # The drift-merged t = 1 diagonal term comes first, into
                    # an empty accumulator.
                    acc = {}
                    if k and (e or f):
                        if f:
                            for key, (a, b, d) in prev[i][j].items():
                                acc[key] = [a * e - b * f, a * f + b * e, d * g]
                        else:
                            for key, (a, b, d) in prev[i][j].items():
                                acc[key] = [a * e, b * e, d * g]
                    get = acc.get
                    for t, r, c, e, f, g in terms:
                        if t > k:
                            break
                        entry = blocks[k - t][r][c]
                        if not entry:
                            continue
                        for key, (a, b, d) in entry.items():
                            if f:
                                a, b = a * e - b * f, a * f + b * e
                            else:
                                a *= e
                                b *= e
                            d *= g
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
                    # The pivot is the largest key whose numerators are not
                    # both zero; larger cancelled keys are dropped on the way.
                    while acc:
                        pid = max(acc)
                        a, b, d = acc.pop(pid)
                        if a or b:
                            break
                    else:
                        continue
                    # CONST is below every parameter: as the pivot, it makes
                    # the equation inconsistent.
                    if pid == CONST:
                        self._consistent = False
                        return None
                    # -1/pivot = (x + y*i)/n, n > 0; a real one skips a^2 + b^2
                    if b:
                        x, y, n = -a * d, b * d, a * a + b * b
                    else:
                        x, y, n = (-d, 0, a) if a > 0 else (d, 0, -a)
                    # Each other key with nonzero numerators times -1/pivot,
                    # in lowest terms.
                    replacement = {}
                    for key, (e, f, g) in acc.items():
                        if e or f:
                            e, f, g = e * x - f * y, e * y + f * x, g * n
                            if g != 1:
                                q = gcd(e, f, g)
                                if q != 1:
                                    e, f, g = e // q, f // q, g // q
                            replacement[key] = e, f, g
                    # Substitute the replacement for the pivot in every entry
                    # it occurs in; an occurrence is recorded only where a key
                    # first enters an entry, since one already there has it.
                    for at in occurrences.pop(pid):
                        o, r, c = at
                        entry = blocks[o][r][c]
                        coeff = entry.pop(pid, None)
                        if coeff is None:
                            continue
                        if not entry and coeff == _ONE:
                            entry.update(replacement)
                            for key in replacement:
                                if key != CONST:
                                    occurrences[key].add(at)
                            continue
                        e, f, g = coeff
                        get = entry.get
                        for key, (a, b, d) in replacement.items():
                            a, b, d = a * e - b * f, a * f + b * e, d * g
                            cur = get(key)
                            if cur is None:
                                if key != CONST:
                                    occurrences[key].add(at)
                            else:
                                u, v, h = cur
                                a, b, d = a * h + u * d, b * h + v * d, d * h
                                if not (a or b):
                                    del entry[key]
                                    continue
                            if d != 1:
                                q = gcd(a, b, d)
                                if q != 1:
                                    a, b, d = a // q, b // q, d // q
                            entry[key] = a, b, d
                    alive.discard(pid)
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
        mt = _structure_terms(target)
        if len(mt) != self.pf or any(
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
        other._stencils = _stencils(self.ms, mt, self._source_terms, other.precision)
        other.blocks = [
            [[dict(entry) for entry in row] for row in block] for block in self.blocks
        ]
        other.occurrences = {pid: set(at) for pid, at in self.occurrences.items()}
        other.alive = set(self.alive)
        other.home = list(self.home)
        return other

    def parameters_in_blocks(self, hi: int):
        """The free parameters appearing in blocks 0..hi-1, sorted: the live
        ones whose home is below hi (README derives it).  BadParameter
        unless 1 <= hi <= the orders processed."""
        self._require_blocks(hi, 1)
        home = self.home
        return sorted(pid for pid in self.alive if home[pid] < hi)

    def rank_in_blocks(self, hi: int) -> int:
        """Rank of the linear map from the free parameters to blocks 0..hi-1:
        each parameter there keeps its home entry {pid: 1}, so the rank is
        their count."""
        return len(self.parameters_in_blocks(hi))

    def _require_blocks(self, n: int, least: int = 0) -> None:
        _checked_count(n, "a block count", least)
        if len(self.blocks) < n:
            raise BadParameter(
                f"the system has processed {len(self.blocks)} orders, not {n}: "
                "it was not solved that far, or its solve stopped early"
            )

    def block_matrix(self, k: int, values: dict):
        """Block k at the given parameter values, as Scalars; BadParameter
        past the orders processed, or for a value ``Scalar.of`` refuses."""
        self._require_blocks(_checked_count(k, "a block index") + 1, 1)
        raw = _raw_values(values)
        return [
            [_make(*_aff_eval(entry, raw)) if entry else ZERO for entry in row]
            for row in self.blocks[k]
        ]

    def series_matrix(self, values: dict):
        """The solution at the given parameter values, as series of precision
        w; only nonempty entries are evaluated, and a Scalar is built only for
        a nonzero coefficient.  BadParameter when fewer than w orders are
        processed, or for a value ``Scalar.of`` refuses."""
        self._require_blocks(self.w)
        raw = _raw_values(values)
        terms = [[[] for _ in range(self.pe)] for _ in range(self.pf)]
        for k in range(self.w):
            for row, out in zip(self.blocks[k], terms):
                for entry, at in zip(row, out):
                    if entry:
                        a, b, d = _aff_eval(entry, raw)
                        if a or b:
                            at.append((k, _make(a, b, d)))
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
        [{const if key == CONST else unit[key]: _make(*c) for key, c in entry.items()}
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
                acc[key] = acc.get(key, ZERO) + coeff * c ** m[n]
            candidate = {key: v for key, v in acc.items() if v}
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
    None when every solution is singular.  A system with no order
    processed has no block 0, and a seed or a count of tries that is not an
    integer, and a negative count of tries, are refused (BadParameter).
    """
    _checked_count(tries, "tries", 0)
    _checked_count(seed, "seed")
    if not system.blocks:
        raise BadParameter("find_invertible needs a system solved to order 0 at least")
    if _singular_shape(system.blocks[0]):
        return None
    free0 = system.parameters_in_blocks(1)
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
    """Check a(P) - P*Ms == 0 at all orders below w, where a(P) = Mt*P +
    b^2*P' is a applied to the columns of P in the target.

    Entry (i, j) is checked below min(w, the precision ``smat_mul`` gives
    (P*Ms)_ij, the precision ``a_image`` gives a(P)_ij): the least
    precision of row i of P, column j of Ms, row i of Mt and column j of P,
    and at most one order past the least precision of Mt.  Both sides are
    folded into one accumulator of raw integer triples per entry, a(P) by
    ``seriesmat._a_image_accs`` column by column and -P*Ms by
    ``seriesmat._fold_row`` row by row, and only the numerators are tested
    for zero: nothing is normalized.
    A P that is not rank(Mt) x rank(Ms), an entry of P, Ms or Mt that is
    not a Series and a w that is not an integer are refused with
    BadParameter, in that order, and then any entry of precision 0 raises
    PrecisionExhausted.
    """
    if len(P) != len(target) or any(len(row) != len(source) for row in P):
        raise BadParameter(
            f"P must be {len(target)} x {len(source)}, rank(target) x rank(source)"
        )
    entries = [e for m in (P, source, target) for row in m for e in row]
    _checked_series([entries], "entries of P, Ms and Mt")
    _checked_count(w, "the order count")
    if not all(e.precision for e in entries):
        raise PrecisionExhausted("a series operand", 1, 0)
    p_row_w = [min(e.precision for e in row) for row in P]
    p_col_w = [min(e.precision for e in col) for col in zip(*P)]
    s_col_w = [min(e.precision for e in col) for col in zip(*source)]
    t_row_w = [min(e.precision for e in row) for row in target]
    wt = min(t_row_w)
    tops = [
        [min(w, pw, sw, wt + 1, tw, cw) for sw, cw in zip(s_col_w, p_col_w)]
        for pw, tw in zip(p_row_w, t_row_w)
    ]
    t_rows = _sparse_rows(target)
    images = [
        _a_image_accs(t_rows, [e.terms for e in col], 0, col_tops)
        for col, col_tops in zip(zip(*P), zip(*tops))
    ]
    s_rows = _sparse_rows(source)
    for prow, accs, row_tops in zip(P, zip(*images), tops):
        _fold_row(accs, prow, s_rows, row_tops, -1)
        if any(a or b for acc in accs for a, b, _ in acc.values()):
            return False
    return True
