"""Finite quotients E/b^N E, isomorphism testing, and the lifting machinery
behind the finite-determination property.

A finite quotient carries the pair of matrices (A, B) of a and b on the
basis e_i * b^j.  A quotient isomorphism is an invertible matrix commuting
with both actions; because commuting with B forces the block-Toeplitz
shape, the search reduces to the same order-by-order intertwiner solver
used for whole modules, so quotient and module isomorphism testing share
one engine.  Every map found is certified by one step, ``_certified``:
find_invertible on the solved system, then verify_intertwiner on its series
matrix.  For a quotient the n-order check is the dense one: the Toeplitz T
of P commutes with B by its shape, TA = A'T on E/b^n E reads
P*M - M'*P - b^2*P' = 0 mod b^n, and det T = det(P_0)^n.
"""

import random
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import (
    BadParameter,
    HypothesisViolated,
    NoLift,
    NonUniqueLift,
    NotFound,
    NotRegular,
    PrecisionExhausted,
    UnsupportedSpectrum,
)
from .invariants import (
    is_regular,
    n0_bound,
    regularity_order,
    saturate,
    spectrum,
    width_table,
)
from .module import AbModule
from .morphisms import (
    IntertwinerSystem,
    find_invertible,
    verify_intertwiner,
)
from .record import Record
from .scalars import ONE, Scalar
from .series import Series, _checked_count, _checked_series
from .seriesmat import _a_image_terms, _sparse_rows

__all__ = [
    "FiniteAbQuotient",
    "Intertwiner",
    "identity_truncation_iso",
    "lift_truncation_iso",
    "module_iso",
    "quotient_iso",
    "recover_Eb_from_truncation",
    "truncate",
    "verify_fd",
]


class FiniteAbQuotient(Record):
    """The actions of a and b on E/b^N E, basis e_i b^j (index i*N + j):
    dim, the matrices A and B, rank and level N."""

    __slots__ = ("dim", "A", "B", "rank", "level")


class Intertwiner(Record):
    """A verified intertwining map.

    kind "quotient": matrix is a dim x dim Scalar matrix at truncation
    level ``order``; kind "module": matrix is a rank x rank Series matrix
    at precision ``order``.  A module map known mod b^N is also a map of
    the N-truncations, its block-Toeplitz matrix read off its coefficients,
    and that is the form ``lift_truncation_iso`` takes.
    """

    __slots__ = ("kind", "matrix", "order")


def _freeze(mat) -> tuple:
    return tuple(tuple(row) for row in mat)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


MAX_TRUNCATION_DIM = 2048  # two dense 2048 x 2048 Scalar matrices


def _truncation_dim(module: AbModule, N: int) -> int:
    """The dimension rank * N of E/b^N E.  ``series._checked_count`` refuses
    (BadParameter) an N that is not an integer of at least 1, then a
    dimension above MAX_TRUNCATION_DIM; PrecisionExhausted when N exceeds
    the module's precision."""
    dim = module.rank * _checked_count(N, "truncation level", 1)
    _checked_count(dim, f"the dimension of E/b^{N} E", most=MAX_TRUNCATION_DIM)
    if N > module.precision:
        raise PrecisionExhausted(f"the truncation E/b^{N} E", N, module.precision)
    return dim


def truncate(module: AbModule, N: int) -> FiniteAbQuotient:
    """The finite quotient E/b^N E with its a and b matrices.

    Column i N + j of A is a(b^j e_i) below order N: the terms of the
    monomial column's image under ``seriesmat._a_image_terms``, known below
    N as a_image would give them; B sends b^j e_i to b^(j+1) e_i.
    A quotient of dimension rank * N above MAX_TRUNCATION_DIM is refused
    (BadParameter) before either matrix is allocated.
    """
    p = module.rank
    dim = _truncation_dim(module, N)
    a = linalg.zeros(dim, dim)
    b = linalg.zeros(dim, dim)
    rows, ws = _sparse_rows(module.matrix), [N] * p
    for c in range(dim):
        i, j = divmod(c, N)
        if j + 1 < N:
            b[c + 1][c] = ONE
        basis = [((j, ONE),) if l == i else () for l in range(p)]
        for l, terms in enumerate(_a_image_terms(rows, basis, 0, ws)):
            for t, v in terms:
                a[l * N + t][c] = v
    return FiniteAbQuotient(dim, _freeze(a), _freeze(b), p, N)


# ---------------------------------------------------------------------------
# standard-basis recovery for arbitrary (A, B) pairs
# ---------------------------------------------------------------------------


def _standard_form(q: FiniteAbQuotient):
    """Recover (rank, level, structure coefficients, change of basis).

    Finds a basis on which B is the standard shift and A the standard
    truncated action; raises BadParameter when the pair is not the
    truncation of a free module on any basis.
    """
    dim = q.dim
    b = [list(row) for row in q.B]
    a = [list(row) for row in q.A]
    power = linalg.identity(dim)
    level = None
    for t in range(1, dim + 1):
        power = linalg.mat_mul(b, power)
        if all(x.is_zero() for row in power for x in row):
            level = t
            break
    if level is None:
        raise BadParameter("b-action is not nilpotent")
    if dim % level:
        raise BadParameter("dimension is not divisible by the b-nilpotency order")
    p = dim // level
    span = linalg.Echelon(linalg.transpose(b))
    units = linalg.identity(dim)
    reps = []
    for r in range(dim):
        if span.add(units[r]) is not None:
            reps.append(r)
        if len(reps) == p:
            break
    cols = []
    for r in reps:
        vec = units[r]
        for _ in range(level):
            cols.append(vec)
            vec = linalg.mat_vec(b, vec)
    change = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    inv = linalg.inverse(change)
    if inv is None:
        raise BadParameter("b-orbits of the chosen representatives are dependent")
    abar = linalg.mat_mul(inv, linalg.mat_mul(a, change))
    coeffs = [
        [[abar[l * level + t][i * level] for i in range(p)] for l in range(p)]
        for t in range(level)
    ]
    series = [
        [
            Series([coeffs[t][l][i] for t in range(level)], level)
            for i in range(p)
        ]
        for l in range(p)
    ]
    rebuilt = truncate(AbModule(series), level)
    if _freeze(abar) != rebuilt.A:
        raise BadParameter(
            "the (A, B) pair is not the truncation of a module presentation"
        )
    return p, level, series, change, inv


# ---------------------------------------------------------------------------
# isomorphism of quotients
# ---------------------------------------------------------------------------


def quotient_iso(q: FiniteAbQuotient, qp: FiniteAbQuotient, seed: int = 0):
    """An invertible intertwiner between two finite quotients, or None.

    Both quotients are brought to their standard presentations; an
    intertwiner P of those, certified at n orders by ``_certified``, gives
    the block-Toeplitz T_std with block m at offset m below the diagonal
    the coefficient of b^m in P, which is read back in the quotients' bases.
    """
    if q.dim != qp.dim:
        raise BadParameter("quotient dimensions differ")
    _checked_count(seed, "seed")
    p, n, series, _, inv_change = _standard_form(q)
    pp, np_, series_p, change_p, _ = _standard_form(qp)
    if p != pp or n != np_:
        return None
    system = IntertwinerSystem(series, series_p, n).solve_until_singular()
    mat = _certified(system, series, series_p, n, seed)
    if mat is None:
        return None
    t_std = linalg.zeros(q.dim, q.dim)
    for l, row in enumerate(mat):
        for i, entry in enumerate(row):
            for m, v in entry.terms:
                for j in range(n - m):
                    t_std[l * n + j + m][i * n + j] = v
    t = linalg.mat_mul(change_p, linalg.mat_mul(t_std, inv_change))
    return Intertwiner("quotient", _freeze(t), n)


def identity_truncation_iso(module: AbModule, N: int) -> Intertwiner:
    """The identity map of E/b^N E as the "module" Intertwiner I mod b^N,
    the form ``lift_truncation_iso`` takes; N is checked as ``truncate``
    checks it, and no dense matrix is built."""
    _truncation_dim(module, N)
    rows = range(module.rank)
    return Intertwiner("module", tuple(
        tuple(Series.one(N) if i == j else Series.zero(N) for j in rows) for i in rows), N)


# ---------------------------------------------------------------------------
# isomorphism of modules
# ---------------------------------------------------------------------------


def _certified(system, source, target, w: int, seed: int):
    """The series matrix of an invertible solution of ``system``, solved to
    w orders from source to target (None for a solve that gave up), checked
    by verify_intertwiner at w; None when no block 0 is invertible."""
    values = None if system is None else find_invertible(system, seed)
    if values is None:
        return None
    mat = system.series_matrix(values)
    if not verify_intertwiner(source, target, mat, w):
        raise HypothesisViolated("constructed intertwiner failed verification")
    return mat


def _saturation_spectra_differ(e: AbModule, ep: AbModule) -> bool:
    """Whether E# and E'# have different spectra, which rules out E ~ E'.

    It decides pairs whose truncated system cannot, such as F(4;0;2)
    against J(4;0) at W = 3."""
    try:
        if not is_regular(e) or not is_regular(ep):
            return False
        se = spectrum(saturate(e).saturated)
        sp = spectrum(saturate(ep).saturated)
        return se != sp
    except (PrecisionExhausted, UnsupportedSpectrum, NotRegular):
        return False


def module_iso(e: AbModule, ep: AbModule, W: int = None, seed: int = 0):
    """An isomorphism P with P*M - M'*P - b^2*P' = 0 and P(0) invertible,
    verified at precision W; None when the modules are not isomorphic at
    that precision.

    After the argument checks it decides in this order: the intertwining
    system is solved to W orders (PrecisionExhausted from the solve when W
    exceeds either precision), None as soon as block 0 is singular by its
    shape; None when the saturations' spectra differ; then ``_certified``
    searches block 0 for an invertible value (None when there is none) and
    checks the map it gives by verify_intertwiner."""
    if e.rank != ep.rank:
        raise BadParameter("module ranks differ")
    if W is None:
        W = min(e.precision, ep.precision)
    _checked_count(W, "the order count", 1)
    _checked_count(seed, "seed")
    system = IntertwinerSystem(e.matrix, ep.matrix, W).solve_until_singular()
    if system is None or _saturation_spectra_differ(e, ep):
        return None
    mat = _certified(system, e.matrix, ep.matrix, W, seed)
    return None if mat is None else Intertwiner("module", _freeze(mat), W)


# ---------------------------------------------------------------------------
# lifting truncation isomorphisms
# ---------------------------------------------------------------------------


def _slack(module: AbModule) -> int:
    """Depth of the top band where truncating the intertwining equation
    leaves coefficients genuinely undetermined.

    The cascade driven by the constant term of the structure matrix reaches
    2*or(E)+1 blocks down (ad-nilpotency), and integer spectral gaps add up
    to max(L, 0) resonant levels; one extra order of safety margin."""
    return 2 * regularity_order(module) + max(width_table(module).width, 0) + 2


def _default_lift_precision(module: AbModule, N: int) -> int:
    n0 = n0_bound(module)
    return max(2 * n0, n0 + module.rank + 4, N + _slack(module) + 1)


def _free_lift(system, e, ep, N, W, slack, seed):
    """Existence plus rigidity: find a verified isomorphism and certify
    that the induced map on E/b^N E determines it below the top band.
    ``system`` is the intertwining system from e to ep, solved to at most W
    orders; it is resumed to W and certified by ``_certified`` (NoLift when
    no block 0 is invertible), and only then tested for rigidity, so NoLift
    comes before NonUniqueLift.  Rigidity fails when two solutions share
    all blocks below N yet differ in a block of [N, W - slack): a rank in
    blocks is a count of live parameters by home block, so this is a live
    parameter with its home in [N, W - slack).  When its blocks below N are
    prescribed (a congruent lift), the rank below N is 0, so the rigidity
    test asks that no free parameter reach blocks below W - slack."""
    system = system.solve_until_singular(W)
    mat = _certified(system, e.matrix, ep.matrix, W, seed)
    if mat is None:
        raise NoLift(
            "the modules are not isomorphic: every solution of the "
            "intertwining system has a singular constant term"
        )
    if system.rank_in_blocks(W - slack) > system.rank_in_blocks(N):
        raise NonUniqueLift(
            "distinct isomorphisms induce the same map at this truncation level"
        )
    return Intertwiner("module", _freeze(mat), W)


def lift_truncation_iso(
    e: AbModule,
    ep: AbModule,
    phi: Intertwiner,
    N: int,
    W: int = None,
    seed: int = 0,
) -> Intertwiner:
    """Extend a verified isomorphism of N-truncations to precision W.

    phi is the isomorphism as a "module" Intertwiner of order N: a rank x
    rank Series matrix known mod b^N, as ``identity_truncation_iso`` or
    ``module_iso(e, ep, W=N)`` gives it.  Its orders below N prescribe
    blocks 0..N-1 of one intertwining system; the first N orders read only
    those blocks, so they are consistent exactly when phi commutes with a
    on E/b^N E, and phi is invertible exactly when its block 0 is; both are
    checked before the lifting precision.  A series matrix commutes with
    the b-action by its form, so nothing else is checked and no pN x pN
    matrix is built.  Resumed to W, the prescribed system is the congruent
    lift.  Blockwise congruence is not always achievable: a perturbation of
    the structure matrix at order exactly N forces a correction of the
    isomorphism at lower orders, and then a system with nothing prescribed
    replaces it.  ``_free_lift`` certifies either one: a verified
    isomorphism must exist (else NoLift), and the induced map on E/b^N E
    must pin it down below the top band (else NonUniqueLift).
    """
    if e.rank != ep.rank:
        raise BadParameter("module ranks differ")
    if not is_regular(e):
        raise NotRegular("lifting is certified for regular modules")
    _checked_count(N, "truncation level", 1)
    p = e.rank
    _checked_series(phi.matrix, "phi's entries")
    if phi.kind != "module" or phi.order != N or len(phi.matrix) != p or any(
            len(row) != p or any(x.precision < N for x in row) for row in phi.matrix):
        raise BadParameter("phi is not an intertwiner of the N-truncations")
    prefix = [[x.at_precision(N) for x in row] for row in phi.matrix]
    system = IntertwinerSystem(e.matrix, ep.matrix, N, prefix=prefix)
    if system.solve() is None or linalg.det(system.block_matrix(0, {})).is_zero():
        raise BadParameter("phi is not a verified truncation isomorphism")
    slack = _slack(e)
    if W is None:
        W = _default_lift_precision(e, N)
    _checked_count(W, "lifting precision", N + 1)
    if W - slack <= N:
        raise PrecisionExhausted(
            f"the lifting window above level {N}", N + slack + 1, W
        )
    if system.solve(W) is None:
        system = IntertwinerSystem(e.matrix, ep.matrix, W)
    return _free_lift(system, e, ep, N, W, slack, seed)


# ---------------------------------------------------------------------------
# finite-determination verifier
# ---------------------------------------------------------------------------


def _random_scalar(rng) -> Scalar:
    re = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    if rng.random() < 0.2:
        im = Fraction(rng.randint(-2, 2), 1)
        return Scalar(re, im)
    return Scalar(re)


def _perturb(module: AbModule, rng, lo: int) -> AbModule:
    """A random perturbation of the structure matrix at orders >= lo."""
    p = module.rank
    w = module.precision
    hi = min(lo + 3, w - 1)
    rows = []
    touched = False
    for i in range(p):
        row = []
        for j in range(p):
            entry = module.matrix[i][j]
            for _ in range(rng.randint(0, 2)):
                c = _random_scalar(rng)
                if c.is_zero():
                    continue
                entry = entry + Series.monomial(c, rng.randint(lo, hi), w)
                touched = True
            row.append(entry)
        rows.append(row)
    if not touched:
        rows[0][0] = rows[0][0] + Series.monomial(ONE, lo, w)
    return AbModule(rows)


@lru_cache(maxsize=16)
def _prefix_system(module: AbModule, lo: int) -> IntertwinerSystem:
    """The intertwining system from the module to itself solved to lo
    orders: the orders below lo of every trial of verify_fd, whose
    perturbations start at order lo.  The memoized system is shared, so
    callers resume copies (``retargeted``) and never change it."""
    return IntertwinerSystem(module.matrix, module.matrix, lo).solve()


def verify_fd(module: AbModule, trials: int, seed: int, lo: int = None) -> dict:
    """Perturb the structure matrix at orders >= lo (default: n0_bound) and
    check finite determination on each pair: the perturbed module has the
    same truncation below lo, so determination at that level predicts an
    isomorphism pinned down by its induced truncation map.  Every failure
    is reported with its witness perturbation, so a bound that is too low
    is surfaced rather than hidden.

    A trial decides in this order: the intertwining system E -> E' is
    resumed from the shared system E -> E at lo orders (the two equations
    agree below lo) and solved to the lifting precision W; NoLift as soon as
    block 0 is singular by its shape, or when find_invertible finds no
    invertible value; the lift is checked by verify_intertwiner; then
    NonUniqueLift when the solutions are not pinned down below the top band.
    A trial count, seed or level that is not an integer, a negative trial
    count and a level below 1 are refused (BadParameter)."""
    _checked_count(trials, "the number of trials", 0)
    _checked_count(seed, "seed")
    if not is_regular(module):
        raise NotRegular("finite determination applies to regular modules")
    n0 = n0_bound(module)
    if lo is None:
        lo = n0
    _checked_count(lo, "the perturbation level", 1)
    slack = _slack(module)
    W = _default_lift_precision(module, lo)
    if W > module.precision:
        raise PrecisionExhausted(
            f"the certification window above level {lo}", W, module.precision
        )
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        perturbed = _perturb(module, rng, lo)
        system = _prefix_system(module, lo).retargeted(perturbed.matrix)
        try:
            _free_lift(system, module, perturbed, lo, W, slack, seed + trial)
        except (NoLift, NonUniqueLift) as err:
            witness = [
                [str(perturbed.matrix[i][j] - module.matrix[i][j])
                 for j in range(module.rank)]
                for i in range(module.rank)
            ]
            failures.append(
                {"trial": trial, "error": type(err).__name__, "witness": witness}
            )
    return {
        "rank": module.rank,
        "n0": n0,
        "lo": lo,
        "trials": trials,
        "successes": trials - len(failures),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# recovering the biggest simple-pole submodule from a truncation
# ---------------------------------------------------------------------------


def _annihilator(vectors, dim: int):
    if not vectors:
        return linalg.identity(dim)
    return linalg.nullspace([list(v) for v in vectors])


def recover_Eb_from_truncation(q: FiniteAbQuotient, k: int):
    """The largest subspace F of the quotient with B F <= F and A F <= B F,
    required to contain the image of B^k; for a truncation at level
    N >= k+1 with k >= delta this is the image of the biggest simple-pole
    submodule.  Returns a canonical basis (list of vectors); a k that is
    not an integer is refused (BadParameter)."""
    if _checked_count(k, "the power k") < 0 or k + 1 > q.level:
        raise NotFound("truncation level too small for the requested power")
    dim = q.dim
    a = [list(row) for row in q.A]
    b = [list(row) for row in q.B]
    at = linalg.transpose(a)
    bt = linalg.transpose(b)
    basis = linalg.identity(dim)
    while True:
        ann_f = _annihilator(basis, dim)
        bf = [linalg.mat_vec(b, v) for v in basis]
        ann_bf = _annihilator([v for v in bf if any(x for x in v)], dim)
        rows = []
        rows.extend(ann_f)
        rows.extend(linalg.mat_vec(bt, r) for r in ann_f)
        rows.extend(linalg.mat_vec(at, r) for r in ann_bf)
        if not rows:
            break
        new_basis = linalg.nullspace(rows)
        if len(new_basis) == len(basis):
            basis = new_basis
            break
        basis = new_basis
        if not basis:
            break
    power = linalg.identity(dim)
    for _ in range(k):
        power = linalg.mat_mul(b, power)
    span = linalg.Echelon(basis)
    if not all(span.contains(col) for col in linalg.transpose(power)):
        raise NotFound("image of b^k is not contained in the stable subspace")
    if not basis:
        return []
    canonical, _ = linalg.rref([list(v) for v in basis])
    return [row for row in canonical if any(not x.is_zero() for x in row)]
