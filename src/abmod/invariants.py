"""Numeric and structural invariants of regular modules.

Saturation E# (the smallest simple-pole overmodule inside E[b^{-1}]), the
index delta, the order of regularity, the biggest simple-pole submodule E^b,
the spectrum, the per-class width table, the alpha invariant, geometricity,
and the effective bounds n_lambda(E, lambda) and N0(E) driving finite
determination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import (
    HypothesisViolated,
    NotRegular,
    NotSimplePole,
    PrecisionExhausted,
)
from .lattice import (
    Lattice,
    lattice_from_columns,
    lattice_quotient_dim,
    lattice_sum,
    lattice_equal,
    module_on_lattice,
    standard_lattice,
)
from .linalg import eigenvalues
from .module import AbModule, Element, apply_a
from .scalars import Scalar, ZERO
from .series import Series


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationResult:
    saturated: AbModule  # simple-pole structure on the echelon basis of E#
    lattice: Lattice     # E# inside b^{-delta} E
    steps: int           # first k with Phi_k stable


def _one_saturation_step(module: AbModule, lat: Lattice) -> Lattice:
    """lat + b^{-1} a (lat)."""
    image_cols = []
    k = lat.shift
    for g in lat.gens:
        img = apply_a(module, Element(list(g), k))
        image_cols.append(list(img.coords))
    # b^{-1} of a vector written in the b^{-k} frame lives in the b^{-(k+1)} frame
    image = lattice_from_columns(lat.dim, image_cols, shift=k + 1)
    return lattice_sum(lat, image)


@lru_cache(maxsize=512)
def saturate(module: AbModule) -> SaturationResult:
    """Stabilized sum of (b^{-1} a)-iterates of the standard lattice.

    Regular modules stabilize within rank steps; failure to do so raises
    NotRegular.  Needs working precision >= 2*rank + 2.
    """
    p = module.rank
    if module.precision < 2 * p + 2:
        raise PrecisionExhausted(
            f"saturation of a rank-{p} module needs precision >= {2 * p + 2}, "
            f"have {module.precision}"
        )
    current = standard_lattice(module)
    for step in range(p):
        nxt = _one_saturation_step(module, current)
        if lattice_equal(nxt, current):
            return SaturationResult(
                saturated=module_on_lattice(module, current),
                lattice=current,
                steps=step,
            )
        current = nxt
    raise NotRegular(
        f"saturation did not stabilize within {p} steps: the module is not regular"
    )


def is_regular(module: AbModule) -> bool:
    try:
        saturate(module)
        return True
    except NotRegular:
        return False


def delta_index(module: AbModule) -> int:
    """The least m with E# contained in b^{-m} E."""
    lat = saturate(module).lattice
    return max(lat.shift - v for _, v in lat.pivots)


def regularity_order(module: AbModule) -> int:
    """The least k with a^{k+1} E inside sum_j b^{k-j+1} a^j E.

    Testing the inclusion on the basis vectors suffices: a^m applied to
    S(b) x lands in S a^m x plus earlier a-iterates with extra b factors.
    """
    if not is_regular(module):
        raise NotRegular("regularity order is defined for regular modules only")
    p = module.rank
    # iterates[j][i] = coordinates of a^j e_i
    iterates = [[list(module.basis_element(i).coords) for i in range(p)]]
    for _ in range(p):
        prev = iterates[-1]
        iterates.append(
            [list(apply_a(module, Element(col, 0)).coords) for col in prev]
        )
    for k in range(p):
        cols = []
        for j in range(k + 1):
            for col in iterates[j]:
                cols.append([entry.shift_up(k - j + 1) for entry in col])
        target = lattice_from_columns(p, cols, shift=0)
        if all(
            target.contains_column(iterates[k + 1][i], 0) for i in range(p)
        ):
            return k
    raise NotRegular(
        "no regularity order up to rank-1; inconsistent with a successful saturation"
    )


# ---------------------------------------------------------------------------
# biggest simple-pole submodule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def biggest_simple_pole(module: AbModule):
    """E^b with its lattice inside E, via duality: E^b = ((E*)#)*.

    If U spans (E*)# in the b^{-K} frame, then E^b is the solution module
    { x : U(-b)^T x == 0 mod b^K }, computed by exact linear algebra on
    coefficient blocks.  Returns (module_on_Eb, lattice_in_E).
    """
    from .functors import dual  # deferred: functors imports this module

    p = module.rank
    w = module.precision
    sat = saturate(dual(module))
    k = sat.lattice.shift
    lat = sat.lattice
    if k == 0:
        # the dual is simple pole, so E itself has a simple pole
        lattice = standard_lattice(module)
        return module_on_lattice(module, lattice), lattice
    # constraints: for each generator column u of (E*)#, the pairing
    # sum_i u_i(-b) x_i(b) must vanish mod b^K
    rows = []
    for g in lat.gens:
        flipped = [entry.negate_variable() for entry in g]
        for t in range(k):
            row = []
            for i in range(p):
                for m in range(k):
                    s = t - m
                    row.append(
                        flipped[i].coefficient(s) if 0 <= s < flipped[i].precision
                        else ZERO
                    )
            rows.append(row)
    kernel = linalg.nullspace(rows)
    cols = []
    for vec in kernel:
        col = []
        for i in range(p):
            col.append(Series(vec[i * k:(i + 1) * k], w))
        cols.append(col)
    for i in range(p):
        col = [Series.zero(w) for _ in range(p)]
        col[i] = Series.monomial(Scalar(1), k, w)
        cols.append(col)
    lattice = lattice_from_columns(p, cols, shift=0)
    return module_on_lattice(module, lattice), lattice


# ---------------------------------------------------------------------------
# spectrum, width, alpha
# ---------------------------------------------------------------------------


def spectrum(module: AbModule) -> list:
    """Eigenvalue multiset (sorted, with repetition) of b^{-1}a on E/bE."""
    if not module.is_simple_pole():
        raise NotSimplePole("the spectrum lives on simple-pole modules")
    out = []
    for value, mult in eigenvalues(module.residue_matrix()):
        out.extend([value] * mult)
    return out


def _class_rep(s: Scalar) -> Scalar:
    """Canonical representative of s + Z: real part shifted into [0, 1)."""
    from math import floor

    shift = floor(s.re)
    return Scalar(s.re - shift, s.im)


@dataclass(frozen=True)
class WidthTable:
    """Per integer-translation class: the extreme exponents and their gap."""

    classes: dict  # class representative -> (lam_min, lam_max, L: int)

    @property
    def width(self) -> int:
        return max(entry[2] for entry in self.classes.values())


@lru_cache(maxsize=512)
def width_table(module: AbModule) -> WidthTable:
    """lambda_min per class from S(E^b), lambda_max per class from S(E#)."""
    sat = saturate(module)
    upper = spectrum(sat.saturated)
    eb_module, _ = biggest_simple_pole(module)
    lower = spectrum(eb_module)
    classes = {}
    mins: dict = {}
    maxs: dict = {}
    for s in lower:
        rep = _class_rep(s)
        if rep not in mins or s.re < mins[rep].re:
            mins[rep] = s
    for s in upper:
        rep = _class_rep(s)
        if rep not in maxs or s.re > maxs[rep].re:
            maxs[rep] = s
    if set(mins) != set(maxs):
        raise HypothesisViolated(
            "spectra of E^b and E# occupy different classes mod Z; "
            "this contradicts their theory — likely a precision fault"
        )
    for rep in sorted(mins, key=Scalar.sort_key):
        lo, hi = mins[rep], maxs[rep]
        gap = hi.re - lo.re
        if gap.denominator != 1:
            raise HypothesisViolated(
                "extreme exponents of one class do not differ by an integer"
            )
        classes[rep] = (lo, hi, int(gap))
    return WidthTable(classes)


def alpha_invariant(module: AbModule) -> Scalar:
    """trace of b^{-1}a on E#/bE# plus dim(E#/E)."""
    sat = saturate(module)
    tr = ZERO
    residue = sat.saturated.residue_matrix()
    for i in range(sat.saturated.rank):
        tr = tr + residue[i][i]
    return tr + Scalar(lattice_quotient_dim(sat.lattice, standard_lattice(module)))


def is_geometric(module: AbModule) -> bool:
    """True when every saturated exponent is a strictly positive rational."""
    sat = saturate(module)
    return all(s.is_real() and s.re > 0 for s in spectrum(sat.saturated))


# ---------------------------------------------------------------------------
# effective bounds
# ---------------------------------------------------------------------------


def _image_contains_power(module: AbModule, lam: Scalar, w: int) -> int:
    """Smallest N with b^N E inside (a - lam b) E, decided on E/b^w E."""
    from .determination import truncate

    q = truncate(module, w)
    a_mat = linalg.mat_sub(q.A, linalg.mat_scale(q.B, lam))
    dim = q.dim
    reduced, pivots = linalg.rref(linalg.transpose(a_mat))
    basis = reduced[: len(pivots)]

    def in_image(vec) -> bool:
        v = vec[:]
        for brow, pc in zip(basis, pivots):
            c = v[pc]
            if c:
                v = [x - c * y for x, y in zip(v, brow)]
        return not any(v)

    b_power = linalg.identity(dim)
    for n in range(w + 1):
        if all(in_image(col) for col in linalg.transpose(b_power)):
            return n
        b_power = linalg.mat_mul(q.B, b_power)
    raise PrecisionExhausted(
        f"no b-power lands in the image at truncation level {w}"
    )


def n_lambda(module: AbModule, lam: Scalar) -> int:
    """The smallest N with b^N E inside (a - lam b) E.

    Decided on truncations at the sufficient level (lam - lambda_min of the
    class) + delta + 2 (falling back to delta + rank + 2 when lam's class is
    absent from the spectra), plus margin; the answer must agree at two
    consecutive levels.
    """
    table = width_table(module)
    delta = delta_index(module)
    rep = _class_rep(lam)
    if rep in table.classes:
        lo = table.classes[rep][0]
        gap = lam.re - lo.re
        base = int(gap) if gap.denominator == 1 and gap > 0 else 0
        w = base + delta + 2
    else:
        w = delta + module.rank + 2
    w += 2
    first = _image_contains_power(module, lam, w)
    second = _image_contains_power(module, lam, w + 1)
    if first != second:
        raise PrecisionExhausted(
            f"n_lambda unstable across levels {w} and {w + 1}: {first} vs {second}"
        )
    return first


def n0_bound(module: AbModule) -> int:
    """or(E) + L(E) + rank(E) + 1, the finite-determination threshold."""
    return (
        regularity_order(module)
        + width_table(module).width
        + module.rank
        + 1
    )
