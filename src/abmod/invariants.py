"""Numeric and structural invariants of regular modules.

Saturation E# (the smallest simple-pole overmodule inside E[b^{-1}]), the
index delta, the order of regularity, the biggest simple-pole submodule E^b,
the spectrum, the per-class width table (lambda_min(E^b) read off one
kernel system on E), alpha, geometricity, and the effective bounds
n_lambda(E, lambda) and N0(E) driving finite determination.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from . import linalg
from .errors import (
    HypothesisViolated,
    NotRegular,
    NotSimplePole,
    PrecisionExhausted,
)
from .lattice import (
    Lattice,
    _back_substitute_terms,
    _echelon,
    lattice_from_columns,
    module_on_lattice,
    standard_lattice,
)
from .linalg import eigenvalues
from .module import AbModule
from .morphisms import IntertwinerSystem
from .record import Record
from .scalars import ONE, Scalar, ZERO, _make
from .series import Series, _below
from .series import _make as _series
from .seriesmat import _a_image_terms, _sparse_rows


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


class SaturationResult(Record):
    # saturated: the simple-pole structure on the echelon basis of E#
    # lattice: E# inside b^{-delta} E
    # steps: the first k with L_k stable
    __slots__ = ("saturated", "lattice", "steps")


@lru_cache(maxsize=512)
def saturate(module: AbModule) -> SaturationResult:
    """Stabilized sum of (b^{-1} a)-iterates of the standard lattice.

    Step 0 is read off the structure matrix: on the standard lattice a(e_j)
    is column j of M (the b^2 x' term vanishes on constant vectors), so E is
    stable exactly when M(0) = 0, and then E# = E.  Otherwise L_1 = C[[b]]^p
    + b^{-1} a(C[[b]]^p) is spanned by the b e_j and the columns of M(0), in
    the b^{-1} frame: M - M(0) lies in b Mat, inside b C[[b]]^p.

    Each later step applies a once to the generators of the iterate L_k
    (shift k).  L_{k+1} = L_k + b^{-1} a(L_k), so L_k is stable exactly
    when a(L_k) lies in b L_k.  In the b^{-(k+1)} frame the columns of
    b^{-1} a(L_k) are the image columns themselves and b L_k is presented by
    L_k's generators moved up one order, so the test is a back-substitution
    of the images along those pivots that leaves no remainder.  Along L_k's
    own pivots it says that every quotient lies in b C[[b]]; those
    quotients times b are E#'s structure matrix, as module_on_lattice would
    give it at the same precision.  An unstable L_k grows into the echelon
    of b L_k's generators and the image columns, which is built only when
    another test follows.  Regular modules stabilize within rank steps;
    failure to do so raises NotRegular.  Needs working precision
    >= 2*rank + 2.

    The loop runs on term columns at the module's precision w (the
    lattices keep it); only E#, its lattice and their entries are built as
    Series.  A stable step needs no pivot check: L_k contains E, which is
    b^k C[[b]]^p in its frame, so every pivot of b L_k is at most
    k + 1 <= rank, far below w.
    """
    p, w = module.rank, module.precision
    if w < 2 * p + 2:
        raise PrecisionExhausted(f"saturation of a rank-{p} module", 2 * p + 2, w)
    if module.is_simple_pole():
        return SaturationResult(
            saturated=module, lattice=standard_lattice(module), steps=0
        )
    rows = _sparse_rows(module.matrix)
    ws = [w] * p
    columns = [[((1, ONE),) if i == j else () for i in range(p)] for j in range(p)]
    columns += [
        [e.terms[:1] if e.terms and not e.terms[0][0] else () for e in col]
        for col in zip(*module.matrix)
    ]
    for k in range(1, p):
        gens, pivots = _echelon(columns, w)
        images = [_a_image_terms(rows, g, k, ws) for g in gens]
        # b L_k in the b^{-(k+1)} frame, known below w + 1
        up = [[tuple((n + 1, c) for n, c in t) if t else t for t in g] for g in gens]
        up_pivots = [(r, v + 1) for r, v in pivots]
        quotients = []
        for image in images:
            remainder, _, q = _back_substitute_terms(up_pivots, up, w + 1, image, ws)
            if any(remainder):
                break
            quotients.append(q)
        else:
            top = min(wq for q in quotients for _, wq in q) + 1
            saturated = AbModule([
                [_series(tuple((n + 1, c) for n, c in quotients[j][i][0]
                               if n + 1 < top), top) for j in range(p)]
                for i in range(p)
            ])
            lattice = Lattice(
                p, k, tuple(tuple(_series(t, w) for t in g) for g in gens),
                tuple(pivots), w,
            )
            return SaturationResult(saturated=saturated, lattice=lattice, steps=k)
        columns = [[_below(t, w) for t in g] for g in up] + images
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
    """The least k with a^{k+1} E inside T_k = sum_{j<=k} b^{k-j+1} a^j E.

    This is the saturation's step count.  From ab - ba = b^2 comes
    a b^{-1} = b^{-1} a - 1, so sum_{j<=k} (b^{-1} a)^j E equals
    sum_{j<=k} b^{-j} a^j E and T_k = b^{k+1} L_k, where L_k is the k-th
    saturation iterate; a^{k+1} E lies in T_k exactly when L_{k+1} = L_k.
    """
    if not is_regular(module):
        raise NotRegular("regularity order is defined for regular modules only")
    return saturate(module).steps


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
        # the dual is simple pole, so E itself has one and E^b = E
        return module, standard_lattice(module)
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
    """Eigenvalue multiset (sorted, with repetition) of b^{-1}a on E/bE.

    A fresh list on every call; the memo behind it holds a tuple.
    """
    return list(_spectrum(module))


@lru_cache(maxsize=512)
def _spectrum(module: AbModule) -> tuple:
    if not module.is_simple_pole():
        raise NotSimplePole("the spectrum lives on simple-pole modules")
    out = []
    for value, mult in eigenvalues(module.residue_matrix()):
        out.extend([value] * mult)
    return tuple(out)


def _class_rep(s: Scalar) -> Scalar:
    """Canonical representative of s + Z: real part shifted into [0, 1)."""
    return _make(s.re_num % s.den, s.im_num, s.den)


class WidthTable(Record):
    """Per integer-translation class: the extreme exponents and their gap.

    ``classes`` maps a class representative to (lam_min, lam_max, L: int).
    It is a read-only mapping, so a memoized table cannot be changed
    through its result, and the table is not hashable.
    """

    __slots__ = ("classes",)

    def __init__(self, classes: Mapping):
        super().__init__(MappingProxyType(dict(classes)))

    def __reduce__(self):
        return (WidthTable, (dict(self.classes),))

    @property
    def width(self) -> int:
        return max(entry[2] for entry in self.classes.values())


def _eigen_system(module: AbModule, mus: list, extra: int = 0) -> IntertwinerSystem:
    """The kernels of a - mu_j*b on E for the exponents mus, as the
    intertwiners from the diagonal source diag(mu_1*b, ..., mu_c*b) into E,
    solved to the largest of the certified levels max(mu_j - z_min, delta)
    + 2 (``functors._eigenvector`` derives it) plus ``extra`` orders, which
    certify the eigenvectors b^v x' with v <= extra too (README).

    With a diagonal source, equation (i, j) reads column j of the blocks
    alone, and each column's keys keep their relative order, so column j
    has exactly the pivots and homes of the one-exponent system for mu_j.
    ``_new_block`` numbers a block's parameters row by row and nothing is
    prescribed, so a parameter's column is pid % c.  PrecisionExhausted
    names the first exponent that needs the largest level."""
    w = module.precision
    spec = spectrum(saturate(module).saturated)
    delta = delta_index(module)
    needs = [max([int((mu - z).re) for z in spec if (mu - z).is_integer()] + [delta])
             + 2 + extra for mu in mus]
    need = max(needs)
    if w < need:
        raise PrecisionExhausted(
            f"the eigenvector for exponent {mus[needs.index(need)]}", need, w
        )
    zero = Series.zero(w)
    source = [[Series.monomial(mu, 1, w) if i == j else zero for j in range(len(mus))]
              for i, mu in enumerate(mus)]
    return IntertwinerSystem(source, module.matrix, need).solve()


@lru_cache(maxsize=512)
def width_table(module: AbModule) -> WidthTable:
    """lambda_max per class from S(E#); lambda_min, the least exponent of
    E^b, from one eigen-kernel system on E (README derives it).  With z
    E#'s least exponent in a class and delta = delta_index(E), lambda_min
    is z when delta = 0 (E = E# = E^b), and otherwise z + delta - v, v the
    largest home <= delta of a live parameter of the kernel of
    a - (z + delta)*b solved to 2*delta + 2 orders.  Every class shares one
    ``_eigen_system``, one source column per class in class order; column
    j holds the parameters pid = j mod c."""
    delta = delta_index(module)
    spans: dict = {}
    for s in spectrum(saturate(module).saturated):
        # sorted: a class's first exponent is its least, its last its largest
        spans.setdefault(_class_rep(s), [s, s])[1] = s
    reps = sorted(spans, key=Scalar.sort_key)
    if delta:
        c = len(reps)
        system = _eigen_system(
            module, [spans[rep][0] + Scalar(delta) for rep in reps], delta)
        homes = [[] for _ in reps]
        for pid in system.parameters_in_blocks(delta + 1):
            homes[pid % c].append(system.home[pid])
    classes = {}
    for j, rep in enumerate(reps):
        lo, hi = spans[rep]
        if delta:
            if not homes[j]:
                raise HypothesisViolated(
                    "no primitive eigenvector at most delta above the least "
                    "exponent of a class of E#: likely a precision fault"
                )
            lo = lo + Scalar(delta - max(homes[j]))
        classes[rep] = (lo, hi, int((hi - lo).re))
    return WidthTable(classes)


def alpha_invariant(module: AbModule) -> Scalar:
    """trace of b^{-1}a on E#/bE# plus dim(E#/E).

    In the b^{-K} frame of E#'s echelon E is b^K C[[b]]^p, so E#/E has
    dimension sum of (K - v) over E#'s pivots (row, v), the quantity whose
    maximum is delta_index."""
    sat = saturate(module)
    tr = ZERO
    residue = sat.saturated.residue_matrix()
    for i in range(sat.saturated.rank):
        tr = tr + residue[i][i]
    lat = sat.lattice
    return tr + Scalar(sum(lat.shift - v for _, v in lat.pivots))


def is_geometric(module: AbModule) -> bool:
    """True when every saturated exponent is a strictly positive rational."""
    sat = saturate(module)
    return all(s.is_real() and s.re > 0 for s in spectrum(sat.saturated))


# ---------------------------------------------------------------------------
# effective bounds
# ---------------------------------------------------------------------------


def n_lambda(module: AbModule, lam, *, _system: IntertwinerSystem = None) -> int:
    """The smallest N with b^N E inside (a - lam b) E.

    Decided on one truncation E/b^w E at the certified level
    w = max(k0, delta) + 1, k0 = max(lam - z_min + 1, 0), z_min the least
    exponent of E# in lam's class (k0 = 0 when the class is absent from
    E#'s spectrum); README derives b^w E inside (a - lam b) E.
    With k_N = dim ker(a - lam b) on E/b^N E, which equals the dimension
    of its cokernel E/((a - lam b) E + b^N E) and so never decreases in N,
    the answer is the least N with k_N = k_w.  k_N is the live parameter
    count of one intertwiner system from [[lam b]] into E, grown order by
    order.  lam is anything ``Scalar.of`` takes.

    ``_system`` is private to ext_dims: an unsolved system grown in place
    of the [[lam b]] -> E one, whose live count after N orders is also k_N.
    For E = Hom(E', F') and lam = 0, ext_dims passes the E' -> F'
    intertwiners.
    """
    lam = Scalar.of(lam)
    k0 = max([int((lam - z).re) + 1 for z in spectrum(saturate(module).saturated)
              if (lam - z).is_integer()] + [0])
    w = max(k0, delta_index(module)) + 1
    if _system is None:
        source = [[Series.monomial(lam, 1, module.precision)]]
        _system = IntertwinerSystem(source, module.matrix, 0)
    dims = [0] + [len(_system.solve(n).alive) for n in range(1, w + 1)]
    return dims.index(dims[w])


def n0_bound(module: AbModule) -> int:
    """or(E) + L(E) + rank(E) + 1, the finite-determination threshold."""
    return (
        regularity_order(module)
        + width_table(module).width
        + module.rank
        + 1
    )
