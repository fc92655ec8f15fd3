"""Duality, twists, internal Hom, Ext dimensions, eigenvector lifting,
Jordan-Hoelder sequences, rank-1 quotients and the rank-2 classification.

Conventions used throughout:

* ``dual(E)`` carries the structure matrix ``tM(-b)`` (transpose with the
  variable negated), realizing the anti-automorphism that fixes a and
  negates b.
* ``hom_ab(E, F)`` presents the internal Hom as a module of rank
  ``rank(E) * rank(F)`` on the coefficient matrices of maps, written in the
  negated variable so that the b-action matches the standard convention.
  The sign flip lives only here.
"""

from dataclasses import dataclass

from . import linalg
from .errors import (
    BadParameter,
    HypothesisViolated,
    NotEigen,
    NotPrimitive,
    NotRegular,
    NotSimplePole,
    PrecisionExhausted,
)
from .invariants import (
    _class_rep,
    biggest_simple_pole,
    delta_index,
    is_regular,
    n_lambda,
    regularity_order,
    saturate,
    spectrum,
)
from .lattice import Lattice, lattice_from_columns, standard_lattice
from .module import AbModule, Element, apply_a
from .scalars import ONE, ZERO, Scalar
from .series import Series
from .seriesmat import smat_inverse

__all__ = [
    "JHSequence",
    "Rank2NormalForm",
    "classify_rank2",
    "dual",
    "eigen_lift",
    "ext_dims",
    "hom_ab",
    "jordan_holder",
    "quotient_by_rank1",
    "twist",
]


# ---------------------------------------------------------------------------
# duality and twists
# ---------------------------------------------------------------------------


def dual(module: AbModule) -> AbModule:
    """The dual module on the dual basis: structure matrix tM(-b)."""
    p = module.rank
    return AbModule(
        [
            [module.matrix[j][i].negate_variable() for j in range(p)]
            for i in range(p)
        ]
    )


def twist(module: AbModule, m) -> AbModule:
    """The twist b^m.E: same b-structure, a replaced by a + m*b."""
    s = Scalar.of(m)
    p = module.rank
    w = module.precision
    shift = Series.monomial(s, 1, w)
    return AbModule(
        [
            [
                module.matrix[i][j] + shift if i == j else module.matrix[i][j]
                for j in range(p)
            ]
            for i in range(p)
        ]
    )


# ---------------------------------------------------------------------------
# internal Hom and Ext dimensions
# ---------------------------------------------------------------------------


def hom_ab(E: AbModule, F: AbModule) -> AbModule:
    """The internal Hom of (a,b)-modules as an (a,b)-module.

    A map E -> F is a rank(F) x rank(E) coefficient matrix Psi written in
    the negated variable; a acts by
        Psi |-> Psi * Me(-b) - Mf(-b) * Psi + b^2 * Psi'.
    Flattening Psi row-major gives a module of rank rank(E)*rank(F) whose
    structure matrix is assembled below; the b^2*Psi' part is the intrinsic
    derivative term of every presentation.
    """
    pe = E.rank
    pf = F.rank
    w = min(E.precision, F.precision)
    me = [
        [E.matrix[i][j].negate_variable().at_precision(w) for j in range(pe)]
        for i in range(pe)
    ]
    mf = [
        [F.matrix[i][j].negate_variable().at_precision(w) for j in range(pf)]
        for i in range(pf)
    ]
    q = pe * pf
    zero = Series.zero(w)
    rows = [[zero for _ in range(q)] for _ in range(q)]
    for i in range(pf):
        for j in range(pe):
            r = i * pe + j
            for l in range(pe):
                rows[r][i * pe + l] = rows[r][i * pe + l] + me[l][j]
            for k in range(pf):
                rows[r][k * pe + j] = rows[r][k * pe + j] - mf[i][k]
    return AbModule(rows)


def ext_dims(E: AbModule, F: AbModule) -> tuple:
    """(dim Ext^0, dim Ext^1) of the pair, via the a-action on hom_ab(E,F).

    Both dimensions are read off finite truncations H/b^W H at a level W
    past the point where b^W H falls inside a.H, and certified by
    recomputing at W+1.
    """
    from .determination import truncate

    if not is_regular(E) or not is_regular(F):
        raise NotRegular("ext dimensions are certified for regular modules only")
    H = hom_ab(E, F)
    base = n_lambda(H, ZERO) + 2

    def cokernel_dim(level: int) -> int:
        q = truncate(H, level)
        return len(q.A) - linalg.rank(q.A)

    def kernel_dim(level: int) -> int:
        q = truncate(H, level + 1)
        null = linalg.nullspace(q.A)
        if not null:
            return 0
        proj = [
            [v[i * (level + 1) + j] for i in range(H.rank) for j in range(level)]
            for v in null
        ]
        return linalg.rank(proj)

    d1 = cokernel_dim(base)
    d0 = kernel_dim(base)
    if cokernel_dim(base + 1) != d1 or kernel_dim(base + 1) != d0:
        raise PrecisionExhausted(
            "ext dimensions failed to stabilize at consecutive truncation levels"
        )
    return d0, d1


# ---------------------------------------------------------------------------
# eigenvector lifting
# ---------------------------------------------------------------------------


def eigen_lift(module: AbModule, lam, y: Element, kappa: int) -> Element:
    """Correct y order by order into an exact solution of (a - lam*b)x = 0.

    Requires a simple pole, a residual (a - lam*b)y divisible by b^(kappa+2),
    and lam - kappa at most the smallest residue eigenvalue congruent to lam
    modulo 1 (so the correction systems stay nonsingular).
    """
    if not module.is_simple_pole():
        raise NotSimplePole("eigen lifting requires a simple-pole module")
    lam = Scalar.of(lam)
    if kappa < 0:
        raise BadParameter("kappa must be nonnegative")
    z = y.normalize()
    if z.shift > 0:
        raise HypothesisViolated("seed element does not lie in the module")
    p = module.rank
    w = module.precision
    if kappa + 2 > w:
        raise PrecisionExhausted("module precision too small for the given kappa")
    res = module.residue_matrix()
    same_class = [
        v for v, _ in linalg.eigenvalues(res) if (lam - v).is_integer()
    ]
    if same_class:
        lo = min(same_class, key=Scalar.sort_key)
        if (lam - lo).re > kappa:
            raise HypothesisViolated(
                "lam - kappa exceeds the smallest eigenvalue in its class"
            )
    x = list(z.in_frame(0))
    b = Series.b(w)
    r = [entry for entry in apply_a(module, Element(x, 0)).in_frame(0)]
    r = [r[i] - (b * x[i]) * lam for i in range(p)]
    for i in range(p):
        for t in range(kappa + 2):
            if not r[i].coefficient(t).is_zero():
                raise HypothesisViolated(
                    "residual of the seed is not divisible by b^(kappa+2)"
                )
    for k in range(kappa + 1, w - 1):
        rv = [r[i].coefficient(k + 1) for i in range(p)]
        if all(v.is_zero() for v in rv):
            continue
        shift = Scalar(k) - lam
        mat = [
            [res[i][j] + shift if i == j else res[i][j] for j in range(p)]
            for i in range(p)
        ]
        sol = linalg.solve(mat, [-v for v in rv])
        if sol is None:
            raise HypothesisViolated(
                "correction system is singular: lifting hypothesis violated"
            )
        for i in range(p):
            x[i] = x[i] + Series.monomial(sol[i], k, w)
        # residual update from the correction b^k * sol
        for i in range(p):
            t = Series.zero(w)
            for j in range(p):
                if not sol[j].is_zero():
                    t = t + module.matrix[i][j] * sol[j]
            t = t + Series.monomial(sol[i] * shift, 1, w)
            r[i] = r[i] + t.shift_up(k).at_precision(w)
    for i in range(p):
        if not r[i].is_zero():
            raise HypothesisViolated("eigen lifting did not converge")
    return Element(x, 0)


# ---------------------------------------------------------------------------
# rank-1 quotients
# ---------------------------------------------------------------------------


def _eigen_data(module: AbModule, x: Element):
    """Validate that x is primitive with a.x = lam*b*x; return (coords, pivot, lam)."""
    z = x.normalize()
    if z.shift > 0:
        raise NotPrimitive("element does not lie in the module")
    coords = z.in_frame(0)
    pivot = next(
        (i for i, c in enumerate(coords) if c.valuation() == 0), None
    )
    if pivot is None:
        raise NotPrimitive("element lies in b.E")
    ax = apply_a(module, Element(coords, 0)).in_frame(0)
    ratio = ax[pivot] * coords[pivot].invert()
    lam = ratio.coefficient(1)
    if not ratio.coefficient(0).is_zero():
        raise NotEigen("a.x has a nonzero constant component along x")
    if any(
        not ratio.coefficient(t).is_zero() for t in range(2, ratio.precision)
    ):
        raise NotEigen("a.x is not a constant multiple of b.x")
    b = Series.b(module.precision)
    for i in range(module.rank):
        if not (ax[i] - (b * coords[i]) * lam).is_zero():
            raise NotEigen("a.x is not lam*b*x")
    return coords, pivot, lam


def _quotient_with_pivot(module: AbModule, x: Element):
    """Quotient by the rank-1 submodule on x; also return pivot and exponent."""
    coords, pivot, lam = _eigen_data(module, x)
    p = module.rank
    inv = coords[pivot].invert()
    keep = [i for i in range(p) if i != pivot]
    rows = []
    for l in keep:
        factor = coords[l] * inv
        rows.append(
            [
                module.matrix[l][m] - module.matrix[pivot][m] * factor
                for m in keep
            ]
        )
    return AbModule(rows), pivot, lam


def quotient_by_rank1(module: AbModule, x: Element) -> AbModule:
    """E/(C[[b]].x) for a primitive eigenvector x, on the basis e_l, l != pivot."""
    quotient, _, _ = _quotient_with_pivot(module, x)
    return quotient


# ---------------------------------------------------------------------------
# Jordan-Hoelder sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JHSequence:
    """Exponents and the corresponding increasing filtration by normal lattices."""

    exponents: tuple
    filtration: tuple

    def exponent_sum(self) -> Scalar:
        total = ZERO
        for e in self.exponents:
            total = total + e
        return total


_JH_POLICIES = ("lex", "revlex")


def _unit_normalizer(g: Series, lam: Scalar) -> Series:
    """The unit u with u*g + b^2*u' = lam*b*u, i.e. u = exp(int (lam*b-g)/b^2).

    Requires g to have residue coefficient lam (so the integrand is regular).
    """
    w = g.precision
    diff = Series.monomial(lam, 1, w) - g
    if not diff.coefficient(0).is_zero() or not diff.coefficient(1).is_zero():
        raise HypothesisViolated("series does not have the expected residue")
    h = diff.shift_down(2)  # precision w - 2
    coeffs = [ONE]
    for m in range(1, w - 1):
        acc = ZERO
        for j in range(min(m, h.precision)):
            acc = acc + h.coefficient(j) * coeffs[m - 1 - j]
        coeffs.append(acc / Scalar(m))
    return Series(coeffs, w - 1)


def _choose_class(values, policy: str):
    """Group eigenvalues into congruence classes and pick one per policy."""
    classes = {}
    for v in values:
        classes.setdefault(_class_rep(v), []).append(v)
    reps = sorted(classes, key=Scalar.sort_key)
    rep = reps[0] if policy == "lex" else reps[-1]
    return classes[rep]


def _jh_step(module: AbModule, policy: str):
    """One Jordan-Hoelder step: a primitive eigenvector realizing the
    smallest exponent of the chosen class, in the module's coordinates."""
    eb_module, eb_lattice = biggest_simple_pole(module)
    values = spectrum(eb_module)
    lam = min(_choose_class(values, policy), key=Scalar.sort_key)
    res = eb_module.residue_matrix()
    p = eb_module.rank
    shifted = [
        [res[i][j] - lam if i == j else res[i][j] for j in range(p)]
        for i in range(p)
    ]
    null = linalg.nullspace(shifted)
    seed = Element(
        [Series.monomial(v, 0, eb_module.precision) for v in null[0]], 0
    )
    lifted = eigen_lift(eb_module, lam, seed, 0)
    inner = lifted.in_frame(0)
    coords = []
    for i in range(module.rank):
        acc = Series.zero(eb_lattice.precision)
        for j, g in enumerate(eb_lattice.gens):
            acc = acc + g[i] * inner[j]
        coords.append(acc)
    vals = [c.valuation() for c in coords if not c.is_zero()]
    if not vals:
        raise HypothesisViolated("eigenvector mapped to zero in the module")
    v = min(vals)
    primitive = [c.shift_down(v) for c in coords]
    return primitive, lam - Scalar(v)


def _jh_recurse(module: AbModule, policy: str):
    if module.rank == 1:
        g = module.matrix[0][0]
        lam = module.residue_matrix()[0][0]
        u = _unit_normalizer(g, lam)
        return [lam], [[u]]
    primitive, exponent = _jh_step(module, policy)
    quotient, pivot, lam = _quotient_with_pivot(
        module, Element(primitive, 0)
    )
    if lam != exponent:
        raise HypothesisViolated("exponent mismatch in the Jordan-Hoelder step")
    sub_exps, sub_gens = _jh_recurse(quotient, policy)
    w = min(c.precision for c in primitive)
    lifted_gens = [primitive]
    for g in sub_gens:
        col = []
        k = 0
        for i in range(module.rank):
            if i == pivot:
                col.append(Series.zero(w))
            else:
                col.append(g[k])
                k += 1
        lifted_gens.append(col)
    return [exponent] + sub_exps, lifted_gens


def jordan_holder(module: AbModule, policy: str = "lex") -> JHSequence:
    """A Jordan-Hoelder sequence: exponents plus the normal filtration.

    The class picked at each step is configurable ('lex' takes the smallest
    canonical class representative, 'revlex' the largest); the exponent
    multiset sum is independent of the choice.
    """
    if policy not in _JH_POLICIES:
        raise BadParameter("unknown class-choice policy: %r" % (policy,))
    if not is_regular(module):
        raise NotRegular("Jordan-Hoelder sequences exist for regular modules")
    exps, gens = _jh_recurse(module, policy)
    lattices = []
    cols = []
    for g in gens:
        cols.append(g)
        lattices.append(
            lattice_from_columns(module.rank, [list(c) for c in cols], shift=0)
        )
    return JHSequence(tuple(exps), tuple(lattices))


# ---------------------------------------------------------------------------
# rank-2 classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank2NormalForm:
    """Normal form tag and parameters for a regular rank-2 module."""

    tag: str
    params: tuple

    @staticmethod
    def direct_sum(lam, mu) -> "Rank2NormalForm":
        pair = sorted((Scalar.of(lam), Scalar.of(mu)), key=Scalar.sort_key)
        return Rank2NormalForm("DirectSum", tuple(pair))

    @staticmethod
    def simple_pole_jordan(lam, n: int) -> "Rank2NormalForm":
        if n < 0:
            raise BadParameter("Jordan parameter must be nonnegative")
        return Rank2NormalForm("SimplePoleJordan", (Scalar.of(lam), n))

    @staticmethod
    def non_split(lam, mu) -> "Rank2NormalForm":
        return Rank2NormalForm("NonSplit", (Scalar.of(lam), Scalar.of(mu)))

    @staticmethod
    def non_split_alpha(lam, n: int, alpha) -> "Rank2NormalForm":
        alpha = Scalar.of(alpha)
        if n < 1 or alpha.is_zero():
            raise BadParameter("the twisted family needs n >= 1 and alpha != 0")
        return Rank2NormalForm("NonSplitAlpha", (Scalar.of(lam), n, alpha))

    def __str__(self) -> str:
        return "%s(%s)" % (self.tag, ", ".join(str(p) for p in self.params))


def _has_primitive_eigen(module: AbModule, c: Scalar, gap: int) -> bool:
    """Whether a primitive solution of (a - c*b)x = 0 exists.

    Decided on truncations: the span of constant blocks of the kernel of
    A - c*B stabilizes once the level passes every obstruction order; the
    result is certified by agreement at two consecutive levels.
    """
    from .determination import truncate

    level = gap + delta_index(module) + regularity_order(module) + 6
    if level + 2 > module.precision:
        raise PrecisionExhausted(
            "not enough precision for the primitive-eigenvector test"
        )

    def constant_dim(lv: int) -> int:
        q = truncate(module, lv)
        mat = linalg.mat_sub(q.A, linalg.mat_scale(q.B, c))
        null = linalg.nullspace(mat)
        if not null:
            return 0
        consts = [[v[i * lv] for i in range(module.rank)] for v in null]
        return linalg.rank(consts)

    first = constant_dim(level)
    if constant_dim(level + 1) != first:
        raise PrecisionExhausted("primitive-eigenvector test did not stabilize")
    return first > 0


def _primitive_eigen_element(module: AbModule, mu: Scalar):
    """A primitive x in E with a.x = mu*b*x exactly, found through the
    biggest simple-pole submodule; None when mu is not among its exponents."""
    eb_module, eb_lattice = biggest_simple_pole(module)
    if all(v != mu for v in spectrum(eb_module)):
        return None
    res = eb_module.residue_matrix()
    p = eb_module.rank
    shifted = [
        [res[i][j] - mu if i == j else res[i][j] for j in range(p)]
        for i in range(p)
    ]
    null = linalg.nullspace(shifted)
    seed = Element(
        [Series.monomial(v, 0, eb_module.precision) for v in null[0]], 0
    )
    lifted = eigen_lift(eb_module, mu, seed, 0)
    inner = lifted.in_frame(0)
    coords = []
    for i in range(module.rank):
        acc = Series.zero(eb_lattice.precision)
        for j, g in enumerate(eb_lattice.gens):
            acc = acc + g[i] * inner[j]
        coords.append(acc)
    if all(c.is_zero() for c in coords):
        raise HypothesisViolated("eigenvector mapped to zero in the module")
    if min(c.valuation() for c in coords if not c.is_zero()) != 0:
        return None
    return coords


def _alpha_from_presentation(module: AbModule, lam: Scalar, n: int) -> Scalar:
    """Read alpha off by renormalizing to a.t = y + (lam-1)*b*t + alpha*b^n*y."""
    mu = lam - Scalar(n)
    y = _primitive_eigen_element(module, mu)
    if y is None:
        raise HypothesisViolated(
            "no primitive eigenvector for the expected exponent"
        )
    pivot = next(i for i, c in enumerate(y) if c.valuation() == 0)
    other = 1 - pivot
    w = min(c.precision for c in y)
    zero = Series.zero(w)
    one = Series.one(w)
    basis = [
        [y[0], one if other == 0 else zero],
        [y[1], one if other == 1 else zero],
    ]
    inv = smat_inverse(basis)
    dbasis = [[entry.derivative() for entry in row] for row in basis]
    m = module.matrix
    mp = [
        [
            m[i][0] * basis[0][j] + m[i][1] * basis[1][j]
            + dbasis[i][j].shift_up(2)
            for j in range(2)
        ]
        for i in range(2)
    ]
    changed = [
        [inv[i][0] * mp[0][j] + inv[i][1] * mp[1][j] for j in range(2)]
        for i in range(2)
    ]
    if not changed[1][0].is_zero():
        raise HypothesisViolated("eigen column of the changed basis is impure")
    g = changed[1][1]
    if g.coefficient(1) != lam - ONE:
        raise HypothesisViolated("quotient exponent is not lam - 1")
    u = _unit_normalizer(g, lam - ONE)
    h = u * changed[0][1]
    c0 = h.coefficient(0)
    if c0.is_zero():
        raise HypothesisViolated("the extension coefficient is not a unit")
    if n >= h.precision:
        raise PrecisionExhausted("not enough precision to read alpha")
    alpha = h.coefficient(n) / c0
    if alpha.is_zero():
        raise HypothesisViolated("twisted normal form with alpha = 0")
    return alpha


def classify_rank2(module: AbModule) -> Rank2NormalForm:
    """Place a regular rank-2 module in its normal-form family."""
    if module.rank != 2:
        raise BadParameter("classification applies to rank-2 modules")
    if not is_regular(module):
        raise NotRegular("classification applies to regular modules")
    if module.is_simple_pole():
        res = module.residue_matrix()
        eig = linalg.eigenvalues(res)
        if len(eig) == 1:
            x = eig[0][0]
            off_diagonal = [
                [res[i][j] - x if i == j else res[i][j] for j in range(2)]
                for i in range(2)
            ]
            if all(v.is_zero() for row in off_diagonal for v in row):
                return Rank2NormalForm.direct_sum(x, x)
            return Rank2NormalForm.simple_pole_jordan(x, 0)
        x, y = eig[0][0], eig[1][0]
        diff = x - y
        if not diff.is_integer():
            return Rank2NormalForm.direct_sum(x, y)
        small, big = sorted((x, y), key=Scalar.sort_key)
        gap = int((big - small).re)
        if _has_primitive_eigen(module, big, gap):
            return Rank2NormalForm.direct_sum(small, big)
        return Rank2NormalForm.simple_pole_jordan(small, gap)
    sharp = saturate(module).saturated
    inner = classify_rank2(sharp)
    if inner.tag == "DirectSum":
        x, y = inner.params
        if x == y:
            raise HypothesisViolated(
                "split saturation with equal exponents on a non-simple pole"
            )
        # The family is symmetric in its two parameters (either exponent can
        # play the submodule role), so the label is the unordered pair read
        # off the split saturation, in canonical order.
        lam, mu = sorted((x + ONE, y + ONE), key=Scalar.sort_key)
        return Rank2NormalForm.non_split(lam, mu)
    if inner.tag == "SimplePoleJordan":
        z, m = inner.params
        if m == 0:
            return Rank2NormalForm.non_split(z + ONE, z + ONE)
        lam = z + Scalar(m + 1)
        alpha = _alpha_from_presentation(module, lam, m)
        return Rank2NormalForm.non_split_alpha(lam, m, alpha)
    raise HypothesisViolated("saturation of a rank-2 module must be split or Jordan")
