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
* A primitive eigenvector x reaches its rank-1 quotient E/C[[b]].x one
  way: ``_eigen_basis`` base-changes E to the basis (x, e_l for l != pivot)
  with ``base_change`` and reads the eigen test and lam off column 0.  The
  quotient is the lower-right block of that matrix, for Jordan-Hoelder
  steps and ``quotient_by_rank1``; alpha reads the quotient entry and the
  extension coefficient off its last column.
"""

from .errors import (
    BadParameter,
    HypothesisViolated,
    NotEigen,
    NotPrimitive,
    PrecisionExhausted,
)
from .invariants import (
    _eigen_system,
    delta_index,
    n_lambda,
    saturate,
    spectrum,
    width_table,
)
from .lattice import lattice_from_columns
from .module import AbModule, Element, base_change
from .morphisms import IntertwinerSystem
from .record import Record
from .scalars import ONE, ZERO, Scalar
from .series import Series, _checked_count
from .seriesmat import _checked_length
from .textio import MAX_FILE_RANK

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
    derivative term of every presentation.  A rank above
    textio.MAX_FILE_RANK is refused by ``series._checked_count``
    (BadParameter, "the rank of the internal Hom must be at most ..., got
    ...") before any entry is built.
    """
    pe = E.rank
    pf = F.rank
    _checked_count(pe * pf, "the rank of the internal Hom", most=MAX_FILE_RANK)
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
    """(dim Ext^0, dim Ext^1) of the pair, via the a-action on H = Hom(E, F).

    Both dimensions are read off finite truncations H/b^W H at a level W
    past the point where b^W H falls inside a.H.  There the cokernel of a
    on H/b^W H is constant in W (README derives it), so Ext^1 is read at W
    alone; only Ext^0 is re-solved, at W+1 and W+2, and must agree.  The
    kernel of a on H/b^W H is the space of intertwiners E -> F mod b^W:
    hom_ab's a-action on a map Psi, written in the negated variable, is the
    intertwining equation of P(b) = Psi(-b), up to a sign per order.  So it
    is solved order by order as IntertwinerSystem(E.matrix, F.matrix), one
    system grown through W, W+1 and W+2 orders.  hom_ab(E, F) is built only
    for the level: its rank ceiling, and the spectrum of H# and delta that
    bound W (n_lambda(H, 0) searches the level on a second E -> F
    system).
    """
    H = hom_ab(E, F)
    # certified for regular E and F only: saturate refuses any other
    saturate(E)
    saturate(F)
    base = n_lambda(H, ZERO, _system=IntertwinerSystem(E.matrix, F.matrix, 0)) + 2
    system = IntertwinerSystem(E.matrix, F.matrix, 0)
    d1 = len(system.solve(base).alive)
    d0 = system.solve(base + 1).rank_in_blocks(base)
    if system.solve(base + 2).rank_in_blocks(base + 1) != d0:
        raise PrecisionExhausted(
            "ext dimensions failed to stabilize at consecutive truncation levels"
        )
    return d0, d1


# ---------------------------------------------------------------------------
# eigenvector lifting
# ---------------------------------------------------------------------------


def eigen_lift(module: AbModule, lam, y: Element, kappa: int) -> Element:
    """The exact solution x of (a - lam*b)x = 0 that agrees with y below
    b^(kappa+1), known to precision W - 1 on a module of precision W.

    Requires a simple pole, a residual (a - lam*b)y divisible by b^(kappa+2),
    and lam - kappa at most the smallest residue eigenvalue congruent to lam
    modulo 1 (so the correction systems stay nonsingular).  With residue
    matrix R, order k of the equation reads
        (R - lam + k - 1) x_{k-1} = -sum_{j >= 2} M_j x_{k-j},
    so it fixes x_{k-1}: the W orders the module knows fix x_0..x_{W-2},
    and the coefficient of b^(W-1) is not claimed.  x is solved as the
    intertwiner from the rank-1 module [[lam*b]] whose prefix is y mod
    b^(kappa+1), which prescribes x_0..x_kappa; orders up to kappa + 1
    check them.  A kappa that is not an integer, and a seed whose length is
    not the rank, are refused (BadParameter).
    """
    spec = spectrum(module)
    lam = Scalar.of(lam)
    _checked_count(kappa, "kappa", 0)
    z = y.normalize()
    if z.shift > 0:
        raise HypothesisViolated("seed element does not lie in the module")
    w = module.precision
    if kappa + 2 > w:
        raise PrecisionExhausted(f"an eigen lift from kappa {kappa}", kappa + 2, w)
    same_class = [v for v in spec if (lam - v).is_integer()]
    if same_class:
        lo = min(same_class, key=Scalar.sort_key)
        if (lam - lo).re > kappa:
            raise HypothesisViolated(
                "lam - kappa exceeds the smallest eigenvalue in its class"
            )
    _checked_length(z.coords, module.rank)
    prefix = [[c.at_precision(kappa + 1)] for c in z.in_frame(0)]
    source = [[Series.monomial(lam, 1, w)]]
    system = IntertwinerSystem(source, module.matrix, w, prefix=prefix)
    if system.solve(kappa + 2) is None:
        raise HypothesisViolated(
            "residual of the seed is not divisible by b^(kappa+2)"
        )
    if system.solve(w) is None or system.parameters_in_blocks(w - 1):
        raise HypothesisViolated(
            "correction system is singular: lifting hypothesis violated"
        )
    return Element([row[0].at_precision(w - 1) for row in system.series_matrix({})], 0)


def _eigenvector(module: AbModule, mu: Scalar, orders: int):
    """A primitive x in E with a.x = mu*b*x, in E's coordinates; None when
    no solution of (a - mu*b)x = 0 has x_0 != 0.  x is solved to
    w = max(level, min(orders, W)) orders, level the certified level below,
    and is known to precision w - 1 - delta.

    The kernel is ``_eigen_system``'s: the intertwiners from [[mu*b]] into
    E.  On E#, with residue R#, order k of (b^-1 a - mu)y = 0 has the matrix
    R# + k - mu, invertible once k > mu - z_min, z_min E#'s least exponent
    in mu's class.  So from level max(mu - z_min, delta) + 2 on, a solution
    mod b^w agrees with an exact eigenvector mod b^(w-1) E#, which lies in
    b^(w-1-delta) E, and block 0 has its true rank: the answer None is read
    at the level.  On a simple pole (delta = 0) with exponents mu and
    mu - gap that level is gap + 2, the resonance order.  Otherwise the
    system resumes to the w orders the caller needs (the split test needs
    none past the level), and x is the solution with the lowest block-0
    parameter 1 and every other parameter 0.
    """
    system = _eigen_system(module, [mu])
    if not system.parameters_in_blocks(1):
        return None
    level = max(system.w, min(orders, module.precision))
    if level > system.w:
        system.solve(level)
    params = system.parameters_in_blocks(1)
    return [row[0].at_precision(level - 1 - delta_index(module))
            for row in system.series_matrix({params[0]: ONE})]


# ---------------------------------------------------------------------------
# rank-1 quotients
# ---------------------------------------------------------------------------


def _eigen_basis(module: AbModule, x: Element):
    """E's structure matrix in the basis (x, e_l for l != pivot), for a
    primitive eigenvector x; return (matrix, pivot, lam).

    pivot is the first coordinate of x that is a unit, so the basis is one
    over C[[b]]; the e_l are cut to x's precision.  Column 0 of the matrix
    is a.x in the new basis: x is an eigenvector exactly when it reads
    (lam*b, 0, ..., 0), and lam is its b^1 coefficient."""
    z = x.normalize()
    if z.shift > 0:
        raise NotPrimitive("element does not lie in the module")
    coords = z.in_frame(0)
    pivot = next(
        (i for i, c in enumerate(coords) if c.valuation() == 0), None
    )
    if pivot is None:
        raise NotPrimitive("element lies in b.E")
    p = module.rank
    _checked_length(coords, p)
    w = z.precision
    cols = [coords] + [
        [Series.one(w) if i == l else Series.zero(w) for i in range(p)]
        for l in range(p)
        if l != pivot
    ]
    changed = base_change(module, list(zip(*cols))).matrix
    head = changed[0][0]
    lam = head.coefficient(1)
    if not (head - Series.monomial(lam, 1, head.precision)).is_zero() or any(
        not row[0].is_zero() for row in changed[1:]
    ):
        raise NotEigen("a.x is not lam*b*x")
    return changed, pivot, lam


def _quotient_with_pivot(module: AbModule, x: Element):
    """Quotient by the rank-1 submodule on x, the lower-right block of
    ``_eigen_basis``; also return pivot and exponent."""
    changed, pivot, lam = _eigen_basis(module, x)
    return AbModule([row[1:] for row in changed[1:]]), pivot, lam


def quotient_by_rank1(module: AbModule, x: Element) -> AbModule:
    """E/(C[[b]].x) for a primitive eigenvector x, on the images of the
    e_l, l != pivot: the lower-right block of E's matrix in the basis
    (x, e_l for l != pivot)."""
    quotient, _, _ = _quotient_with_pivot(module, x)
    return quotient


# ---------------------------------------------------------------------------
# Jordan-Hoelder sequences
# ---------------------------------------------------------------------------


class JHSequence(Record):
    """Exponents and the corresponding increasing filtration by normal lattices."""

    __slots__ = ("exponents", "filtration")


_JH_POLICIES = ("lex", "revlex")


def _jh_step(module: AbModule, policy: str):
    """One Jordan-Hoelder step: a primitive eigenvector for lambda_min(E^b)
    of the class the policy picks, in the module's coordinates.

    A primitive eigenvector spans a simple-pole submodule, so it lies in E^b
    and is primitive there; width_table reads lambda_min(E^b) off the
    eigen-kernels of E without building E^b.
    """
    classes = width_table(module).classes
    pick = min if policy == "lex" else max
    mu = classes[pick(classes, key=Scalar.sort_key)][0]
    primitive = _eigenvector(module, mu, module.precision)
    if primitive is None:
        raise HypothesisViolated("no primitive eigenvector for the least exponent")
    return primitive, mu


def _jh_recurse(module: AbModule, policy: str):
    if module.rank == 1:
        # The filtration holds lattices, C[[b]]-spans, so any unit serves as
        # the last generator; 1 is known to the precision eigen_lift would
        # give the unit normalizer.
        return [module.residue_matrix()[0][0]], [[Series.one(module.precision - 1)]]
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
    # refuses an irregular module, and one too short to saturate, which a
    # rank-1 module would otherwise not be asked
    saturate(module)
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


class Rank2NormalForm(Record):
    """Normal form tag and parameters for a regular rank-2 module."""

    __slots__ = ("tag", "params")

    @staticmethod
    def direct_sum(lam, mu) -> "Rank2NormalForm":
        pair = sorted((Scalar.of(lam), Scalar.of(mu)), key=Scalar.sort_key)
        return Rank2NormalForm("DirectSum", tuple(pair))

    @staticmethod
    def simple_pole_jordan(lam, n: int) -> "Rank2NormalForm":
        _checked_count(n, "n", 0)
        return Rank2NormalForm("SimplePoleJordan", (Scalar.of(lam), n))

    @staticmethod
    def non_split(lam, mu) -> "Rank2NormalForm":
        return Rank2NormalForm("NonSplit", (Scalar.of(lam), Scalar.of(mu)))

    @staticmethod
    def non_split_alpha(lam, n: int, alpha) -> "Rank2NormalForm":
        alpha = Scalar.of(alpha)
        _checked_count(n, "n", 1)
        if alpha.is_zero():
            raise BadParameter("the twisted family needs alpha != 0")
        return Rank2NormalForm("NonSplitAlpha", (Scalar.of(lam), n, alpha))

    def __str__(self) -> str:
        return "%s(%s)" % (self.tag, ", ".join(str(p) for p in self.params))


def _alpha_from_presentation(module: AbModule, lam: Scalar, n: int) -> Scalar:
    """Read alpha off by renormalizing to a.t = y + (lam-1)*b*t + alpha*b^n*y.

    y is solved to n + 3 + delta orders (at most W), so it is known mod
    b^(n+2); ``_eigen_basis`` keeps that precision in E's matrix on the
    basis (y, e_other), the one the rank-1 quotient E/C[[b]].y is read on.
    There the quotient entry g has residue lam - 1, and the unit u with
    u*g + b^2*u' = (lam-1)*b*u, the rank-1 intertwiner from [[(lam-1)*b]]
    into [[g]] with constant term 1 (``eigen_lift`` of the seed 1), loses
    one order; h = u*c, c the coefficient of y in a.e_other, known past
    b^n, gives alpha = h_n/h_0.
    """
    mu = lam - Scalar(n)
    y = _eigenvector(module, mu, n + 3 + delta_index(module))
    if y is None:
        raise HypothesisViolated(
            "no primitive eigenvector for the expected exponent"
        )
    changed, _, _ = _eigen_basis(module, Element(y))
    g = changed[1][1]
    if g.coefficient(1) != lam - ONE:
        raise HypothesisViolated("quotient exponent is not lam - 1")
    seed = Element([Series.one(g.precision)], 0)
    u = eigen_lift(AbModule([[g]]), lam - ONE, seed, 0).coords[0]
    h = u * changed[0][1]
    c0 = h.coefficient(0)
    if c0.is_zero():
        raise HypothesisViolated("the extension coefficient is not a unit")
    alpha = h.coefficient(n) / c0
    if alpha.is_zero():
        raise HypothesisViolated("twisted normal form with alpha = 0")
    return alpha


def classify_rank2(module: AbModule) -> Rank2NormalForm:
    """Place a regular rank-2 module in its normal-form family."""
    if module.rank != 2:
        raise BadParameter("classification applies to rank-2 modules")
    sharp = saturate(module).saturated
    if module.is_simple_pole():
        res = module.residue_matrix()
        x, y = spectrum(module)
        if x == y:
            off_diagonal = [
                [res[i][j] - x if i == j else res[i][j] for j in range(2)]
                for i in range(2)
            ]
            if all(v.is_zero() for row in off_diagonal for v in row):
                return Rank2NormalForm.direct_sum(x, x)
            return Rank2NormalForm.simple_pole_jordan(x, 0)
        diff = x - y
        if not diff.is_integer():
            return Rank2NormalForm.direct_sum(x, y)
        small, big = sorted((x, y), key=Scalar.sort_key)
        if _eigenvector(module, big, 0) is not None:
            return Rank2NormalForm.direct_sum(small, big)
        return Rank2NormalForm.simple_pole_jordan(small, int((big - small).re))
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
