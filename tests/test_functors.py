"""Duality, twists, Hom/Ext, eigenvector lifting, Jordan-Hoelder, rank-2 forms."""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from abmod import (
    AbModule,
    AbmodError,
    BadParameter,
    Element,
    HypothesisViolated,
    IntertwinerSystem,
    NotEigen,
    NotPrimitive,
    NotRegular,
    NotSimplePole,
    PrecisionExhausted,
    Rank2NormalForm,
    Scalar,
    Series,
    UnsupportedSpectrum,
    alpha_invariant,
    base_change,
    classify_rank2,
    dual,
    eigen_lift,
    ext_dims,
    from_expression,
    hom_ab,
    jordan_holder,
    lattice_from_columns,
    make_E_lambda,
    make_E_lambda_mu,
    make_E_lambda_mu_alpha,
    make_E_lambda_n,
    make_J_k,
    module_iso,
    quotient_by_rank1,
    random_regular,
    saturate,
    spectrum,
    truncate,
    twist,
)
from abmod import functors, invariants
from abmod.invariants import _class_rep
from abmod.linalg import mat_mul, nullspace
from abmod.scalars import ONE, ZERO
from abmod.seriesmat import a_image

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from oracles import (  # noqa: E402
    dense_hom_ab,
    eb_primitive_eigen_element,
    flattened_ext_dims,
    full_precision_alpha,
    hand_eigen_lift,
    mat_sub,
    unit_element,
)
from test_base_change import base_changes  # noqa: E402
from test_invariant_memos import EXPRS as MEMO_EXPRS, _outcome  # noqa: E402
from test_saturation_identities import irregular  # noqa: E402

HALF = Scalar(Fraction(1, 2))


# -- duality -----------------------------------------------------------------


def test_dual_rank1():
    E = make_E_lambda(HALF, 10)
    assert dual(E).matrix[0][0] == Series.monomial(-HALF, 1, 10)


def test_dual_is_involutive():
    for expr in ["E(1/2,1/3)", "J(3;1)", "rand(3;5)"]:
        m = from_expression(expr, 14)
        dd = dual(dual(m))
        assert all(
            dd.matrix[i][j] == m.matrix[i][j]
            for i in range(m.rank) for j in range(m.rank)
        )


def test_dual_J_k_golden():
    # J_k(l)* is isomorphic to J_k(-l - k + 1)
    for k in (2, 3):
        lam = Scalar(1)
        left = dual(make_J_k(lam, k, 16))
        right = make_J_k(-lam - Scalar(k - 1), k, 16)
        assert module_iso(left, right) is not None


def test_dual_non_split_golden():
    # E_{l,m}* is isomorphic to E_{-m+1,-l+1}
    lam, mu = HALF, Scalar(Fraction(1, 3))
    left = dual(make_E_lambda_mu(lam, mu, 14))
    right = make_E_lambda_mu(-mu + ONE, -lam + ONE, 14)
    assert module_iso(left, right) is not None


# -- twist -------------------------------------------------------------------


def test_twist_shifts_exponent():
    E = make_E_lambda(HALF, 10)
    assert module_iso(twist(E, Scalar(2)), make_E_lambda(HALF + Scalar(2), 10)) is not None


def test_twist_additive():
    m = from_expression("E(1/2,1/3)", 10)
    t = twist(twist(m, Scalar(1)), Scalar(-1))
    assert all(t.matrix[i][j] == m.matrix[i][j] for i in range(2) for j in range(2))


# -- Hom and Ext -------------------------------------------------------------


def test_hom_rank_is_product():
    E = from_expression("J(2;0)", 12)
    F = from_expression("E(1/2,1/3)", 12)
    assert hom_ab(E, F).rank == 4
    assert hom_ab(F, E).rank == 4


def test_hom_matches_the_dense_assembly():
    exprs = ["E(0)", "E(1/2,1/3)", "J(3;1)", "F(3;0;1/2)", "rand(2;5)", "E(1/2;2)"]
    for e in exprs:
        for f in exprs:
            for we, wf in ((12, 12), (8, 14)):
                E, F = from_expression(e, we), from_expression(f, wf)
                got, want = hom_ab(E, F), dense_hom_ab(E, F)
                assert got == want, (e, f)
                assert all(
                    x.terms == y.terms and x.precision == y.precision
                    for rx, ry in zip(got.matrix, want.matrix)
                    for x, y in zip(rx, ry)
                ), (e, f)


def test_hom_output_satisfies_commutation():
    # AB - BA = B^2 on every truncation of the Hom module
    E = from_expression("J(2;1)", 12)
    H = hom_ab(E, E)
    for level in (2, 3):
        q = truncate(H, level)
        left = mat_sub(mat_mul(q.A, q.B), mat_mul(q.B, q.A))
        right = mat_mul(q.B, q.B)
        assert all(
            left[i][j] == right[i][j] for i in range(q.dim) for j in range(q.dim)
        )


def test_ext_rank1_grid():
    # For rank-1 modules both Hom and the extra Ext^1 dimension appear exactly
    # when a - b is a nonnegative integer, so the Euler characteristic
    # ext0 - ext1 is always -1.
    prec = 12
    values = [Scalar(0), Scalar(1), Scalar(2), HALF]
    for a in values:
        for b in values:
            Ea, Eb = make_E_lambda(a, prec), make_E_lambda(b, prec)
            d0, d1 = ext_dims(Ea, Eb)
            gap = a - b
            expected0 = 1 if gap.is_integer() and gap.re >= 0 else 0
            assert (d0, d1) == (expected0, expected0 + 1), (str(a), str(b))


def test_ext_duality():
    E = from_expression("E(1/2,1/3)", 16)
    F = from_expression("E(1;1)", 16)
    assert ext_dims(E, F)[1] == ext_dims(dual(F), dual(E))[1]


@st.composite
def small_modules(draw, kinds=("rand", "E", "J", "F"), max_rank=3, precision=24):
    """A module of one of these kinds, of rank at most max_rank."""
    kind = draw(st.sampled_from(kinds))
    lam = draw(st.sampled_from(("0", "1/2", "-1", "1/3", "2")))
    if kind == "rand":
        expr = f"rand({draw(st.integers(1, max_rank))};{draw(st.integers(0, 10**4))})"
    elif kind == "J":
        expr = f"J({draw(st.integers(1, max_rank))};{lam})"
    elif kind == "F":
        expr = f"F({draw(st.integers(2, 3))};{lam};{draw(st.sampled_from(('1/2', '2')))})"
    else:
        n, mu = draw(st.integers(0, 3)), draw(st.sampled_from(("0", "1/2", "-1")))
        expr = draw(st.sampled_from((f"E({lam})", f"E({lam};{n})", f"E({lam},{mu})")))
    return from_expression(expr, precision)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(small_modules(), small_modules())
def test_ext_dims_are_invariant_under_duality(E, F):
    """Ext^0 and Ext^1 of (E, F) and of (F*, E*) have the same dimensions."""
    try:
        dims = ext_dims(E, F)
    except UnsupportedSpectrum:
        assume(False)
    assert dims == ext_dims(dual(F), dual(E))


RANK_2_MODULES = small_modules(("rand", "E", "J"), 2)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(RANK_2_MODULES, RANK_2_MODULES)
def test_hom_is_isomorphic_to_the_hom_of_duals(E, F):
    """Hom(E, F) and Hom(F*, E*) are isomorphic (a, b)-modules."""
    assert module_iso(hom_ab(E, F), hom_ab(dual(F), dual(E))) is not None


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(RANK_2_MODULES, RANK_2_MODULES)
def test_saturated_hom_spectrum_is_the_difference_spectrum(E, F):
    """S(Hom(E, F)#) mod Z is the multiset {mu - lam : lam in S(E#), mu in S(F#)}."""
    try:
        hom = spectrum(saturate(hom_ab(E, F)).saturated)
        left = spectrum(saturate(E).saturated)
        right = spectrum(saturate(F).saturated)
    except UnsupportedSpectrum:
        assume(False)
    want = sorted((_class_rep(mu - lam) for lam in left for mu in right), key=Scalar.sort_key)
    assert sorted(map(_class_rep, hom), key=Scalar.sort_key) == want


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_modules(precision=40), small_modules(precision=40))
def test_saturated_hom_spectrum_is_bounded_by_the_differences(E, F):
    """Each class mod Z of S(Hom(E, F)#) holds some mu - lam, lam in
    S(E^b) = -S((E*)#) and mu in S(F#), and its least element is at least
    the least such mu - lam of the class."""
    assume(E.rank * F.rank <= 6)
    try:
        hom = spectrum(saturate(hom_ab(E, F)).saturated)
        lows = [-s for s in spectrum(saturate(dual(E)).saturated)]
        highs = spectrum(saturate(F).saturated)
    except UnsupportedSpectrum:
        assume(False)
    least = {}
    for lam in lows:
        for mu in highs:
            d = mu - lam
            rep = _class_rep(d)
            if rep not in least or d.re < least[rep].re:
                least[rep] = d
    for s in hom:
        assert _class_rep(s) in least
        assert s.re >= least[_class_rep(s)].re


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_modules().map(lambda m: saturate(m).saturated),
       small_modules().map(lambda m: saturate(m).saturated))
def test_hom_of_simple_pole_modules_has_the_difference_spectrum(E, F):
    """When E and F have a simple pole, so does Hom(E, F), with residue
    R_F (x) I - I (x) tR_E: its spectrum is exactly the multiset
    {mu - lam : lam in S(E), mu in S(F)}."""
    hom = hom_ab(E, F)
    assert hom.is_simple_pole()
    try:
        got, left, right = spectrum(hom), spectrum(E), spectrum(F)
    except UnsupportedSpectrum:
        assume(False)
    want = sorted((mu - lam for lam in left for mu in right), key=Scalar.sort_key)
    assert sorted(got, key=Scalar.sort_key) == want


def _ext_outcome(fn, E, F):
    try:
        return fn(E, F)
    except AbmodError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(6, 24).flatmap(lambda w: small_modules(precision=w)),
       st.integers(6, 24).flatmap(lambda w: small_modules(precision=w)))
def test_ext_dims_match_the_flattened_hom(E, F):
    """The E -> F intertwiners give the values, errors and messages that
    the kernel of a on the flattened Hom gave."""
    assert _ext_outcome(ext_dims, E, F) == _ext_outcome(flattened_ext_dims, E, F)


@pytest.mark.parametrize("left, right", [
    ("J(3;1)", "E(0)"), ("E(0)", "J(2;0)"), ("rand(2;5)", "rand(3;1000)"),
])
def test_ext_dims_solves_only_the_intertwiners_from_e_to_f(monkeypatch, left, right):
    built = []
    init = IntertwinerSystem.__init__

    def spy(self, source, target, *args, **kwargs):
        built.append((source, target))
        init(self, source, target, *args, **kwargs)

    monkeypatch.setattr(IntertwinerSystem, "__init__", spy)
    E, F = from_expression(left, 16), from_expression(right, 16)
    ext_dims(E, F)
    assert built
    assert all(source == E.matrix and target == F.matrix for source, target in built)


# ext_dims reads Ext^0 as the rank in blocks below the level of the kernel
# of a one order past it, which counts kernel elements of the truncation
# living in its top orders (ROADMAP item 1).  The fix changes the ext0
# goldens of bench/expected.json, so it waits for a change to the benchmark.
EXT0_OVERCOUNT = pytest.mark.xfail(
    strict=True, reason="Ext^0 counts truncation artifacts (ROADMAP item 1)"
)


@pytest.mark.parametrize("left, right", [
    pytest.param("J(2;0)", "J(2;0)", marks=EXT0_OVERCOUNT),   # code 3, law 1
    pytest.param("J(3;1)", "E(0)", marks=EXT0_OVERCOUNT),     # code 3, law 1
    pytest.param("J(2;0)", "E(0)", marks=EXT0_OVERCOUNT),     # code 2, law 1
    ("E(0)", "E(0)"),
])
def test_ext0_obeys_the_index_law(left, right):
    """a has index -rank on a regular module, so on H = Hom(E, F)
    dim Ext^0 - dim Ext^1 = -rank(E)*rank(F)."""
    E, F = from_expression(left, 24), from_expression(right, 24)
    d0, d1 = ext_dims(E, F)
    assert d0 == d1 - E.rank * F.rank


def test_ext_refuses_an_irregular_module():
    E = from_expression("E(1/2,1/3)", 16)
    with pytest.raises(NotRegular):
        ext_dims(irregular(E), E)
    with pytest.raises(NotRegular):
        ext_dims(E, irregular(E))


# -- eigenvector lifting and rank-1 quotients --------------------------------


def _sum_with_cocycle(lam, mu, order, W):
    """a e1 = lam b e1,  a e2 = mu b e2 + b^order e1."""
    Z = Series.zero(W)
    return AbModule(
        [
            [Series.monomial(lam, 1, W), Series.monomial(ONE, order, W)],
            [Z, Series.monomial(mu, 1, W)],
        ]
    )


def test_eigen_lift_corrects_seed():
    m = _sum_with_cocycle(HALF, Scalar(Fraction(1, 3)), 2, 12)
    seed = unit_element(m, 1)
    x = eigen_lift(m, Scalar(Fraction(1, 3)), seed, 0)
    lhs = a_image(m.matrix, [x.coords])[0]
    rhs = [(c * Scalar(Fraction(1, 3))).shift_up(1) for c in x.coords]
    assert all((u - v).is_zero() for u, v in zip(lhs, rhs))


def test_eigen_lift_guards_class_gap():
    m = _sum_with_cocycle(HALF, HALF + Scalar(2), 3, 12)
    with pytest.raises(HypothesisViolated, match="exceeds the smallest eigenvalue"):
        eigen_lift(m, HALF + Scalar(2), unit_element(m, 1), 1)


def test_eigen_lift_refuses_each_broken_hypothesis():
    third = Scalar(Fraction(1, 3))
    m = _sum_with_cocycle(HALF, third, 2, 12)
    seed = unit_element(m, 1)
    with pytest.raises(NotSimplePole):
        eigen_lift(make_E_lambda_mu(HALF, third, 12), third, seed, 0)
    with pytest.raises(BadParameter, match="kappa"):
        eigen_lift(m, third, seed, -1)
    with pytest.raises(PrecisionExhausted,
                       match="^an eigen lift from kappa 11 needs precision >= 13, have 12$"):
        eigen_lift(m, third, seed, 11)
    # b^{-1} e2 lies outside the module
    outside = Element(seed.coords, 1)
    with pytest.raises(HypothesisViolated, match="does not lie in the module"):
        eigen_lift(m, third, outside, 0)
    # (a - b/3) e1 = b e1/6 is not divisible by b^2
    with pytest.raises(HypothesisViolated, match="not divisible by b"):
        eigen_lift(m, third, unit_element(m, 0), 0)
    # a seed known below b^(kappa+1) only, and a seed of the wrong rank
    short = Element([Series.zero(1), Series.one(1)], 0)
    with pytest.raises(PrecisionExhausted,
                       match=r"^cutting a series at b\^2 needs precision >= 2, have 1$"):
        eigen_lift(m, third, short, 1)
    with pytest.raises(BadParameter, match="^column length 1 is not the rank 2$"):
        eigen_lift(m, third, Element([Series.one(12)], 0), 0)


def _rank1(coeffs, w):
    """The rank-1 module [[g]], g = sum of c*b^k over coeffs {k: c}, at precision w."""
    g = Series.zero(w)
    for k, c in coeffs.items():
        g = g + Series.monomial(Scalar.of(c), k, w)
    return AbModule([[g]])


def test_eigen_lift_claims_only_the_orders_it_corrects():
    """Order k of (a - lam*b)x = 0 fixes x_{k-1}, so W known orders fix
    x_0..x_{W-2}: the lift has precision W - 1 and agrees with a lift from
    more orders.  The hand loop it replaced claimed precision W and left the
    seed's 0 at b^(W-1)."""
    g = {1: HALF, 2: 1, 3: 3, 4: -2, 5: 5}
    low, high = _rank1(g, 6), _rank1(g, 8)
    x = eigen_lift(low, HALF, unit_element(low, 0), 0).coords[0]
    y = eigen_lift(high, HALF, unit_element(high, 0), 0).coords[0]
    assert x.precision == 5 and y.precision == 7
    assert x == y.at_precision(5)
    assert y.coefficient(5) == Scalar(Fraction(-3, 10))
    hand = hand_eigen_lift(low, HALF, unit_element(low, 0), 0).coords[0]
    assert hand.precision == 6 and hand.coefficient(5).is_zero()
    assert hand.at_precision(5) == x


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    rank=st.integers(1, 3),
    seed=st.integers(0, 10**4),
    w=st.integers(4, 16),
)
def test_eigen_lift_is_the_cut_of_a_longer_lift(rank, seed, w):
    """For every exponent of a random simple-pole module, the lift from a
    residue eigenvector at precision W is the lift at precision 40 cut to
    W - 1, and agrees below b^(W-1) with the hand-written recurrence."""
    top = random_regular(rank, seed, 40, simple_pole=True)
    module = top.at_precision(w)
    res = top.residue_matrix()
    for lam in sorted(set(spectrum(top)), key=Scalar.sort_key):
        shifted = [
            [res[i][j] - lam if i == j else res[i][j] for j in range(rank)]
            for i in range(rank)
        ]
        vector = nullspace(shifted)[0]
        seed = Element([Series.monomial(c, 0, w) for c in vector], 0)
        got = _outcome(eigen_lift, module, lam, seed, 0)
        want = _outcome(eigen_lift, top, lam, seed, 0)
        if want[0] != "ok":
            assert got == want
            continue
        got, want = got[1].coords, want[1].coords
        assert [c.precision for c in got] == [w - 1] * rank
        assert list(got) == [c.at_precision(w - 1) for c in want]
        hand = hand_eigen_lift(module, lam, seed, 0).coords
        assert list(got) == [c.at_precision(w - 1) for c in hand]


def test_quotient_by_rank1():
    lam, mu = HALF, Scalar(Fraction(1, 3))
    m = make_E_lambda_mu(lam, mu, 12)        # a y = mu b y, a t = y + (lam-1) b t
    q = quotient_by_rank1(m, unit_element(m, 0))
    assert q.rank == 1
    assert q.matrix[0][0] == Series.monomial(lam - ONE, 1, 12)
    with pytest.raises(NotEigen):
        quotient_by_rank1(m, unit_element(m, 1))


def test_quotient_by_rank1_refuses_a_vector_whose_length_is_not_the_rank():
    m = from_expression("E(1/2;1)", 8)
    right = [Series.zero(8), Series.one(8)]
    assert quotient_by_rank1(m, Element(right)).rank == 1
    for wrong in ([Series.one(8)], right + [Series.one(8)]):
        with pytest.raises(BadParameter, match="is not the rank 2"):
            quotient_by_rank1(m, Element(wrong))


EIGEN_DATA_ROSTER = ["J(3;0)", "J(2;1/2)", "E(1/2,1/3)", "E(1/2;2)", "E(0;3)",
                     "E(1/2,2;3)", "rand(3;5)", "rand(4;7)"]


def _eigen_data_outcome(fn, module, x):
    """(coords, pivot, lam), or the type of the error raised."""
    try:
        return fn(module, x)
    except AbmodError as exc:
        return type(exc)


def _drawn_elements(module, rng):
    """Each step's eigenvector x of the module and drawn elements around it:
    multiples by a unit or a scalar, x through a b^-1 frame, b*x, x read
    at precision 1 and 2, sums with a perturbation at a drawn order (most
    not eigen), and drawn vectors."""
    w, p = module.precision, module.rank
    x = functors._jh_step(module, "lex")[0]
    y = functors._jh_step(module, "revlex")[0]
    b = Series.b(w)
    unit = Series([Scalar(1 + rng.randint(0, 2))] + [Scalar(rng.randint(-2, 2))
                                                     for _ in range(w - 1)], w)
    yield Element(x)
    yield Element([c * unit for c in x])
    yield Element([c * Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3))) for c in x])
    yield Element([b * c for c in x], 1)
    yield Element([b * c for c in x])
    yield Element(x, 1)
    yield Element([c.at_precision(1) for c in x])
    yield Element([c.at_precision(2) for c in x])
    yield Element([c + d for c, d in zip(x, y)])
    for _ in range(6):
        k, i = rng.randrange(w), rng.randrange(p)
        bump = Series.monomial(Scalar(rng.randint(1, 3)), k, w)
        yield Element([c + bump if j == i else c for j, c in enumerate(x)])
    for _ in range(3):
        yield Element([Series([Scalar(rng.randint(-2, 2)) for _ in range(w)], w)
                       for _ in range(p)])


def _eigen_basis_data(module, x):
    """(coords, pivot, lam) as ``oracles.ratio_eigen_data`` returns them:
    pivot and lam from ``functors._eigen_basis``, coords x's own."""
    _, pivot, lam = functors._eigen_basis(module, x)
    return x.normalize().in_frame(0), pivot, lam


def test_eigen_data_matches_the_ratio_tests():
    """lam read off column 0 of E's matrix in the basis (x, e_l), with the
    one full test that the column is (lam*b, 0, ..., 0), decides as the
    ratio (a.x)_pivot / x_pivot and its two partial tests did: the same
    (coords, pivot, lam), or an error of the same type (the two partial
    tests' NotEigen messages are gone)."""
    rng = random.Random(41)
    seen = set()
    for expr in EIGEN_DATA_ROSTER:
        module = from_expression(expr, 12)
        for x in _drawn_elements(module, rng):
            got = _eigen_data_outcome(_eigen_basis_data, module, x)
            assert got == _eigen_data_outcome(oracles.ratio_eigen_data, module, x), (expr, x)
            seen.add(got if isinstance(got, type) else tuple)
    assert seen == {tuple, NotEigen, NotPrimitive, PrecisionExhausted}


# -- Jordan-Hoelder ----------------------------------------------------------


def test_jh_J3_golden():
    seq = jordan_holder(make_J_k(Scalar(1), 3, 14))
    assert [str(e) for e in seq.exponents] == ["3", "2", "1"]
    assert len(seq.filtration) == 3
    assert seq.filtration[0].rank == 1 and seq.filtration[2].rank == 3


def test_jordan_holder_refuses_an_unknown_policy():
    with pytest.raises(BadParameter, match="^unknown class-choice policy: 'bogus'$"):
        jordan_holder(from_expression("J(2;0)", 8), "bogus")


def test_jh_sum_matches_alpha_across_policies():
    for expr in ["J(3;1)", "E(1/2,1/3)", "rand(3;61)", "rand(4;62)"]:
        m = from_expression(expr, 16)
        total = alpha_invariant(m)
        for policy in ("lex", "revlex"):
            seq = jordan_holder(m, policy=policy)
            assert sum(seq.exponents, ZERO) == total, (expr, policy)


def test_jh_filtration_is_nested():
    m = from_expression("rand(3;63)", 14)
    seq = jordan_holder(m)
    for small, large in zip(seq.filtration, seq.filtration[1:]):
        for gen in small.gens:
            assert large.contains_column(list(gen), shift=small.shift)


def test_jordan_holder_filtrations_hold_under_a_cut():
    """Every memo-grid expression and its dual, built at W = 40 and cut to
    W = 8, 12 and 24: each answered Jordan-Hoelder sequence has the W = 40
    exponents and filtration, under both policies.  The grid's three
    F(k;...) modules with a spectrum outside Q(i) have no reference."""
    answered = 0
    for expr in MEMO_EXPRS:
        top = from_expression(expr, 40)
        for module in (top, dual(top)):
            for policy in ("lex", "revlex"):
                try:
                    ref = jordan_holder(module, policy)
                except UnsupportedSpectrum:
                    continue
                for w in (8, 12, 24):
                    try:
                        seq = jordan_holder(module.at_precision(w), policy)
                    except PrecisionExhausted:
                        continue
                    answered += 1
                    assert seq.exponents == ref.exponents, (policy, expr, w)
                    assert seq.filtration == ref.filtration, (policy, expr, w)
    assert answered == 292


def _jh_exponents(module, policy):
    return _attempt(lambda m: [str(e) for e in jordan_holder(m, policy).exponents],
                    module)


@st.composite
def jh_modules(draw):
    """A catalog or rand module of rank <= 4 at a precision from 6 to 24,
    maybe dualized, under a sparse base change."""
    w = draw(st.integers(6, 24))
    catalog = [e for e in MEMO_EXPRS if not e.startswith("rand")]
    expr = draw(st.sampled_from(catalog) | st.builds(
        "rand({};{})".format, st.integers(1, 4), st.integers(0, 500)))
    module = from_expression(expr, w)
    assume(module.rank <= 4)
    if draw(st.booleans()):
        module = dual(module)
    return base_change(module, draw(base_changes(module.rank, w)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(jh_modules(), st.sampled_from(("lex", "revlex")))
def test_jordan_holder_exponents_match_the_eb_route(module, policy):
    """The exponents, or the error type and message, are those of the step
    that read its eigenvector off E^b (kept as oracles._jh_step)."""
    new = _jh_exponents(module, policy)
    with mock.patch.object(functors, "_jh_step", oracles._jh_step):
        assert _jh_exponents(module, policy) == new


def _jh_sequence(jh, module, policy):
    """The sequence, its lattices' reprs and precisions, or the error."""
    seq = _attempt(jh, module, policy)
    if isinstance(seq, tuple):
        return seq
    return seq, [repr(lat) for lat in seq.filtration], [lat.precision for lat in seq.filtration]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(jh_modules(), st.sampled_from(("lex", "revlex")))
def test_jordan_holder_needs_no_unit_normalizer(module, policy):
    """Ending the generators with 1 in place of the rank-1 quotient's unit
    normalizer (kept as oracles.normalizing_jordan_holder) leaves the
    sequence, every lattice and its precision, or the error, as they were."""
    assert _jh_sequence(jordan_holder, module, policy) == _jh_sequence(
        oracles.normalizing_jordan_holder, module, policy)


ELEMENT_KINDS = ("eigen", "unit", "b", "b-frame", "shifted", "bump", "drawn", "cut",
                 "short", "long")


@st.composite
def quotient_cases(draw):
    """A module as jh_modules draws it and an element around a Jordan-Hoelder
    eigenvector x of it (e_0 where the step fails): x, a unit multiple, b*x
    in the module or in a b^-1 frame, x in a b^-1 frame, x plus a monomial
    (most not eigen), a drawn vector, x cut to precision 1 or 2, or x with
    its last coordinate dropped or one more added."""
    module = draw(jh_modules())
    w, p = module.precision, module.rank
    try:
        x = functors._jh_step(module, draw(st.sampled_from(("lex", "revlex"))))[0]
    except AbmodError:
        x = [Series.one(w)] + [Series.zero(w)] * (p - 1)
    b = Series.b(w)
    coeffs = st.builds(Scalar, st.integers(-3, 3))
    kind = draw(st.sampled_from(ELEMENT_KINDS))
    if kind == "eigen":
        coords, shift = x, 0
    elif kind == "unit":
        unit = Series([Scalar(draw(st.integers(1, 3)))]
                      + [draw(coeffs) for _ in range(w - 1)], w)
        coords, shift = [c * unit for c in x], 0
    elif kind in ("b", "b-frame"):
        coords, shift = [b * c for c in x], int(kind == "b-frame")
    elif kind == "shifted":
        coords, shift = x, 1
    elif kind == "bump":
        i, k = draw(st.integers(0, p - 1)), draw(st.integers(0, w - 1))
        bump = Series.monomial(Scalar(draw(st.integers(1, 3))), k, w)
        coords, shift = [c + bump if j == i else c for j, c in enumerate(x)], 0
    elif kind == "drawn":
        coords = [Series([draw(coeffs) for _ in range(w)], w) for _ in range(p)]
        shift = 0
    elif kind == "cut":
        cut = draw(st.integers(1, 2))
        coords, shift = [c.at_precision(cut) for c in x], 0
    elif kind == "short":
        coords, shift = x[:-1] or [b], 0
    else:
        coords, shift = list(x) + [Series.one(w)], 0
    return module, Element(coords, shift)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(quotient_cases())
def test_the_quotient_through_base_change_matches_the_hand_formula(case):
    """The quotient read off E's matrix in the basis (x, e_l for l != pivot),
    its pivot and exponent, are those of the hand formula
    M[l][m] - M[pivot][m]*x_l/x_pivot behind the coordinate eigen test
    a.x = lam*b*x (kept as oracles.hand_quotient_with_pivot); or the error
    type and message are."""
    module, x = case
    assert _attempt(functors._quotient_with_pivot, module, x) == _attempt(
        oracles.hand_quotient_with_pivot, module, x)


def test_the_eigenvector_needs_the_orders_that_fix_it():
    """W >= max(mu - z_min, delta) + 2 orders decide block 0; E(0) has no
    primitive solution of a.x = 7*b*x, and below 9 orders that is not
    decided."""
    assert functors._eigenvector(from_expression("E(0)", 9), Scalar(7), 9) is None
    with pytest.raises(PrecisionExhausted,
                       match="^the eigenvector for exponent 7 needs precision >= 9, have 8$"):
        functors._eigenvector(from_expression("E(0)", 8), Scalar(7), 8)


def _direct_sum(*modules):
    """The block-diagonal module with the given summands."""
    w = min(m.precision for m in modules)
    rows = []
    at = 0
    p = sum(m.rank for m in modules)
    for m in modules:
        for row in m.matrix:
            rows.append([Series.zero(w)] * at + [e.at_precision(w) for e in row]
                        + [Series.zero(w)] * (p - at - m.rank))
        at += m.rank
    return AbModule(rows)


@pytest.mark.parametrize("summands", [
    ("J(2;0)", "J(2;0)"), ("E(1/2;2)", "E(1/2;2)"), ("E(0)", "E(0)", "E(0)"),
])
@pytest.mark.parametrize("w", (12, 24))
def test_jordan_holder_with_a_repeated_least_exponent(summands, w):
    """Where the least exponent's eigenspace has dimension 2 or more the
    filtration is not unique, and the kernel route may pick another
    eigen-line than the E^b route: the exponents still agree, and the
    filtration is a nested chain of a-stable lattices of ranks 1..p, the
    first spanned by a primitive eigenvector for the first exponent."""
    rng = random.Random(w)
    base = _direct_sum(*(from_expression(e, w) for e in summands))
    for module in (base, _random_base_change(base, rng), _random_base_change(base, rng)):
        p = module.rank
        for policy in ("lex", "revlex"):
            seq = jordan_holder(module, policy)
            with mock.patch.object(functors, "_jh_step", oracles._jh_step):
                assert seq.exponents == jordan_holder(module, policy).exponents
            assert [lat.rank for lat in seq.filtration] == list(range(1, p + 1))
            for small, large in zip(seq.filtration, seq.filtration[1:]):
                assert all(large.contains_column(list(g), small.shift) for g in small.gens)
            for lat in seq.filtration:
                images = a_image(module.matrix, [list(g) for g in lat.gens], lat.shift)
                assert all(lat.contains_column(image, lat.shift) for image in images)
            # The first lattice's echelon generator is the step's eigenvector
            # divided by its pivot entry, a unit series, so it is no
            # eigenvector itself; the step's vector spans the same lattice.
            x = functors._jh_step(module, policy)[0]
            assert lattice_from_columns(p, [x]) == seq.filtration[0]
            assert quotient_by_rank1(module, Element(x)).rank == p - 1
            assert functors._eigen_basis(module, Element(x))[2] == seq.exponents[0]


# -- rank-2 classification ---------------------------------------------------


def _random_base_change(module, rng):
    p, w = module.rank, module.precision
    while True:
        q = [
            [
                Series([Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
                        for _ in range(w)], w)
                for _ in range(p)
            ]
            for _ in range(p)
        ]
        const = [[q[i][j].coefficient(0) for j in range(p)] for i in range(p)]
        from abmod.linalg import det
        if not det(const).is_zero():
            break
    return base_change(module, q)


def test_classify_a_scalar_residue_as_a_direct_sum():
    lam_b = Series.monomial(HALF, 1, 12)
    m = AbModule([[lam_b, Series.zero(12)], [Series.zero(12), lam_b]])
    assert str(classify_rank2(m)) == "DirectSum(1/2, 1/2)"


def test_classify_rejects_wrong_rank():
    from abmod import BadParameter
    with pytest.raises(BadParameter):
        classify_rank2(from_expression("E(1/2)", 12))


def test_normal_forms_refuse_parameters_outside_their_family():
    with pytest.raises(BadParameter, match="^n must be at least 0, got -1$"):
        Rank2NormalForm.simple_pole_jordan(0, -1)
    for n, alpha, message in ((0, 3, "^n must be at least 1, got 0$"),
                              (2, 0, "^the twisted family needs alpha != 0$")):
        with pytest.raises(BadParameter, match=message):
            Rank2NormalForm.non_split_alpha(HALF, n, alpha)


@pytest.mark.parametrize("n", [2.5, "1", None])
def test_normal_forms_refuse_a_count_that_is_not_an_int(n):
    message = f"^n must be an integer, not {re.escape(repr(n))}$"
    with pytest.raises(BadParameter, match=message):
        Rank2NormalForm.simple_pole_jordan(0, n)
    with pytest.raises(BadParameter, match=message):
        Rank2NormalForm.non_split_alpha(0, n, 2)


def test_classify_families_and_base_changes():
    rng = random.Random(99)
    cases = [
        (AbModule([[Series.monomial(HALF, 1, 12), Series.zero(12)],
                   [Series.zero(12), Series.monomial(Scalar(2), 1, 12)]]),
         "DirectSum(1/2, 2)"),
        (make_E_lambda_n(HALF, 2, 12), "SimplePoleJordan(1/2, 2)"),
        (make_E_lambda_mu(HALF, Scalar(Fraction(1, 3)), 12), "NonSplit(1/3, 1/2)"),
        (make_E_lambda_mu(HALF, HALF + ONE, 12), "NonSplit(1/2, 3/2)"),
        (make_E_lambda_mu(HALF + ONE, HALF, 12), "NonSplit(1/2, 3/2)"),
        (make_E_lambda_mu_alpha(HALF, 2, Scalar(3), 14), "NonSplitAlpha(1/2, 2, 3)"),
        (make_E_lambda_n(HALF, 1, 12), "SimplePoleJordan(1/2, 1)"),
    ]
    for module, expected in cases:
        assert str(classify_rank2(module)) == expected
        for _ in range(3):
            changed = _random_base_change(module, rng)
            assert str(classify_rank2(changed)) == expected


def _attempt(f, *args):
    """f(*args), or the type and message of the library error it raises."""
    try:
        return f(*args)
    except AbmodError as exc:
        return (type(exc).__name__, str(exc))


def _classified(module):
    return _attempt(lambda m: str(classify_rank2(m)), module)


def _proportional(x, y) -> bool:
    """Whether the primitive series vectors x and y differ by a nonzero scalar."""
    pivot = next(i for i, c in enumerate(y) if c.valuation() == 0)
    ratio = x[pivot].coefficient(0) / y[pivot].coefficient(0)
    scale = Series.monomial(ratio, 0, y[pivot].precision)
    return all((u - v * scale).is_zero() for u, v in zip(x, y))


@st.composite
def twisted_alpha_modules(draw, top_n=4, low_w=6):
    """E(lam,n;alpha), n = 1..top_n, at a precision from low_w (by default
    the saturation floor) to 24, twisted, maybe dualized, under a sparse
    base change."""
    lam = draw(st.sampled_from(("1/2", "1", "-1/3", "2", "i", "(1/2+i)")))
    n = draw(st.integers(1, top_n))
    alpha = draw(st.sampled_from(("1", "3", "i", "-2", "1/2")))
    w = draw(st.integers(low_w, 24))
    module = twist(from_expression(f"E({lam},{n};{alpha})", w), draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        module = dual(module)
    return base_change(module, draw(base_changes(2, w)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(twisted_alpha_modules())
def test_the_saturation_route_to_the_primitive_eigenvector_matches_the_eb_route(module):
    """On a non-split E# of exponent z the primitive (z+1)-eigenvector read
    off the kernel of a - (z+1)*b on E is proportional to the one read off
    E^b (or neither exists), and classify_rank2 gives the same outcome,
    messages included, either way.  Only the NonSplitAlpha call on E takes
    the E^b route: the split test on the simple-pole E# keeps the kernel,
    as E^b's lift refuses the larger of two exponents of one class."""
    outcome = _classified(module)
    kernel = functors._eigenvector

    def eb_route(m, mu, orders):
        if m.is_simple_pole():
            return kernel(m, mu, orders)
        return eb_primitive_eigen_element(m, mu)

    with mock.patch.object(functors, "_eigenvector", eb_route):
        assert _classified(module) == outcome
    inner = _attempt(lambda m: classify_rank2(saturate(m).saturated), module)
    if isinstance(inner, tuple) or inner.tag != "SimplePoleJordan" or inner.params[1] < 1:
        return
    mu = inner.params[0] + ONE
    new = _attempt(functors._eigenvector, module, mu, module.precision)
    old = _attempt(eb_primitive_eigen_element, module, mu)
    if new is None or old is None or isinstance(new, tuple) or isinstance(old, tuple):
        assert new == old
    else:
        assert _proportional(new, old)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(twisted_alpha_modules(top_n=5, low_w=4))
def test_alpha_read_at_its_level_matches_the_full_precision_route(module):
    """classify_rank2 reads alpha off an eigenvector solved to n + 3 + delta
    orders; solving it, the base change and the unit normalizer to all W
    orders gives the same outcome, error types and messages included."""
    outcome = _classified(module)
    with mock.patch.object(functors, "_alpha_from_presentation", full_precision_alpha):
        assert _classified(module) == outcome


def test_nonsplit_alpha_classification_builds_no_dual_saturation(monkeypatch):
    calls = []

    def spy(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)
        return counted

    monkeypatch.setattr(invariants, "biggest_simple_pole",
                        spy("biggest_simple_pole", invariants.biggest_simple_pole))
    monkeypatch.setattr(functors, "dual", spy("dual", functors.dual))
    module = _random_base_change(make_E_lambda_mu_alpha(HALF, 2, Scalar(3), 14),
                                 random.Random(26))
    assert str(classify_rank2(module)) == "NonSplitAlpha(1/2, 2, 3)"
    assert calls == []


def _abmod_calls(f, *args):
    """f(*args), and the names of the abmod functions it called."""
    called = set()

    def profile(frame, event, arg):
        if event == "call" and "abmod" in frame.f_code.co_filename:
            module = Path(frame.f_code.co_filename).stem
            called.add(f"{module}.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return called


E_B_ROUTE = {"invariants.biggest_simple_pole", "lattice.module_on_lattice",
             "linalg.nullspace"}


@pytest.mark.parametrize("expr, w", [
    ("J(5;0)", 24), ("rand(4;11)", 16), ("E(1/2,2;3)", 16), ("F(4;0;2)", 24),
])
def test_jordan_holder_and_classification_never_build_e_b(expr, w):
    """Both read their primitive eigenvector off the kernel of a - mu*b on
    E: neither builds E^b, a module on a lattice, or a dense nullspace."""
    invariants.biggest_simple_pole.cache_clear()
    module = _random_base_change(from_expression(expr, w), random.Random(34))
    for policy in ("lex", "revlex"):
        called = _abmod_calls(jordan_holder, module, policy)
        assert "functors._eigenvector" in called and not called & E_B_ROUTE
    if module.rank == 2:
        assert not _abmod_calls(classify_rank2, module) & E_B_ROUTE


# -- the split test's level -------------------------------------------------


def _classification_floor(module, expected):
    """The least precision at which classify_rank2 answers on a truncation:
    6 for the saturation, and the eigenvector kernel's certified level
    gap + 2 for the split test on the simple-pole model (E itself, or E#,
    which is one order shorter).  A NonSplitAlpha answer also reads alpha
    off the normalized presentation, which needs max(6, n + 3) + 1."""
    x, y = spectrum(saturate(module).saturated)
    gap = abs(int((x - y).re)) if (x - y).is_integer() else 0
    if expected.startswith("NonSplitAlpha"):
        return max(6, gap + 3) + 1
    return max(6, gap + 2) + (0 if module.is_simple_pole() else 1)


def _assert_truncations_agree(module):
    """Every truncation from the floor to 24 gets the answer of the module
    at its own precision; just below the floor the precision runs out."""
    expected = _classified(module)
    assert not isinstance(expected, tuple), expected
    floor = _classification_floor(module, expected)
    below = _classified(module.at_precision(floor - 1))
    assert below[0] == "PrecisionExhausted", (floor, below)
    for w in range(floor, 25):
        assert _classified(module.at_precision(w)) == expected, (w, expected)


_LAMBDAS = ("1/2", "0", "-1/3", "(1/2+i)")


@pytest.mark.parametrize("lam", _LAMBDAS)
@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_twisted_family_classification_holds_down_to_its_floor(lam, n):
    for alpha in ("3", "-2", "i"):
        _assert_truncations_agree(from_expression(f"E({lam},{n};{alpha})", 60))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    lam=st.sampled_from(_LAMBDAS),
    n=st.sampled_from((1, 2, 3, 5)),
    alpha=st.sampled_from(("3", "-2", "i")),
    k=st.integers(-3, 3),
    dualized=st.booleans(),
    q=base_changes(2, 60),
)
def test_changed_twisted_family_classification_holds_down_to_its_floor(
    lam, n, alpha, k, dualized, q
):
    module = twist(from_expression(f"E({lam},{n};{alpha})", 60), k)
    if dualized:
        module = dual(module)
    _assert_truncations_agree(base_change(module, q))


@pytest.mark.parametrize(
    "exprs",
    [
        [f"E({lam};{n})" for lam in _LAMBDAS for n in (1, 2, 3, 5)],
        ["E(1/2,1/3)", "E(0,5)", "E(1/2,3/2)", "E(1/2,5/2)", "E(0,0)", "E(1,3)"],
        [f"rand(2;{seed})" for seed in range(60)],
    ],
    ids=["E(l;n)", "E(l,m)", "rand"],
)
def test_catalog_classification_holds_down_to_its_floor(exprs):
    for expr in exprs:
        module = from_expression(expr, 60)
        _assert_truncations_agree(module)
        _assert_truncations_agree(dual(module))


def test_split_test_solves_to_the_resonance_order(monkeypatch):
    """The split test is the eigenvector kernel, solved to the resonance
    order gap + 2 and no further: it reads only whether block 0 holds a
    parameter, so a split module stops there as a Jordan one does."""
    levels = []

    class Spy(functors.IntertwinerSystem):
        def solve(self, w=None):
            levels.append(self.w if w is None else w)
            return super().solve(w)

    # the kernel system is built by invariants._eigen_system
    monkeypatch.setattr(invariants, "IntertwinerSystem", Spy)
    rng = random.Random(27)
    for gap in (1, 2, 3, 5):
        jordan = make_E_lambda_n(HALF, gap, 24)
        split = AbModule(
            [
                [Series.monomial(HALF, 1, 24), Series.zero(24)],
                [Series.zero(24), Series.monomial(HALF + Scalar(gap), 1, 24)],
            ]
        )
        for module, tag, solved in ((jordan, "SimplePoleJordan", [gap + 2]),
                                    (split, "DirectSum", [gap + 2])):
            for changed in (module, _random_base_change(module, rng)):
                levels.clear()
                assert classify_rank2(changed).tag == tag
                assert levels == solved


@st.composite
def simple_pole_rank2(draw):
    """A simple-pole rank-2 module whose exponents differ by an integer
    gap >= 1: E(l;n), a split diagonal plus a cocycle c*b^k (resonant when
    k = gap + 1), or the saturation of rand(2;s); maybe dualized, under a
    sparse base change."""
    kind = draw(st.sampled_from(("jordan", "diagonal", "rand")))
    if kind == "jordan":
        lam = draw(st.sampled_from(_LAMBDAS))
        module = from_expression(f"E({lam};{draw(st.integers(1, 7))})", 60)
    elif kind == "diagonal":
        lam = draw(st.sampled_from((HALF, Scalar(0), Scalar(-2), Scalar(0, 1))))
        gap = draw(st.integers(1, 7))
        cocycle = Series.monomial(Scalar(draw(st.integers(-2, 2))),
                                  draw(st.integers(1, gap + 3)), 60)
        module = AbModule([
            [Series.monomial(lam + Scalar(gap), 1, 60), Series.zero(60)],
            [cocycle, Series.monomial(lam, 1, 60)],
        ])
    else:
        seed = draw(st.integers(0, 59))
        module = saturate(from_expression(f"rand(2;{seed})", 60)).saturated
    if draw(st.booleans()):
        module = dual(module)
    x, y = spectrum(module)
    assume((x - y).is_integer() and x != y)
    return base_change(module, draw(base_changes(2, module.precision)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(simple_pole_rank2())
def test_split_test_matches_the_certified_oracle(module):
    """The split test reads the eigenvector kernel at its certified level.
    From the old floor max(6, gap + 3) to 24 it answers as the gap + 3 test
    it replaced (oracles._has_primitive_eigen); at max(6, gap + 2), its own
    floor (the saturation needs 6), it answers as at the full precision."""
    small, big = sorted(spectrum(module), key=Scalar.sort_key)
    gap = int((big - small).re)

    def split(w):
        return functors._eigenvector(module.at_precision(w), big, 0) is not None

    for w in range(max(6, gap + 3), 25):
        old = oracles._has_primitive_eigen(module.at_precision(w), big, gap)
        assert split(w) == old, w
    assert split(max(6, gap + 2)) == split(module.precision)
