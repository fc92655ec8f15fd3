"""Duality, twists, Hom/Ext, eigenvector lifting, Jordan-Hoelder, rank-2 forms."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abmod import (
    AbModule,
    Element,
    HypothesisViolated,
    NotEigen,
    Scalar,
    Series,
    alpha_invariant,
    apply_a,
    apply_b,
    base_change,
    classify_rank2,
    dual,
    eigen_lift,
    ext_dims,
    from_expression,
    hom_ab,
    jordan_holder,
    make_E_lambda,
    make_E_lambda_mu,
    make_E_lambda_mu_alpha,
    make_E_lambda_n,
    make_J_k,
    module_iso,
    quotient_by_rank1,
    random_regular,
    truncate,
    twist,
)
from abmod.linalg import mat_mul
from abmod.scalars import ONE

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mat_sub  # noqa: E402

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
    seed = m.basis_element(1)
    x = eigen_lift(m, Scalar(Fraction(1, 3)), seed, 0)
    lhs = apply_a(m, x)
    rhs = apply_b(m, x) * Scalar(Fraction(1, 3))
    assert (lhs - rhs).is_zero()


def test_eigen_lift_guards_class_gap():
    m = _sum_with_cocycle(HALF, HALF + Scalar(2), 3, 12)
    with pytest.raises(HypothesisViolated):
        eigen_lift(m, HALF + Scalar(2), m.basis_element(1), 1)


def test_quotient_by_rank1():
    lam, mu = HALF, Scalar(Fraction(1, 3))
    m = make_E_lambda_mu(lam, mu, 12)        # a y = mu b y, a t = y + (lam-1) b t
    q = quotient_by_rank1(m, m.basis_element(0))
    assert q.rank == 1
    assert q.matrix[0][0] == Series.monomial(lam - ONE, 1, 12)
    with pytest.raises(NotEigen):
        quotient_by_rank1(m, m.basis_element(1))


# -- Jordan-Hoelder ----------------------------------------------------------


def test_jh_J3_golden():
    seq = jordan_holder(make_J_k(Scalar(1), 3, 14))
    assert [str(e) for e in seq.exponents] == ["3", "2", "1"]
    assert len(seq.filtration) == 3
    assert seq.filtration[0].rank == 1 and seq.filtration[2].rank == 3


def test_jh_sum_matches_alpha_across_policies():
    for expr in ["J(3;1)", "E(1/2,1/3)", "rand(3;61)", "rand(4;62)"]:
        m = from_expression(expr, 16)
        total = alpha_invariant(m)
        for policy in ("lex", "revlex"):
            seq = jordan_holder(m, policy=policy)
            assert seq.exponent_sum() == total, (expr, policy)


def test_jh_filtration_is_nested():
    m = from_expression("rand(3;63)", 14)
    seq = jordan_holder(m)
    for small, large in zip(seq.filtration, seq.filtration[1:]):
        for gen in small.gens:
            assert large.contains_column(list(gen), shift=small.shift)


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


def test_classify_rejects_wrong_rank():
    from abmod import BadParameter
    with pytest.raises(BadParameter):
        classify_rank2(from_expression("E(1/2)", 12))


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
