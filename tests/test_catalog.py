"""Catalog constructors: golden matrices, validation, expression parsing."""

from fractions import Fraction

import pytest

from abmod import (
    BadParameter,
    ParseError,
    Scalar,
    Series,
    from_expression,
    is_regular,
    make_E_lambda,
    make_E_lambda_mu,
    make_E_lambda_mu_alpha,
    make_E_lambda_n,
    make_F_rho,
    make_J_k,
    random_regular,
    regularity_order,
)
from abmod import catalog
from abmod.scalars import ONE
from abmod.textio import MAX_FILE_RANK

HALF = Scalar(Fraction(1, 2))
THIRD = Scalar(Fraction(1, 3))


# -- golden structure matrices ----------------------------------------------


def test_E_lambda_matrix():
    m = make_E_lambda(HALF, 8)
    assert m.rank == 1
    assert m.matrix[0][0] == Series.monomial(HALF, 1, 8)


def test_E_lambda_n_matrix():
    # a e1 = (lam+n) b e1 + b^(n+1) e2,  a e2 = lam b e2.
    m = make_E_lambda_n(HALF, 2, 8)
    assert m.rank == 2
    assert m.matrix[0][0] == Series.monomial(HALF + Scalar(2), 1, 8)
    assert m.matrix[1][0] == Series.monomial(ONE, 3, 8)
    assert m.matrix[0][1].is_zero()
    assert m.matrix[1][1] == Series.monomial(HALF, 1, 8)


def test_E_lambda_mu_matrix():
    m = make_E_lambda_mu(HALF, THIRD, 8)
    assert m.matrix[0][0] == Series.monomial(THIRD, 1, 8)
    assert m.matrix[0][1] == Series.one(8)
    assert m.matrix[1][0].is_zero()
    assert m.matrix[1][1] == Series.monomial(HALF - ONE, 1, 8)


def test_E_lambda_mu_alpha_matrix():
    m = make_E_lambda_mu_alpha(HALF, 2, Scalar(3), 8)
    assert m.matrix[0][0] == Series.monomial(HALF - Scalar(2), 1, 8)
    assert m.matrix[0][1] == Series.one(8) + Series.monomial(Scalar(3), 2, 8)
    assert m.matrix[1][1] == Series.monomial(HALF - ONE, 1, 8)


def test_J_k_matrix():
    # a e_j = (lam+j-1) b e_j + e_(j+1), with a e_k = (lam+k-1) b e_k.
    lam = Scalar(1)
    m = make_J_k(lam, 3, 8)
    for j in range(3):
        assert m.matrix[j][j] == Series.monomial(lam + Scalar(j), 1, 8)
    assert m.matrix[1][0] == Series.one(8)
    assert m.matrix[2][1] == Series.one(8)
    assert m.matrix[0][2].is_zero() and m.matrix[2][0].is_zero()


def test_F_rho_matrix():
    # Same matrix as J_k(lam) plus the corner term rho^k b^k.
    m = make_F_rho(Scalar(0), 3, HALF, 8)
    base = make_J_k(Scalar(0), 3, 8)
    corner = Series.monomial(HALF * HALF * HALF, 3, 8)
    assert m.matrix[0][2] == base.matrix[0][2] + corner
    for i in range(3):
        for j in range(3):
            if (i, j) != (0, 2):
                assert m.matrix[i][j] == base.matrix[i][j]


# -- validation --------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(BadParameter):
        make_E_lambda_n(HALF, -1, 8)
    with pytest.raises(BadParameter):
        make_E_lambda_mu_alpha(HALF, 0, Scalar(1), 8)
    with pytest.raises(BadParameter):
        make_E_lambda_mu_alpha(HALF, 2, Scalar(0), 8)
    with pytest.raises(BadParameter):
        make_J_k(HALF, 0, 8)
    with pytest.raises(BadParameter):
        make_F_rho(HALF, 1, ONE, 8)
    with pytest.raises(BadParameter):
        make_F_rho(HALF, 2, Scalar(0), 8)
    with pytest.raises(BadParameter):
        random_regular(0, 1, 8)


# -- expression parsing -------------------------------------------------------


def test_expression_shapes():
    assert from_expression("E(1/2)", 8) == make_E_lambda(HALF, 8)
    assert from_expression("E(1/2;2)", 8) == make_E_lambda_n(HALF, 2, 8)
    assert from_expression("E(1/2,1/3)", 8) == make_E_lambda_mu(HALF, THIRD, 8)
    assert from_expression("E(1/2,2;3)", 8) == make_E_lambda_mu_alpha(
        HALF, 2, Scalar(3), 8
    )
    assert from_expression("J(3;1)", 8) == make_J_k(Scalar(1), 3, 8)
    assert from_expression("F(3;0;1/2)", 8) == make_F_rho(Scalar(0), 3, HALF, 8)
    assert from_expression("rand(2;5)", 8) == random_regular(2, 5, 8)


def test_expression_complex_parameter():
    m = from_expression("E((3+i))", 8)
    assert m.matrix[0][0] == Series.monomial(Scalar(3, 1), 1, 8)


def test_expression_errors():
    for bad in ["Q(1)", "E()", "E(1,2,3)", "J(2)", "J(x;1)", "rand(2)", "E(1/2", ""]:
        with pytest.raises(ParseError):
            from_expression(bad, 8)
    with pytest.raises(BadParameter):
        from_expression("J(0;1)", 8)


def test_expression_rank_ceiling(monkeypatch):
    def never(*args):
        raise AssertionError("a module was built above the rank ceiling")

    for name in ("make_J_k", "make_F_rho", "random_regular"):
        monkeypatch.setattr(catalog, name, never)
    k = MAX_FILE_RANK + 1
    for expr in (f"J({k};0)", f"F({k};0;1)", f"rand({k};1)"):
        with pytest.raises(BadParameter, match=f"{k} exceeds the rank ceiling"):
            from_expression(expr, 8)


# -- random catalog ----------------------------------------------------------


def test_random_regular_deterministic():
    a = random_regular(3, 17, 10)
    b = random_regular(3, 17, 10)
    assert a == b
    c = random_regular(3, 18, 10)
    assert a != c


def test_random_regular_is_regular_with_bounded_order():
    for rank in (1, 2, 3, 4):
        for seed in (1, 2, 3):
            m = random_regular(rank, seed, 12)
            assert is_regular(m)
            assert regularity_order(m) <= rank - 1


def test_random_simple_pole_flag():
    m = random_regular(3, 4, 10, simple_pole=True)
    assert m.is_simple_pole()
