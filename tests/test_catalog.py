"""Catalog constructors: golden matrices, validation, expression parsing."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abmod import (
    AbModule,
    AbmodError,
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
from abmod.textio import MAX_FILE_RANK, MAX_PRECISION, emit_module_file

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


@pytest.mark.parametrize("expression, what, value", [
    ("J(1/2;0)", "k", "1/2"), ("F(5/2;0;1)", "k", "5/2"), ("E(0;3/2)", "n", "3/2"),
    ("E(0,-1/2;1)", "n", "-1/2"), ("rand(1/3;1)", "rank", "1/3"), ("rand(2;i)", "seed", "i"),
])
def test_a_non_integer_argument_has_the_one_integer_refusal(expression, what, value):
    with pytest.raises(BadParameter, match=rf"^{what} must be an integer, not '{value}'$"):
        from_expression(expression, 8)


class NoSeries:
    def __getattr__(self, name):
        raise AssertionError("an entry was built above the rank ceiling")


def test_expression_rank_ceiling(monkeypatch):
    monkeypatch.setattr(catalog, "Series", NoSeries())
    k = MAX_FILE_RANK + 1
    for expr in (f"J({k};0)", f"F({k};0;1)", f"rand({k};1)"):
        with pytest.raises(BadParameter, match=f"must be at most {MAX_FILE_RANK}, got {k}"):
            from_expression(expr, 8)


def test_constructors_check_the_rank_as_expressions_do(monkeypatch):
    """make_J_k, make_F_rho and random_regular refuse a rank above the
    ceiling with from_expression's message, before any entry is built."""
    monkeypatch.setattr(catalog, "Series", NoSeries())
    k = MAX_FILE_RANK + 1
    for what, build in (("k", lambda: make_J_k(0, k, 10)),
                        ("k", lambda: make_F_rho(0, k, 2, 10)),
                        ("rank", lambda: random_regular(k, 1, 10)),
                        ("rank", lambda: random_regular(10**4, 1, 10))):
        with pytest.raises(BadParameter,
                           match=f"^{what} must be at most {MAX_FILE_RANK}, got [0-9]+$"):
            build()


def test_expression_precision_ceiling(monkeypatch):
    assert from_expression("E(1/2)", MAX_PRECISION).precision == MAX_PRECISION

    def never(*args):
        raise AssertionError("a module was built above the precision ceiling")

    for name in ("make_E_lambda", "make_E_lambda_n", "make_E_lambda_mu",
                 "make_E_lambda_mu_alpha", "make_J_k", "make_F_rho", "random_regular"):
        monkeypatch.setattr(catalog, name, never)
    above = MAX_PRECISION + 1
    for expr in ("E(1/2)", "J(3;0)", "F(3;0;2)", "rand(2;5)"):
        with pytest.raises(BadParameter, match=f"must be at most {MAX_PRECISION}, got {above}"):
            from_expression(expr, above)


def test_expression_precision_floor(monkeypatch):
    def never(*args):
        raise AssertionError("a module was built below precision 1")

    for name in ("make_E_lambda", "make_J_k", "random_regular"):
        monkeypatch.setattr(catalog, name, never)
    for precision in (0, -1):
        for expr in ("E(1/2)", "J(3;0)", "rand(2;5)"):
            with pytest.raises(BadParameter,
                               match=f"precision must be at least 1, got {precision}"):
                from_expression(expr, precision)


CONSTRUCTORS = [
    ("make_E_lambda", lambda w: make_E_lambda(HALF, w)),
    ("make_E_lambda_n", lambda w: make_E_lambda_n(HALF, 2, w)),
    ("make_E_lambda_mu", lambda w: make_E_lambda_mu(HALF, THIRD, w)),
    ("make_E_lambda_mu_alpha", lambda w: make_E_lambda_mu_alpha(HALF, 2, 3, w)),
    ("make_J_k", lambda w: make_J_k(0, 2, w)),
    ("make_F_rho", lambda w: make_F_rho(0, 3, 2, w)),
    ("random_regular", lambda w: random_regular(2, 1, w)),
]


@pytest.mark.parametrize("name,build", CONSTRUCTORS, ids=[n for n, _ in CONSTRUCTORS])
def test_constructors_check_the_precision_as_expressions_do(monkeypatch, name, build):
    """Every public constructor refuses what from_expression refuses, with
    the same BadParameter message, before a module is built."""
    assert build(MAX_PRECISION).precision == MAX_PRECISION

    def never(*args):
        raise AssertionError(f"{name} built a module outside the precision range")

    monkeypatch.setattr(catalog, "AbModule", never)
    for precision, message in ((-1, "precision must be at least 1, got -1"),
                               (0, "precision must be at least 1, got 0"),
                               (MAX_PRECISION + 1,
                                f"precision must be at most {MAX_PRECISION}, "
                                f"got {MAX_PRECISION + 1}")):
        with pytest.raises(BadParameter, match=message):
            build(precision)


# -- mutated expressions ------------------------------------------------------

MUTATION_SOURCES = ["E(1/2)", "E(-1/3;2)", "E(1/2,1/3)", "E(1/3,2;(1+i))", "E((3+i))",
                    "J(3;1)", "J(2;-1/2)", "F(3;0;1/2)", "rand(2;5)", "rand(3;1000)"]
# the characters of the catalog syntax
ALPHABET = "".join(sorted(set("".join(MUTATION_SOURCES))))


@st.composite
def mutated_expressions(draw):
    text = draw(st.sampled_from(MUTATION_SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos + 1:]
    return text


def test_mutated_expressions_give_a_module_or_a_typed_error(monkeypatch):
    # A rank above 8 meets the rank ceiling, so no draw builds a big module.
    monkeypatch.setattr(catalog, "MAX_FILE_RANK", 8)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(mutated_expressions())
    def check(text):
        try:
            module = from_expression(text, 8)
        except AbmodError:
            return
        assert isinstance(module, AbModule)

    check()


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


def test_random_simple_pole_at_precision_1():
    # no cocycle order lies in [1, precision - 1] at precision 1
    for rank in (1, 2, 3, 4):
        for seed in range(8):
            m = random_regular(rank, seed, 1, simple_pole=True)
            assert (m.rank, m.precision) == (rank, 1)
            assert m.is_simple_pole()


def test_random_regular_draws_are_pinned():
    # The same seed gives the same module text from one release to the next.
    text = "".join(
        emit_module_file(random_regular(rank, seed, w, simple_pole=simple))
        for w in (2, 12, 24) for rank in (2, 3, 4) for seed in (1, 7, 1001)
        for simple in (False, True)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f4b89d145dbdfdff757abe7f1ff2634553739855b563b895bcd0c72df3b9e622"
    )
