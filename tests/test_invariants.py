"""Saturation, regularity, spectrum, width, alpha, and effective bounds."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abmod import (
    AbModule,
    NotSimplePole,
    Scalar,
    Series,
    alpha_invariant,
    biggest_simple_pole,
    delta_index,
    dual,
    from_expression,
    is_geometric,
    is_regular,
    make_E_lambda_mu,
    make_E_lambda_n,
    make_J_k,
    n0_bound,
    n_lambda,
    random_regular,
    regularity_order,
    saturate,
    spectrum,
    width_table,
)
from abmod.scalars import ONE

sys.path.insert(0, str(Path(__file__).parent))

from oracles import unit_element  # noqa: E402

HALF = Scalar(Fraction(1, 2))
THIRD = Scalar(Fraction(1, 3))


def _rank3_two_step():
    """a e1 = e2, a e2 = b e3, a e3 = 0: index 1 but regularity order 2."""
    W = 14
    Z = Series.zero(W)
    one = Series.one(W)
    b = Series.b(W)
    return AbModule([[Z, Z, Z], [one, Z, Z], [Z, b, Z]])


# -- regularity and saturation ----------------------------------------------


def test_regularity_detection():
    assert is_regular(from_expression("J(3;0)", 12))
    non_regular = AbModule([[Series.one(8)]])      # a e = e
    assert not is_regular(non_regular)


def test_saturate_J_k():
    for k in range(1, 5):
        m = make_J_k(Scalar(1), k, 4 * k + 6)
        sat = saturate(m)
        assert delta_index(m) == k - 1
        assert sat.steps == k - 1
        assert sat.saturated.is_simple_pole()
        assert spectrum(sat.saturated) == [Scalar(1)] * k


def test_saturate_idempotent():
    m = from_expression("E(1/2,1/3)", 12)
    sat = saturate(m).saturated
    assert delta_index(sat) == 0
    assert saturate(sat).steps == 0


def test_saturation_step_reduces_the_image_against_the_lattice():
    # a e = b^11 e at precision 12: b^{-1} a e = b^10 e lies in E, so E is
    # its own saturation, although the image alone has its pivot at the
    # precision horizon (b^11 in the b^{-1} frame at precision 12).
    m = AbModule([[Series.monomial(ONE, 11, 12)]])
    sat = saturate(m)
    assert sat.steps == 0 and sat.saturated == m


def test_index_versus_order_can_differ():
    m = _rank3_two_step()
    assert delta_index(m) == 1
    assert regularity_order(m) == 2
    assert regularity_order(dual(m)) == 1
    assert delta_index(dual(m)) == 1     # the index is self-dual


# -- spectrum ----------------------------------------------------------------


def test_spectrum_needs_simple_pole():
    with pytest.raises(NotSimplePole):
        spectrum(from_expression("E(0,1)", 8))


def test_spectrum_of_simple_pole_families():
    m = make_E_lambda_n(HALF, 2, 8)
    assert spectrum(m) == sorted([HALF, HALF + Scalar(2)], key=Scalar.sort_key)


def test_spectrum_duality_negates():
    for expr in ["E(1/2;1)", "E(2;0)", "rand(3;31)", "rand(4;77)"]:
        m = from_expression(expr, 14)
        sat = saturate(m).saturated
        left = spectrum(saturate(dual(sat)).saturated)
        right = sorted([-s for s in spectrum(sat)], key=Scalar.sort_key)
        assert left == right


# -- width -------------------------------------------------------------------


def test_width_J_k():
    for k in range(1, 6):
        m = make_J_k(Scalar(0), k, 4 * k + 6)
        assert width_table(m).width == -k + 1


def test_width_direct_sum_is_gap():
    for n in range(0, 3):
        W = 12
        Z = Series.zero(W)
        m = AbModule(
            [
                [Series.monomial(HALF, 1, W), Z],
                [Z, Series.monomial(HALF + Scalar(n), 1, W)],
            ]
        )
        assert width_table(m).width == n


def test_width_non_split_rank2():
    # non-integer gap and equal parameters give -1; integer gap d gives d-1
    assert width_table(make_E_lambda_mu(HALF, THIRD, 12)).width == -1
    assert width_table(make_E_lambda_mu(Scalar(2), Scalar(2), 12)).width == -1
    assert width_table(make_E_lambda_mu(HALF, HALF + Scalar(1), 12)).width == 0
    assert width_table(make_E_lambda_mu(THIRD, THIRD + Scalar(2), 12)).width == 1


def test_width_simple_pole_nonnegative():
    for expr in ["E(1;2)", "E(0)", "rand(2;9)", "rand(3;15)"]:
        m = from_expression(expr, 12)
        sat = saturate(m).saturated
        assert width_table(sat).width >= 0


def test_width_table_classes():
    table = width_table(make_E_lambda_n(HALF, 2, 10))
    assert len(table.classes) == 1
    (rep, (lo, hi, gap)), = table.classes.items()
    assert lo == HALF and hi == HALF + Scalar(2) and gap == 2


# -- alpha and geometric -----------------------------------------------------


def test_alpha_goldens():
    assert alpha_invariant(make_J_k(Scalar(1), 3, 14)) == Scalar(6)       # 3+2+1
    assert alpha_invariant(make_E_lambda_mu(HALF, THIRD, 12)) == HALF + THIRD - Scalar(1)
    assert alpha_invariant(make_E_lambda_n(HALF, 1, 10)) == Scalar(2)     # 1/2 + 3/2


def test_module_lies_in_its_saturation():
    # alpha_invariant reads dim(E#/E) off E#'s pivots, which counts it only
    # when every standard generator of E lies in E#
    exprs = ["E(1/2)", "E(1/2;2)", "E(1/2,1/3)", "E(2,2)", "E(1/2,2;3)",
             "E(1/2,1;1)", "J(3;1)", "J(4;0)", "F(3;0;1/2)", "F(4;0;2)"]
    exprs += [f"rand({rank};{seed})" for rank in range(1, 6) for seed in range(3)]
    for expr in exprs:
        m = from_expression(expr, 16)
        lat = saturate(m).lattice
        for i in range(m.rank):
            assert lat.contains_column(unit_element(m, i).coords), (expr, i)
            # E# lies in the b^{-K} frame, so b^{-K-1} e_i falls outside
            outside = unit_element(m, i).coords
            assert not lat.contains_column(outside, lat.shift + 1), (expr, i)


def test_is_geometric():
    assert is_geometric(from_expression("E(1/2;1)", 10))
    assert not is_geometric(from_expression("E(-1)", 10))
    assert not is_geometric(from_expression("E(i)", 10))


# -- biggest simple-pole submodule ------------------------------------------


def test_eb_of_simple_pole_is_identity():
    m = from_expression("E(1;1)", 10)
    sub, lat = biggest_simple_pole(m)
    assert sum(v for _, v in lat.pivots) == 0
    assert all(
        sub.matrix[i][j] == m.matrix[i][j].at_precision(sub.precision)
        for i in range(2) for j in range(2)
    )


def test_eb_of_non_split_rank2_is_b_times_saturation():
    # For these modules the biggest simple-pole submodule is b * saturation,
    # so its matrix is the saturation matrix plus b on the diagonal.
    for expr in ["E(1/2,1/3)", "E(2,2)", "E(1/2,1;1)"]:
        m = from_expression(expr, 12)
        sub, _ = biggest_simple_pole(m)
        sat = saturate(m).saturated
        shift = Series.b(sub.precision)
        for i in range(2):
            for j in range(2):
                expected = sat.matrix[i][j].at_precision(sub.precision)
                if i == j:
                    expected = expected + shift
                assert sub.matrix[i][j] == expected


# -- effective bounds --------------------------------------------------------


def test_n_lambda_rank1():
    E = from_expression("E(1/2)", 12)
    assert n_lambda(E, HALF) == 2                       # image of (a - l b) is b^2 C[[b]]
    assert n_lambda(E, THIRD) == 1                      # non-integer shift: unit action
    assert n_lambda(E, HALF + Scalar(2)) == 4           # obstruction at the integer gap


def test_n0_goldens():
    for k in range(1, 6):
        assert n0_bound(make_J_k(Scalar(0), k, 4 * k + 6)) == k + 1
    assert n0_bound(from_expression("E(3/4)", 8)) == 2
    assert n0_bound(make_E_lambda_mu(HALF, THIRD, 12)) == 3
    assert n0_bound(make_E_lambda_mu(Scalar(1), Scalar(1), 12)) == 3
    assert n0_bound(make_E_lambda_n(Scalar(1), 0, 10)) == 3
    assert n0_bound(_rank3_two_step()) == 6


def test_order_bounded_by_rank_on_randoms():
    for seed in range(40, 52):
        m = random_regular(3, seed, 14)
        assert is_regular(m)
        assert regularity_order(m) <= m.rank - 1
        assert delta_index(m) <= regularity_order(m)
