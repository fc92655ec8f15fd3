"""Structure matrices, elements, and the defining commutation relation."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abmod import (
    AbModule,
    BadParameter,
    Element,
    Scalar,
    Series,
    base_change,
    from_expression,
)
from abmod.seriesmat import a_image, col_shift_up

sys.path.insert(0, str(Path(__file__).parent))

from oracles import unit_element  # noqa: E402


def _mk(rows, precision):
    return AbModule(
        [[Series([Scalar.of(c) for c in e], precision) for e in row] for row in rows]
    )


def test_construction_validates_shape():
    with pytest.raises(BadParameter):
        AbModule([[Series.zero(4)], [Series.zero(4)]])  # not square


def test_rank_precision_residue():
    m = _mk([[[0, Fraction(1, 2)], [1]], [[0], [0, 2]]], 6)
    assert m.rank == 2 and m.precision == 6
    res = m.residue_matrix()
    assert res[0][0] == Scalar(Fraction(1, 2)) and res[1][1] == Scalar(2)


def test_simple_pole_detection():
    assert _mk([[[0, 1]]], 4).is_simple_pole()          # a e = b e
    assert not _mk([[[1]]], 4).is_simple_pole()          # a e = e
    assert from_expression("E(1/2;1)", 6).is_simple_pole()
    assert not from_expression("E(0,1)", 6).is_simple_pole()


def test_at_precision():
    m = from_expression("J(2;0)", 10)
    t = m.at_precision(4)
    assert t.precision == 4
    assert t.matrix[0][0] == m.matrix[0][0].at_precision(4)


def test_commutation_relation_on_elements():
    # a(b x) - b(a x) = b^2 x for every basis element of every test module,
    # on its coordinate column
    mods = [
        from_expression("J(3;1)", 10),
        from_expression("E(1/2,1/3)", 10),
        from_expression("rand(3;21)", 10),
    ]
    for m in mods:
        for idx in range(m.rank):
            x = list(unit_element(m, idx).coords)
            abx = a_image(m.matrix, [col_shift_up(x, 1)])[0]
            bax = col_shift_up(a_image(m.matrix, [x])[0], 1)
            rhs = col_shift_up(x, 2)
            assert all((u - v - r).is_zero() for u, v, r in zip(abx, bax, rhs))


@pytest.mark.parametrize("shift", [0, 1, 3])
def test_a_image_of_columns_above_the_module_precision(shift):
    # The image is known only to the module precision; coefficients of the
    # columns beyond it must not change the result.
    module = from_expression("rand(3;1000)", 6)
    cols = [
        [Series([Scalar(Fraction(i + j + k, 1 + k), k - i) for k in range(11)], 11)
         for i in range(3)]
        for j in range(3)
    ]
    cut = [[entry.at_precision(6) for entry in col] for col in cols]
    images = a_image(module.matrix, cols, shift)
    assert images == a_image(module.matrix, cut, shift)
    assert {entry.precision for col in images for entry in col} == {6}


@pytest.mark.parametrize("length", [1, 3])
def test_a_image_refuses_a_column_whose_length_is_not_the_rank(length):
    module = from_expression("E(1/2;1)", 8)
    with pytest.raises(BadParameter, match=f"column length {length} is not the rank 2"):
        a_image(module.matrix, [[Series.one(8)] * length])


@pytest.mark.parametrize("build, message", [
    (lambda: AbModule([[1]]), "structure matrix entries must be Series"),
    (lambda: AbModule(None), "structure matrix entries must be Series"),
    (lambda: Element([1]), "element coordinates must be Series"),
    (lambda: base_change(from_expression("J(2;0)", 8), [[1, 0], [0, 1]]),
     "base change entries must be Series"),
], ids=["AbModule", "AbModule-None", "Element", "base_change"])
def test_an_entry_that_is_not_a_series_is_a_bad_parameter(build, message):
    with pytest.raises(BadParameter, match=f"^{message}$"):
        build()


def test_a_frame_shift_is_an_integer():
    x = Element([Series.one(4)], 1)
    with pytest.raises(BadParameter, match="^the frame shift must be an integer, not 1.5$"):
        x.in_frame(1.5)
    with pytest.raises(BadParameter, match="^the frame shift must be an integer, not True$"):
        x.in_frame(True)
    assert x.in_frame(2) == [Series.monomial(1, 1, 5)]


def _b_series(terms, precision):
    """The series sum c b^k over the (k, c) pairs, at the given precision."""
    out = Series.zero(precision)
    for k, c in terms:
        out = out + Series.monomial(Scalar.of(c), k, precision)
    return out


def test_element_normalize_cancels_the_common_b_power():
    from abmod import PrecisionExhausted

    # visible entries of valuations 2 and 3 and an invisible one, shift 4:
    # b^2 cancels and the invisible entry stays zero at the new precision
    x = Element(
        [_b_series([(2, 1), (3, 5)], 6), _b_series([(3, Fraction(1, 2))], 6),
         Series.zero(6)],
        4,
    )
    z = x.normalize()
    assert z.shift == 2 and z.precision == 4
    assert z.coords == (
        _b_series([(0, 1), (1, 5)], 4),
        _b_series([(1, Fraction(1, 2))], 4),
        Series.zero(4),
    )
    assert z == x
    # the shift bounds the cancelled power
    y = Element([_b_series([(3, 1)], 8), _b_series([(5, 2)], 8)], 2)
    assert y.normalize().shift == 0
    assert y.normalize().coords == (_b_series([(1, 1)], 6), _b_series([(3, 2)], 6))
    # nothing to cancel: the element itself comes back
    unit = Element([Series.one(5), _b_series([(2, 1)], 5)], 3)
    assert unit.normalize() is unit
    origin = Element([_b_series([(2, 1)], 5)], 0)
    assert origin.normalize() is origin
    # only invisible entries: the whole shift cancels while it fits
    zero = Element([Series.zero(6), Series.zero(6)], 3).normalize()
    assert zero.shift == 0 and zero.coords == (Series.zero(3), Series.zero(3))
    # ... and a shift above the precision is refused
    with pytest.raises(PrecisionExhausted,
                       match=r"^dividing by b\^5 needs precision >= 5, have 2$"):
        Element([Series.zero(2), Series.zero(2)], 5).normalize()


def test_element_repr_and_zero_test():
    s = Series([Scalar(1), Scalar(0), Scalar(-2)], 5)
    e = Element([s, Series.b(5)])
    assert repr(e) == "Element([1 - 2*b^2, b])"
    assert repr(Element([s], 2)) == "Element(b^-2 * [1 - 2*b^2])"
    assert not e.is_zero() and not Element([Series.zero(5), Series.b(5)]).is_zero()
    assert Element([Series.zero(4), Series.zero(4)], 1).is_zero()


def test_element_refuses_bad_input_with_a_typed_error():
    with pytest.raises(BadParameter, match="at least one coordinate"):
        Element([], 0)
    with pytest.raises(BadParameter, match="shift must be at least 0, got -1"):
        Element([Series.one(4)], -1)
    x = Element([Series.one(4), _b_series([(1, 2)], 4)], 2)
    assert x.in_frame(3) == [_b_series([(1, 1)], 5), _b_series([(2, 2)], 5)]
    with pytest.raises(BadParameter, match=r"from b\^-2 to b\^-1 without dividing"):
        x.in_frame(1)
