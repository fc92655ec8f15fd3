"""Canonical lattices: echelon generating systems of C[[b]]-submodules."""

import sys
from pathlib import Path

import pytest

from abmod import (
    BadParameter,
    NotAStable,
    PrecisionExhausted,
    Scalar,
    Series,
    from_expression,
    lattice_from_columns,
    module_on_lattice,
    standard_lattice,
)

sys.path.insert(0, str(Path(__file__).parent))

from oracles import lattice_sum, scaled_by_b  # noqa: E402

W = 8


def col(*entries):
    return [Series([Scalar.of(c) for c in e], W) for e in entries]


def test_same_submodule_same_canonical_form():
    eye = lattice_from_columns(2, [col([1], [0]), col([0], [1])])
    # (1+b, b) and (b, 1) generate the same C[[b]]-module: the change of
    # basis matrix has unit determinant (1+b) - b^2
    other = lattice_from_columns(2, [col([1, 1], [0, 1]), col([0, 1], [1])])
    assert eye == other
    assert eye.pivots == other.pivots


def test_pivot_valuations():
    lat = lattice_from_columns(2, [col([0, 0, 3], [0]), col([0], [0, 2])])
    assert sorted(v for _, v in lat.pivots) == [1, 2]


def test_membership():
    lat = lattice_from_columns(2, [col([0, 1], [0]), col([0], [1])])  # <b e1, e2>
    assert lat.contains_column(col([0, 0, 5], [1]))        # b^2*5 e1 + e2
    assert not lat.contains_column(col([1], [0]))          # e1 itself


def test_a_column_whose_length_is_not_the_rank_is_refused():
    lat = lattice_from_columns(2, [col([0, 1], [0]), col([0], [1])])
    for wrong in (col([1]), col([0, 1], [0], [1])):
        with pytest.raises(BadParameter, match="is not the rank 2"):
            lat.contains_column(wrong)
        with pytest.raises(BadParameter,
                           match=f"^column length {len(wrong)} is not the rank 2$"):
            lattice_from_columns(2, [col([1], [0]), wrong])


def test_a_column_entry_that_is_not_a_series_is_refused():
    with pytest.raises(BadParameter, match="^column entries must be Series$"):
        lattice_from_columns(2, [[1, 0]])
    lat = standard_lattice(from_expression("J(2;0)", W))
    with pytest.raises(BadParameter, match="^column entries must be Series$"):
        lat.contains_column([1, 0])


def test_scaled_and_shifted_frames():
    lat = lattice_from_columns(2, [col([1], [0]), col([0], [1])])
    up = scaled_by_b(lat, 1)
    assert up.contains_column(col([0, 1], [0]))
    assert not up.contains_column(col([1], [0]))
    down = scaled_by_b(lat, -1)      # b^{-1} L, presented with shift 1
    assert down.shift == 1
    assert down.contains_column(col([1], [0]))


def test_shallow_pivot_rejected():
    deep = [Series([Scalar(0)] * (W - 1) + [Scalar(1)], W)]
    with pytest.raises(PrecisionExhausted):
        lattice_from_columns(1, [deep])


def test_module_on_standard_lattice_is_identity():
    m = from_expression("J(2;1)", W)
    again = module_on_lattice(m, standard_lattice(m))
    assert all(
        again.matrix[i][j] == m.matrix[i][j].at_precision(again.precision)
        for i in range(2) for j in range(2)
    )


def test_module_on_scaled_lattice_twists_by_b():
    # On the basis b e_i the action of a picks up +b on the diagonal
    m = from_expression("E(1/2,1/3)", W)
    lat = scaled_by_b(standard_lattice(m), 1)
    scaled = module_on_lattice(m, lat)
    shift = Series.b(scaled.precision)
    for i in range(2):
        for j in range(2):
            expected = m.matrix[i][j].at_precision(scaled.precision)
            if i == j:
                expected = expected + shift
            assert scaled.matrix[i][j] == expected


def test_non_stable_lattice_rejected():
    m = from_expression("E(0,1)", W)    # a e2 = e1 - b e2
    lat = lattice_from_columns(2, [col([0, 1], [0]), col([0], [1])])
    with pytest.raises(NotAStable):
        module_on_lattice(m, lat)


def test_a_lattice_that_is_not_full_rank_has_no_module():
    m = from_expression("E(1/2;1)", W)
    line = lattice_from_columns(2, [[Series.one(W), Series.zero(W)]])
    with pytest.raises(BadParameter, match="^module_on_lattice needs a full-rank lattice$"):
        module_on_lattice(m, line)


def test_a_lattice_frame_only_deepens():
    lat = standard_lattice(from_expression("E(1/2;1)", W))
    assert lat.at_shift(2).shift == 2
    with pytest.raises(BadParameter,
                       match="^cannot shallow a lattice frame; shifts only grow$"):
        lat.at_shift(-1)


def test_lattice_sum():
    a = lattice_from_columns(2, [col([0, 1], [0]), col([0], [1])])
    b = lattice_from_columns(2, [col([1], [0]), col([0], [0, 1])])
    total = lattice_sum(a, b)
    assert total == lattice_from_columns(2, [col([1], [0]), col([0], [1])])
