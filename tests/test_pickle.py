"""The immutable value types and result records survive ``pickle`` and
``copy.deepcopy``."""

import copy
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abmod import (
    AbModule,
    Element,
    Intertwiner,
    Lattice,
    Rank2NormalForm,
    SaturationResult,
    Scalar,
    Series,
    WidthTable,
    classify_rank2,
    from_expression,
    identity_truncation_iso,
    jordan_holder,
    saturate,
    truncate,
    width_table,
)
from abmod.seriesmat import a_image

sys.path.insert(0, str(Path(__file__).parent))

from oracles import unit_element  # noqa: E402

CATALOG = ["E(1/2)", "E(1/2;2)", "E(1/2,1/3)", "J(3;0)", "F(3;1/2;1/2)", "rand(3;7)"]


def _round_trips(x):
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x
    assert copy.copy(x) == x


@pytest.mark.parametrize(
    "s",
    [Scalar(0), Scalar(3), Scalar(Fraction(-1, 2)), Scalar(Fraction(2, 3), Fraction(-5, 6))],
)
def test_scalar_round_trip(s):
    _round_trips(s)
    back = pickle.loads(pickle.dumps(s))
    assert (back.re_num, back.im_num, back.den) == (s.re_num, s.im_num, s.den)
    with pytest.raises(AttributeError):
        back.den = 2


@pytest.mark.parametrize("expr", CATALOG)
def test_module_lattice_and_elements_round_trip(expr):
    module = from_expression(expr, 12)
    assert isinstance(module, AbModule)
    _round_trips(module)
    _round_trips(module.matrix[0][0])
    assert isinstance(module.matrix[0][0], Series)

    lattice = saturate(module).lattice
    assert isinstance(lattice, Lattice)
    _round_trips(lattice)
    back = pickle.loads(pickle.dumps(lattice))
    assert (back.shift, back.gens, back.pivots, back.precision) == (
        lattice.shift, lattice.gens, lattice.pivots, lattice.precision
    )

    x = Element(a_image(module.matrix, [unit_element(module, 0).coords])[0], 1)
    assert isinstance(x, Element)
    _round_trips(x)
    assert pickle.loads(pickle.dumps(x)).shift == x.shift


def test_round_trip_keeps_the_module_usable():
    module = from_expression("J(3;0)", 12)
    back = pickle.loads(pickle.dumps(module))
    assert hash(back) == hash(module)
    assert saturate(back).saturated == saturate(module).saturated


def test_value_types_refuse_attribute_deletion():
    module = from_expression("J(3;0)", 12)
    s = Scalar(Fraction(2, 3), 1)
    cases = [
        (s, ["re_num", "im_num", "den"]),
        (module.matrix[0][0], ["coeffs", "precision"]),
        (module, ["matrix", "rank", "precision"]),
        (unit_element(module, 0), ["coords", "shift"]),
        (saturate(module).lattice, ["dim", "shift", "gens", "pivots", "precision"]),
    ]
    for obj, names in cases:
        for name in names:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, name)
            assert hasattr(obj, name)
    assert s + s == Scalar(Fraction(4, 3), 2)
    assert saturate(module).lattice.dim == module.rank == 3


def test_result_records_keep_their_value_semantics():
    """Each result record round-trips, is built by keyword as by position,
    compares and hashes by its fields (a WidthTable is not hashable), prints
    as Name(field=value, ...) and refuses assignment."""
    module = from_expression("E(1/2,2;3)", 12)
    sat = saturate(module)
    records = [
        sat,
        width_table(module),
        truncate(module, 2),
        identity_truncation_iso(module, 2),
        jordan_holder(module),
        classify_rank2(module),
    ]
    for record in records:
        _round_trips(record)
        fields = {name: getattr(record, name) for name in type(record).__slots__}
        assert type(record)(**fields) == record
        assert type(record)(*fields.values()) == record
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(record) == f"{type(record).__name__}({body})"
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
        if isinstance(record, WidthTable):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(copy.deepcopy(record)) == hash(record)
    assert SaturationResult(saturated=module, lattice=sat.lattice, steps=1) != sat
    assert Rank2NormalForm("DirectSum", (1, 2)) != ("DirectSum", (1, 2))
    assert repr(Intertwiner(kind="module", matrix=(), order=3)) == (
        "Intertwiner(kind='module', matrix=(), order=3)")
    assert Intertwiner("module", order=3, matrix=()) == Intertwiner("module", (), 3)
    with pytest.raises(TypeError):
        Intertwiner("module", (), order=3, kind="quotient")
    with pytest.raises(TypeError):
        Intertwiner("module", (), 3, 4)
    with pytest.raises(TypeError):
        Intertwiner("module", (), degree=3)
    with pytest.raises(TypeError):
        Rank2NormalForm("DirectSum")
