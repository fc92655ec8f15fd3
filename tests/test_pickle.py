"""The immutable value types survive ``pickle`` and ``copy.deepcopy``."""

import copy
import pickle
from fractions import Fraction

import pytest

from abmod import (
    AbModule,
    Element,
    Lattice,
    Scalar,
    Series,
    apply_a,
    from_expression,
    saturate,
)

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

    x = Element(apply_a(module, module.basis_element(0)).coords, 1)
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
        (module.basis_element(0), ["coords", "shift"]),
        (saturate(module).lattice, ["dim", "shift", "gens", "pivots", "precision"]),
    ]
    for obj, names in cases:
        for name in names:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, name)
            assert hasattr(obj, name)
    assert s + s == Scalar(Fraction(4, 3), 2)
    assert saturate(module).lattice.dim == module.rank == 3
