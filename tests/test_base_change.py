"""Base change M -> Q^{-1}(M Q + b^2 Q'): group laws, intertwining, module
files round-tripping, the invariance of the numerical invariants and of Ext
at ranks 3 and 4, and the dual and twist laws on base-changed modules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abmod import (
    BadParameter,
    NotAUnit,
    ONE,
    ZERO,
    Scalar,
    Series,
    alpha_invariant,
    base_change,
    delta_index,
    dual,
    emit_module_file,
    ext_dims,
    from_expression,
    module_iso,
    n0_bound,
    parse_module_file,
    regularity_order,
    saturate,
    spectrum,
    twist,
    verify_intertwiner,
    width_table,
)
from abmod.linalg import identity, mat_mul
from abmod.seriesmat import smat_mul

PROPERTY = settings(derandomize=True, database=None, max_examples=6, deadline=None)
SLOW_PROPERTY = settings(derandomize=True, database=None, max_examples=2, deadline=None)

scalars = st.builds(
    lambda n, d, im: Scalar(Fraction(n, d), im),
    st.integers(-3, 3),
    st.sampled_from((1, 2)),
    st.integers(-1, 1),
)
units = scalars.filter(lambda s: not s.is_zero())


@st.composite
def base_changes(draw, p, w):
    """A p x p series matrix invertible over C[[b]]: a permuted L*U with unit
    diagonal at b^0, plus at most two monomials of degree 1..4 per entry."""
    lower = [
        [draw(scalars) if j < i else (ONE if j == i else ZERO) for j in range(p)]
        for i in range(p)
    ]
    upper = [
        [draw(units) if j == i else (draw(scalars) if j > i else ZERO) for j in range(p)]
        for i in range(p)
    ]
    q0 = mat_mul(lower, upper)
    q0 = [q0[i] for i in draw(st.permutations(range(p)))]
    q = []
    for i in range(p):
        row = []
        for j in range(p):
            entry = Series.monomial(q0[i][j], 0, w)
            for c, k in draw(st.lists(st.tuples(scalars, st.integers(1, 4)), max_size=2)):
                entry = entry + Series.monomial(c, k, w)
            row.append(entry)
        q.append(row)
    return q


def _identity(p, w):
    return [[Series.monomial(c, 0, w) for c in row] for row in identity(p)]


# -- laws -------------------------------------------------------------------

W = 10
LAW_MODULES = ["E(1/2,1/3)", "J(3;0)", "rand(3;1000)"]


@pytest.mark.parametrize("expr", LAW_MODULES)
def test_identity_base_change_is_the_module(expr):
    module = from_expression(expr, W)
    assert base_change(module, _identity(module.rank, W)) == module


@pytest.mark.parametrize("expr", LAW_MODULES)
def test_base_changes_compose(expr):
    module = from_expression(expr, W)
    p = module.rank

    @PROPERTY
    @given(base_changes(p, W), base_changes(p, W))
    def check(q1, q2):
        twice = base_change(base_change(module, q1), q2)
        assert twice == base_change(module, smat_mul(q1, q2))

    check()


@pytest.mark.parametrize("expr", LAW_MODULES)
def test_base_change_matrix_intertwines(expr):
    module = from_expression(expr, W)

    @PROPERTY
    @given(base_changes(module.rank, W))
    def check(q):
        changed = base_change(module, q)
        assert verify_intertwiner(changed.matrix, module.matrix, q, W)

    check()


@pytest.mark.parametrize("expr", LAW_MODULES)
def test_module_iso_finds_a_base_change(expr):
    module = from_expression(expr, W)

    @SLOW_PROPERTY
    @given(base_changes(module.rank, W))
    def check(q):
        assert module_iso(module, base_change(module, q)) is not None

    check()


def test_base_change_refuses_singular_or_misshapen_matrices():
    module = from_expression("E(1/2,1/3)", W)
    b = Series.b(W)
    with pytest.raises(NotAUnit):
        base_change(module, [[b, Series.one(W)], [Series.zero(W), Series.one(W)]])
    with pytest.raises(BadParameter):
        base_change(module, _identity(3, W))
    with pytest.raises(BadParameter):
        base_change(module, [[Series.one(W)], [Series.one(W)]])


@pytest.mark.parametrize("expr", LAW_MODULES + ["rand(4;1001)", "F(3;0;2)"])
def test_module_file_round_trip(expr):
    module = from_expression(expr, W)
    assert parse_module_file(emit_module_file(module)) == module

    @PROPERTY
    @given(base_changes(module.rank, W))
    def check(q):
        changed = base_change(module, q)
        text = emit_module_file(changed)
        assert parse_module_file(text) == changed
        assert emit_module_file(parse_module_file(text)) == text

    check()


# -- invariance at ranks 3 and 4 -----------------------------------------------

INVARIANCE_W = 16


def _invariants(module):
    return {
        "delta": delta_index(module),
        "or": regularity_order(module),
        "spectrum": spectrum(saturate(module).saturated),
        "width": width_table(module).width,
        "n0": n0_bound(module),
        "alpha": alpha_invariant(module),
    }


@pytest.mark.parametrize("expr", ["J(3;0)", "J(4;0)", "rand(3;1000)", "rand(4;1001)"])
def test_invariants_survive_base_change_at_rank_3_and_4(expr):
    module = from_expression(expr, INVARIANCE_W)
    expected = _invariants(module)

    @SLOW_PROPERTY
    @given(base_changes(module.rank, INVARIANCE_W))
    def check(q):
        assert _invariants(base_change(module, q)) == expected

    check()


@pytest.mark.parametrize("expr", ["J(3;0)", "rand(3;1000)", "rand(4;1001)"])
def test_ext_dims_survive_base_change_at_rank_3_and_4(expr):
    module = from_expression(expr, INVARIANCE_W)
    partner = from_expression("E(0)", INVARIANCE_W)
    expected = (ext_dims(module, partner), ext_dims(partner, module))

    @SLOW_PROPERTY
    @given(base_changes(module.rank, INVARIANCE_W))
    def check(q):
        changed = base_change(module, q)
        assert (ext_dims(changed, partner), ext_dims(partner, changed)) == expected

    check()


# -- dual and twist laws --------------------------------------------------------


@pytest.mark.parametrize("expr", LAW_MODULES + ["rand(4;1001)"])
def test_dual_is_an_involution(expr):
    module = from_expression(expr, W)
    assert dual(dual(module)) == module

    @PROPERTY
    @given(base_changes(module.rank, W))
    def check(q):
        changed = base_change(module, q)
        assert dual(dual(changed)) == changed

    check()


@pytest.mark.parametrize("expr", LAW_MODULES)
def test_twists_add(expr):
    module = from_expression(expr, W)

    @PROPERTY
    @given(base_changes(module.rank, W), scalars, scalars)
    def check(q, m, n):
        changed = base_change(module, q)
        assert twist(twist(changed, m), n) == twist(changed, m + n)

    check()
