"""Intertwiner solving: solution-space dimensions, invertible heads, verification."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from abmod import (
    BadParameter,
    IntertwinerSystem,
    PrecisionExhausted,
    Scalar,
    Series,
    find_invertible,
    from_expression,
    module_iso,
    verify_intertwiner,
)
from abmod import morphisms
from abmod.linalg import det
from abmod.morphisms import CONST, _generic_det
from abmod.scalars import ONE, ZERO

import oracles

W = 8


def _system(src_expr, tgt_expr, fixed=None):
    src = from_expression(src_expr, W)
    tgt = from_expression(tgt_expr, W)
    system = IntertwinerSystem(src.matrix, tgt.matrix, W, fixed=fixed)
    return src, tgt, system.solve()


def _package_head_span(system):
    """Row space of achievable order-0 blocks, over the free parameters."""
    p = len(system.blocks[0])
    rows = []
    base = system.block_matrix(0, {})
    if any(not c.is_zero() for row in base for c in row):
        rows.append([oracles.to_sym(c) for row in base for c in row])
    for pid in system.parameters_in_blocks(0, 1):
        mat = system.block_matrix(0, {pid: ONE})
        rows.append(
            [oracles.to_sym(mat[i][j] - base[i][j]) for i in range(p) for j in range(p)]
        )
    if not rows:
        return sympy.zeros(0, p * p)
    return oracles._row_space(sympy.Matrix(rows))


def _same_row_space(a, b):
    if a.rows == 0 and b.rows == 0:
        return True
    if a.rows == 0 or b.rows == 0:
        return False
    stacked = a.col_join(b)
    return a.rank() == b.rank() == stacked.rank()


PAIRS = [
    ("J(2;1)", "J(2;1)"),
    ("E(1/2,1/3)", "E(1/2,1/3)"),
    ("E(1)", "E(2)"),
    ("E(2)", "E(1)"),
    ("E(1/2,1/3)", "J(2;1/2)"),
]


def test_solution_space_matches_dense_solver():
    for src_expr, tgt_expr in PAIRS:
        src, tgt, system = _system(src_expr, tgt_expr)
        assert system is not None
        null, head = oracles.intertwiner_space(src, tgt, W)
        assert len(system.alive) == len(null), (src_expr, tgt_expr)
        assert _same_row_space(_package_head_span(system), head), (src_expr, tgt_expr)


def test_find_invertible_deterministic_and_verified():
    src, tgt, system = _system("J(2;1)", "J(2;1)")
    first = find_invertible(system, seed=3)
    second = find_invertible(system, seed=3)
    assert first == second and first is not None
    assert not det(system.block_matrix(0, first)).is_zero()
    P = system.series_matrix(first)
    assert verify_intertwiner(src.matrix, tgt.matrix, P, W)


def test_find_invertible_absent_when_heads_vanish():
    # Every morphism E(2) -> E(1) is divisible by b, so no invertible head.
    # The truncated space has dimension 2: the genuine c*b solution plus one
    # top-order coefficient whose constraint sits beyond the window.
    src, tgt, system = _system("E(2)", "E(1)")
    assert len(system.alive) == 2
    assert not system.parameters_in_blocks(0, 1)
    assert find_invertible(system, seed=0) is None


def test_nonzero_morphism_verifies_even_without_inverse():
    src, tgt, system = _system("E(2)", "E(1)")
    pid = sorted(system.alive)[0]
    P = system.series_matrix({pid: ONE})
    assert verify_intertwiner(src.matrix, tgt.matrix, P, W)
    assert any(not entry.is_zero() for row in P for entry in row)


def test_fixed_head_block():
    eye = [[ONE if i == j else ZERO for j in range(2)] for i in range(2)]
    src, tgt, system = _system("J(2;1)", "J(2;1)", fixed={0: eye})
    assert system is not None
    P = system.series_matrix({})
    assert [[P[i][j].coefficient(0) for j in range(2)] for i in range(2)] == eye
    assert verify_intertwiner(src.matrix, tgt.matrix, P, W)


def test_fixed_head_block_inconsistent():
    eye = [[ONE]]
    _, _, system = _system("E(1)", "E(2)", fixed={0: eye})
    assert system is None


RESUME_W = 12


def _resume_cases():
    """(source, target, fixed): module pairs, one with a prescribed head
    block, and an eigen-kernel system from the rank-1 module [[c*b]]."""
    eye = [[ONE if i == j else ZERO for j in range(2)] for i in range(2)]
    mods = {e: from_expression(e, RESUME_W) for e in
            ("J(2;1)", "E(1/2,1/3)", "J(2;1/2)", "rand(3;5)")}
    eigen = [[Series.monomial(Scalar(1) / Scalar(2), 1, RESUME_W)]]
    return [
        (mods["J(2;1)"].matrix, mods["J(2;1)"].matrix, None),
        (mods["J(2;1)"].matrix, mods["J(2;1)"].matrix, {0: eye}),
        (mods["E(1/2,1/3)"].matrix, mods["J(2;1/2)"].matrix, None),
        (eigen, mods["rand(3;5)"].matrix, None),
    ]


@pytest.mark.parametrize("case", range(4))
def test_resumed_solve_matches_a_fresh_solve(case):
    source, target, fixed = _resume_cases()[case]
    resumed = IntertwinerSystem(source, target, 1, fixed=fixed).solve()
    for n in range(2, RESUME_W + 1):
        assert resumed.solve(n) is resumed
        fresh = IntertwinerSystem(source, target, n, fixed=fixed).solve()
        assert resumed.blocks == fresh.blocks, n
        assert resumed.alive == fresh.alive, n
        for hi in range(1, n + 1):
            assert resumed.rank_in_blocks(0, hi) == fresh.rank_in_blocks(0, hi)
    assert resumed.series_matrix({}) == fresh.series_matrix({})


def test_resumed_solve_stays_inconsistent_and_bounded():
    src = from_expression("E(1)", RESUME_W)
    tgt = from_expression("E(2)", RESUME_W)
    system = IntertwinerSystem(src.matrix, tgt.matrix, 1, fixed={0: [[ONE]]})
    assert system.solve() is system  # the exponents first clash at order 1
    assert system.solve(4) is None
    assert system.solve(6) is None
    free = IntertwinerSystem(src.matrix, tgt.matrix, 3).solve()
    with pytest.raises(PrecisionExhausted):
        free.solve(RESUME_W + 1)
    with pytest.raises(BadParameter):
        free.solve(2)
    assert free.solve(RESUME_W) is free


# -- the generic block-0 determinant -----------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)


class _Block0:
    """The part of an intertwiner system that find_invertible's fallback
    reads: block 0 and its free parameters."""

    def __init__(self, block):
        self.blocks = [block]

    def parameters_in_blocks(self, lo, hi):
        return sorted({key for row in self.blocks[0] for e in row for key in e
                       if key != CONST})


_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_GAUSSIAN = st.builds(Scalar, _FRACTIONS, st.one_of(st.just(0), _FRACTIONS))
_NONZERO = _GAUSSIAN.filter(lambda s: not s.is_zero())


@st.composite
def _parameter_blocks(draw):
    """A square block of affine entries {CONST or pid: Scalar} in up to five
    parameters, with zero entries (which force row swaps); sometimes a row
    repeats another, scaled, so the block is singular at every point."""
    n = draw(st.integers(1, 4))
    pids = draw(st.lists(st.integers(0, 9), max_size=5, unique=True))
    keys = [CONST] + pids
    block = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.integers(0, 3)):
                chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                       unique=True))
                row.append({k: draw(_NONZERO) for k in chosen})
            else:
                row.append({})
        block.append(row)
    if n >= 2 and not draw(st.integers(0, 3)):
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(_GAUSSIAN)
        block[dst] = [{k: c * factor for k, c in e.items() if not factor.is_zero()}
                      for e in block[src]]
    return block, sorted(pids)


def _to_sympy(poly: dict, symbols: list):
    """A polynomial {exponent tuple: Scalar} as a sympy expression."""
    acc = sympy.Integer(0)
    for mono, coeff in poly.items():
        term = oracles.to_sym(coeff)
        for sym, e in zip(symbols, mono):
            term = term * sym**e
        acc = acc + term
    return acc


@PROPERTY
@given(_parameter_blocks())
def test_generic_det_matches_sympy(case):
    block, params = case
    symbols = [sympy.Symbol("c%d" % pid) for pid in params]
    generic = sympy.Matrix([
        [oracles.to_sym(e.get(CONST, ZERO))
         + sum(oracles.to_sym(e[pid]) * sym for pid, sym in zip(params, symbols) if pid in e)
         for e in row]
        for row in block
    ])
    expanded = _generic_det(block, params)
    assert all(not c.is_zero() for c in expanded.values())
    expected = sympy.expand(generic.det(method="berkowitz"))
    assert sympy.expand(_to_sympy(expanded, symbols) - expected) == 0
    system = _Block0(block)
    if system.parameters_in_blocks(0, 1):
        assert find_invertible(system, tries=0) == oracles.symbolic_invertible(system)


def test_generic_det_swaps_rows_on_zero_pivots():
    # An anti-diagonal block swaps rows at its first steps; the reversal of n
    # rows has sign (-1)^(n(n-1)/2).
    for n in range(2, 5):
        block = [[{i: ONE} if i + j == n - 1 else {} for j in range(n)]
                 for i in range(n)]
        sign = -1 if n * (n - 1) // 2 % 2 else 1
        assert _generic_det(block, list(range(n))) == {(1,) * n: Scalar(sign)}
    # Here the second pivot cancels only after the first step.
    one = {CONST: ONE}
    block = [[one, one, {}], [one, one, {0: ONE}], [{}, {1: ONE}, one]]
    assert _generic_det(block, [0, 1]) == {(1, 1): Scalar(-1)}


ORACLE_PAIRS = PAIRS + [("F(3;0;2)", "J(3;0)"), ("J(3;0)", "J(3;0)"),
                        ("F(3;0;1/2)", "F(3;0;1/2)")]


@pytest.mark.parametrize("src_expr,tgt_expr", ORACLE_PAIRS)
def test_fallback_values_match_sympy_oracle(src_expr, tgt_expr):
    _, _, system = _system(src_expr, tgt_expr)
    if system.parameters_in_blocks(0, 1):
        assert find_invertible(system, tries=0) == oracles.symbolic_invertible(system)


def test_fallback_decides_a_non_isomorphic_pair():
    # Saturation spectra do not tell F(3;0;2) from J(3;0); every solution of
    # the intertwining equation is singular, so all 40 random tries fail and
    # the expanded determinant, identically zero, decides.
    src = from_expression("F(3;0;2)", 24)
    tgt = from_expression("J(3;0)", 24)
    system = IntertwinerSystem(src.matrix, tgt.matrix, 24).solve()
    free0 = system.parameters_in_blocks(0, 1)
    assert free0
    rng = random.Random(0)
    for _ in range(40):
        values = {pid: Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                  for pid in free0}
        assert det(system.block_matrix(0, values)).is_zero()
    assert _generic_det(system.blocks[0], free0) == {}
    assert find_invertible(system) is None
    assert module_iso(src, tgt) is None


def test_generic_det_size_budget(monkeypatch):
    # A generic 3x3 block has a six-term determinant.
    block = [[{3 * i + j: ONE} for j in range(3)] for i in range(3)]
    assert len(_generic_det(block, list(range(9)))) == 6
    monkeypatch.setattr(morphisms, "MAX_DET_TERMS", 3)
    with pytest.raises(BadParameter, match="exceeds 3 terms"):
        find_invertible(_Block0(block), tries=0)
