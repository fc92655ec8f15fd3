"""Intertwiner solving: solution-space dimensions, invertible heads, verification."""

import sys
from pathlib import Path

import pytest
import sympy

sys.path.insert(0, str(Path(__file__).parent))

from abmod import (
    BadParameter,
    IntertwinerSystem,
    PrecisionExhausted,
    Scalar,
    Series,
    find_invertible,
    from_expression,
    verify_intertwiner,
)
from abmod.linalg import det
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
