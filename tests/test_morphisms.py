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
    identity_truncation_iso,
    module_iso,
    random_regular,
    saturate,
    spectrum,
    verify_intertwiner,
)
from abmod import morphisms
from abmod.determination import _perturb
from abmod.linalg import det
from abmod.morphisms import CONST, _generic_det
from abmod.scalars import ONE, ZERO

import oracles

W = 8


def _system(src_expr, tgt_expr, prefix=None):
    src = from_expression(src_expr, W)
    tgt = from_expression(tgt_expr, W)
    system = IntertwinerSystem(src.matrix, tgt.matrix, W, prefix=prefix)
    return src, tgt, system.solve()


def _head(block):
    """The prefix that prescribes block 0 alone: the block's entries as
    series of precision 1."""
    return [[Series([x], 1) for x in row] for row in block]


def _package_head_span(system):
    """Row space of achievable order-0 blocks, over the free parameters."""
    p = len(system.blocks[0])
    rows = []
    base = system.block_matrix(0, {})
    if any(not c.is_zero() for row in base for c in row):
        rows.append([oracles.to_sym(c) for row in base for c in row])
    for pid in system.parameters_in_blocks(1):
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
    assert not system.parameters_in_blocks(1)
    assert find_invertible(system, seed=0) is None


def test_nonzero_morphism_verifies_even_without_inverse():
    src, tgt, system = _system("E(2)", "E(1)")
    pid = sorted(system.alive)[0]
    P = system.series_matrix({pid: ONE})
    assert verify_intertwiner(src.matrix, tgt.matrix, P, W)
    assert any(not entry.is_zero() for row in P for entry in row)


def test_fixed_head_block():
    eye = [[ONE if i == j else ZERO for j in range(2)] for i in range(2)]
    src, tgt, system = _system("J(2;1)", "J(2;1)", prefix=_head(eye))
    assert system is not None
    P = system.series_matrix({})
    assert [[P[i][j].coefficient(0) for j in range(2)] for i in range(2)] == eye
    assert verify_intertwiner(src.matrix, tgt.matrix, P, W)


def test_fixed_head_block_inconsistent():
    eye = [[ONE]]
    _, _, system = _system("E(1)", "E(2)", prefix=_head(eye))
    assert system is None


# -- malformed input -----------------------------------------------------------


def _pair():
    return from_expression("J(2;1)", W).matrix


def test_a_prescribed_block_of_the_wrong_shape_is_refused():
    with pytest.raises(BadParameter, match="^a prescribed block must be 2 x 2$"):
        IntertwinerSystem(_pair(), _pair(), W, prefix=_head([[ONE]]))
    wide = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]
    with pytest.raises(BadParameter, match="^a prescribed block must be 2 x 2$"):
        IntertwinerSystem(_pair(), _pair(), W, prefix=_head(wide))


def test_prescribed_entries_go_through_the_series_constructor():
    eye = [[ONE, ZERO], [ZERO, ONE]]
    plain = [[1, 0], [Fraction(0), 1]]
    by_scalars = IntertwinerSystem(_pair(), _pair(), W, prefix=_head(eye)).solve()
    by_numbers = IntertwinerSystem(_pair(), _pair(), W, prefix=_head(plain)).solve()
    assert by_numbers.series_matrix({}) == by_scalars.series_matrix({})


def test_a_float_prescribed_entry_is_refused():
    # a prefix entry must be a Series, so a float, an int or a Scalar is refused
    for entry in (1.0, 1, ONE):
        with pytest.raises(BadParameter, match="^prescribed entries must be Series$"):
            IntertwinerSystem(_pair(), _pair(), W,
                              prefix=[[entry, Series.zero(1)], [Series.zero(1), entry]])


def test_a_prefix_prescribes_the_blocks_below_its_least_precision():
    """Blocks 0..n-1 are the prefix's coefficients, n the least precision
    of its entries, and from order n on each block gets its parameters as
    without a prefix: the identity of J(2;1) known mod b^3 is the identity
    solution, and with one entry known mod b^2 block 2 is not prescribed."""
    one, zero = Series.one(3), Series.zero(3)
    system = IntertwinerSystem(_pair(), _pair(), W, prefix=[[one, zero], [zero, one]])
    assert system.solve().series_matrix({}) == [[Series.one(W), Series.zero(W)],
                                                [Series.zero(W), Series.one(W)]]
    short = IntertwinerSystem(_pair(), _pair(), W,
                              prefix=[[one, zero], [zero, Series.one(2)]]).solve()
    assert short.series_matrix({}) == system.series_matrix({})
    assert sorted(set(system.home)) == list(range(3, W))
    assert sorted(set(short.home)) == list(range(2, W))


def test_a_negative_order_count_is_refused():
    with pytest.raises(BadParameter, match="order count"):
        IntertwinerSystem(_pair(), _pair(), -1)


def test_find_invertible_refuses_a_system_without_block_0():
    matrix = from_expression("J(2;1)", 8).matrix
    system = IntertwinerSystem(matrix, matrix, 0).solve()
    assert system.blocks == []
    with pytest.raises(BadParameter, match="order 0"):
        find_invertible(system)


@pytest.mark.parametrize("tries", [2.5, "3", None])
def test_find_invertible_refuses_a_count_of_tries_that_is_not_an_integer(tries):
    system = _system("J(2;1)", "J(2;1)")[2]
    with pytest.raises(BadParameter, match="^tries must be an integer, not "):
        find_invertible(system, tries=tries)


def test_find_invertible_refuses_a_negative_count_of_tries():
    system = _system("J(2;1)", "J(2;1)")[2]
    with pytest.raises(BadParameter, match="^tries must be at least 0, got -1$"):
        find_invertible(system, tries=-1)


def _stopped_early():
    """A system whose solve stopped at order 1 of 6: E(1) -> E(2) with the
    identity prescribed at order 0 is inconsistent."""
    system = IntertwinerSystem(
        from_expression("E(1)", 8).matrix, from_expression("E(2)", 8).matrix, 6,
        prefix=[[Series.one(1)]],
    )
    assert system.solve() is None
    return system


def test_series_matrix_refuses_a_system_solved_short_of_its_orders():
    system = _stopped_early()
    with pytest.raises(BadParameter, match=r"processed \d orders, not 6"):
        system.series_matrix({})
    with pytest.raises(BadParameter, match="processed 0 orders, not 4"):
        IntertwinerSystem(_pair(), _pair(), 4).series_matrix({})


def test_block_matrix_refuses_a_block_past_the_processed_orders():
    system = _stopped_early()
    n = len(system.blocks)
    assert system.block_matrix(n - 1, {}) is not None
    with pytest.raises(BadParameter, match=f"processed {n} orders, not {n + 1}"):
        system.block_matrix(n, {})
    with pytest.raises(BadParameter, match="stopped early"):
        system.block_matrix(5, {})


def test_structure_matrix_entries_must_be_series():
    with pytest.raises(BadParameter, match="must be Series"):
        IntertwinerSystem([[1]], [[1]], 2)
    with pytest.raises(BadParameter, match="must be Series"):
        IntertwinerSystem(_pair(), [[ONE]], 2)


def test_retargeted_refuses_a_target_without_series_entries():
    system = IntertwinerSystem(_pair(), _pair(), 2).solve()
    with pytest.raises(BadParameter, match="must be Series"):
        system.retargeted([[1, 2], [3, 4]])


def test_parameter_values_go_through_scalar_of():
    system = IntertwinerSystem(_pair(), _pair(), W).solve()
    pid = min(system.alive)
    assert system.series_matrix({pid: 1}) == system.series_matrix({pid: ONE})
    half = Fraction(1, 2)
    assert system.block_matrix(0, {pid: half}) == system.block_matrix(0, {pid: Scalar(half)})
    for bad in (1.0, "1", None):
        with pytest.raises(BadParameter, match="not exact"):
            system.series_matrix({pid: bad})
        with pytest.raises(BadParameter, match="not exact"):
            system.block_matrix(0, {pid: bad})


def test_verify_intertwiner_refuses_a_wrongly_shaped_P():
    j2 = from_expression("J(2;0)", 8).matrix
    e0 = from_expression("E(0)", 8).matrix
    one, zero = Series.one(8), Series.zero(8)
    cases = [(j2, j2, [[one]]), (e0, e0, [[one], [one]]), (e0, e0, [[one, one]]),
             (j2, j2, []), (e0, j2, [[zero, zero]]),
             # refused before the precision checks
             (j2, j2, [[Series.zero(0)]])]
    for source, target, P in cases:
        with pytest.raises(BadParameter, match=r"rank\(target\) x rank\(source\)"):
            verify_intertwiner(source, target, P, 8)
    assert verify_intertwiner(e0, j2, [[zero], [zero]], 8)


@pytest.mark.parametrize("operand", ["P", "Ms", "Mt"])
def test_verify_intertwiner_refuses_an_entry_that_is_not_a_series(operand):
    """Refused after the shape check and before the precision checks: the
    other two operands hold a series of precision 0."""
    e0 = from_expression("E(0)", 8).matrix
    args = {"Ms": e0, "Mt": e0, "P": [[Series.zero(0)]], operand: [[1]]}
    with pytest.raises(BadParameter, match="^entries of P, Ms and Mt must be Series$"):
        verify_intertwiner(args["Ms"], args["Mt"], args["P"], 8)


def test_an_empty_or_non_square_structure_matrix_is_refused():
    matrix = _pair()
    for source, target in (([], matrix), (matrix, []), ([[]], matrix),
                           (matrix[:1], matrix), (matrix, [matrix[0]])):
        with pytest.raises(BadParameter, match="square and nonempty"):
            IntertwinerSystem(source, target, W)


RESUME_W = 12


def _resume_cases():
    """(source, target, prefix): module pairs, one with a prescribed head
    block, and an eigen-kernel system from the rank-1 module [[c*b]]."""
    eye = [[ONE if i == j else ZERO for j in range(2)] for i in range(2)]
    mods = {e: from_expression(e, RESUME_W) for e in
            ("J(2;1)", "E(1/2,1/3)", "J(2;1/2)", "rand(3;5)")}
    eigen = [[Series.monomial(Scalar(1) / Scalar(2), 1, RESUME_W)]]
    return [
        (mods["J(2;1)"].matrix, mods["J(2;1)"].matrix, None),
        (mods["J(2;1)"].matrix, mods["J(2;1)"].matrix, _head(eye)),
        (mods["E(1/2,1/3)"].matrix, mods["J(2;1/2)"].matrix, None),
        (eigen, mods["rand(3;5)"].matrix, None),
    ]


@pytest.mark.parametrize("case", range(4))
def test_resumed_solve_matches_a_fresh_solve(case):
    source, target, prefix = _resume_cases()[case]
    resumed = IntertwinerSystem(source, target, 1, prefix=prefix).solve()
    for n in range(2, RESUME_W + 1):
        assert resumed.solve(n) is resumed
        fresh = IntertwinerSystem(source, target, n, prefix=prefix).solve()
        assert resumed.blocks == fresh.blocks, n
        assert resumed.alive == fresh.alive, n
        for hi in range(1, n + 1):
            assert resumed.rank_in_blocks(hi) == fresh.rank_in_blocks(hi)
    assert resumed.series_matrix({}) == fresh.series_matrix({})


def test_resumed_solve_stays_inconsistent_and_bounded():
    src = from_expression("E(1)", RESUME_W)
    tgt = from_expression("E(2)", RESUME_W)
    system = IntertwinerSystem(src.matrix, tgt.matrix, 1, prefix=[[Series.one(1)]])
    assert system.solve() is system  # the exponents first clash at order 1
    assert system.solve(4) is None
    assert system.solve(6) is None
    free = IntertwinerSystem(src.matrix, tgt.matrix, 3).solve()
    with pytest.raises(PrecisionExhausted):
        free.solve(RESUME_W + 1)
    with pytest.raises(BadParameter):
        free.solve(2)
    assert free.solve(RESUME_W) is free


def test_rank_and_parameter_queries_refuse_blocks_not_processed():
    module = from_expression("J(2;0)", W)
    system = IntertwinerSystem(module.matrix, module.matrix, 3).solve()
    assert system.rank_in_blocks(3) == len(system.parameters_in_blocks(3))
    with pytest.raises(BadParameter, match="processed 3 orders, not 5"):
        system.rank_in_blocks(5)
    with pytest.raises(BadParameter, match="processed 3 orders, not 10"):
        system.parameters_in_blocks(10)
    for hi in (0, -1):
        with pytest.raises(BadParameter, match=f"at least 1, got {hi}"):
            system.parameters_in_blocks(hi)
        with pytest.raises(BadParameter, match=f"at least 1, got {hi}"):
            system.rank_in_blocks(hi)
    with pytest.raises(BadParameter, match="at least 1, got 0"):
        system.block_matrix(-1, {})


@st.composite
def _query_systems(draw, kind):
    """A system of the given kind, with the orders to solve it to: an
    ``fd`` trial retargeted from its shared prefix, an E -> F pair, an
    eigen-kernel [[mu*b]] -> E, or a system with its low blocks prescribed
    by the identity of E/b^N E as ``lift_truncation_iso`` builds it, into E
    or a perturbation of E at orders >= N; each is solved to w orders at
    once, or resumed through a drawn order first."""
    w = draw(st.integers(8, 12))
    module = random_regular(draw(st.integers(1, 3)), draw(st.integers(0, 10**6)), w,
                            draw(st.booleans()))
    lo = draw(st.integers(1, w - 2))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind == "fd":
        prefix = IntertwinerSystem(module.matrix, module.matrix, lo).solve()
        system = prefix.retargeted(_perturb(module, rng, lo).matrix)
    elif kind == "pair":
        other = random_regular(draw(st.integers(1, 3)), draw(st.integers(0, 10**6)), w)
        system = IntertwinerSystem(module.matrix, other.matrix, 0)
    elif kind == "kernel":
        mu = draw(st.sampled_from(spectrum(saturate(module).saturated)))
        mu = mu + draw(st.builds(Scalar, _FRACTIONS))
        system = IntertwinerSystem([[Series.monomial(mu, 1, w)]], module.matrix, 0)
    else:
        phi = identity_truncation_iso(module, lo)
        target = _perturb(module, rng, lo) if draw(st.booleans()) else module
        system = IntertwinerSystem(module.matrix, target.matrix, 0, prefix=phi.matrix)
    steps = sorted({draw(st.integers(len(system.blocks), w)), w})
    return system, steps


@pytest.mark.parametrize("kind", ("fd", "pair", "kernel", "prescribed"))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_home_block_counts_match_the_echelon_ranks(kind, data):
    """Every live parameter keeps its home entry {pid: 1}, and the rank and
    parameter queries equal the scanning and echelon forms at every bound,
    after each step of a resumed solve."""
    system, steps = data.draw(_query_systems(kind))
    for w in steps:
        system.solve(w)
        for pid in system.alive:
            home = system.blocks[system.home[pid]]
            assert {pid: (1, 0, 1)} in (entry for row in home for entry in row), pid
        for hi in range(1, len(system.blocks) + 1):
            assert system.parameters_in_blocks(hi) == \
                oracles.scanning_parameters_in_blocks(system, 0, hi), (w, hi)
            assert system.rank_in_blocks(hi) == \
                oracles.echelon_rank_in_blocks(system, 0, hi), (w, hi)


# -- the generic block-0 determinant -----------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)


class _Block0:
    """The part of an intertwiner system that find_invertible's fallback
    reads: block 0 and its free parameters."""

    def __init__(self, block):
        self.blocks = [block]

    def parameters_in_blocks(self, hi):
        return sorted({key for row in self.blocks[0] for e in row for key in e
                       if key != CONST})


def _triples(block):
    """A hand-built block with Scalar coefficients as the package holds it,
    each coefficient a (re, im, den) triple."""
    return [[{key: (c.re_num, c.im_num, c.den) for key, c in e.items()} for e in row]
            for row in block]


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
    expanded = _generic_det(_triples(block), params)
    assert all(not c.is_zero() for c in expanded.values())
    expected = sympy.expand(generic.det(method="berkowitz"))
    assert sympy.expand(_to_sympy(expanded, symbols) - expected) == 0
    system = _Block0(_triples(block))
    if system.parameters_in_blocks(1):
        assert find_invertible(system, tries=0) == oracles.symbolic_invertible(system)


def test_generic_det_swaps_rows_on_zero_pivots():
    # An anti-diagonal block swaps rows at its first steps; the reversal of n
    # rows has sign (-1)^(n(n-1)/2).
    for n in range(2, 5):
        block = [[{i: ONE} if i + j == n - 1 else {} for j in range(n)]
                 for i in range(n)]
        sign = -1 if n * (n - 1) // 2 % 2 else 1
        expanded = _generic_det(_triples(block), list(range(n)))
        assert expanded == {(1,) * n: Scalar(sign)}
    # Here the second pivot cancels only after the first step.
    one = {CONST: ONE}
    block = [[one, one, {}], [one, one, {0: ONE}], [{}, {1: ONE}, one]]
    assert _generic_det(_triples(block), [0, 1]) == {(1, 1): Scalar(-1)}


ORACLE_PAIRS = PAIRS + [("F(3;0;2)", "J(3;0)"), ("J(3;0)", "J(3;0)"),
                        ("F(3;0;1/2)", "F(3;0;1/2)")]


@pytest.mark.parametrize("src_expr,tgt_expr", ORACLE_PAIRS)
def test_fallback_values_match_sympy_oracle(src_expr, tgt_expr):
    _, _, system = _system(src_expr, tgt_expr)
    if system.parameters_in_blocks(1):
        assert find_invertible(system, tries=0) == oracles.symbolic_invertible(system)


def test_fallback_decides_a_non_isomorphic_pair():
    # Saturation spectra do not tell F(3;0;2) from J(3;0); every solution of
    # the intertwining equation is singular, so all 40 random tries would
    # fail and the expanded determinant is identically zero.
    src = from_expression("F(3;0;2)", 24)
    tgt = from_expression("J(3;0)", 24)
    system = IntertwinerSystem(src.matrix, tgt.matrix, 24).solve()
    free0 = system.parameters_in_blocks(1)
    assert free0
    rng = random.Random(0)
    for _ in range(40):
        values = {pid: Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                  for pid in free0}
        assert det(system.block_matrix(0, values)).is_zero()
    assert _generic_det(system.blocks[0], free0) == {}
    assert find_invertible(system) is None
    assert module_iso(src, tgt) is None


def test_empty_row_of_block0_decides_without_determinants(monkeypatch):
    # The first two rows of block 0 of F(3;0;2) -> J(3;0) are empty, so
    # block 0 is singular by its shape and no determinant is evaluated.
    src = from_expression("F(3;0;2)", 24)
    tgt = from_expression("J(3;0)", 24)
    system = IntertwinerSystem(src.matrix, tgt.matrix, 24).solve()
    assert not any(system.blocks[0][0]) and system.parameters_in_blocks(1)
    calls = []
    real_det = morphisms.linalg.det
    monkeypatch.setattr(morphisms.linalg, "det", lambda m: calls.append(m) or real_det(m))
    assert find_invertible(system) is None
    assert calls == []


def test_generic_det_size_budget(monkeypatch):
    # A generic 3x3 block has a six-term determinant.
    block = _triples([[{3 * i + j: ONE} for j in range(3)] for i in range(3)])
    assert len(_generic_det(block, list(range(9)))) == 6
    monkeypatch.setattr(morphisms, "MAX_DET_TERMS", 3)
    with pytest.raises(BadParameter, match="exceeds 3 terms"):
        find_invertible(_Block0(block), tries=0)


# -- the stencil solver against the Scalar-by-Scalar reference solver ---------
#
# ``oracles.ScalarIntertwinerSystem`` runs its own solve loop and normalizes
# every partial product and partial sum into a Scalar.  The package sums raw
# integer triples over precompiled stencils, normalizes once per coefficient
# and stores triples; both pick the same pivot, so every intermediate state
# agrees, each stored triple equal to the reference's Scalar in lowest
# terms.  FD_ROSTER is the module roster of the ``fd`` benchmark workload,
# and ``_fd_iso_pairs`` below gives its iso pools.

FD_ROSTER = [
    ("J(3;0)", 24), ("J(4;0)", 24), ("E(1/2,1/3)", 24), ("E(1/2;2)", 24),
    ("rand(3;1000)", 26), ("rand(4;1001)", 26), ("rand(3;1002)", 24),
    ("rand(4;1003)", 25),
]


def _pair_of_systems(source, target, w, prefix=None):
    """The package's system with a series prefix, and the reference with
    the same blocks prescribed as its {order: block} dict."""
    return (IntertwinerSystem(source, target, w, prefix=prefix),
            oracles.ScalarIntertwinerSystem(source, target, w,
                                            fixed=oracles.prescribed_blocks(prefix)))


def _assert_same_state(new, ref, where):
    assert new.blocks == oracles.triple_blocks(ref.blocks), where
    assert new.occurrences == ref.occurrences, where
    assert new.alive == ref.alive, where
    if len(new.blocks) < new.w:  # an inconsistent order stopped the solve
        return
    rng = random.Random(len(new.blocks))
    values = {
        pid: Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), rng.randint(-2, 2))
        for pid in new.alive
    }
    assert new.series_matrix(values) == ref.series_matrix(values), where


def _solve_both(new, ref, orders, until_singular=False):
    for n in orders:
        if until_singular:
            done = new.solve_until_singular(n), ref.solve_until_singular(n)
        else:
            done = new.solve(n), ref.solve(n)
        assert (done[0] is None) == (done[1] is None), n
        _assert_same_state(new, ref, n)
        if done[0] is None:
            break


# The trial seeds of the roster test: each gives the first perturbation of
# ``verify_fd(module, 1, seed)``, an ``fd`` workload item.
FD_TRIAL_SEEDS = range(5)


@pytest.mark.parametrize("expr,precision", FD_ROSTER)
def test_solver_matches_the_scalar_reference_on_the_fd_roster(expr, precision):
    from abmod import n0_bound
    from abmod.determination import _default_lift_precision, _perturb

    module = from_expression(expr, precision)
    lo = n0_bound(module)
    top = _default_lift_precision(module, lo)
    new, ref = _pair_of_systems(module.matrix, module.matrix, 0)
    _solve_both(new, ref, range(1, lo + 1))
    # As verify_fd's trials: copies of the shared prefix, retargeted and
    # resumed through solve_until_singular.
    for seed in FD_TRIAL_SEEDS:
        perturbed = _perturb(module, random.Random(seed), lo)
        trial = new.retargeted(perturbed.matrix), ref.retargeted(perturbed.matrix)
        _solve_both(*trial, range(lo + 1, top + 1), until_singular=True)
    perturbed = _perturb(module, random.Random(precision), lo)
    new, ref = new.retargeted(perturbed.matrix), ref.retargeted(perturbed.matrix)
    _solve_both(new, ref, range(lo + 1, top + 1))


def _iso_pairs():
    """The module pairs of the c01 duality goldens and of c09 sharpness."""
    from abmod import (dual, make_E_lambda, make_E_lambda_mu, make_E_lambda_n,
                       make_F_rho, make_J_k)

    half, third = Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3))
    pairs = []
    for lam in [Scalar(0), Scalar(1), Scalar(-2), half, Scalar(3, 1)]:
        pairs.append((dual(make_E_lambda(lam, 12)), make_E_lambda(-lam, 12)))
    for lam, mu in [(half, third), (Scalar(2), half), (Scalar(1), Scalar(1))]:
        pairs.append((dual(make_E_lambda_mu(lam, mu, 14)),
                      make_E_lambda_mu(-mu + ONE, -lam + ONE, 14)))
    pairs.append((dual(make_E_lambda_n(Scalar(1), 0, 12)),
                  make_E_lambda_n(Scalar(-1), 0, 12)))
    for k in (2, 3, 4, 5):
        left = dual(make_J_k(half, k, 16))
        pairs.append((left, make_J_k(-half - Scalar(k - 1), k, 16)))
        pairs.append((left, make_J_k(-half - Scalar(2 * k - 2), k, 16)))
        pairs.append((make_F_rho(Scalar(0), k, half, 14), make_J_k(Scalar(0), k, 14)))
    return pairs


# The exponents of the ``fd`` workload's iso:dual pool.
ISO_LAMBDAS = ["0", "1/2", "-1/3", "1", "2/3", "-1/2", "1/4", "3/2"]


def _fd_iso_pairs():
    """The module pairs of the ``fd`` workload's iso:dual (c01 duality) and
    iso:sharp (c09 sharpness) pools, which ``module_iso`` decides."""
    from abmod import (dual, make_E_lambda, make_E_lambda_mu, make_F_rho, make_J_k,
                       parse_scalar)

    lambdas = [parse_scalar(l) for l in ISO_LAMBDAS]
    one, third = Scalar(1), Scalar(Fraction(1, 3))
    pairs = [(dual(make_J_k(l, k, 16)), make_J_k(-l - Scalar(k - 1), k, 16))
             for k in (2, 3, 4, 5) for l in lambdas]
    for l in lambdas:
        pairs.append((dual(make_E_lambda(l, 12)), make_E_lambda(-l, 12)))
        pairs.append((dual(make_E_lambda_mu(l, third, 14)),
                      make_E_lambda_mu(-third + one, -l + one, 14)))
    pairs += [(make_F_rho(l, k, rho, 14), make_J_k(l, k, 14))
              for k in (2, 3, 4, 5) for l in map(parse_scalar, ("0", "1/2", "-1/3"))
              for rho in map(parse_scalar, ("1/2", "2"))]
    return pairs


def test_solver_matches_the_scalar_reference_on_the_iso_pairs():
    for e, ep in _iso_pairs() + _fd_iso_pairs():
        new, ref = _pair_of_systems(e.matrix, ep.matrix, 0)
        w = min(e.precision, ep.precision)
        _solve_both(new, ref, range(1, w + 1), until_singular=True)


def test_solver_matches_the_scalar_reference_on_an_eigen_kernel():
    module = from_expression("E(1/2,1/3)", 12)
    source = [[Series.monomial(Scalar(Fraction(1, 2)), 1, 12)]]
    new, ref = _pair_of_systems(source, module.matrix, 0)
    _solve_both(new, ref, range(1, 13))
    assert new.alive


def test_solver_matches_the_scalar_reference_on_a_fixed_block():
    # The unit normalizer's system (eigen_lift of the seed 1 on [[g]]), on a
    # dense g with residue lam.
    rng = random.Random(19)
    lam = Scalar(Fraction(2, 3), -1)
    w = 12
    g = Series(
        [ZERO, lam] + [
            Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                   Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(w - 2)
        ],
        w,
    )
    source = [[Series.monomial(lam, 1, w)]]
    new, ref = _pair_of_systems(source, [[g]], 0, prefix=[[Series.one(1)]])
    _solve_both(new, ref, range(1, w + 1))
    assert len(g.terms) == w - 1 and new.blocks[w - 1][0][0]


# Pairs whose exponents differ by a non-real amount, so that lam does not
# cancel in P*M - M'*P and the pivots of the solver get imaginary parts.
NON_REAL_PIVOT_W = 14


def _non_real_pivot_systems():
    w = NON_REAL_PIVOT_W
    mods = {e: from_expression(e, w).matrix for e in (
        "J(2;0)", "J(2;i)", "E(1/2,2;i)", "J(2;(1/2+i))", "rand(3;1000)", "J(3;i)")}
    return [
        (mods["J(2;0)"], mods["J(2;i)"]),
        (mods["E(1/2,2;i)"], mods["J(2;(1/2+i))"]),
        (mods["rand(3;1000)"], mods["J(3;i)"]),
        ([[Series.zero(w)]], mods["J(3;i)"]),
    ]


def test_solver_matches_the_scalar_reference_on_non_real_pivots(monkeypatch):
    non_real = []
    eliminate = oracles.ScalarIntertwinerSystem._eliminate

    def spy(self, expr):
        live = [key for key in expr if key != CONST]
        non_real.append(bool(live) and not expr[max(live)].is_real())
        return eliminate(self, expr)

    monkeypatch.setattr(oracles.ScalarIntertwinerSystem, "_eliminate", spy)
    for source, target in _non_real_pivot_systems():
        new, ref = _pair_of_systems(source, target, 0)
        _solve_both(new, ref, range(1, NON_REAL_PIVOT_W + 1))
    assert sum(non_real) > 50


# Drawn systems: ranks 1-4 on either side, sparse structure matrices with
# at most three terms per entry at orders 0-3 and a strictly upper triangular
# (so nilpotent) order-0 part, non-real coefficients in a third of the draws,
# an optional prescribed block 0, and a target bump at an order n or later
# for ``retargeted`` to resume from order n.
DRAWN_PRECISION = 10
_REAL_NONZERO = st.builds(Scalar, _FRACTIONS).filter(lambda s: not s.is_zero())


@st.composite
def _drawn_systems(draw):
    w = draw(st.integers(1, DRAWN_PRECISION))
    coeffs = _NONZERO if draw(st.integers(0, 2)) == 0 else _REAL_NONZERO

    def structure(p):
        rows = []
        for i in range(p):
            row = []
            for j in range(p):
                orders = draw(st.lists(st.integers(0 if i < j else 1, 3), max_size=3,
                                       unique=True))
                terms = dict.fromkeys(range(4), ZERO)
                terms.update((t, draw(coeffs)) for t in orders)
                row.append(Series([terms[t] for t in range(4)], DRAWN_PRECISION))
            rows.append(row)
        return rows

    pe, pf = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    source, target = structure(pe), structure(pf)
    prefix = None
    if draw(st.booleans()):
        prefix = _head([[draw(st.one_of(st.just(ZERO), coeffs)) for _ in range(pe)]
                        for _ in range(pf)])
    n = draw(st.integers(0, w - 1))
    i, l = draw(st.integers(0, pf - 1)), draw(st.integers(0, pf - 1))
    bump = Series.monomial(draw(coeffs), draw(st.integers(n, w - 1)), DRAWN_PRECISION)
    bumped = [[e + bump if (r, c) == (i, l) else e for c, e in enumerate(row)]
              for r, row in enumerate(target)]
    return source, target, prefix, w, n, bumped


def _state(system):
    return system.blocks, system.occurrences, system.alive


@PROPERTY
@given(_drawn_systems())
def test_drawn_systems_match_the_scalar_reference(case):
    source, target, prefix, w, n, bumped = case
    new, ref = _pair_of_systems(source, target, 0, prefix=prefix)
    _solve_both(new, ref, range(1, n + 1))
    new, ref = new.retargeted(bumped), ref.retargeted(bumped)
    _solve_both(new, ref, range(n + 1, w + 1))
    fresh = IntertwinerSystem(source, bumped, w, prefix=prefix)
    assert (fresh.solve() is None) == (new.solve(w) is None)
    assert _state(fresh) == _state(new)


def test_inconsistent_fixed_block_matches_the_scalar_reference():
    src = from_expression("E(1)", W)
    tgt = from_expression("E(2)", W)
    new, ref = _pair_of_systems(src.matrix, tgt.matrix, 0, prefix=[[Series.one(1)]])
    for n in range(1, W + 1):
        done = new.solve(n), ref.solve(n)
        assert new.blocks == oracles.triple_blocks(ref.blocks), n
        assert new.alive == ref.alive, n
        assert new.occurrences == ref.occurrences, n
        assert (done[0] is None) == (done[1] is None), n
        if done[0] is None:
            break
    assert done == (None, None)
    assert new.solve(W) is None and ref.solve(W) is None
    assert new.blocks == oracles.triple_blocks(ref.blocks) and new.alive == ref.alive


def test_verify_fd_evaluates_no_empty_entry(monkeypatch):
    from abmod import determination, verify_fd

    sizes = []
    evaluate = morphisms._aff_eval

    def spy(expr, values):
        sizes.append(len(expr))
        return evaluate(expr, values)

    monkeypatch.setattr(morphisms, "_aff_eval", spy)
    determination._prefix_system.cache_clear()
    try:
        for expr, precision in FD_ROSTER:
            verify_fd(from_expression(expr, precision), 2, 0)
    finally:
        determination._prefix_system.cache_clear()
    assert sizes and min(sizes) > 0


def test_verify_fd_reports_match_the_scalar_reference(monkeypatch):
    from abmod import determination, verify_fd

    modules = [from_expression(expr, precision) for expr, precision in FD_ROSTER]
    reports = [[verify_fd(m, 2, seed) for seed in range(10)] for m in modules]
    determination._prefix_system.cache_clear()
    monkeypatch.setattr(determination, "IntertwinerSystem",
                        oracles.ScalarIntertwinerSystem)
    try:
        reference = [[verify_fd(m, 2, seed) for seed in range(10)] for m in modules]
    finally:
        determination._prefix_system.cache_clear()
    assert reports == reference
    assert any(r["failures"] for row in reports for r in row)
    assert any(r["successes"] for row in reports for r in row)
