"""The early-exit and shared-prefix paths of the intertwiner solver.

``module_iso``, the free lift and ``verify_fd`` stop solving once block 0 is
singular by its shape, and ``verify_fd`` resumes every trial from one
memoized system E -> E.  These tests check the results against
``oracles.fresh_module_iso``, ``oracles.fresh_verify_fd`` and the free lift
as first written, which solve a fresh system to all W orders; that the shape
test is monotone in the order; that the saturations' spectra decide a pair
whose truncated system cannot; that the generic block-0 determinant decides
a pair that neither the shape test nor the spectra nor 40 random samples
can; and that the memoized prefix is never
changed, refuses a target it does not fit and is never read by
``lift_truncation_iso``.  ``lift_truncation_iso`` checks phi on the first N
orders of its prescribed system and certifies both its lifts through
``_free_lift``; it is checked against ``oracles.dense_lift_truncation_iso``,
which checks phi on two dense truncations and certifies a prescribed lift
by its own test.
"""

import json
import random
import sys
from copy import deepcopy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from abmod import (
    BadParameter,
    Intertwiner,
    IntertwinerSystem,
    NoLift,
    NonUniqueLift,
    PrecisionExhausted,
    Scalar,
    Series,
    base_change,
    dual,
    emit_module_file,
    from_expression,
    identity_truncation_iso,
    lift_truncation_iso,
    module_iso,
    n0_bound,
    random_regular,
    saturate,
    twist,
    verify_fd,
)
from abmod import determination, linalg, morphisms
from abmod.cli import main
from abmod.determination import (
    _default_lift_precision,
    _free_lift,
    _perturb,
    _prefix_system,
    _slack,
)
from abmod.morphisms import _singular_shape, find_invertible
from abmod.scalars import ONE, ZERO

import oracles

PRECISIONS = (8, 12, 24)
HALF = Scalar(Fraction(1, 2))


def _outcome(fn, *args, **kwargs):
    """The result of fn, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


# -- module variants ----------------------------------------------------------


def _constant_change(p, w):
    """A fixed constant base change: unit lower-triangular, rows rotated."""
    rows = [[Series.monomial(ONE if j <= i else ZERO, 0, w) for j in range(p)]
            for i in range(p)]
    return rows[1:] + rows[:1]


def _series_change(p, w):
    """The constant change plus a b and a b^2 term off the diagonal."""
    q = _constant_change(p, w)
    return [
        [entry + Series.monomial(Scalar(i - j), 1 + (i + j) % 2, w) for j, entry in enumerate(row)]
        for i, row in enumerate(q)
    ]


VARIANTS = {
    "same": lambda m: m,
    "dual": dual,
    "twist": lambda m: twist(m, HALF),
    "const": lambda m: base_change(m, _constant_change(m.rank, m.precision)),
    "series": lambda m: base_change(m, _series_change(m.rank, m.precision)),
    "dual-series": lambda m: base_change(dual(m), _series_change(m.rank, m.precision)),
    "twist-const": lambda m: base_change(twist(m, HALF), _constant_change(m.rank, m.precision)),
}
# (left variant, right variant): both sides changed, iso and non-iso
SIDES = [
    ("same", "same"), ("same", "const"), ("series", "same"), ("const", "series"),
    ("dual", "dual-series"), ("dual", "same"), ("twist", "twist-const"), ("twist", "same"),
]
ISO_FAMILIES = {
    1: ["E(1/2)", "E(1/3)"],
    2: ["J(2;0)", "F(2;0;1/2)", "E(1/2,1/3)", "E(1/2;2)", "rand(2;7)"],
    3: ["J(3;0)", "F(3;0;2)", "rand(3;5)"],
    4: ["J(4;0)", "F(4;0;1/2)"],
}


@pytest.mark.parametrize("w", PRECISIONS)
def test_module_iso_matches_a_fresh_full_solve(w):
    verdicts = set()
    for exprs in ISO_FAMILIES.values():
        modules = {x: from_expression(x, w) for x in exprs}
        for left in exprs:
            for right in exprs:
                for lv, rv in SIDES:
                    e = VARIANTS[lv](modules[left])
                    ep = VARIANTS[rv](modules[right])
                    got = _outcome(module_iso, e, ep)
                    want = _outcome(oracles.fresh_module_iso, e, ep)
                    assert got == want, (w, left, lv, right, rv)
                    verdicts.add(got if got is None or isinstance(got, type) else "iso")
    assert {None, "iso"} <= verdicts


FD_MODULES = ["J(2;0)", "J(3;0)", "F(3;0;2)", "E(1/2,1/3)", "E(1/2;2)", "rand(3;1000)"]


@pytest.mark.parametrize("w", PRECISIONS)
def test_verify_fd_matches_a_fresh_full_solve(w):
    reports = []
    for expr in FD_MODULES:
        base = from_expression(expr, w)
        for name in ("same", "dual", "twist", "const", "series"):
            module = VARIANTS[name](base)
            for lo in (None, 5):
                got = _outcome(verify_fd, module, 3, 7, lo=lo)
                want = _outcome(oracles.fresh_verify_fd, module, 3, 7, lo=lo)
                if isinstance(want, dict):
                    assert json.dumps(got) == json.dumps(want), (w, expr, name, lo)
                    reports.append(got)
                else:
                    assert got == want, (w, expr, name, lo)
    if w == 24:
        assert any(r["failures"] for r in reports)
        assert any(r["successes"] for r in reports)


def test_verify_fd_matches_on_the_nolift_roster():
    # The J(k;0) modules fail at n0 (the c08 finding); most of their trials
    # end in the early exit, and their witnesses must not move.
    for k in (3, 4):
        module = from_expression(f"J({k};0)", 24)
        got = verify_fd(module, 8, 11)
        assert json.dumps(got) == json.dumps(oracles.fresh_verify_fd(module, 8, 11))
        assert any(f["error"] == "NoLift" for f in got["failures"])


def _trial_pairs():
    """(E, E', lo, W, slack) for verify_fd-like trials and unrelated pairs."""
    rng = random.Random(3)
    for expr, prec in (("J(3;0)", 24), ("J(4;0)", 24), ("E(1/2,1/3)", 24), ("rand(3;1000)", 26)):
        module = from_expression(expr, prec)
        lo = n0_bound(module)
        W = _default_lift_precision(module, lo)
        for _ in range(4):
            yield module, _perturb(module, rng, lo), lo, W, _slack(module)
    e, ep = from_expression("F(3;0;2)", 24), from_expression("J(3;0)", 24)
    yield ep, e, 3, 20, _slack(ep)


def test_free_lift_matches_a_fresh_full_solve():
    for e, ep, N, W, slack in _trial_pairs():
        for seed in (0, 5):
            system = IntertwinerSystem(e.matrix, ep.matrix, W)
            got = _outcome(_free_lift, system, e, ep, N, W, slack, seed)
            want = _outcome(oracles.fresh_free_lift, e, ep, N, W, slack, seed)
            assert got == want


def test_rigidity_violation_matches_the_two_pass_form():
    seen = set()
    for e, ep, _, W, _ in _trial_pairs():
        for source, target in ((e.matrix, e.matrix), (e.matrix, ep.matrix)):
            system = IntertwinerSystem(source, target, W).solve()
            for N in range(1, W):
                for hi in sorted({N + 1, (N + W) // 2 + 1, W}):
                    got = system.rank_in_blocks(hi) > system.rank_in_blocks(N)
                    assert got == oracles.two_pass_rigidity_violation(system, N, hi)
                    seen.add(got)
    assert seen == {True, False}


# -- monotonicity of the shape test -------------------------------------------

scalars = st.builds(
    lambda n, d: Scalar(Fraction(n, d)), st.integers(-3, 3), st.sampled_from((1, 2))
)


@st.composite
def module_pairs(draw):
    """Two modules of one rank: random regular modules under a random
    b^0 + b^1 base change, or a catalog pair that agrees to low order."""
    if draw(st.booleans()):
        left, right = draw(st.sampled_from(
            [("F(2;0;1/2)", "J(2;0)"), ("F(3;0;2)", "J(3;0)"), ("E(1/2;2)", "E(1/2,3/2)"),
             ("J(3;0)", "J(3;1)")]))
        w = draw(st.integers(4, 12))
        return from_expression(left, w), from_expression(right, w)
    p = draw(st.integers(1, 3))
    w = draw(st.integers(4, 12))
    pair = []
    for _ in range(2):
        module = random_regular(p, draw(st.integers(0, 10**6)), w, draw(st.booleans()))
        q = [[Series.monomial(ONE if i == j else draw(scalars), 0, w)
              + Series.monomial(draw(scalars), 1, w) for j in range(p)] for i in range(p)]
        pair.append(base_change(module, q) if draw(st.booleans()) else module)
    return tuple(pair)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(module_pairs())
def test_an_empty_line_of_block0_stays_empty(pair):
    e, ep = pair
    w = min(e.precision, ep.precision)
    system = IntertwinerSystem(e.matrix, ep.matrix, 0)
    singular = False
    for k in range(1, w + 1):
        system.solve(k)
        now = _singular_shape(system.blocks[0])
        assert now or not singular, k
        singular = now
    early = IntertwinerSystem(e.matrix, ep.matrix, w).solve_until_singular()
    assert (early is None) == singular
    if early is not None:
        assert early.blocks == system.blocks and early.alive == system.alive


def test_the_shape_test_fires_before_the_last_order():
    # F(5;0;2) -> J(5;0): block 0 has an empty line after k+1 of 14 orders.
    e, ep = from_expression("F(5;0;2)", 14), from_expression("J(5;0)", 14)
    system = IntertwinerSystem(e.matrix, ep.matrix, 14)
    assert system.solve_until_singular() is None
    assert len(system.blocks) == 6
    assert system.solve() is None and len(system.blocks) == 6
    # an empty line made by the last order asked for is reported too
    assert IntertwinerSystem(e.matrix, ep.matrix, 6).solve_until_singular() is None
    assert IntertwinerSystem(e.matrix, ep.matrix, 5).solve_until_singular() is not None
    assert find_invertible(IntertwinerSystem(e.matrix, ep.matrix, 14).solve()) is None


def test_the_spectra_check_decides_a_pair_the_solve_cannot(monkeypatch):
    # F(4;0;2) agrees with J(4;0) to order 4: at W = 3 block 0 is not
    # singular and find_invertible finds a map, so only the saturations'
    # spectra show that the modules are not isomorphic.
    e, ep = from_expression("F(4;0;2)", 16), from_expression("J(4;0)", 16)
    assert IntertwinerSystem(e.matrix, ep.matrix, 3).solve_until_singular() is not None
    assert determination._saturation_spectra_differ(e, ep)
    assert module_iso(e, ep, W=3) is None
    monkeypatch.setattr(determination, "_saturation_spectra_differ", lambda e, ep: False)
    assert module_iso(e, ep, W=3) is not None


def test_the_generic_determinant_decides_a_pair_nothing_else_can(
        tmp_path, monkeypatch, capsys):
    # J(2;0) in the basis (e1 + e2, e1 + 2 e2) against its saturation: the
    # order-0 equation P0 M(0) = 0 makes every P0 singular, yet block 0 has
    # no empty line in this basis and the saturated spectra agree, so after
    # 40 singular samples only the identically zero determinant says absent.
    w = 12
    g = [[Series.monomial(Scalar(x), 0, w) for x in row] for row in ((1, 1), (1, 2))]
    e = base_change(from_expression("J(2;0)", w), g)
    ep = saturate(from_expression("J(2;0)", w)).saturated
    w = min(e.precision, ep.precision)
    system = IntertwinerSystem(e.matrix, ep.matrix, w).solve_until_singular()
    assert system is not None and not determination._saturation_spectra_differ(e, ep)
    dets = []
    generic_det = morphisms._generic_det

    def spy(block, free0):
        dets.append(generic_det(block, free0))
        return dets[-1]

    monkeypatch.setattr(morphisms, "_generic_det", spy)
    paths = []
    for name, module in (("e.txt", e), ("ep.txt", ep)):
        paths.append(tmp_path / name)
        paths[-1].write_text(emit_module_file(module))
    assert main(["iso", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "iso: absent\n"
    assert dets == [{}]


# -- the shared prefix --------------------------------------------------------


def _state(system):
    return deepcopy((system.blocks, system.occurrences, system.alive, system.home,
                     system.w, system.mt, system._stencils, system.precision))


def test_trials_leave_the_shared_prefix_unchanged():
    _prefix_system.cache_clear()
    module = from_expression("J(4;0)", 24)
    lo = n0_bound(module)
    prefix = _prefix_system(module, lo)
    before = _state(prefix)
    report = verify_fd(module, 12, 5)
    assert report["failures"] and report["successes"]
    assert _prefix_system(module, lo) is prefix
    assert _state(prefix) == before
    assert _prefix_system.cache_info().currsize == 1


def test_retargeted_copies_resume_as_a_fresh_solve():
    module = from_expression("J(3;0)", 12)
    prefix = IntertwinerSystem(module.matrix, module.matrix, 4).solve()
    before = _state(prefix)
    bump = Series.monomial(ONE, 4, 12)
    target = [[entry + bump if i == j == 0 else entry for j, entry in enumerate(row)]
              for i, row in enumerate(module.matrix)]
    resumed = prefix.retargeted(target).solve(10)
    fresh = IntertwinerSystem(module.matrix, target, 10).solve()
    assert (resumed.blocks, resumed.occurrences, resumed.alive, resumed.home) == (
        fresh.blocks, fresh.occurrences, fresh.alive, fresh.home)
    assert _state(prefix) == before


def test_retargeted_refuses_a_target_that_differs_below_the_processed_orders():
    module = from_expression("J(3;0)", 12)
    prefix = IntertwinerSystem(module.matrix, module.matrix, 4).solve()
    for order in (0, 3):
        bump = Series.monomial(ONE, order, 12)
        target = [[entry + bump if i == 1 and j == 2 else entry for j, entry in enumerate(row)]
                  for i, row in enumerate(module.matrix)]
        with pytest.raises(BadParameter):
            prefix.retargeted(target)
    with pytest.raises(BadParameter):
        prefix.retargeted([[entry.at_precision(3) for entry in row] for row in module.matrix])
    with pytest.raises(BadParameter):
        prefix.retargeted([row[:2] for row in module.matrix[:2]])


def test_lift_truncation_iso_never_reads_the_prefix_memo(monkeypatch):
    reads, free = [], []
    real_prefix, real_free = determination._prefix_system, determination._free_lift
    monkeypatch.setattr(determination, "_prefix_system",
                        lambda *args: reads.append(args) or real_prefix(*args))
    monkeypatch.setattr(determination, "_free_lift",
                        lambda *args: free.append(args) or real_free(*args))
    module = from_expression("J(3;0)", 24)
    lo = n0_bound(module)
    rng = random.Random(2)
    for _ in range(6):
        perturbed = _perturb(module, rng, lo)
        _outcome(lift_truncation_iso, module, perturbed,
                 identity_truncation_iso(module, lo), lo)
    assert free and not reads
    verify_fd(module, 1, 0)
    assert reads


# -- lift_truncation_iso against the dense check ------------------------------

# The fd workload's roster, with J(2;0), J(5;0) and rand(2;1004) added.
LIFT_ROSTER = [
    ("J(2;0)", 24), ("J(3;0)", 24), ("J(4;0)", 24), ("J(5;0)", 20), ("E(1/2,1/3)", 24),
    ("E(1/2;2)", 24), ("rand(2;1004)", 24), ("rand(3;1000)", 26), ("rand(4;1001)", 26),
    ("rand(3;1002)", 24), ("rand(4;1003)", 25),
]
IDENTITY_LIFTS = ["E(0)", "E(1;1)", "E(1/2;2)", "E(0;3)", "E(1/2,1/3)", "E(1/2,2;3)",
                  "J(2;0)", "J(3;1/2)", "F(3;0;2)", "rand(3;5)"]
STRICT_NONUNIQUE = "the congruence-constrained solution space is not a single point"
FREE_NONUNIQUE = "distinct isomorphisms induce the same map at this truncation level"


def _lift_grid():
    """(E, E', phi, N): each roster module at levels n0 - 1, n0 and n0 + 1
    against itself and seven perturbations at that level, phi the identity
    of E/b^N E; then identity lifts at N = 1..7."""
    rng = random.Random(7)
    for expr, prec in LIFT_ROSTER:
        module = from_expression(expr, prec)
        n0 = n0_bound(module)
        for N in (n0 - 1, n0, n0 + 1):
            phi = identity_truncation_iso(module, N)
            for target in [module] + [_perturb(module, rng, N) for _ in range(7)]:
                yield module, target, phi, N
    for expr in IDENTITY_LIFTS:
        module = from_expression(expr, 30)
        for N in range(1, 8):
            yield module, module, identity_truncation_iso(module, N), N


def _lift_outcome(fn, *args):
    """The lift's kind, matrix and order, or the error's type and message."""
    try:
        lift = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return lift.kind, lift.matrix, lift.order


def test_lift_truncation_iso_matches_the_dense_check():
    """The prescribed system checks phi as the two dense truncations did,
    and every lift is the one the parent's strict or free branch gave; only
    the strict branch's NonUniqueLift message is now the free one."""
    seen = []
    for e, ep, phi, N in _lift_grid():
        got = _lift_outcome(lift_truncation_iso, e, ep, phi, N)
        want = _lift_outcome(oracles.dense_lift_truncation_iso, e, ep, phi, N)
        seen.append(want[1] if want[0] is NonUniqueLift else want[0])
        if want == (NonUniqueLift, STRICT_NONUNIQUE):
            want = (NonUniqueLift, FREE_NONUNIQUE)
        assert got == want, (e, ep, N)
    assert {"module", NoLift, STRICT_NONUNIQUE} <= set(seen)


# (module, variant of it): the target is the variant, so module_iso's phi
# is not the identity.
MODULE_ISO_LIFTS = [("J(2;0)", "const"), ("J(3;0)", "series"), ("E(1/2,1/3)", "series"),
                    ("E(1/2;2)", "const"), ("rand(3;1000)", "series"),
                    ("rand(2;1004)", "const")]


def test_lift_of_a_module_iso_phi_matches_the_dense_check():
    """phi = module_iso(E, E', W=N), a series matrix mod b^N that is not the
    identity, lifts as the dense check lifts it: against E' and against
    perturbations of E' at order N, at N = n0 - 1, n0 and n0 + 1."""
    rng = random.Random(43)
    seen = []
    for expr, variant in MODULE_ISO_LIFTS:
        e = from_expression(expr, 26)
        ep = VARIANTS[variant](e)
        n0 = n0_bound(e)
        for N in (n0 - 1, n0, n0 + 1):
            phi = module_iso(e, ep, W=N)
            assert phi.order == N and phi.matrix != identity_truncation_iso(e, N).matrix
            for target in [ep] + [_perturb(ep, rng, N) for _ in range(3)]:
                got = _lift_outcome(lift_truncation_iso, e, target, phi, N)
                want = _lift_outcome(oracles.dense_lift_truncation_iso, e, target, phi, N)
                if want == (NonUniqueLift, STRICT_NONUNIQUE):
                    want = (NonUniqueLift, FREE_NONUNIQUE)
                assert got == want, (expr, variant, N)
                seen.append(got[0])
    assert "module" in seen and NoLift in seen


def test_identity_lift_at_the_ceiling_builds_no_dense_matrix(monkeypatch):
    """On J(8;0) at precision 256 and N = 256 (dimension 2048, the ceiling)
    neither identity_truncation_iso nor lift_truncation_iso allocates a
    dense matrix; the lift is refused for want of precision."""

    def never(*args):
        raise AssertionError("a dense matrix was allocated")

    module = from_expression("J(8;0)", 256)
    monkeypatch.setattr(linalg, "identity", never)
    monkeypatch.setattr(linalg, "zeros", never)
    phi = identity_truncation_iso(module, 256)
    assert phi.kind == "module" and phi.order == 256
    with pytest.raises(PrecisionExhausted):
        lift_truncation_iso(module, module, phi, 256)


def test_lift_truncation_iso_builds_no_dense_truncation(monkeypatch):
    """Neither identity_truncation_iso nor lift_truncation_iso builds a
    dense truncation, and every lift, strict or free, ends in one _free_lift
    call, which gives its result or error."""

    def never(*args):
        raise AssertionError("a dense truncation was built")

    monkeypatch.setattr(determination, "truncate", never)
    module = from_expression("J(3;0)", 24)
    lo = n0_bound(module)
    rng = random.Random(2)
    targets = [module] + [_perturb(module, rng, lo) for _ in range(6)]
    cases = [(module, target, identity_truncation_iso(module, lo), lo) for target in targets]
    e03 = from_expression("E(0;3)", 30)
    cases += [(e03, e03, identity_truncation_iso(e03, N), N) for N in (2, 3, 4, 5)]
    real_free, ends = determination._free_lift, []

    def spy(*args):
        try:
            ends.append(real_free(*args))
        except (NoLift, NonUniqueLift) as exc:
            ends.append(exc)
            raise
        return ends[-1]

    monkeypatch.setattr(determination, "_free_lift", spy)
    outcomes = set()
    for case in cases:
        try:
            lift = lift_truncation_iso(*case)
        except (NoLift, NonUniqueLift) as exc:
            lift = exc
        assert ends[-1] is lift
        outcomes.add(type(lift))
    assert outcomes == {Intertwiner, NoLift, NonUniqueLift}


def test_verify_fd_refuses_negative_trials_and_levels_below_one():
    module = from_expression("J(2;0)", 24)
    with pytest.raises(BadParameter):
        verify_fd(module, -3, 0)
    for lo in (0, -2):
        with pytest.raises(BadParameter):
            verify_fd(module, 1, 0, lo=lo)
    report = verify_fd(module, 0, 0)
    assert (report["trials"], report["successes"], report["failures"]) == (0, 0, [])
