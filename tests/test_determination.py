"""Truncations, lifting of truncation isomorphisms, finite-determination checks."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from abmod import (
    AbModule,
    AbmodError,
    BadParameter,
    Element,
    FiniteAbQuotient,
    Intertwiner,
    IntertwinerSystem,
    NoLift,
    NotFound,
    NotRegular,
    ONE,
    PrecisionExhausted,
    Scalar,
    Series,
    ZERO,
    delta_index,
    from_expression,
    eigen_lift,
    find_invertible,
    identity_truncation_iso,
    lift_truncation_iso,
    make_E_lambda_n,
    make_F_rho,
    make_J_k,
    module_iso,
    n0_bound,
    parse_series,
    quotient_iso,
    random_regular,
    recover_Eb_from_truncation,
    truncate,
    verify_fd,
    verify_intertwiner,
)
from abmod import linalg

import oracles
from test_saturation_identities import irregular


# -- truncation --------------------------------------------------------------


def test_truncate_matches_dense_frame():
    for expr in ["J(3;1)", "E(1/2,1/3)", "rand(2;7)"]:
        m = from_expression(expr, 12)
        q = truncate(m, 4)
        A, B, n = oracles.dense_frame(m, 0, 4)
        assert q.dim == n
        for i in range(n):
            for j in range(n):
                assert oracles.to_sym(q.A[i][j]) == A[i, j]
                assert oracles.to_sym(q.B[i][j]) == B[i, j]


def test_truncate_guards():
    m = from_expression("E(1/2)", 8)
    with pytest.raises(BadParameter):
        truncate(m, 0)
    with pytest.raises(PrecisionExhausted):
        truncate(m, 9)


def test_truncate_refuses_a_quotient_above_the_ceiling(monkeypatch):
    from abmod import linalg
    from abmod.determination import MAX_TRUNCATION_DIM

    def no_allocation(rows, cols):
        raise MemoryError(f"allocating a {rows} x {cols} matrix")

    monkeypatch.setattr(linalg, "zeros", no_allocation)
    half = MAX_TRUNCATION_DIM // 2
    m = from_expression("J(2;0)", half + 1)
    with pytest.raises(BadParameter, match=f"must be at most {MAX_TRUNCATION_DIM}, "
                                           f"got {2 * half + 2}$"):
        truncate(m, half + 1)
    # the ceiling is refused before the precision check
    with pytest.raises(BadParameter):
        truncate(from_expression("J(2;0)", 8), half + 1)
    # at the ceiling the matrices are allocated
    with pytest.raises(MemoryError):
        truncate(m, half)


def _count_calls():
    j2 = from_expression("J(2;0)", 8)
    e0 = from_expression("E(0)", 8)
    one = [[Series.one(8)]]
    return {
        "eigen_lift": lambda: eigen_lift(e0, 0, oracles.unit_element(e0, 0), 1.5),
        "recover_Eb_from_truncation": lambda: recover_Eb_from_truncation(
            truncate(j2, 3), 0.5),
        "make_J_k": lambda: make_J_k(0, 2.5, 8),
        "random_regular": lambda: random_regular(2.5, 1, 8),
        "make_E_lambda_n": lambda: make_E_lambda_n(0, 1.5, 8),
        "system": lambda: IntertwinerSystem(j2.matrix, j2.matrix, 4.5).solve(),
        "solve": lambda: IntertwinerSystem(j2.matrix, j2.matrix, 4).solve(3.5),
        "module_iso": lambda: module_iso(j2, j2, W=4.5),
        "truncate": lambda: truncate(j2, 2.5),
        "identity_truncation_iso": lambda: identity_truncation_iso(j2, 2.5),
        "verify_fd": lambda: verify_fd(from_expression("J(2;0)", 24), 1, 0, lo=2.5),
        "verify_intertwiner": lambda: verify_intertwiner(e0.matrix, e0.matrix, one, 8.5),
    }


@pytest.mark.parametrize("site", list(_count_calls()))
def test_a_count_that_is_not_an_integer_is_refused(site):
    with pytest.raises(BadParameter, match="must be an integer, not [0-9.]+$"):
        _count_calls()[site]()


def _loose_count_calls():
    """Counts that are strings or None, at the sites that once compared a
    count before checking it, and both counts of a lift."""
    j2 = from_expression("J(2;0)", 30)
    phi = identity_truncation_iso(j2, 4)
    return {
        "module_iso": lambda: module_iso(j2, j2, W="3"),
        "lift_N": lambda: lift_truncation_iso(j2, j2, phi, "4"),
        "lift_N_none": lambda: lift_truncation_iso(j2, j2, phi, None),
        "lift_W": lambda: lift_truncation_iso(j2, j2, phi, 4, W="30"),
        "make_J_k": lambda: make_J_k(0, "3", 8),
        "make_J_k_none": lambda: make_J_k(0, None, 8),
        "make_F_rho": lambda: make_F_rho(0, "3", 2, 8),
        "random_regular": lambda: random_regular("2", 1, 8),
        "random_regular_none": lambda: random_regular(None, 1, 8),
    }


@pytest.mark.parametrize("site", list(_loose_count_calls()))
def test_a_count_that_is_not_a_number_is_refused(site):
    with pytest.raises(BadParameter, match="must be an integer, not ('[0-9]+'|None)$"):
        _loose_count_calls()[site]()


def _bool_count_and_loose_seed_calls():
    """A bool where a count is due (True is an int to Python), and seeds
    that are not integers (random.Random takes a float or a string)."""
    j2 = from_expression("J(2;0)", 8)
    nonsplit = from_expression("E(1/2,1/3)", 24)
    q = truncate(j2, 3)
    return {
        "module_iso_W": lambda: module_iso(j2, j2, W=True),
        "element_shift": lambda: Element([Series.one(3)], True),
        "verify_fd_trials": lambda: verify_fd(nonsplit, True, 0),
        "truncate_N": lambda: truncate(from_expression("J(3;0)", 12), True),
        "make_J_k_k": lambda: make_J_k(0, True, 8),
        "random_regular_seed": lambda: random_regular(2, "x", 8),
        "module_iso_seed": lambda: module_iso(j2, j2, seed=1.5),
        "quotient_iso_seed": lambda: quotient_iso(q, q, seed=1.5),
        "verify_fd_seed": lambda: verify_fd(nonsplit, 1, 1.5),
        "find_invertible_seed": lambda: find_invertible(
            IntertwinerSystem(j2.matrix, j2.matrix, 3).solve(), seed=1.5),
    }


@pytest.mark.parametrize("site", list(_bool_count_and_loose_seed_calls()))
def test_a_bool_count_or_a_seed_that_is_not_an_integer_is_refused(site):
    with pytest.raises(BadParameter, match="must be an integer, not (True|'x'|1.5)$"):
        _bool_count_and_loose_seed_calls()[site]()


# -- quotient isomorphisms ---------------------------------------------------


def test_quotient_iso_reflexive():
    q = truncate(from_expression("J(3;1)", 12), 4)
    assert quotient_iso(q, q) is not None


def test_quotient_iso_respects_parameter_order():
    left = truncate(from_expression("E(1/2,5/2)", 12), 4)
    right = truncate(from_expression("E(5/2,1/2)", 12), 4)
    assert quotient_iso(left, right) is not None


def test_quotient_iso_distinguishes_exponents():
    left = truncate(from_expression("E(0)", 8), 3)
    right = truncate(from_expression("E(1)", 8), 3)
    assert quotient_iso(left, right) is None


def test_quotient_iso_of_different_rank_and_level_is_none():
    # both quotients have dimension 6: rank 2 at level 3, rank 3 at level 2
    left = truncate(from_expression("J(2;0)", 12), 3)
    right = truncate(from_expression("J(3;0)", 12), 2)
    assert left.dim == right.dim == 6
    assert quotient_iso(left, right) is None


def test_truncation_iso_without_module_iso():
    # F(3;0;1/2) and J(3;0) agree to order 3 but are not isomorphic.
    F = from_expression("F(3;0;1/2)", 16)
    J = from_expression("J(3;0)", 16)
    assert quotient_iso(truncate(F, 3), truncate(J, 3)) is not None
    assert module_iso(F, J) is None


# -- module isomorphisms -----------------------------------------------------


def test_module_iso_goldens():
    a = from_expression("E(1/2,5/2)", 14)
    b = from_expression("E(5/2,1/2)", 14)
    assert module_iso(a, b) is not None
    assert module_iso(from_expression("E(0)", 14), from_expression("E(1)", 14)) is None
    assert (
        module_iso(from_expression("E(1/2)", 14), from_expression("E(1/3)", 14))
        is None
    )


def test_module_iso_refuses_a_precision_outside_the_data():
    e = from_expression("J(2;0)", 8)
    with pytest.raises(BadParameter, match="^the order count must be at least 1, got 0$"):
        module_iso(e, e, W=0)
    with pytest.raises(PrecisionExhausted,
                       match=r"^an intertwiner mod b\^9 needs precision >= 9, have 8$"):
        module_iso(e, e, W=9)


QUOTIENT_GRID = ["J(2;0)", "F(2;0;1)", "F(2;0;1/2)", "E(0;1)", "E(0,1)", "E(1,0)",
                 "E(0,1;1)", "E(1/2,5/2)", "E(5/2,1/2)", "E(1/2,1/3)", "E(1/3,1/2)",
                 "E(1/2;2)", "rand(2;1004)", "J(3;0)", "F(3;0;1/2)", "F(3;0;2)"]


def _quotient_outcome(fn, q, qp):
    """The intertwiner's kind, matrix and order, None, or the error's type
    and message."""
    try:
        t = fn(q, qp)
    except AbmodError as exc:
        return type(exc), str(exc)
    return t if t is None else (t.kind, t.matrix, t.order)


def _conjugated(q, rng):
    """q on a drawn basis: A and B conjugated by an invertible integer S."""
    while True:
        s = [[Scalar(rng.randint(-2, 2)) for _ in range(q.dim)] for _ in range(q.dim)]
        inv = linalg.inverse(s)
        if inv is not None:
            break
    a, b = ([list(row) for row in m] for m in (q.A, q.B))
    a, b = (tuple(map(tuple, linalg.mat_mul(s, linalg.mat_mul(m, inv)))) for m in (a, b))
    return FiniteAbQuotient(q.dim, a, b, q.rank, q.level)


def test_quotient_iso_matches_the_dense_check():
    """T read off the certified series matrix equals the T that the dense
    check passed, with the same None or error, on all ordered pairs of 16
    catalog modules at levels 1-4, on quotients given on a drawn basis, and
    on a b-action that is not nilpotent; every T found commutes with both
    actions on the dense quotients and has a nonzero determinant."""
    rng = random.Random(41)
    levels = range(1, 5)
    qs = {N: [truncate(from_expression(e, 8), N) for e in QUOTIENT_GRID] for N in levels}
    cases = [(q, qp) for N in levels for q in qs[N] for qp in qs[N]]
    for q in qs[2] + qs[3]:
        c = _conjugated(q, rng)
        cases += [(q, c), (c, q), (c, _conjugated(q, rng))]
    e0 = truncate(from_expression("E(0)", 8), 2)
    unipotent = FiniteAbQuotient(e0.dim, e0.A, ((ONE, ONE), (ZERO, ONE)), 1, 2)
    cases += [(unipotent, e0), (e0, unipotent)]
    seen = []
    for q, qp in cases:
        got = _quotient_outcome(quotient_iso, q, qp)
        assert got == _quotient_outcome(oracles.dense_quotient_iso, q, qp)
        seen.append(got if got is None else got[0])
        if got is not None and got[0] == "quotient":
            t = [list(row) for row in got[1]]
            assert oracles._commutes(t, q, qp) and not linalg.det(t).is_zero()
    assert seen.count("quotient") >= 250 and seen.count(None) >= 500
    assert seen.count(BadParameter) > 300


def test_quotient_iso_refuses_quotients_of_different_dimensions():
    left = truncate(from_expression("J(2;0)", 12), 3)
    right = truncate(from_expression("J(2;0)", 12), 4)
    with pytest.raises(BadParameter, match="^quotient dimensions differ$"):
        quotient_iso(left, right)


def test_quotient_iso_refuses_a_b_action_that_is_not_nilpotent():
    q = truncate(from_expression("E(0)", 8), 2)
    unipotent = FiniteAbQuotient(q.dim, q.A, ((ONE, ONE), (ZERO, ONE)), q.rank, q.level)
    with pytest.raises(BadParameter, match="^b-action is not nilpotent$"):
        quotient_iso(unipotent, q)


def _shift(sizes):
    """The nilpotent b-action with Jordan blocks of these sizes: within a
    block b sends each basis vector to the next."""
    dim = sum(sizes)
    b = [[ZERO] * dim for _ in range(dim)]
    start = 0
    for size in sizes:
        for j in range(start, start + size - 1):
            b[j + 1][j] = ONE
        start += size
    return tuple(map(tuple, b))


@pytest.mark.parametrize("sizes,a_diagonal,message", [
    ((2, 1), (0, 0, 0), "dimension is not divisible by the b-nilpotency order"),
    ((2, 1, 1), (0, 0, 0, 0), "b-orbits of the chosen representatives are dependent"),
    ((2,), (1, 2), "the (A, B) pair is not the truncation of a module presentation"),
])
def test_quotient_iso_refuses_a_pair_without_a_standard_form(sizes, a_diagonal, message):
    dim = len(a_diagonal)
    a = tuple(tuple(Scalar(a_diagonal[i]) if i == j else ZERO for j in range(dim))
              for i in range(dim))
    q = FiniteAbQuotient(dim, a, _shift(sizes), len(sizes), max(sizes))
    with pytest.raises(BadParameter) as raised:
        quotient_iso(q, q)
    assert str(raised.value) == message


# -- lifting -----------------------------------------------------------------


def test_identity_lift_is_identity():
    e = from_expression("J(2;0)", 20)
    N = n0_bound(e)
    lift = lift_truncation_iso(e, e, identity_truncation_iso(e, N), N)
    assert lift.kind == "module"
    W = lift.order
    for i in range(e.rank):
        for j in range(e.rank):
            expected = Series.one(W) if i == j else Series.zero(W)
            assert lift.matrix[i][j].at_precision(W) == expected


def test_lift_rejects_malformed_phi():
    """phi must be a rank x rank "module" Intertwiner of order N whose
    entries are Series known mod b^N at least."""
    e = from_expression("J(2;0)", 20)
    phi = identity_truncation_iso(e, 3)
    one, zero = Series.one(3), Series.zero(3)
    dense = Intertwiner("quotient", tuple(tuple(ONE if r == c else ZERO for c in range(6))
                                          for r in range(6)), 3)
    for bad, N in ((phi, 4), (Intertwiner("quotient", phi.matrix, 3), 3),
                   (Intertwiner("module", ((one,),), 3), 3),
                   (Intertwiner("module", ((one, zero), (zero,)), 3), 3),
                   (Intertwiner("module", ((one, zero), (zero, Series.one(2))), 3), 3)):
        with pytest.raises(BadParameter, match="^phi is not an intertwiner of the N-"):
            lift_truncation_iso(e, e, bad, N, W=N + 1)
    # an entry that is not a Series is refused by the one entry check
    for bad in (dense, Intertwiner("module", ((one, zero), (zero, ONE)), 3)):
        with pytest.raises(BadParameter, match="^phi's entries must be Series$"):
            lift_truncation_iso(e, e, bad, 3, W=4)


def _diagonal_map(diagonal, N):
    """The map of E/b^N E that scales e_i by diagonal[i], as its series
    matrix mod b^N."""
    p = len(diagonal)
    return Intertwiner("module", tuple(
        tuple(Series([diagonal[r]], N) if r == c else Series.zero(N) for c in range(p))
        for r in range(p)), N)


def test_lift_refuses_each_broken_precondition():
    e = from_expression("J(2;0)", 20)
    N = 3
    phi = identity_truncation_iso(e, N)
    with pytest.raises(BadParameter, match="ranks differ"):
        lift_truncation_iso(e, from_expression("J(3;0)", 20), phi, N)
    with pytest.raises(NotRegular):
        lift_truncation_iso(irregular(from_expression("E(1/2,1/3)", 20)), e, phi, N)
    # Each phi below is refused before the lifting precision: W = N + 1
    # would raise PrecisionExhausted (the lifting window).
    with pytest.raises(BadParameter, match="truncation level must be at least 1, got 0"):
        lift_truncation_iso(e, e, Intertwiner("module", (), 0), 0, W=1)
    # the identity does not intertwine J(3;0) with J(3;1)
    j0, j1 = from_expression("J(3;0)", 20), from_expression("J(3;1)", 20)
    with pytest.raises(BadParameter, match="not a verified truncation isomorphism"):
        lift_truncation_iso(j0, j1, identity_truncation_iso(j0, N), N, W=N + 1)
    # maps commuting with a that are singular: the zero map, and the
    # projection onto the first summand of E(0) + E(2)
    split = AbModule([[Series.zero(20), Series.zero(20)],
                      [Series.zero(20), Series.monomial(Scalar(2), 1, 20)]])
    for module, singular in ((e, _diagonal_map((0, 0), N)),
                             (split, _diagonal_map((1, 0), N))):
        with pytest.raises(BadParameter, match="not a verified truncation isomorphism"):
            lift_truncation_iso(module, module, singular, N, W=N + 1)
    with pytest.raises(PrecisionExhausted,
                       match=r"^an intertwiner mod b\^21 needs precision >= 21, have 20$"):
        lift_truncation_iso(e, e, _diagonal_map((1, 1), 21), 21)
    with pytest.raises(BadParameter, match=f"lifting precision must be at least {N + 1}, "
                                           f"got {N}"):
        lift_truncation_iso(e, e, phi, N, W=N)
    # the window needs W - slack > N, and J(2;0)'s slack is 4
    with pytest.raises(PrecisionExhausted,
                       match="^the lifting window above level 3 needs precision >= 8, "
                             "have 4$"):
        lift_truncation_iso(e, e, phi, N, W=N + 1)
    with pytest.raises(PrecisionExhausted,
                       match=r"^an intertwiner mod b\^21 needs precision >= 21, have 20$"):
        lift_truncation_iso(e, e, phi, N, W=e.precision + 1)


COUNTEREXAMPLE_DELTA = [
    ["-b^5", "0", "2*b^4-(1/2)*b^6"],
    ["0", "-2*b^4", "b^6+b^7"],
    ["0", "0", "0"],
]


def _counterexample_pair(W=26):
    e = make_J_k(Scalar(1), 3, W)
    rows = [
        [e.matrix[i][j] + parse_series(COUNTEREXAMPLE_DELTA[i][j], W)
         for j in range(3)]
        for i in range(3)
    ]
    return e, AbModule(rows)


def test_order4_agreement_does_not_determine_J3():
    # The two modules share the same level-4 truncation (the n0 bound for
    # J(3;1)) yet are not isomorphic; the identity of the truncations has no
    # lift, and a dense solve confirms no invertible intertwiner head exists.
    e, ep = _counterexample_pair()
    assert n0_bound(e) == 4
    assert truncate(e, 4) == truncate(ep, 4)
    with pytest.raises(NoLift):
        lift_truncation_iso(e, ep, identity_truncation_iso(e, 4), 4)
    assert module_iso(e, ep) is None
    _, head = oracles.intertwiner_space(e.at_precision(12), ep.at_precision(12), 12)
    assert not oracles.invertible_head_exists(head, 3)


def test_verify_fd_clean_at_level_bound_rank2():
    r = verify_fd(from_expression("J(2;0)", 24), 6, 5)
    assert r["n0"] == 3 and r["lo"] == 3
    assert r["failures"] == [] and r["successes"] == 6


def test_verify_fd_refuses_an_irregular_module():
    with pytest.raises(NotRegular):
        verify_fd(irregular(from_expression("E(1/2,1/3)", 24)), 1, 0)


def test_verify_fd_sharp_failure_and_recovery_rank3():
    m = from_expression("J(3;0)", 26)
    at_n0 = verify_fd(m, 5, 2)
    assert at_n0["lo"] == 4 and at_n0["failures"]
    for f in at_n0["failures"]:
        assert f["error"] in ("NoLift", "NonUniqueLift")
        assert any(entry != "0" for row in f["witness"] for entry in row)
    one_higher = verify_fd(m, 5, 2, lo=5)
    assert one_higher["failures"] == []


# -- recovering the simple-pole part from a truncation -----------------------


def test_recover_simple_pole_part():
    # Simple-pole module: the stable subspace is everything.
    q = truncate(from_expression("E(1/2)", 8), 3)
    assert len(recover_Eb_from_truncation(q, 0)) == q.dim

    # Rank-2 module with one saturation step: at level 2 the image of b
    # has codimension 1 inside the recovered subspace.
    q = truncate(from_expression("E(1/2,1/3)", 8), 2)
    assert len(recover_Eb_from_truncation(q, 1)) == 3

    # J(3;1) needs two steps; at level 4 the recovered subspace has
    # dimension 9 out of 12.
    q = truncate(from_expression("J(3;1)", 8), 4)
    assert len(recover_Eb_from_truncation(q, 2)) == 9

    with pytest.raises(NotFound):
        recover_Eb_from_truncation(q, 4)


RECOVER_MODULES = ["E(1/2)", "E(1/2;2)", "E(-1/3;1)", "E(1/2,1/3)", "E(1/3,2;(1+i))",
                   "J(2;0)", "J(3;0)", "J(3;1)", "F(3;0;1/2)"]


def test_recover_Eb_from_truncation_is_the_image_of_the_simple_pole_part():
    """For delta <= k < N the recovered subspace is the image of E^b
    (``biggest_simple_pole``'s lattice) in E/b^N E; for k < delta the image
    of b^k leaves the stable subspace and NotFound is raised."""
    expressions = st.one_of(
        st.sampled_from(RECOVER_MODULES),
        st.builds("rand({};{})".format, st.integers(1, 3), st.integers(0, 2000)))
    seen = {"equal": 0, "NotFound": 0, "delta > 1": 0}

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(expressions, st.integers(1, 4), st.data())
    def check(expr, above, data):
        module = from_expression(expr, 24)
        delta = delta_index(module)
        N = delta + above
        k = data.draw(st.integers(max(delta - 2, 0), min(delta + 1, N - 1)), label="k")
        q = truncate(module, N)
        seen["delta > 1"] += delta > 1
        if k < delta:
            with pytest.raises(NotFound):
                recover_Eb_from_truncation(q, k)
            seen["NotFound"] += 1
            return
        got = [[oracles.to_sym(x) for x in row] for row in recover_Eb_from_truncation(q, k)]
        assert sympy.Matrix(got) == oracles.eb_truncation_image(module, N)
        seen["equal"] += 1

    check()
    assert min(seen.values()) >= 5, seen
