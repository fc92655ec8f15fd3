"""End-to-end acceptance suite.

One test per numbered criterion (c01..c12), so ``pytest -v`` reports one
pass/fail line for each.  All arithmetic is exact; every random draw is
seeded.  Criterion 8 runs the full finite-determination roster and reports
every failing witness in its assertion message; the companion test after it
shows the same modules certify cleanly at a corrected truncation level.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from abmod import (
    AbModule,
    Scalar,
    Series,
    UnsupportedSpectrum,
    alpha_invariant,
    base_change,
    classify_rank2,
    delta_index,
    dual,
    ext_dims,
    from_expression,
    hom_ab,
    is_regular,
    jordan_holder,
    make_E_lambda,
    make_E_lambda_mu,
    make_E_lambda_mu_alpha,
    make_E_lambda_n,
    make_F_rho,
    make_J_k,
    module_iso,
    n0_bound,
    n_lambda,
    quotient_iso,
    random_regular,
    regularity_order,
    saturate,
    spectrum,
    truncate,
    verify_fd,
    width_table,
)
from abmod import linalg
from abmod.scalars import ONE

import oracles

HALF = Scalar(Fraction(1, 2))
THIRD = Scalar(Fraction(1, 3))


def _mono(c, k, W):
    return Series.monomial(c, k, W)


def _direct_sum(l1, l2, W):
    Z = Series.zero(W)
    return AbModule([[_mono(l1, 1, W), Z], [Z, _mono(l2, 1, W)]])


def _rand_scalar(rng):
    s = Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
    if rng.random() < 0.25:
        s = s + Scalar(0, Fraction(rng.randint(-2, 2)))
    return s


def _sparse_series(rng, w):
    s = Series.zero(w)
    for _ in range(rng.randint(0, 2)):
        c = _rand_scalar(rng)
        if not c.is_zero():
            s = s + _mono(c, rng.randint(0, min(4, w - 1)), w)
    return s


def _random_base_change(module, rng):
    """Conjugate the structure matrix by a random invertible series matrix."""
    p, w = module.rank, module.precision
    while True:
        q = [[_sparse_series(rng, w) for _ in range(p)] for _ in range(p)]
        q0 = [[q[i][j].coefficient(0) for j in range(p)] for i in range(p)]
        if not linalg.det(q0).is_zero():
            break
    return base_change(module, q)


# ---------------------------------------------------------------------------


def test_c01_duality_goldens():
    # Rank 1: the dual of E_lambda is E_{-lambda}.
    for lam in [Scalar(0), Scalar(1), Scalar(-2), HALF, Scalar(3, 1)]:
        left = dual(make_E_lambda(lam, 12))
        assert module_iso(left, make_E_lambda(-lam, 12)) is not None, str(lam)

    # Rank 2 non-split: the dual of E_{l,m} is E_{-m+1,-l+1}.
    for lam, mu in [(HALF, THIRD), (Scalar(2), HALF), (Scalar(1), Scalar(1))]:
        left = dual(make_E_lambda_mu(lam, mu, 14))
        right = make_E_lambda_mu(-mu + ONE, -lam + ONE, 14)
        assert module_iso(left, right) is not None, (str(lam), str(mu))

    # The simple-pole Jordan pair: the dual of E_1(0) is E_{-1}(0).
    left = dual(make_E_lambda_n(Scalar(1), 0, 12))
    assert module_iso(left, make_E_lambda_n(Scalar(-1), 0, 12)) is not None

    # J_k: the dual of J_k(l) is J_k(-l-k+1).  This is forced by the other
    # duality invariants (the saturation spectrum of J_k(l) is {l}^k and
    # dualizing negates it; lambda_max(J_k(l)) = l).  The suite also rules
    # out the nearby candidate J_k(-l-2k+2), which would negate the spectrum
    # twice over.
    for k in (2, 3, 4, 5):
        lam = HALF
        left = dual(make_J_k(lam, k, 16))
        assert module_iso(left, make_J_k(-lam - Scalar(k - 1), k, 16)) is not None, k
        assert module_iso(left, make_J_k(-lam - Scalar(2 * k - 2), k, 16)) is None, k


def test_c02_invariant_goldens():
    # Rank-3 example a e1 = e2, a e2 = b e3, a e3 = 0: index 1 but
    # regularity order 2, while the dual has order 1.
    W = 16
    Z = Series.zero(W)
    m3 = AbModule([[Z, Z, Z], [Series.one(W), Z, Z], [Z, _mono(ONE, 1, W), Z]])
    assert delta_index(m3) == 1
    assert regularity_order(m3) == 2
    assert regularity_order(dual(m3)) == 1

    # J_k(l): delta = or = k-1, width -k+1, determination level k+1.
    for k in range(1, 7):
        m = make_J_k(HALF, k, 16)
        assert delta_index(m) == k - 1
        assert regularity_order(m) == k - 1
        assert width_table(m).width == -k + 1
        assert n0_bound(m) == k + 1

    # E_{l,m} in the generic (non-integer gap) and equal-parameter regimes:
    # determination level 3.  E_lambda: level 2.
    for lam, mu in [(HALF, THIRD), (Scalar(0), HALF), (Scalar(1), Scalar(1)),
                    (Scalar(2), Scalar(2))]:
        assert n0_bound(make_E_lambda_mu(lam, mu, 12)) == 3, (str(lam), str(mu))
    for lam in [Scalar(0), Scalar(Fraction(3, 4))]:
        assert n0_bound(make_E_lambda(lam, 12)) == 2


def test_c03_rank2_classification_round_trip():
    W = 12
    families = [
        (_direct_sum(HALF, Scalar(2), W), "DirectSum(1/2, 2)"),
        (make_E_lambda_n(HALF, 2, W), "SimplePoleJordan(1/2, 2)"),
        (make_E_lambda_mu(HALF, THIRD, W), "NonSplit(1/3, 1/2)"),
        (make_E_lambda_mu_alpha(HALF, 2, Scalar(3), W), "NonSplitAlpha(1/2, 2, 3)"),
    ]
    rng = random.Random(1234)
    mismatches = []
    for module, tag in families:
        for rep in range(200):
            got = str(classify_rank2(_random_base_change(module, rng)))
            if got != tag:
                mismatches.append((tag, rep, got))
    assert not mismatches, mismatches


def test_c04_polynomial_coefficient_reduction():
    # a e = b S(b) e is isomorphic to E_{S(0)} for any polynomial S.
    rng = random.Random(77)
    W = 14
    for trial in range(50):
        deg = rng.randint(0, 6)
        coeffs = [
            Scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
            for _ in range(deg + 1)
        ]
        if rng.random() < 0.2:
            coeffs[rng.randint(0, deg)] += Scalar(0, Fraction(rng.randint(-2, 2)))
        padded = coeffs + [Scalar(0)] * (W - deg - 1)
        module = AbModule([[Series(padded[:W], W).shift_up(1)]])
        assert module_iso(module, make_E_lambda(coeffs[0], W)) is not None, trial


def test_c05_spectrum_symmetry_and_width_duality():
    # The saturation spectrum of the dual is the negated spectrum.
    for i in range(100):
        rank = 1 + i % 4
        m = random_regular(rank, 9000 + i, 12, simple_pole=True)
        s = spectrum(m)
        sd = spectrum(saturate(dual(m)).saturated)
        assert sorted((-x).sort_key() for x in s) == sorted(
            x.sort_key() for x in sd
        ), i

    # Width and index are duality invariants.
    for i in range(100):
        rank = 1 + i % 4
        m = random_regular(rank, 9500 + i, 14)
        d = dual(m)
        assert width_table(m).width == width_table(d).width, i
        assert delta_index(m) == delta_index(d), i


def test_c06_jordan_holder_consistency():
    for i in range(100):
        rank = 1 + i % 4
        m = random_regular(rank, 4000 + i, 14)
        assert regularity_order(m) <= rank - 1, i
        total = alpha_invariant(m)
        for policy in ("lex", "revlex"):
            seq = jordan_holder(m, policy=policy)
            assert seq.exponent_sum() == total, (i, policy)


def test_c07_saturation_goldens():
    # saturate(E_{l,m}) splits as E_{l-1} + E_{m-1} when l != m ...
    for lam, mu in [(HALF, THIRD), (Scalar(2), HALF), (Scalar(Fraction(5, 2)), HALF)]:
        s = saturate(make_E_lambda_mu(lam, mu, 16)).saturated
        target = _direct_sum(lam - ONE, mu - ONE, s.precision)
        assert module_iso(s, target) is not None, (str(lam), str(mu))

    # ... and is the simple-pole Jordan module E_{l-1}(0) when l == m.
    s = saturate(make_E_lambda_mu(HALF, HALF, 16)).saturated
    assert module_iso(s, make_E_lambda_n(HALF - ONE, 0, s.precision)) is not None

    # The alpha family saturates onto E_{l-n-1}(n).
    for lam, n, alpha in [(HALF, 1, Scalar(1)), (HALF, 2, Scalar(3)),
                          (Scalar(1), 2, Scalar(0, 1))]:
        s = saturate(make_E_lambda_mu_alpha(lam, n, alpha, 18)).saturated
        target = make_E_lambda_n(lam - Scalar(n) - ONE, n, s.precision)
        assert module_iso(s, target) is not None, (str(lam), n)

    # The biggest simple-pole submodule of E_{l,m} is b times the saturation.
    from abmod import biggest_simple_pole
    for expr in ["E(1/2,1/3)", "E(2,2)", "E(1/2,1;1)"]:
        m = from_expression(expr, 14)
        eb = biggest_simple_pole(m)[0]
        s = saturate(m).saturated
        w = min(eb.precision, s.precision)
        expected = [
            [s.matrix[i][j] + (_mono(ONE, 1, w) if i == j else Series.zero(w))
             for j in range(2)]
            for i in range(2)
        ]
        assert all(
            eb.matrix[i][j].at_precision(w) == expected[i][j].at_precision(w)
            for i in range(2) for j in range(2)
        ), expr


FD_TRIALS = 20


def _fd_roster():
    roster = [
        ("J(2;0)", from_expression("J(2;0)", 24)),
        ("J(3;0)", from_expression("J(3;0)", 24)),
        ("J(4;0)", from_expression("J(4;0)", 20)),
        ("J(5;0)", from_expression("J(5;0)", 20)),
        ("E(1/2,1/3)", from_expression("E(1/2,1/3)", 24)),
        ("E(1/2;2)", from_expression("E(1/2;2)", 24)),
    ]
    for i in range(10):
        for rank in (2, 3, 4):
            label = f"rand({rank};{1000 + i})"
            roster.append((label, from_expression(label, 26)))
    return roster


def _corrected_level(m):
    o = regularity_order(m)
    L = width_table(m).width
    return max(n0_bound(m), 2 * o + 1, o + max(L, 0) + m.rank)


def test_c08_finite_determination_positive():
    # Perturb each roster module at orders >= its determination level
    # or(E)+L(E)+rank(E)+1 and demand a verified unique lift every time.
    # Failures are collected across the whole roster and reported together
    # with their witness perturbations.
    failing = []
    for label, module in _fd_roster():
        report = verify_fd(module, FD_TRIALS, 11)
        for f in report["failures"]:
            witness = [
                (i + 1, j + 1, entry)
                for i, row in enumerate(f["witness"])
                for j, entry in enumerate(row)
                if entry != "0"
            ]
            failing.append(
                f"{label} (level {report['lo']}) trial {f['trial']}: "
                f"{f['error']}; perturbation {witness}"
            )
    assert not failing, (
        "finite determination failed at level or+L+rank+1 on "
        f"{len(failing)} perturbation(s):\n" + "\n".join(failing)
    )


def test_c08_companion_corrected_level():
    # The modules that defeat the or+L+rank+1 level certify cleanly at
    # max(or+L+rank+1, 2*or+1, or+max(L,0)+rank); for J_k this is 2k-1.
    for k in (3, 4, 5):
        m = from_expression(f"J({k};0)", 24)
        lo = _corrected_level(m)
        assert lo == 2 * k - 1
        report = verify_fd(m, 10, 17, lo=lo)
        assert report["failures"] == [], (k, lo, report["failures"])


def test_c09_finite_determination_sharpness():
    # F(k;l;rho) agrees with J_k(l) to order k yet is a different module.
    for k in (2, 3, 4, 5):
        F = make_F_rho(Scalar(0), k, HALF, 14)
        J = make_J_k(Scalar(0), k, 14)
        assert quotient_iso(truncate(F, k), truncate(J, k)) is not None, k
        assert module_iso(F, J) is None, k


def test_c10_ext_coherence():
    # Ext^1 is a duality invariant: Ext^1(E,F) = Ext^1(F*,E*).
    rng = random.Random(505)
    for i in range(30):
        if i < 24:
            r1, r2 = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
        elif i < 29:
            r1, r2 = rng.choice([(3, 2), (2, 3), (1, 3), (3, 1)])
        else:
            r1, r2 = (3, 3)
        need = 24 if r1 * r2 >= 9 else (18 if r1 * r2 >= 6 else 14)
        E = from_expression(f"rand({r1};{700 + i})", need)
        F = from_expression(f"rand({r2};{800 + i})", need)
        assert ext_dims(E, F)[1] == ext_dims(dual(F), dual(E))[1], i

    # Ext^1(E, E_lambda) equals the dimension of E*/(a + lambda b)E*,
    # computed independently by dense truncation at a certified level.
    for expr, lam in [("E(0)", Scalar(0)), ("E(0)", Scalar(1)),
                      ("E(1/2,1/3)", HALF), ("J(3;0)", Scalar(0)),
                      ("rand(2;42)", Scalar(1))]:
        E = from_expression(expr, 24)
        Ed = dual(E)
        level = n_lambda(Ed, -lam) + 2
        d1 = oracles.coker_dim_dense(Ed.at_precision(level), lam, level)
        d2 = oracles.coker_dim_dense(Ed.at_precision(level + 1), lam, level + 1)
        assert d1 == d2, (expr, str(lam))
        assert d1 == ext_dims(E, make_E_lambda(lam, 24))[1], (expr, str(lam))

    # Values are stable across three consecutive working precisions of the
    # same pair.
    for e1, e2 in [("E(1/2,1/3)", "J(2;0)"), ("rand(2;9)", "rand(2;10)"),
                   ("rand(3;33)", "rand(2;40)")]:
        E = from_expression(e1, 20)
        F = from_expression(e2, 20)
        dims = [ext_dims(E.at_precision(w), F.at_precision(w)) for w in (16, 17, 18)]
        assert dims[0] == dims[1] == dims[2], (e1, e2, dims)


def test_c11_hom_bracket_and_rank():
    reps = ["E(1/2)", "E(2)", "E(1/2;1)", "E(1/2,1/3)", "E(1/2,2;3)",
            "J(2;0)", "J(3;1)", "F(2;0;1/2)", "F(3;0;1/2)"]
    mods = [from_expression(r, 12) for r in reps]
    for E in mods:
        for F in mods:
            H = hom_ab(E, F)
            assert H.rank == E.rank * F.rank
            q = truncate(H, 3)
            left = oracles.mat_sub(
                linalg.mat_mul(q.A, q.B), linalg.mat_mul(q.B, q.A)
            )
            right = linalg.mat_mul(q.B, q.B)
            assert all(
                left[i][j] == right[i][j]
                for i in range(q.dim) for j in range(q.dim)
            )


def _grid_modules(W=6):
    Z = Series.zero(W)
    mods = []
    for lam in [Scalar(0), Scalar(1), Scalar(-1), HALF, Scalar(2), Scalar(0, 1)]:
        mods.append(AbModule([[_mono(lam, 1, W)]]))
    for f in [_mono(ONE, 1, W) + _mono(ONE, 2, W),
              _mono(Scalar(2), 1, W) - _mono(ONE, 3, W),
              _mono(ONE, 2, W)]:
        mods.append(AbModule([[f]]))
    mods.append(AbModule([[Series.one(W)]]))                       # non-regular
    mods.append(AbModule([[Series.one(W) + _mono(ONE, 1, W)]]))    # non-regular
    diag = [Scalar(0), Scalar(1), Scalar(-1), HALF, Scalar(2), Scalar(Fraction(5, 2))]
    tops = [Z, Series.one(W), _mono(ONE, 1, W), _mono(ONE, 2, W)]
    for a_ in diag:
        for b_ in diag:
            for c_ in tops:
                mods.append(AbModule([[_mono(a_, 1, W), c_], [Z, _mono(b_, 1, W)]]))
    small = [Scalar(0), Scalar(1), HALF, -HALF]
    for a_ in small:
        for b_ in small:
            for top in [Z, _mono(ONE, 1, W), _mono(ONE, 2, W)]:
                mods.append(
                    AbModule([[_mono(a_, 1, W), top],
                              [Series.one(W), _mono(b_, 1, W)]])
                )
    for expr in ["E(1/2)", "E(1;1)", "E(1/2,1/3)", "E(1/2,2;3)", "J(2;0)",
                 "F(2;0;1/2)"]:
        mods.append(from_expression(expr, W))
    return mods


def _oracle_agreement(m):
    if not is_regular(m):
        try:
            oracles.saturation_oracle(m)
            return "disagree-regularity"
        except ValueError:
            return "nonregular-agreed"
    res = oracles.saturation_oracle(m)
    sat = saturate(m)
    if delta_index(m) != res["delta"] or sat.steps != res["steps"]:
        return "disagree-delta"
    head = oracles.lattice_head_oracle(sat.lattice, m.rank, m.precision - 1)
    if head != res["head"]:
        return "disagree-lattice"
    try:
        spec = spectrum(sat.saturated)
    except UnsupportedSpectrum:
        return ("unsupported-agreed" if res["spectrum"] is None
                else "disagree-supportedness")
    if res["spectrum"] is None:
        return "disagree-supportedness"
    if sorted(s.sort_key() for s in spec) != sorted(
        s.sort_key() for s in res["spectrum"]
    ):
        return "disagree-spectrum"
    return "agreed"


def test_c12_oracle_equivalence():
    tally = Counter(_oracle_agreement(m) for m in _grid_modules())
    disagreements = {k: v for k, v in tally.items() if k.startswith("disagree")}
    assert not disagreements, (disagreements, dict(tally))
    assert tally["agreed"] >= 150
    assert tally["nonregular-agreed"] >= 2
