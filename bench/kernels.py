"""Kernel microbenchmarks on fixed seeded operands.

The operands are drawn from a fixed seed and look like the workloads' data:
Gaussian rationals with small denominators, about a quarter of them complex.
Every kernel runs ``REPS`` repetitions and reports the median time of one
call.  Each repetition of the eigenvalue, saturation and solver kernels uses
inputs it has not seen before (or a cleared cache), so a memo in the library
cannot stand in for the work.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REPS = 3
OPERAND_SEED = 20080128


def _scalar(rng, complex_share=0.25):
    from abmod import Scalar

    re = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    if rng.random() < complex_share:
        return Scalar(re, Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
    return Scalar(re)


def _nonzero(rng):
    while True:
        s = _scalar(rng)
        if s:
            return s


def _series(rng, w, density=0.5, unit=False):
    from abmod import Scalar, Series

    coeffs = [_scalar(rng) if rng.random() < density else Scalar(0) for _ in range(w)]
    if unit:
        coeffs[0] = _nonzero(rng)
    return Series(coeffs, w)


def _matrix(rng, n, density=0.5):
    from abmod import Scalar

    return [[_scalar(rng) if rng.random() < density else Scalar(0) for _ in range(n)]
            for _ in range(n)]


def _split_matrix(rng, n):
    """A matrix whose eigenvalues are distinct-ish Gaussian rationals: P D P^-1
    with P unit lower times unit upper triangular with small integer entries."""
    from abmod import Scalar, linalg

    lower = [[Scalar(rng.randint(-2, 2)) if j < i else Scalar(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[Scalar(rng.randint(-2, 2)) if j > i else Scalar(int(i == j))
              for j in range(n)] for i in range(n)]
    p = linalg.mat_mul(lower, upper)
    d = [[_scalar(rng, 0.3) if i == j else Scalar(0) for j in range(n)] for i in range(n)]
    return linalg.mat_mul(p, linalg.mat_mul(d, linalg.inverse(p)))


def _per_call(fn, args_list, reps=REPS):
    """Median over reps of (time of one pass over args_list) / len(args_list)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list))
    return statistics.median(times)


def _each_once(fn, args_list):
    """Median time of single calls, each on its own operands."""
    times = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_kernels() -> dict:
    """``{metric name: (value, unit)}`` for every kernel metric."""
    import abmod
    from abmod import linalg, morphisms

    rng = random.Random(OPERAND_SEED)
    out = {}
    pairs = [(_scalar(rng), _scalar(rng)) for _ in range(2000)]
    units = [(_nonzero(rng),) for _ in range(2000)]
    out["scalars.mul_ns"] = (_per_call(lambda a, b: a * b, pairs) * 1e9, "ns")
    out["scalars.add_ns"] = (_per_call(lambda a, b: a + b, pairs) * 1e9, "ns")
    out["scalars.inv_ns"] = (_per_call(lambda a: a.inverse(), units) * 1e9, "ns")

    spairs = [(_series(rng, 24), _series(rng, 24)) for _ in range(40)]
    sunits = [(_series(rng, 24, unit=True),) for _ in range(40)]
    out["series.mul_us_w24"] = (_per_call(lambda a, b: a * b, spairs) * 1e6, "us")
    out["series.invert_us_w24"] = (_per_call(lambda a: a.invert(), sunits) * 1e6, "us")

    m12 = [(_matrix(rng, 12),) for _ in range(REPS)]
    m30 = [(_matrix(rng, 30, density=0.2),) for _ in range(REPS)]
    out["linalg.rref_ms_12"] = (_each_once(linalg.rref, m12) * 1e3, "ms")
    out["linalg.rref_ms_30"] = (_each_once(linalg.rref, m30) * 1e3, "ms")
    out["linalg.det_ms_12"] = (_each_once(linalg.det, m12) * 1e3, "ms")

    e2 = [(_split_matrix(rng, 2),) for _ in range(REPS)]
    e4 = [(_split_matrix(rng, 4),) for _ in range(REPS)]
    out["linalg.eigen_ms_deg2"] = (_each_once(linalg.eigenvalues, e2) * 1e3, "ms")
    out["linalg.eigen_ms_deg4"] = (_each_once(linalg.eigenvalues, e4) * 1e3, "ms")

    cols = [([[_series(rng, 24, density=0.3) for _ in range(4)] for _ in range(6)],)
            for _ in range(REPS)]
    out["lattice.from_columns_ms"] = (
        _each_once(lambda c: abmod.lattice_from_columns(4, c), cols) * 1e3, "ms")

    j5 = abmod.from_expression("J(5;1/2)", 24)

    def saturate_cold(m):
        abmod.saturate.cache_clear()
        abmod.saturate(m)

    out["invariants.saturate_ms_J5"] = (
        _each_once(saturate_cold, [(j5,)] * REPS) * 1e3, "ms")

    systems = [(abmod.from_expression(f"rand(4;{300 + r})", 24),) for r in range(REPS)]
    out["morphisms.solve_ms_r4_w24"] = (
        _each_once(lambda m: morphisms.IntertwinerSystem(m.matrix, m.matrix, 24).solve(),
                   systems) * 1e3, "ms")
    return out
