"""Eigen-kernels of truncations solved order by order, against the dense
reference: the kernel of A - c*B on E/b^N E from ``truncate`` and a full
``nullspace``, and ``ext_dims`` recomputed from dense truncations of the
internal Hom, its ``PrecisionExhausted`` messages included."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from abmod import (
    IntertwinerSystem,
    PrecisionExhausted,
    Scalar,
    Series,
    base_change,
    ext_dims,
    hom_ab,
    is_regular,
    n_lambda,
    random_regular,
    saturate,
    spectrum,
    truncate,
)
from abmod.linalg import mat_mul, mat_scale, mat_sub, nullspace, rank
from abmod.scalars import ONE, ZERO

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

scalars = st.builds(
    lambda n, d: Scalar(Fraction(n, d)), st.integers(-3, 3), st.sampled_from((1, 2))
)


@st.composite
def modules(draw, ranks, precisions):
    """A random regular module, simple-pole or not, after a random base
    change Q = (L*U at b^0) + (one monomial of degree 1..3 per entry)."""
    p = draw(ranks)
    w = draw(precisions)
    module = random_regular(p, draw(st.integers(0, 10**6)), w, draw(st.booleans()))
    lower = [[draw(scalars) if j < i else ONE if j == i else ZERO for j in range(p)]
             for i in range(p)]
    upper = [[draw(scalars) if j > i else ONE if j == i else ZERO for j in range(p)]
             for i in range(p)]
    q0 = mat_mul(lower, upper)
    q = [
        [Series.monomial(q0[i][j], 0, w)
         + Series.monomial(draw(scalars), draw(st.integers(1, 3)), w)
         for j in range(p)]
        for i in range(p)
    ]
    return base_change(module, q)


def _dense_kernel(module, c, level):
    """Basis of the kernel of A - c*B on E/b^level E; coordinate i*level + j
    is the coefficient of b^j in the i-th component."""
    q = truncate(module, level)
    return nullspace(mat_sub(q.A, mat_scale(q.B, c)))


def _dense_rank_in_blocks(null, p, level, hi):
    if not null:
        return 0
    return rank([[v[i * level + j] for i in range(p) for j in range(hi)] for v in null])


@PROPERTY
@given(modules(st.integers(2, 4), st.just(12)), st.integers(-1, 2), st.integers(0, 3))
def test_eigen_kernels_match_the_dense_truncation(module, shift, pick):
    values = spectrum(saturate(module).saturated)
    c = values[pick % len(values)] + Scalar(shift)
    source = [[Series.monomial(c, 1, module.precision)]]
    for level in range(1, 12):
        system = IntertwinerSystem(source, module.matrix, level).solve()
        null = _dense_kernel(module, c, level)
        assert len(system.alive) == len(null), level
        for hi in (1, level - 1, level):
            expected = _dense_rank_in_blocks(null, module.rank, level, hi)
            assert system.rank_in_blocks(0, hi) == expected, (level, hi)


def _dense_ext_dims(E, F):
    """ext_dims as computed from dense truncations of hom_ab(E, F)."""
    assert is_regular(E) and is_regular(F)
    H = hom_ab(E, F)
    base = n_lambda(H, ZERO) + 2

    def cokernel_dim(level):
        a = truncate(H, level).A
        return len(a) - rank(a)

    def kernel_dim(level):
        null = _dense_kernel(H, ZERO, level + 1)
        return _dense_rank_in_blocks(null, H.rank, level + 1, level)

    d1 = cokernel_dim(base)
    d0 = kernel_dim(base)
    if cokernel_dim(base + 1) != d1 or kernel_dim(base + 1) != d0:
        raise PrecisionExhausted(
            "ext dimensions failed to stabilize at consecutive truncation levels"
        )
    return d0, d1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return str(exc)


pairs = st.integers(5, 12).flatmap(
    lambda w: st.tuples(
        modules(st.integers(1, 2), st.just(w)),
        modules(st.integers(1, 2), st.integers(w - 1, w + 1)),
    )
)


@PROPERTY
@given(pairs)
def test_ext_dims_match_the_dense_truncation(pair):
    assert _outcome(ext_dims, *pair) == _outcome(_dense_ext_dims, *pair)
