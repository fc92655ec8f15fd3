"""Eigen-kernels of truncations solved order by order, against the dense
reference: the kernel of A - c*B on E/b^N E from ``truncate`` and a full
``nullspace``; ``n_lambda`` against the dense image test (whether the
columns of B^N lie in the column span of A - c*B); and ``ext_dims``
recomputed from dense truncations of the internal Hom, also on the
rank-3 witnesses of the c08 acceptance test.  ``PrecisionExhausted`` is
compared by type."""

import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from abmod import (
    AbModule,
    IntertwinerSystem,
    PrecisionExhausted,
    Scalar,
    Series,
    base_change,
    delta_index,
    ext_dims,
    from_expression,
    hom_ab,
    is_regular,
    n_lambda,
    parse_series,
    random_regular,
    saturate,
    spectrum,
    truncate,
    verify_fd,
)
from abmod import invariants
from abmod.linalg import (
    Echelon,
    identity,
    mat_mul,
    nullspace,
    transpose,
)
from abmod.scalars import ONE, ZERO

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mat_scale, mat_sub, rank, two_level_n_lambda  # noqa: E402

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
        for hi in {1, level - 1, level} - {0}:
            expected = _dense_rank_in_blocks(null, module.rank, level, hi)
            assert system.rank_in_blocks(hi) == expected, (level, hi)


def _image_contains_power(module, c, w):
    """Smallest N with b^N E inside (a - c b) E, decided on E/b^w E."""
    q = truncate(module, w)
    image = Echelon(transpose(mat_sub(q.A, mat_scale(q.B, c))))
    b_power = identity(q.dim)
    for n in range(w + 1):
        if all(image.contains(col) for col in transpose(b_power)):
            return n
        b_power = mat_mul(q.B, b_power)
    raise AssertionError("b^w E is zero on E/b^w E, so n = w always qualifies")


def _level(module, c):
    """The level README derives for n_lambda: b^w E lies in (a - c b) E for
    w = max(k0, delta) + 1, k0 = max(c - z_min + 1, 0), z_min the least
    exponent of E# in c's class, or k0 = 0 when the class is absent."""
    same = [z for z in spectrum(saturate(module).saturated) if (c - z).is_integer()]
    k0 = max(int((c - min(same, key=lambda z: z.re)).re) + 1, 0) if same else 0
    return max(k0, delta_index(module)) + 1


def _dense_n_lambda(module, c):
    """n_lambda by the dense image test read at a deep level, twice the
    certified one or as deep as the module is known; PrecisionExhausted
    when the module is not known to the certified level."""
    w = _level(module, c)
    if w > module.precision:
        raise PrecisionExhausted("the certified level exceeds the precision")
    return _image_contains_power(module, c, min(2 * w, module.precision))


def _dense_ext_dims(E, F):
    """ext_dims as computed from dense truncations of hom_ab(E, F)."""
    assert is_regular(E) and is_regular(F)
    H = hom_ab(E, F)
    base = _dense_n_lambda(H, ZERO) + 2

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
        return type(exc)


def module_pairs(precisions):
    return precisions.flatmap(
        lambda w: st.tuples(
            modules(st.integers(1, 2), st.just(w)),
            modules(st.integers(1, 2), st.integers(w - 1, w + 1)),
        )
    )


pairs = module_pairs(st.integers(5, 12))


@PROPERTY
@given(pairs)
def test_ext_dims_match_the_dense_truncation(pair):
    assert _outcome(ext_dims, *pair) == _outcome(_dense_ext_dims, *pair)


# Values in no class mod Z of any spectrum drawn here: random_regular's
# exponents, and so their differences in a Hom, are real with denominators
# dividing 12.
OFF_CLASS = (Scalar(Fraction(1, 5)), Scalar(Fraction(-3, 7)), Scalar(Fraction(1, 2), 1))


@st.composite
def with_value(draw, module_strategy):
    """A module and a value c: a saturated exponent shifted by -2..2, or a
    value outside every exponent class."""
    module = draw(module_strategy)
    try:
        values = spectrum(saturate(module).saturated)
    except PrecisionExhausted:
        values = [ZERO]
    if draw(st.booleans()):
        return module, draw(st.sampled_from(values)) + Scalar(draw(st.integers(-2, 2)))
    return module, draw(st.sampled_from(OFF_CLASS))


@PROPERTY
@given(with_value(modules(st.integers(1, 4), st.integers(8, 14))))
def test_n_lambda_matches_the_dense_image_test(case):
    assert _outcome(n_lambda, *case) == _outcome(_dense_n_lambda, *case)


def test_n_lambda_takes_a_plain_number():
    module = from_expression("J(2;0)", 12)
    for lam in (0, 1):
        assert n_lambda(module, lam) == n_lambda(module, Fraction(lam)) == n_lambda(
            module, Scalar(lam))
    assert n_lambda(module, Fraction(1, 2)) == n_lambda(module, Scalar(Fraction(1, 2)))


@PROPERTY
@given(with_value(module_pairs(st.integers(8, 14)).map(lambda pair: hom_ab(*pair))))
def test_n_lambda_of_hom_matches_the_dense_image_test(case):
    assert _outcome(n_lambda, *case) == _outcome(_dense_n_lambda, *case)


@PROPERTY
@given(st.one_of(
    with_value(modules(st.integers(1, 4), st.integers(8, 16))),
    with_value(module_pairs(st.integers(8, 16)).map(lambda pair: hom_ab(*pair))),
))
def test_n_lambda_at_its_level_matches_the_two_level_oracle(case):
    # One solve to the certified level gives the answer of the padded,
    # two-level search wherever that one answered, and the dense image test
    # read at twice the level wherever the module is known that deep.
    module, c = case
    got = _outcome(n_lambda, module, c)
    old = _outcome(two_level_n_lambda, module, c)
    if old is not PrecisionExhausted:
        assert got == old
    try:
        w = _level(module, c)
    except PrecisionExhausted:
        assert got is PrecisionExhausted
        return
    if 2 * w <= module.precision:
        assert got == _image_contains_power(module, c, 2 * w)


def test_n_lambda_solves_to_its_level_once(monkeypatch):
    levels = []

    class Spy(invariants.IntertwinerSystem):
        def solve(self, w=None):
            levels.append(self.w if w is None else w)
            return super().solve(w)

    monkeypatch.setattr(invariants, "IntertwinerSystem", Spy)
    for text, lam in (("J(3;0)", 0), ("J(3;0)", 2), ("E(1/2;2)", Fraction(5, 2)),
                      ("E(0,1)", 0), ("rand(3;5)", Fraction(1, 5))):
        module = from_expression(text, 24)
        levels.clear()
        n_lambda(module, lam)
        assert levels == list(range(1, _level(module, Scalar.of(lam)) + 1)), text


def test_c08_witnesses_at_rank_3_are_not_isomorphic():
    # The NoLift witnesses that verify_fd(J(3;0), 20, 11) reports (the call
    # the c08 acceptance test makes) are genuine non-isomorphisms: the
    # perturbed module E' has a smaller Hom from E than E itself has.
    E = from_expression("J(3;0)", 24)
    failures = verify_fd(E, 20, 11)["failures"]
    assert len(failures) == 4
    assert {f["error"] for f in failures} == {"NoLift"}
    assert ext_dims(E, E)[0] == _dense_ext_dims(E, E)[0] == 7
    for f in failures:
        perturbed = AbModule([
            [entry + parse_series(text, E.precision) for entry, text in zip(row, texts)]
            for row, texts in zip(E.matrix, f["witness"])
        ])
        assert ext_dims(E, perturbed)[0] == _dense_ext_dims(E, perturbed)[0] == 6, f["trial"]
