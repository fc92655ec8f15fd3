"""Exact linear algebra over the rational-complex scalars, checked against sympy."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from abmod import (AbModule, BadParameter, Scalar, Series, UnsupportedSpectrum, dual,
                   from_expression, hom_ab, saturate, spectrum)
from abmod import invariants
from abmod import linalg
from abmod.linalg import (
    Echelon,
    charpoly,
    det,
    eigenvalues,
    identity,
    inverse,
    mat_mul,
    nullspace,
    poly_roots_qi,
    rref,
)

sys.path.insert(0, str(Path(__file__).parent))

from oracles import faddeev_leverrier_charpoly, is_invertible, rank  # noqa: E402


def _rand_matrix(rng, rows, cols):
    return [
        [
            Scalar(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                   Fraction(rng.randint(-2, 2)))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def _sym(x):
    return (sympy.Rational(x.re.numerator, x.re.denominator)
            + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))


def _to_sympy(a):
    return sympy.Matrix([[_sym(x) for x in row] for row in a])


def test_rank_and_nullspace_against_sympy():
    rng = random.Random(7)
    for trial in range(15):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = _rand_matrix(rng, rows, cols)
        s = _to_sympy(a)
        assert rank(a) == s.rank()
        null = nullspace(a)
        assert len(null) == cols - s.rank()
        for vec in null:
            image = [sum((a[i][j] * vec[j] for j in range(cols)), Scalar(0))
                     for i in range(rows)]
            assert all(x.is_zero() for x in image)


def test_det_and_inverse_against_sympy():
    rng = random.Random(11)
    for trial in range(10):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, n)
        s = _to_sympy(a)
        d = det(a)
        sd = sympy.simplify(s.det())
        re, im = sd.as_real_imag()
        assert d.re == Fraction(int(re.p), int(re.q))
        assert d.im == Fraction(int(im.p), int(im.q))
        assert is_invertible(a) == (sd != 0)
        if is_invertible(a):
            prod = mat_mul(a, inverse(a))
            eye = identity(n)
            assert all(prod[i][j] == eye[i][j] for i in range(n) for j in range(n))


def _from_sympy(x):
    re, im = sympy.expand(x).as_real_imag()
    return Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

entries = st.one_of(
    st.just(Scalar(0)),
    st.builds(
        lambda re, den, im: Scalar(Fraction(re, den), im),
        st.integers(-3, 3), st.integers(1, 3), st.integers(-2, 2),
    ),
)


def _dense(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def matrices(draw, square=False):
    """Dense, rank-deficient (a product of thin factors) or with zero rows."""
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dense", "thin", "zero rows"]))
    if kind == "thin":
        k = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        return mat_mul(draw(_dense(rows, k)), draw(_dense(k, cols)))
    a = draw(_dense(rows, cols))
    if kind == "zero rows":
        for i in draw(st.sets(st.integers(0, rows - 1), min_size=1)):
            a[i] = [Scalar(0)] * cols
    return a


@PROPERTY
@given(matrices())
def test_rref_matches_sympy_row_for_row(a):
    r, pivots = rref(a)
    expected, expected_pivots = _to_sympy(a).rref()
    assert pivots == list(expected_pivots)
    assert len(r) == len(a)
    assert r == [
        [_from_sympy(expected[i, j]) for j in range(len(a[0]))] for i in range(len(a))
    ]


@PROPERTY
@given(matrices(square=True), st.data())
def test_det_matches_sympy_under_row_permutation(a, data):
    perm = data.draw(st.permutations(range(len(a))))
    permuted = [a[i] for i in perm]
    assert det(permuted) == _from_sympy(_to_sympy(permuted).det())
    inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
    assert det(permuted) == (-det(a) if inversions % 2 else det(a))


@PROPERTY
@given(matrices())
def test_echelon_add_is_none_exactly_when_rank_stays(a):
    ech = Echelon()
    for k, row in enumerate(a):
        grows = _to_sympy(a[: k + 1]).rank() > _to_sympy(a[:k]).rank()
        value = ech.add(row)
        assert (value is None) == (not grows)
        if value is not None:
            stored = ech.rows[-1]
            assert stored[ech.pivots[-1]] == Scalar(1)
            assert all(not stored[pc] for pc in ech.pivots[:-1])
        assert ech.contains(row)
        assert not any(ech.reduce(row))
    assert len(ech.pivots) == rank(a)


def test_edge_cases_keep_their_values():
    assert rref([]) == ([], [])
    assert det([]) == Scalar(1)
    for shape in ((1, 3), (2, 1)):
        with pytest.raises(BadParameter):
            det([[Scalar(1)] * shape[1] for _ in range(shape[0])])
    zero = [[Scalar(0)] * 3 for _ in range(2)]
    assert nullspace(zero) == identity(3)
    assert rref(zero) == (zero, [])
    deficient = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)], [Scalar(0), Scalar(0)]]
    for a in (zero, deficient, [[Scalar(0)] * 4 for _ in range(4)]):
        r, _ = rref(a)
        assert len({id(row) for row in r}) == len(r)


def test_rref_idempotent():
    rng = random.Random(3)
    a = _rand_matrix(rng, 4, 5)
    r1, pivots = rref(a)
    r2, pivots2 = rref(r1)
    assert r1 == r2 and pivots == pivots2


def test_charpoly_matches_sympy():
    rng = random.Random(5)
    for trial in range(8):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, n)
        coeffs = charpoly(a)
        s = _to_sympy(a)
        poly = sympy.Poly(s.charpoly().as_expr(), sympy.Symbol("lambda"))
        expected = poly.all_coeffs()
        assert len(coeffs) == len(expected)
        for mine, theirs in zip(coeffs, expected):
            re, im = sympy.simplify(theirs).as_real_imag()
            assert mine.re == Fraction(int(re.p), int(re.q))
            assert mine.im == Fraction(int(im.p), int(im.q))


# -- the Hessenberg characteristic polynomial, against Faddeev-LeVerrier ----

CHARPOLY_PROPERTY = settings(derandomize=True, database=None, max_examples=150,
                             deadline=None)

gaussian_entries = st.builds(
    lambda re, d1, im, d2: Scalar(Fraction(re, d1), Fraction(im, d2)),
    st.integers(-5, 5), st.integers(1, 4), st.integers(-3, 3), st.integers(1, 3),
)


def _scalars(rows):
    return [[Scalar.of(x) for x in row] for row in rows]


# Column 0 is zero on the subdiagonal with a nonzero below it: a swap.
NEEDS_SWAP = _scalars([[1, 2, 3], [0, 4, 5], [6, 0, 7]])
# Column 0 has only zeros below its diagonal: the column is skipped.
NEEDS_SKIP = _scalars([[1, 2, 3], [0, 4, 5], [0, 6, 7]])


@st.composite
def square_matrices(draw):
    """n x n with n in 0..8, entries with fractional and imaginary parts:
    dense, sparse (about half the entries 0, so a zero subdiagonal entry
    with a nonzero below it is common) or block upper triangular (zero
    below the diagonal left of a cut, so some columns are skipped)."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "block triangular"]))
    entry = gaussian_entries if kind == "dense" else st.one_of(st.just(Scalar(0)),
                                                               gaussian_entries)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "block triangular" and n > 1:
        cut = draw(st.integers(1, n - 1))
        for i in range(cut, n):
            a[i][:cut] = [Scalar(0)] * cut
    return a


@CHARPOLY_PROPERTY
@given(square_matrices())
@example(NEEDS_SWAP)
@example(NEEDS_SKIP)
def test_charpoly_matches_faddeev_leverrier(a):
    h = linalg._hessenberg(a)
    assert all(not h[i][j] for i in range(len(h)) for j in range(i - 1))
    assert charpoly(a) == faddeev_leverrier_charpoly(a)


def test_charpoly_matches_faddeev_leverrier_on_the_rank_49_residue_matrices():
    # The two residue spectra read by ext 'J(7;0)' 'J(7;0)' --precision 112:
    # those of the saturations of its Hom and of the Hom's dual.
    module = from_expression("J(7;0)", 112)
    hom = hom_ab(module, module)
    for m in (hom, dual(hom)):
        a = saturate(m).saturated.residue_matrix()
        assert len(a) == 49
        assert charpoly(a) == faddeev_leverrier_charpoly(a)


def test_eigenvalues_rational_and_gaussian():
    a = [[Scalar(2), Scalar(1)], [Scalar(0), Scalar(Fraction(1, 2))]]
    values = dict((str(v), m) for v, m in eigenvalues(a))
    assert values == {"2": 1, "1/2": 1}
    rot = [[Scalar(0), Scalar(-1)], [Scalar(1), Scalar(0)]]   # eigenvalues +-i
    values = sorted(eigenvalues(rot), key=lambda vm: Scalar.sort_key(vm[0]))
    assert [str(v) for v, _ in values] == ["-i", "i"]


def test_eigenvalues_with_multiplicity():
    a = [[Scalar(3), Scalar(1)], [Scalar(0), Scalar(3)]]
    assert eigenvalues(a) == [(Scalar(3), 2)]


def test_irrational_spectrum_rejected():
    a = [[Scalar(0), Scalar(2)], [Scalar(1), Scalar(0)]]     # eigenvalues +-sqrt(2)
    with pytest.raises(UnsupportedSpectrum):
        eigenvalues(a)


# -- eigenvalues block by block, against the whole characteristic polynomial --

# Few values, so that blocks share eigenvalues.
block_values = st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), Scalar(Fraction(1, 2)),
                                Scalar(0, 1), Scalar(1, -1)])
# Its characteristic polynomial t^2 - 2 does not split over Q(i).
NON_SPLITTING = _scalars([[0, 1], [2, 0]])


@st.composite
def diagonal_blocks(draw):
    """A block of size 1-3 with its eigenvalues drawn from ``block_values``
    (L T L^-1 for a triangular T and a unit lower triangular L, so larger
    blocks are usually irreducible), or sometimes ``NON_SPLITTING`` or a
    3 x 3 cycle."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return NON_SPLITTING
    if shape == 1:
        # Irreducible only through the cycle 0 -> 1 -> 2 -> 0.
        d = [draw(block_values) for _ in range(3)]
        return [[d[0], Scalar(1), Scalar(0)], [Scalar(0), d[1], Scalar(1)],
                [draw(gaussian_entries.filter(bool)), Scalar(0), d[2]]]
    size = draw(st.integers(1, 3))
    t = [[draw(block_values) if i == j else draw(gaussian_entries) if i < j else Scalar(0)
          for j in range(size)] for i in range(size)]
    low = [[Scalar(1) if i == j else draw(gaussian_entries) if i > j else Scalar(0)
            for j in range(size)] for i in range(size)]
    return mat_mul(mat_mul(low, t), inverse(low))


@st.composite
def permuted_block_triangular(draw):
    """n <= 8: diagonal blocks, entries above them sparse, zeros below, then
    rows and columns permuted alike."""
    blocks = draw(st.lists(diagonal_blocks(), min_size=1, max_size=8))
    while sum(map(len, blocks)) > 8:
        blocks.pop()
    n = sum(map(len, blocks))
    a = [[Scalar(0)] * n for _ in range(n)]
    start = 0
    for block in blocks:
        end = start + len(block)
        for i, row in enumerate(block):
            a[start + i][start:end] = row
            a[start + i][end:] = [draw(st.one_of(st.just(Scalar(0)), gaussian_entries))
                                  for _ in range(end, n)]
        start = end
    order = draw(st.permutations(range(n)))
    return [[a[i][j] for j in order] for i in order]


def _outcome(fn, a):
    try:
        return fn(a)
    except UnsupportedSpectrum as exc:
        return type(exc), str(exc)


@CHARPOLY_PROPERTY
@given(permuted_block_triangular())
@example([[Scalar(0)]])
@example(NON_SPLITTING)
def test_eigenvalues_by_blocks_match_the_whole_characteristic_polynomial(a):
    assert _outcome(eigenvalues, a) == _outcome(lambda m: poly_roots_qi(charpoly(m)), a)


def _charpoly_arguments(monkeypatch):
    seen = []
    real = linalg.charpoly

    def spy(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "charpoly", spy)
    invariants._spectrum.cache_clear()
    return seen


def test_triangular_residue_needs_no_characteristic_polynomial(monkeypatch):
    seen = _charpoly_arguments(monkeypatch)
    assert spectrum(saturate(from_expression("J(5;1/2)", 24)).saturated) == \
        [Scalar(Fraction(1, 2))] * 5
    assert seen == []


def test_only_an_irreducible_block_gets_a_characteristic_polynomial(monkeypatch):
    # Residue [[0, -1, 5], [1, 0, 7], [0, 0, 1/2]]: the block on 0, 1 has
    # eigenvalues -i and i, the block on 2 the eigenvalue 1/2.
    residue = _scalars([[0, -1, 5], [1, 0, 7], [0, 0, Fraction(1, 2)]])
    module = AbModule([[Series.monomial(x, 1, 8) for x in row] for row in residue])
    seen = _charpoly_arguments(monkeypatch)
    assert spectrum(saturate(module).saturated) == \
        [Scalar(0, -1), Scalar(0, 1), Scalar(Fraction(1, 2))]
    assert seen == [_scalars([[0, -1], [1, 0]])]


def test_poly_roots_multiplicities():
    # (t - 1)^2 (t + i) = t^3 + (i - 2) t^2 + (1 - 2i) t + i
    coeffs = [Scalar(1), Scalar(-2, 1), Scalar(1, -2), Scalar(0, 1)]
    roots = dict((str(v), m) for v, m in poly_roots_qi(coeffs))
    assert roots == {"1": 2, "-i": 1}


# -- roots over Q(i), against sympy's factorization -------------------------

ROOTS_PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _poly_mul(f, g):
    out = [Scalar(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


def _poly(*factors):
    """The product of the given coefficient lists (leading first)."""
    out = [Scalar(1)]
    for f in factors:
        out = _poly_mul(out, [Scalar.of(c) for c in f])
    return out


def _sympy_roots(coeffs):
    """Roots with multiplicities from sympy's ``factor_list`` over QQ_I, or
    None when an irreducible factor of degree above 1 is left."""
    t = sympy.Symbol("t")
    poly = sympy.Poly([_sym(c) for c in coeffs], t, domain="QQ_I")
    roots = []
    for fac, mult in poly.factor_list()[1]:
        if fac.degree() > 1:
            return None
        lead, const = fac.all_coeffs()
        roots.append((_from_sympy(-const / lead), mult))
    return sorted(roots, key=lambda rm: rm[0].sort_key())


gaussian_rationals = st.builds(
    lambda re, im, d1, d2: Scalar(Fraction(re, d1), Fraction(im, d2)),
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
    st.integers(1, 10**3), st.integers(1, 10**3),
)


@st.composite
def split_polynomials(draw):
    """lead * t^z * prod (t - r)^m: 1-6 Gaussian-rational roots r with
    multiplicities 1-3, sometimes zero roots and a leading coefficient != 1."""
    roots = draw(st.lists(gaussian_rationals, min_size=1, max_size=6, unique=True))
    factors = [[1, -r] for r in roots for _ in range(draw(st.integers(1, 3)))]
    lead = draw(st.one_of(st.just(Scalar(1)), gaussian_rationals.filter(bool)))
    zeros = draw(st.integers(0, 2))
    return [c * lead for c in _poly(*factors)] + [Scalar(0)] * zeros


@ROOTS_PROPERTY
@given(split_polynomials())
def test_poly_roots_qi_matches_sympy_factorization(coeffs):
    assert poly_roots_qi(coeffs) == _sympy_roots(coeffs)


@ROOTS_PROPERTY
@given(split_polynomials())
def test_poly_roots_qi_rejects_bogus_candidates(coeffs):
    # Every candidate is certified by exact division, so padding the p-adic
    # candidates with near misses, conjugates, repeats and small Gaussian
    # integers changes nothing.
    genuine = linalg._gaussian_integer_roots

    def padded(g):
        out = genuine(g)
        return ([(0, 0), (1, 0), (0, 1)] + [(a + 1, b) for a, b in out] + out
                + [(a, -b) for a, b in out] + [(a, b - 1) for a, b in out] + out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_gaussian_integer_roots", padded)
        assert poly_roots_qi(coeffs) == _sympy_roots(coeffs)


NON_SPLIT = [
    _poly([1, 0, -2]),                        # t^2 - 2
    _poly([1, 0, Scalar(0, -1)]),             # t^2 - i
    _poly([1, 1, 1]),                         # t^2 + t + 1
    _poly([1, 0, 0, -2]),                     # t^3 - 2
    _poly([1, -1], [1, -1], [1, 0, -2]),      # (t - 1)^2 (t^2 - 2)
]


@pytest.mark.parametrize("coeffs", NON_SPLIT)
def test_poly_roots_qi_refuses_polynomials_that_do_not_split(coeffs):
    assert _sympy_roots(coeffs) is None
    with pytest.raises(UnsupportedSpectrum):
        poly_roots_qi(coeffs)


def test_poly_roots_qi_skips_primes_where_roots_collide(monkeypatch):
    # Every difference of the roots 1, 1 + 1105, 1 + 1105 i is divisible by
    # 1105 = 5 * 13 * 17, so the images modulo 5, 13 and 17 have repeated
    # roots; the first prime = 1 (mod 4) that separates them is 29.
    import abmod.linalg as linalg

    primes = []
    hensel = linalg._hensel

    def recording(f, df, x, p, m):
        primes.append(p)
        return hensel(f, df, x, p, m)

    monkeypatch.setattr(linalg, "_hensel", recording)
    roots = [Scalar(1), Scalar(1106), Scalar(1, 1105)]
    coeffs = _poly(*([1, -r] for r in roots), [1, -roots[1]])
    assert poly_roots_qi(coeffs) == [(Scalar(1), 1), (Scalar(1, 1105), 1), (Scalar(1106), 2)]
    assert poly_roots_qi(coeffs) == _sympy_roots(coeffs)
    assert set(primes) == {29}
