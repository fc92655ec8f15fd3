"""The series-matrix kernels skip zero entries and keep the dense results.

Each kernel is checked against its dense form in ``oracles.py``: equal
``Series`` (terms and precision) on sparse inputs of mixed precision, and
the same exception type wherever the dense form raises.
"""

import io
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

import abmod.series as series_module
from abmod import (
    IntertwinerSystem,
    Scalar,
    Series,
    from_expression,
    invariants,
    lattice_from_columns,
    verify_intertwiner,
)
from abmod.cli import main
from abmod.errors import PrecisionExhausted
from abmod.lattice import _back_substitute
from abmod.seriesmat import a_image, smat_inverse, smat_mul

sys.path.insert(0, str(Path(__file__).parent))

from oracles import (  # noqa: E402
    dense_a_image,
    dense_back_substitute,
    dense_lattice_from_columns,
    dense_smat_inverse,
    dense_smat_mul,
    dense_verify_intertwiner,
    hand_verify_intertwiner,
)

COEFFS = [Scalar(0)] * 6 + [
    Scalar(1), Scalar(-2), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(3, -1)
]
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@st.composite
def series(draw, precision=None, low=0):
    """A sparse series, zero in about half the draws; terms start at b^low."""
    w = draw(st.integers(0, 7)) if precision is None else precision
    if draw(st.booleans()):
        return Series.zero(w)
    coeffs = [Scalar(0)] * min(low, w) + [
        draw(st.sampled_from(COEFFS)) for _ in range(max(w - low, 0))
    ]
    return Series(coeffs, w)


def columns(dim, n, precision=None):
    return st.lists(
        st.lists(series(precision), min_size=dim, max_size=dim), min_size=n, max_size=n
    )


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def lattice_parts(lat):
    if isinstance(lat, type):
        return lat
    return lat.dim, lat.shift, lat.gens, lat.pivots, lat.precision


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_smat_mul_matches_dense(n, k, m, data):
    a = data.draw(columns(k, n))
    b = data.draw(columns(m, k))
    assert outcome(smat_mul, a, b) == outcome(dense_smat_mul, a, b)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 7), st.data())
def test_smat_inverse_matches_dense(n, w, data):
    a = data.draw(columns(n, n, w))
    for i in range(n):  # a unit diagonal makes most draws invertible
        if data.draw(st.booleans()):
            a[i][i] = a[i][i] + Series.one(w)
    assert outcome(smat_inverse, a) == outcome(dense_smat_inverse, a)


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 7), st.integers(-2, 2), st.data())
def test_a_image_matches_dense(n, wm, shift, data):
    # a structure matrix holds one common precision; also try mixed ones
    m = data.draw(st.one_of(columns(n, n, wm), columns(n, n)))
    cols = data.draw(st.lists(st.lists(series(), min_size=n, max_size=n), max_size=3))
    assert outcome(a_image, m, cols, shift) == outcome(dense_a_image, m, cols, shift)


def _intertwiners():
    """(Ms, Mt, P, W) for solutions P of the intertwining system, W = 7: the
    identity-like and nilpotent maps of Jordan blocks, maps between modules
    of different ranks, dense random structure matrices and complex ones."""
    w = 7
    rng = random.Random(20)
    pairs = [("J(2;1)", "J(2;1)"), ("E(1/2,1/3)", "J(2;1/2)"), ("E(2)", "E(1)"),
             ("E(1/2)", "E(1/2,1/3)"), ("J(3;0)", "J(3;0)"),
             ("rand(3;1000)", "rand(3;1000)"), ("rand(2;4)", "rand(2;4)"),
             ("J(2;i)", "J(2;i)"), ("E(i)", "F(3;i;1/2)")]
    out = []
    for src_expr, tgt_expr in pairs:
        src, tgt = from_expression(src_expr, w), from_expression(tgt_expr, w)
        system = IntertwinerSystem(src.matrix, tgt.matrix, w).solve()
        values = {
            pid: Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-2, 2))
            for pid in system.alive
        }
        out.append((src.matrix, tgt.matrix, system.series_matrix(values), w))
    return out


INTERTWINERS = _intertwiners()


def _changed(entry, k, c, precision):
    """entry with its b^k coefficient set to c, at the given precision."""
    coeffs = list(entry.coeffs) + [Scalar(0)] * max(precision - entry.precision, 0)
    if k < len(coeffs):
        coeffs[k] = c
    return Series(coeffs, precision)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(INTERTWINERS))), st.data())
def test_verify_intertwiner_matches_dense(case, data):
    """The same verdict, or the same exception type, as the dense
    composition, on true intertwiners and on copies with up to two
    coefficients of P, Ms or Mt changed, the changed entries cut to or
    extended past the precision horizon (precision 0 included), at every
    check level w up to W + 2."""
    ms, mt, p, big_w = INTERTWINERS[case]
    mats = [[list(row) for row in m] for m in (ms, mt, p)]
    for _ in range(data.draw(st.integers(0, 2))):
        m = data.draw(st.sampled_from(mats))
        i = data.draw(st.integers(0, len(m) - 1))
        j = data.draw(st.integers(0, len(m[0]) - 1))
        k = data.draw(st.integers(0, big_w))
        c = data.draw(st.sampled_from(COEFFS))
        precision = data.draw(st.sampled_from([big_w, big_w, big_w + 1, k, 0]))
        m[i][j] = _changed(m[i][j], k, c, precision)
    w = data.draw(st.integers(0, big_w + 2))
    ms, mt, p = mats
    got = outcome(verify_intertwiner, ms, mt, p, w)
    assert got == outcome(dense_verify_intertwiner, ms, mt, p, w)


def test_verify_intertwiner_accepts_the_solutions():
    for ms, mt, p, w in INTERTWINERS:
        assert verify_intertwiner(ms, mt, p, w)
        assert verify_intertwiner(ms, mt, p, w + 3)


def verdict(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)


SOLVED = ["E(0)", "E(1/2)", "E(1;2)", "E(1/2,1/3)", "J(2;1)", "J(2;1/2)",
          "J(3;0)", "rand(2;4)", "rand(3;1000)", "J(2;i)", "F(3;i;1/2)"]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_verify_intertwiner_matches_the_hand_fold(data):
    """The same verdict, or the same error type and message, as the residual
    folded by hand, on the series matrices IntertwinerSystem solves between
    drawn modules (source and target at different precisions): as solved,
    and with one coefficient of P, Ms or Mt perturbed at a drawn order; with
    entries cut to mixed precisions (0 included); at every check level w
    up to two past the largest precision.  The draws favour a horizon h:
    the perturbation lands next to it, and an entry of Mt, whose least
    precision bounds that of a(P), is cut to it, so that whether a residual
    term at h or h + 1 is checked is decided by the precision rule."""
    src_expr = data.draw(st.sampled_from(SOLVED))
    tgt_expr = data.draw(st.sampled_from([src_expr] + SOLVED))
    ws, wt = data.draw(st.integers(3, 8)), data.draw(st.integers(3, 8))
    src, tgt = from_expression(src_expr, ws), from_expression(tgt_expr, wt)
    system = IntertwinerSystem(src.matrix, tgt.matrix, min(ws, wt)).solve()
    values = {pid: data.draw(st.sampled_from(COEFFS)) for pid in system.alive}
    mats = [[list(row) for row in m]
            for m in (src.matrix, tgt.matrix, system.series_matrix(values))]
    h = data.draw(st.integers(1, max(min(ws, wt) - 2, 1)))

    def entry(m):
        return data.draw(st.integers(0, len(m) - 1)), data.draw(st.integers(0, len(m[0]) - 1))

    if data.draw(st.integers(0, 3)):
        m = data.draw(st.sampled_from(mats))
        i, j = entry(m)
        top = m[i][j].precision
        near = data.draw(st.integers(0, 4))
        k = min(h - 2 + near, top - 1) if near else data.draw(st.integers(0, top - 1))
        m[i][j] = m[i][j] + Series.monomial(data.draw(st.sampled_from(COEFFS[6:])), k, top)
    if data.draw(st.integers(0, 3)):
        i, j = entry(mats[1])
        mats[1][i][j] = mats[1][i][j].at_precision(min(h, mats[1][i][j].precision))
    for _ in range(data.draw(st.integers(0, 2))):
        m = data.draw(st.sampled_from(mats))
        i, j = entry(m)
        cut = data.draw(st.sampled_from([0, h, h + 1, h + 2]))
        m[i][j] = m[i][j].at_precision(min(cut, m[i][j].precision))
    w = data.draw(st.integers(0, max(ws, wt) + 2))
    ms, mt, p = mats
    assert verdict(verify_intertwiner, ms, mt, p, w) == verdict(
        hand_verify_intertwiner, ms, mt, p, w)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_lattice_from_columns_matches_dense(dim, n, data):
    cols = data.draw(columns(dim, n))
    precision = data.draw(st.one_of(st.none(), st.integers(0, 7)))
    got, want = (
        outcome(f, dim, [list(c) for c in cols], 0, precision)
        for f in (lattice_from_columns, dense_lattice_from_columns)
    )
    assert lattice_parts(got) == lattice_parts(want)


def _column_set(rng, dim, w):
    """Sparse columns of dim entries at precision w (a few at w + 2), with
    visibly zero columns, exact repeats, sums of two columns and entries
    whose first term sits at or next to the precision horizon."""
    def entry():
        if rng.random() < 0.85:
            return Series.zero(w)
        low = rng.choice([0, 0, 0, 1, 1, 2, w - 2, w - 1, w])
        coeffs = [Scalar(0)] * w
        for k in range(max(low, 0), w):
            if k == low or rng.random() < 0.3:
                coeffs[k] = rng.choice(COEFFS[6:])
        return Series(coeffs, w)

    cols = [[entry() for _ in range(dim)] for _ in range(rng.randint(1, dim + 3))]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("zero", "repeat", "sum", "deep"))
        if kind == "zero":
            cols.append([Series.zero(w) for _ in range(dim)])
        elif kind == "repeat":
            cols.append(list(rng.choice(cols)))
        elif kind == "sum":
            x, y = rng.choice(cols), rng.choice(cols)
            cols.append([u + v for u, v in zip(x, y)])
        else:
            cols.append([Series(list(e.coeffs) + [Scalar(1)] * 2, w + 2) for e in cols[0]])
    rng.shuffle(cols)
    return cols


def _monic_column_set(rng, dim, w):
    """Columns whose pivot entries are already b^v, as a saturation step
    meets them: an echelon basis, the same basis times b, and up to two
    sparse columns."""
    base = outcome(dense_lattice_from_columns, dim, _column_set(rng, dim, w))
    gens = [] if isinstance(base, type) else [list(g) for g in base.gens]
    cols = gens + [[e.shift_up(1) for e in g] for g in gens]
    cols += _column_set(rng, dim, w)[:rng.randint(0, 2)]
    rng.shuffle(cols)
    return cols


def test_lattice_from_columns_matches_dense_up_to_dim_49():
    """Random column sets of dims 1 to 49: the same gens and pivots, and the
    same PrecisionExhausted points (precision given or read off the data).
    The last 40 sets have pivots that are already monic, which
    lattice_from_columns takes as they are."""
    rng = random.Random(16)
    raised = built = monic = 0
    for case in range(120):
        dim = rng.choice([1, 2, 3, 5, 8, 13, 21, 34, 49])
        w = rng.randint(1, 9)
        if case < 80:
            cols = _column_set(rng, dim, w)
        else:
            cols = _monic_column_set(rng, dim, w)
            monic += any(
                e.terms == ((e.valuation(), Scalar(1)),) for c in cols for e in c
            )
        precision = rng.choice([None, w, w - 1, w + 1])
        got, want = (
            outcome(f, dim, [list(c) for c in cols], case % 3, precision)
            for f in (lattice_from_columns, dense_lattice_from_columns)
        )
        assert lattice_parts(got) == lattice_parts(want), (case, dim, w, precision)
        raised += got is PrecisionExhausted
        built += not isinstance(got, type)
    assert raised >= 10 and built >= 40 and monic >= 25


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_back_substitute_matches_dense(dim, n, data):
    lat = outcome(lattice_from_columns, dim, data.draw(columns(dim, n)))
    assume(not isinstance(lat, type) and lat.gens)
    work = data.draw(st.lists(series(), min_size=dim, max_size=dim))
    assert outcome(_back_substitute, lat, list(work)) == outcome(
        dense_back_substitute, lat, list(work)
    )


def test_no_kernel_multiplies_or_adds_an_empty_series(monkeypatch):
    """The census: computing the info invariants and E^b (through the dual's
    saturation) of three catalog modules, a Hom and two Exts, three
    Jordan-Hoelder sequences, a rank-2 classification and a twist, the
    term loops behind Series sums, differences and products
    (``series._combine`` and ``series._product``) and the fold that sums
    products in the series-matrix kernels (``series._fold``, wrapped in
    every module that imports it) never receive an operand without terms:
    the operators return before reaching them, and the kernels skip empty
    entries before they fold."""
    calls = {"all": 0, "empty": []}

    def wrap(loop, first):
        def counted(*args):
            calls["all"] += 1
            if not (args[first] and args[first + 1]):
                operator = sys._getframe(1).f_code.co_name
                caller = sys._getframe(2).f_code.co_name
                calls["empty"].append(f"{caller}: {operator}")
            return loop(*args)

        return counted

    for name in ("_combine", "_product"):
        monkeypatch.setattr(series_module, name, wrap(getattr(series_module, name), 0))
    loop = series_module._fold
    for module in list(sys.modules.values()):
        if getattr(module, "_fold", None) is loop:
            monkeypatch.setattr(module, "_fold", wrap(loop, 1))
    for f in vars(invariants).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    commands = [[name, expr] for expr in ("J(5;0)", "rand(4;7)", "F(4;0;1/2)")
                for name in ("info", "eb")]
    commands += [["hom", "E(1/2)", "J(2;0)"], ["ext", "J(2;0)", "E(0)"],
                 ["ext", "J(3;0)", "J(3;0)"]]
    commands += [["jh", "J(4;0)"], ["jh", "rand(4;7)"], ["jh", "rand(5;11)"],
                 ["classify2", "E(1/2,2;3)"], ["twist", "J(3;0)", "1/2"]]
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert main(argv + ["--precision", "24"]) == 0
    assert calls["all"] > 1000
    assert calls["empty"] == []
