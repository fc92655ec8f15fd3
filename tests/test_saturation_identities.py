"""The saturation and the invariants read off it, checked against their
own constructions.

* ``saturate`` decides stability with one back-substitution of a(L_k) and
  reads E#'s structure matrix off the same pass; ``oracles.echelon_saturate``
  echelonizes L_{k+1}, compares it with L_k by ``==`` and applies a again
  in ``module_on_lattice``.  Both must give the same steps, lattice,
  saturated module and raised errors.

* or(E) is the saturation's step count: ``regularity_order`` agrees with
  ``oracles.batch_regularity_order`` (the inclusions a^{k+1} E in T_k tested
  directly) and with ``saturate(E).steps``.
* The spectrum of E^b is minus the spectrum of (E*)#: the negated dual
  saturation spectrum equals ``spectrum(biggest_simple_pole(E)[0])``, and
  ``width_table`` equals ``oracles.eb_width_table``, which reads lambda_min
  off E^b itself.

The identities run over catalog modules, their duals, twists and random
base changes, at low and at normal precision; raised errors must have the
same type.
"""

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from abmod import (
    AbModule,
    AbmodError,
    NotRegular,
    PrecisionExhausted,
    Scalar,
    Series,
    base_change,
    biggest_simple_pole,
    dual,
    from_expression,
    invariants,
    lattice_from_columns,
    regularity_order,
    saturate,
    spectrum,
    twist,
    width_table,
)

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from abmod.lattice import _echelon, standard_lattice  # noqa: E402
from abmod.seriesmat import _a_image_terms, a_image, col_shift_up  # noqa: E402
from test_base_change import base_changes  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
LAMBDAS = ("0", "1/2", "-1", "1/3", "2")


@st.composite
def expressions(draw):
    kind = draw(st.sampled_from(("rand", "J", "F", "E")))
    lam = draw(st.sampled_from(LAMBDAS))
    if kind == "rand":
        return f"rand({draw(st.integers(1, 5))};{draw(st.integers(0, 10**4))})"
    if kind == "J":
        return f"J({draw(st.integers(1, 5))};{lam})"
    if kind == "F":
        return f"F({draw(st.integers(2, 5))};{lam};{draw(st.sampled_from(('1/2', '2')))})"
    return draw(st.sampled_from((
        f"E({lam})", f"E({lam};{draw(st.integers(1, 3))})",
        f"E({lam},{draw(st.sampled_from(LAMBDAS))})",
        f"E({lam},{draw(st.integers(1, 3))};{draw(st.sampled_from(LAMBDAS))})",
    )))


def catalog():
    """Every J(k;l) and F(k;l;rho) up to rank 6, rand(r;s) up to rank 6, and
    the E families."""
    for k in range(1, 7):
        for lam in LAMBDAS:
            yield f"J({k};{lam})"
            if k >= 2:
                for rho in ("1/2", "2"):
                    yield f"F({k};{lam};{rho})"
    for r in range(1, 7):
        for seed in range(12):
            yield f"rand({r};{seed})"
    for lam in LAMBDAS:
        yield f"E({lam})"
        for n in range(4):
            yield f"E({lam};{n})"
            yield f"E({lam},{n};{LAMBDAS[n]})"
        for mu in LAMBDAS:
            yield f"E({lam},{mu})"


def irregular(module):
    """The module with a unit added to the first entry of its last row."""
    matrix = [list(row) for row in module.matrix]
    matrix[-1][0] = matrix[-1][0] + Series.one(module.precision)
    return AbModule(matrix)


@st.composite
def modules(draw):
    """A catalog module at low (1-8) or normal (12-16) precision, as it is,
    dualized, twisted, under a random base change (ranks up to 3, whose
    coefficients stay small), or made irregular by a unit added to one entry
    of its structure matrix."""
    w = draw(st.one_of(st.integers(1, 8), st.integers(12, 16)))
    try:
        module = from_expression(draw(expressions()), w)
    except AbmodError:
        assume(False)
    variant = draw(st.sampled_from(
        ("plain", "dual", "twist", "base change", "base change", "irregular")))
    if variant == "irregular":
        return irregular(module)
    if variant == "dual":
        return dual(module)
    if variant == "twist":
        return twist(module, Fraction(draw(st.sampled_from(LAMBDAS))))
    if variant == "base change" and module.rank <= 3:
        return base_change(module, draw(base_changes(module.rank, w)))
    return module


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except AbmodError as exc:
        return type(exc)


def _clear_caches():
    for f in vars(invariants).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


@PROPERTY
@given(modules())
def test_regularity_order_is_the_saturation_step_count(module):
    _clear_caches()
    got = outcome(regularity_order, module)
    assert got == outcome(oracles.batch_regularity_order, module)
    assert got == outcome(lambda m: saturate(m).steps, module)


@PROPERTY
@given(modules())
def test_the_spectrum_of_eb_is_minus_that_of_the_dual_saturation(module):
    _clear_caches()

    def negated_dual(m):
        values = [-s for s in spectrum(saturate(dual(m)).saturated)]
        return sorted(values, key=Scalar.sort_key)

    eb = outcome(lambda m: spectrum(biggest_simple_pole(m)[0]), module)
    assert outcome(negated_dual, module) == eb
    assert outcome(width_table, module) == outcome(oracles.eb_width_table, module)


def saturation_parts(module, saturation=saturate):
    """Steps, lattice (shift, gens, pivots, precision) and saturated matrix
    and precision of a saturation, or the type of the error it raised."""
    _clear_caches()
    try:
        sat = saturation(module)
    except AbmodError as exc:
        return type(exc)
    lat = sat.lattice
    return (sat.steps, lat.shift, lat.gens, lat.pivots, lat.precision,
            sat.saturated.matrix, sat.saturated.precision)


@PROPERTY
@given(modules())
def test_saturate_matches_the_echelon_oracle(module):
    for m in (module, dual(module)):
        assert saturation_parts(m) == saturation_parts(m, oracles.echelon_saturate)


def test_saturate_matches_the_echelon_oracle_over_the_catalog():
    """The catalog at precisions 10 to 30, as it is, dualized, twisted by
    1/2 and made irregular: saturated, short of precision (rank 6 needs 14)
    and not regular all occur."""
    seen = Counter()
    for expr in catalog():
        for w in range(10, 31, 4):
            try:
                module = from_expression(expr, w)
            except AbmodError:
                continue
            for m in (module, dual(module), twist(module, Fraction(1, 2)),
                      irregular(module)):
                got = saturation_parts(m)
                assert got == saturation_parts(m, oracles.echelon_saturate), (expr, w)
                seen[got if isinstance(got, type) else "saturated"] += 1
    assert seen[PrecisionExhausted] >= 100 and seen[NotRegular] >= 100
    assert seen["saturated"] >= 2000


def test_saturation_step_zero_is_read_off_the_structure_matrix(monkeypatch):
    """Step 0 applies no a.  Over the catalog at precisions 12 and 24, as it
    is and made irregular: a simple-pole E is its own saturation on the
    standard lattice, and otherwise L_1, spanned by the b e_j and the
    columns of M(0), is the lattice of the b e_j and the images a(e_j)
    (identical generators, pivots and precision); a is applied once to
    each generator of each later iterate L_k, k = 1 .. steps
    (k = 1 .. rank - 1 when the module is not regular).  saturate runs on
    term columns, so the spies sit on its kernels: the a-image kernel,
    called once per generator column with the iterate's shift, and the
    echelon kernel, which gets the term columns and the precision."""
    images, built = [], []

    def image_spy(rows, col, shift, ws):
        images.append(shift)
        return _a_image_terms(rows, col, shift, ws)

    def echelon_spy(columns, w):
        built.append((*_echelon(columns, w), w))
        return built[-1][:2]

    monkeypatch.setattr(invariants, "_a_image_terms", image_spy)
    monkeypatch.setattr(invariants, "_echelon", echelon_spy)
    seen = Counter()
    for expr in catalog():
        for w in (12, 24):
            try:
                module = from_expression(expr, w)
            except AbmodError:
                continue
            for m in (module, irregular(module)):
                _clear_caches()
                images.clear()
                built.clear()
                try:
                    sat = saturate(m)
                    steps = sat.steps
                except PrecisionExhausted:
                    assert images == built == [], (expr, w)
                    continue
                except NotRegular:
                    steps = m.rank - 1
                p = m.rank
                assert images == [k for k in range(1, steps + 1) for _ in range(p)], (
                    expr, w)
                if m.is_simple_pole():
                    assert built == [] and sat.steps == 0
                    assert sat.saturated == m and sat.lattice == standard_lattice(m)
                    seen["simple pole"] += 1
                    continue
                if p == 1:
                    assert built == []
                    continue
                standard = standard_lattice(m).gens
                b_gens = [col_shift_up(list(g), 1) for g in standard]
                first = lattice_from_columns(
                    p, b_gens + a_image(m.matrix, standard), 1, w)
                # built[0] is L_1: the first image calls carry shift 1
                assert built[0] == ([[e.terms for e in g] for g in first.gens],
                                    list(first.pivots), first.precision), (expr, w)
                seen["grown"] += 1
    assert seen["simple pole"] >= 100 and seen["grown"] >= 500


def test_an_irregular_module_builds_no_lattice_after_its_last_test(monkeypatch):
    """saturate echelonizes L_{k+1} only when a stability test follows it:
    an irregular module of rank p fails all p tests, builds p - 1 lattices
    (echelon kernel calls, each followed by the test of its lattice, whose
    shift the a-image kernel receives) and raises NotRegular."""
    built = []

    def echelon_spy(columns, w):
        built.append("echelon")
        return _echelon(columns, w)

    def image_spy(rows, col, shift, ws):
        if built[-1] != shift:
            built.append(shift)
        return _a_image_terms(rows, col, shift, ws)

    monkeypatch.setattr(invariants, "_echelon", echelon_spy)
    monkeypatch.setattr(invariants, "_a_image_terms", image_spy)
    for expr in ("E(1/2)", "E(1/2,2;3)", "rand(3;1)", "rand(4;7)", "rand(5;3)"):
        module = irregular(from_expression(expr, 16))
        _clear_caches()
        built.clear()
        with pytest.raises(NotRegular):
            saturate(module)
        assert built[::2] == ["echelon"] * (module.rank - 1), expr
        assert built[1::2] == list(range(1, module.rank)), expr
