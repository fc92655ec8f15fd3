"""Per-module invariants are computed once and served unchanged.

* ``regularity_order`` (the saturation's step count) agrees, errors and
  messages included, with the batch form kept in ``oracles.py`` on a grid
  of catalog modules and their duals.
* The memoized invariants print the same digests as before the memos
  (``GOLDEN``), cold and again from the warm caches.
* Cached values cannot be changed through a result, errors are not
  cached, and a module's matrix is hashed once however often it is looked
  up.
"""

import hashlib
import pickle
import sys
from pathlib import Path

import pytest

from abmod import (
    NotSimplePole,
    Scalar,
    Series,
    UnsupportedSpectrum,
    classify_rank2,
    dual,
    eigen_lift,
    from_expression,
    invariants,
    jordan_holder,
    regularity_order,
    saturate,
    spectrum,
    width_table,
)
from abmod.errors import AbmodError
from abmod.linalg import nullspace
from abmod.module import AbModule, Element

sys.path.insert(0, str(Path(__file__).parent))

from oracles import batch_regularity_order  # noqa: E402

EXPRS = (
    [f"J({k};0)" for k in range(2, 7)] + ["J(3;1/2)", "J(4;-1)"]
    + [f"F({k};0;1/2)" for k in range(2, 6)] + ["F(3;1/2;1)", "F(4;0;2)"]
    + ["E(1/2)", "E(1/2;2)", "E(0;3)", "E(1/2,1/3)", "E(1/2,2;3)", "E(0,5)"]
    + [f"rand({r};{s})" for r in range(1, 6) for s in (1, 7, 11)]
)
PRECISIONS = (8, 12, 24)


def _clear_caches():
    for f in vars(invariants).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def _grid():
    """(label, module) for every expression and its dual at each precision."""
    for w in PRECISIONS:
        for expr in EXPRS:
            m = from_expression(expr, w)
            yield f"{expr}@{w}", m
            yield f"dual {expr}@{w}", dual(m)


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except AbmodError as exc:
        return type(exc).__name__, str(exc)


def _show(outcome):
    kind, value = outcome
    if kind != "ok":
        return f"{kind}: {value}"
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def _width(m):
    return sorted(
        (str(rep), str(lo), str(hi), gap)
        for rep, (lo, hi, gap) in width_table(m).classes.items()
    )


def _jh(policy):
    def run(m):
        seq = jordan_holder(m, policy)
        return [str(e) for e in seq.exponents] + [
            (lat.shift, lat.pivots, lat.precision, [list(map(str, g)) for g in lat.gens])
            for lat in seq.filtration
        ]

    return run


def _lifts(m):
    """eigen_lift on E#, from a residue eigenvector of each of its exponents."""
    s = saturate(m).saturated
    res = s.residue_matrix()
    out = []
    for lam in sorted(set(spectrum(s)), key=lambda v: v.sort_key()):
        shifted = [
            [res[i][j] - lam if i == j else res[i][j] for j in range(s.rank)]
            for i in range(s.rank)
        ]
        seed = Element(
            [Series.monomial(v, 0, s.precision) for v in nullspace(shifted)[0]], 0
        )
        out.append(_show(_outcome(lambda: list(eigen_lift(s, lam, seed, 0).coords))))
    return out


QUERIES = {
    "spectrum": lambda m: spectrum(saturate(m).saturated),
    "width_table": _width,
    "classify_rank2": lambda m: classify_rank2(m) if m.rank == 2 else "rank != 2",
    "jordan_holder lex": _jh("lex"),
    "jordan_holder revlex": _jh("revlex"),
    "eigen_lift": _lifts,
}

# sha256 of the lines "label: result" over the grid, as the library printed
# them before the invariants were memoized.  The classify_rank2 digest was
# taken again when the split test moved to the resonance order gap + 2:
# fourteen labels that raised PrecisionExhausted at W = 8 or 12 now answer,
# each as the same module does at W = 24; no other line changed.  It was
# taken once more when the split test became the eigenvector kernel at its
# certified level gap + 2, with no certifying order: "E(0,5)@8" and
# "dual E(0,5)@8" answer (NonSplit(0, 5) and NonSplit(-4, 1), as at W = 12
# and 24) where they raised PrecisionExhausted.  The two
# jordan_holder digests were taken again when eigen_lift stopped claiming the
# b^(W-1) coefficient it never corrects (its lifts now have precision W - 1):
# of the 408 lines, 240 change only the filtration, 28 answers become
# PrecisionExhausted, 4 PrecisionExhausted messages change, and no exponent
# changes.
GOLDEN = {
    "spectrum": "9d27b25525ecad3a24a4f6d95a35172d4f1e4e312faa0328312566dd1e7b83a4",
    "width_table": "bffe6d33868fdc47b984b265ab397be044c301d8d2dc47810c2c98873d760c57",
    "classify_rank2": "a068a6efe7c9d41645962a9d4188ea097f9c1d7b41dfb7e3af7c0ecbbe5182bd",
    "jordan_holder lex":
        "385332bddd3464c60daff07cf702aff311c41d6e006b8fa1629894334e0b8cee",
    "jordan_holder revlex":
        "ac7efe81890ddb046211f7b964c46b7c9abced39ac06a0157fec9ccb71b10919",
    "eigen_lift": "73f1ab34cec3d9229786610d1c2220902603b626130765dc866948ee7d62ae98",
}


def _digests(modules):
    lines = {name: [] for name in QUERIES}
    for label, m in modules:
        for name, query in QUERIES.items():
            lines[name].append(f"{label}: {_show(_outcome(query, m))}")
    return {
        name: hashlib.sha256("\n".join(text).encode()).hexdigest()
        for name, text in lines.items()
    }


def test_regularity_order_matches_the_batch_form():
    cases, exhausted = 0, 0
    for label, m in _grid():
        _clear_caches()
        got = _outcome(regularity_order, m)
        assert got == _outcome(batch_regularity_order, m), label
        cases += 1
        exhausted += got[0] == "PrecisionExhausted"
    assert cases == 2 * len(EXPRS) * len(PRECISIONS)
    assert exhausted >= 10


def test_memoized_invariants_print_the_golden_digests():
    _clear_caches()
    modules = list(_grid())
    assert _digests(modules) == GOLDEN
    # served from the warm caches, to fresh but equal modules
    assert _digests((label, AbModule(m.matrix)) for label, m in modules) == GOLDEN


# ---------------------------------------------------------------------------
# the memos hand out values that cannot be changed
# ---------------------------------------------------------------------------


def test_width_table_classes_are_read_only():
    m = from_expression("J(3;0)", 24)
    table = width_table(m)
    width, classes = table.width, dict(table.classes)
    rep = next(iter(classes))
    with pytest.raises(TypeError):
        table.classes[rep] = None
    with pytest.raises(TypeError):
        del table.classes[rep]
    assert not hasattr(table.classes, "clear")
    again = width_table(from_expression("J(3;0)", 24))
    assert again.width == width
    assert again.classes == classes
    back = pickle.loads(pickle.dumps(again))
    assert back == again
    with pytest.raises(TypeError):
        back.classes[rep] = None


def test_spectrum_returns_a_fresh_list():
    m = from_expression("E(1/2;2)", 12)
    first = spectrum(m)
    want = list(first)
    first.clear()
    assert spectrum(m) == want
    assert spectrum(m) is not spectrum(m)


def test_errors_are_raised_again_on_each_call():
    not_simple = from_expression("J(3;0)", 12)
    # residue [[0, 1], [2, 0]]: eigenvalues +-sqrt(2), outside Q(i)
    b, two_b = (Series.monomial(c, 1, 12) for c in (Scalar(1), Scalar(2)))
    irrational = AbModule([[Series.zero(12), b], [two_b, Series.zero(12)]])
    _clear_caches()
    for _ in range(3):
        with pytest.raises(NotSimplePole):
            spectrum(not_simple)
        with pytest.raises(UnsupportedSpectrum):
            spectrum(irrational)
        with pytest.raises(UnsupportedSpectrum):
            width_table(irrational)
    assert invariants._spectrum.cache_info().currsize == 0
    assert invariants.width_table.cache_info().currsize == 0


def test_a_module_is_hashed_once(monkeypatch):
    warm = saturate(from_expression("J(3;0)", 12)).saturated
    for f in (saturate, regularity_order, spectrum):
        f(warm)
    module = AbModule(warm.matrix)  # equal, not yet hashed
    calls = []
    dense = Series.__hash__

    def counted(self):
        calls.append(self)
        return dense(self)

    monkeypatch.setattr(Series, "__hash__", counted)
    for _ in range(3):
        for f in (saturate, regularity_order, spectrum):
            f(module)
    assert len(calls) <= module.rank ** 2
