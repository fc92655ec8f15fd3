"""lambda_min(E^b) read off the eigen-kernels of E itself.

``width_table`` takes, per class mod Z, z the least exponent of E# and
delta = ``delta_index(E)``.  When delta = 0, E = E# = E^b and
lambda_min = z.  Otherwise it solves the kernel of a - (z + delta)*b on E to
2*delta + 2 orders and reads lambda_min = z + delta - v at the largest home
v <= delta of a live parameter (README derives it).  The tables are checked
against two other routes, errors included:

* ``oracles.dual_width_table``, the former route through the dual:
  S(E^b) = -S((E*)#);
* ``oracles.eb_width_table``, which builds E^b with ``biggest_simple_pole``
  and takes its spectrum.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from abmod import (
    AbmodError,
    Scalar,
    base_change,
    delta_index,
    dual,
    from_expression,
    functors,
    invariants,
    saturate,
    spectrum,
    twist,
    width_table,
)
from abmod.invariants import _class_rep
from abmod.morphisms import IntertwinerSystem

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from test_base_change import base_changes  # noqa: E402
from test_functors import _direct_sum  # noqa: E402
from test_invariant_memos import _outcome  # noqa: E402
from test_saturation_identities import LAMBDAS, _clear_caches, expressions  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def modules(draw):
    """A catalog module at low (4-11) or normal (12-24) precision, as it is,
    dualized, twisted, under a random base change (ranks up to 3), or in a
    block direct sum with a second one (ranks up to 6 in all)."""
    w = draw(st.one_of(st.integers(4, 11), st.integers(12, 24)))
    try:
        module = from_expression(draw(expressions()), w)
    except AbmodError:
        assume(False)
    variant = draw(st.sampled_from(
        ("plain", "dual", "twist", "base change", "base change", "sum")))
    if variant == "dual":
        return dual(module)
    if variant == "twist":
        return twist(module, Fraction(draw(st.sampled_from(LAMBDAS))))
    if variant == "base change" and module.rank <= 3:
        return base_change(module, draw(base_changes(module.rank, w)))
    if variant == "sum":
        try:
            other = from_expression(draw(expressions()), w)
        except AbmodError:
            assume(False)
        assume(module.rank + other.rank <= 6)
        return _direct_sum(module, other)
    return module


@PROPERTY
@given(modules())
def test_width_table_matches_the_dual_and_eb_routes(module):
    """Same table, or the same error type and message, as the route through
    the dual saturation and the one through E^b itself."""
    got = _outcome(width_table, module)
    assert got == _outcome(oracles.dual_width_table, module)
    assert got == _outcome(oracles.eb_width_table, module)


@pytest.mark.parametrize("expr, rep, delta, v", [
    ("rand(4;7)", "0", 2, 1),
    ("rand(5;9)", "2/3", 2, 1),
    ("rand(5;37)", "5/6", 2, 1),
    ("J(4;0)", "0", 3, 0),
])
def test_lambda_min_at_a_pinned_home(expr, rep, delta, v):
    """rand(4;7), rand(5;9) and rand(5;37) at precision 24 have delta = 2
    and, in the given class, lambda_min = z + 1: the eigenvector sits at the
    intermediate home v = 1.  J(4;0) has lambda_min = z + delta, home 0."""
    module = from_expression(expr, 24)
    assert delta_index(module) == delta
    rep = Scalar.of(Fraction(rep))
    z = min((s for s in spectrum(saturate(module).saturated) if _class_rep(s) == rep),
            key=Scalar.sort_key)
    lo, _, _ = width_table(module).classes[rep]
    assert lo == z + Scalar(delta - v)
    assert width_table(module) == oracles.dual_width_table(module)


def test_width_table_solves_one_kernel_per_class_on_e_alone(monkeypatch):
    """The dual is never built, saturate sees E alone, and each class with
    delta > 0 solves one kernel of a - (z + delta)*b, to 2*delta + 2 orders;
    none is solved when delta = 0."""
    seen = {"dual": 0, "saturate": [], "solve": []}
    real_dual, real_saturate, real_solve = (
        functors.dual, invariants.saturate, IntertwinerSystem.solve)

    def dual_spy(m):
        seen["dual"] += 1
        return real_dual(m)

    def saturate_spy(m):
        seen["saturate"].append(m)
        return real_saturate(m)

    def solve_spy(self, w=None):
        # the source [[mu*b]] holds the one term (1, mu)
        seen["solve"].append((self.ms[0][0][0][1], self.w if w is None else w))
        return real_solve(self, w)

    monkeypatch.setattr(functors, "dual", dual_spy)
    monkeypatch.setattr(invariants, "saturate", saturate_spy)
    monkeypatch.setattr(IntertwinerSystem, "solve", solve_spy)
    deltas = set()
    for expr in ("E(1/2;2)", "E(0)", "J(1;0)", "J(4;0)", "F(4;0;1/2)", "E(1/2,1/3)",
                 "rand(4;7)", "rand(5;9)", "rand(5;37)"):
        module = from_expression(expr, 24)
        _clear_caches()
        seen["saturate"].clear()
        seen["solve"].clear()
        classes = width_table(module).classes
        delta = delta_index(module)
        deltas.add(delta)
        assert seen["dual"] == 0, expr
        assert seen["saturate"] and all(m is module for m in seen["saturate"]), expr
        least = {}
        for s in spectrum(real_saturate(module).saturated):
            least.setdefault(_class_rep(s), s)
        expected = [(least[rep] + Scalar(delta), 2 * delta + 2) for rep in classes]
        assert seen["solve"] == (expected if delta else []), expr
    assert 0 in deltas and len(deltas) >= 3
