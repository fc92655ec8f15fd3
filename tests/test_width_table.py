"""lambda_min(E^b) read off the eigen-kernels of E itself.

``width_table`` takes, per class mod Z, z the least exponent of E# and
delta = ``delta_index(E)``.  When delta = 0, E = E# = E^b and
lambda_min = z.  Otherwise it solves the kernel of a - (z + delta)*b on E to
2*delta + 2 orders and reads lambda_min = z + delta - v at the largest home
v <= delta of a live parameter (README derives it).  One system carries
every class: its source is diag((z_1 + delta)*b, ..., (z_c + delta)*b),
and column j holds the parameters pid = j mod c.  The tables are checked
against three other routes, errors included:

* ``oracles.dual_width_table``, the former route through the dual:
  S(E^b) = -S((E*)#);
* ``oracles.eb_width_table``, which builds E^b with ``biggest_simple_pole``
  and takes its spectrum;
* ``oracles.per_class_width_table``, which solves one system per class.
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
from test_functors import _direct_sum, small_modules  # noqa: E402
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


def test_width_table_solves_one_kernel_system_for_every_class(monkeypatch):
    """The dual is never built, saturate sees E alone, and a module with
    delta > 0 solves one kernel system, to 2*delta + 2 orders, whose source
    diagonal holds each class's z + delta in class order; none is solved
    when delta = 0."""
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
        # the source diag(mu_1*b, ..., mu_c*b): entry (j, j) holds the one
        # term (1, mu_j), and no other entry holds a term
        assert not any(terms for i, row in enumerate(self.ms)
                       for j, terms in enumerate(row) if i != j)
        diagonal = [self.ms[j][j][0][1] for j in range(self.pe)]
        seen["solve"].append((diagonal, self.w if w is None else w))
        return real_solve(self, w)

    monkeypatch.setattr(functors, "dual", dual_spy)
    monkeypatch.setattr(invariants, "saturate", saturate_spy)
    monkeypatch.setattr(IntertwinerSystem, "solve", solve_spy)
    deltas, counts = set(), set()
    for expr in ("E(1/2;2)", "E(0)", "J(1;0)", "J(4;0)", "F(4;0;1/2)", "E(1/2,1/3)",
                 "rand(4;7)", "rand(5;9)", "rand(5;37)", "rand(5;42)"):
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
        expected = [([least[rep] + Scalar(delta) for rep in classes], 2 * delta + 2)]
        assert seen["solve"] == (expected if delta else []), expr
        if delta:
            counts.add(len(classes))
    assert 0 in deltas and len(deltas) >= 3
    assert {1, 3, 4} <= counts


@st.composite
def classed_modules(draw):
    """A ``small_modules`` module at precision 6-24, or a rand(4|5;s) or
    F(k;l;rho) of the benchmark's invariants pools at precision 24 (two to
    five classes mod Z for many of them), twisted by -3..3."""
    kind = draw(st.sampled_from(("small", "rand", "F")))
    if kind == "small":
        module = draw(small_modules(precision=draw(st.integers(6, 24))))
    elif kind == "rand":
        rank, seed = draw(st.sampled_from((4, 5))), draw(st.integers(0, 47))
        module = from_expression(f"rand({rank};{seed})", 24)
    else:
        k = draw(st.integers(2, 4))
        lam = draw(st.sampled_from(("0", "1/2", "-1/3")))
        rho = draw(st.sampled_from(("1/2", "1", "2", "-1/2")))
        module = from_expression(f"F({k};{lam};{rho})", 24)
    return twist(module, draw(st.integers(-3, 3)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(classed_modules())
def test_width_table_matches_the_per_class_route(module):
    """One system for every class gives the table, or the error type and
    message, of one system per class, and column j of its kernel, the
    parameters pid = j mod c, has the live homes of class j's own system."""
    got = _outcome(width_table, module)
    assert got == _outcome(oracles.per_class_width_table, module)
    if got[0] != "ok" or not delta_index(module):
        return
    delta = delta_index(module)
    least = {}
    for s in spectrum(saturate(module).saturated):
        least.setdefault(_class_rep(s), s)
    mus = [least[rep] + Scalar(delta) for rep in got[1].classes]
    system = invariants._eigen_system(module, mus, delta)
    live = sorted(system.alive)
    for j, mu in enumerate(mus):
        alone = oracles.one_class_eigen_system(module, mu, delta)
        column = [system.home[pid] for pid in live if pid % len(mus) == j]
        assert column == [alone.home[pid] for pid in sorted(alone.alive)]
