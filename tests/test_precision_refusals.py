"""Every refusal of too little precision reads "{what} needs precision >=
{need}, have {have}" and carries ``need`` and ``have``.  Each site below is
reached through the public API (or, for the CLI, through ``main``): one order
short of its need it raises exactly that text, and at its need it raises no
PrecisionExhausted of its own."""

import pytest

from abmod import (
    AbModule,
    Element,
    IntertwinerSystem,
    PrecisionExhausted,
    Series,
    base_change,
    classify_rank2,
    eigen_lift,
    from_expression,
    identity_truncation_iso,
    lattice_from_columns,
    lift_truncation_iso,
    module_iso,
    saturate,
    standard_lattice,
    truncate,
    verify_fd,
    verify_intertwiner,
)
from abmod.cli import main


def _b(v, w):
    return Series.monomial(1, v, w)


def _j2(w):
    return from_expression("J(2;0)", w)


def _identity(w):
    return [[Series.one(w), Series.zero(w)], [Series.zero(w), Series.one(w)]]


J2 = _j2(20)
PHI = identity_truncation_iso(J2, 3)
UNIT_LATTICE = standard_lattice(J2)

# (site, what, need, call): call(have) runs the site with ``have`` orders.
SITES = [
    ("Series.is_unit", "a series operand", 1, lambda h: Series.one(h).is_unit()),
    ("Series.invert", "a series operand", 1, lambda h: Series.one(h).invert()),
    ("Series.derivative", "a series operand", 1, lambda h: Series.one(h).derivative()),
    ("Series.__add__", "a series operand", 1, lambda h: Series.one(h) + Series.one(3)),
    ("Series.__sub__", "a series operand", 1, lambda h: Series.one(3) - Series.one(h)),
    ("Series.__mul__", "a series operand", 1, lambda h: Series.one(h) * _b(1, 3)),
    ("Series.coefficient", "the coefficient of b^3", 4,
     lambda h: Series.one(h).coefficient(3)),
    ("Series.at_precision", "cutting a series at b^4", 4,
     lambda h: Series.one(h).at_precision(4)),
    ("Series.shift_down", "dividing by b^4", 4, lambda h: Series.zero(h).shift_down(4)),
    ("Element.normalize", "dividing by b^4", 4,
     lambda h: Element([Series.zero(h), Series.zero(h)], 4).normalize()),
    ("AbModule", "a module", 1, lambda h: AbModule([[Series.zero(h)]])),
    ("base_change", "a series operand", 1, lambda h: base_change(J2, _identity(h))),
    ("verify_intertwiner", "a series operand", 1,
     lambda h: verify_intertwiner(J2.matrix, J2.matrix,
                                  [[Series.one(h), Series.zero(5)],
                                   [Series.zero(5), Series.one(5)]], 3)),
    ("lattice_from_columns", "a lattice", 1,
     lambda h: lattice_from_columns(1, [[Series.zero(h)]])),
    ("lattice_from_columns.pivot", "a lattice pivot b^3", 5,
     lambda h: lattice_from_columns(1, [[_b(3, h)]])),
    ("Lattice.contains_column.pivot", "reducing against the pivot b^2", 2,
     lambda h: lattice_from_columns(1, [[_b(2, 8)]]).contains_column([Series.zero(h)])),
    ("Lattice.contains_column.operand", "a series operand", 1,
     lambda h: UNIT_LATTICE.contains_column([Series.one(3), Series.zero(h)])),
    ("IntertwinerSystem.solve", "an intertwiner mod b^9", 9,
     lambda h: IntertwinerSystem(_j2(h).matrix, _j2(h).matrix, 9).solve()),
    ("module_iso", "an intertwiner mod b^9", 9, lambda h: module_iso(_j2(h), _j2(h), W=9)),
    ("lift_truncation_iso.data", "an intertwiner mod b^12", 12,
     lambda h: lift_truncation_iso(_j2(h), _j2(h), identity_truncation_iso(_j2(h), 3),
                                   3, W=12)),
    # J(2;0)'s slack is 4, so a lift above level 3 needs W >= 8
    ("lift_truncation_iso.window", "the lifting window above level 3", 8,
     lambda h: lift_truncation_iso(J2, J2, PHI, 3, W=h)),
    ("truncate", "the truncation E/b^6 E", 6, lambda h: truncate(_j2(h), 6)),
    ("saturate", "saturation of a rank-3 module", 8,
     lambda h: saturate(from_expression("J(3;0)", h))),
    # n0 of J(2;0) is 3, and its certification window reaches W = 9
    ("verify_fd", "the certification window above level 3", 9,
     lambda h: verify_fd(_j2(h), 0, 0)),
    ("eigen_lift", "an eigen lift from kappa 3", 5,
     lambda h: eigen_lift(from_expression("E(0)", h), 0, Element([Series.one(h)]), 3)),
    # the exponents 0 and 6 of E(0;6) are resonant at order 6 + 2
    ("classify_rank2.eigenvector", "the eigenvector for exponent 6", 8,
     lambda h: classify_rank2(from_expression("E(0;6)", h))),
]


@pytest.mark.parametrize("what, need, call", [s[1:] for s in SITES],
                         ids=[s[0] for s in SITES])
def test_each_precision_refusal_names_its_need_and_what_it_has(what, need, call):
    with pytest.raises(PrecisionExhausted) as short:
        call(need - 1)
    assert str(short.value) == f"{what} needs precision >= {need}, have {need - 1}"
    assert (short.value.need, short.value.have) == (need, need - 1)
    try:
        call(need)
    except PrecisionExhausted as err:
        assert not str(err).startswith(f"{what} needs"), err


def test_a_refusal_without_a_need_is_its_text_alone():
    err = PrecisionExhausted("ext dimensions failed to stabilize")
    assert str(err) == "ext dimensions failed to stabilize"
    assert (err.need, err.have) == (None, None)


def test_the_cli_names_the_truncation_level_it_could_not_reach(capsys):
    # twice the precision is still short of 30, so no retry is made
    code = main(["iso", "J(3;0)", "J(3;0)", "--trunc", "30", "--precision", "8"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "abmod: error: the truncation E/b^30 E needs precision >= 30, have 8\n"
    )
