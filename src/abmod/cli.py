"""Command-line interface.

Module arguments are either paths to module files (``rank``/``precision``
headers plus ``m i j:`` entry lines) or compact catalog expressions such as
``J(3;0)``.  Reports are line oriented, ``key: value``, and byte-stable for
fixed inputs, seed, and version; ``--verbose`` only adds ``#``-prefixed
commentary.  Exit codes: 0 success, 1 computational failure, 2 parse error,
3 unsupported spectrum, 4 usage error (also for a module file or a ``J``,
``F`` or ``rand`` expression declaring a rank above 256,
``textio.MAX_FILE_RANK``, a precision above 4096, ``textio.MAX_PRECISION``,
a ``hom`` or ``ext`` whose internal Hom would pass that rank, and a
``truncate`` or ``iso --trunc`` whose quotient would have dimension
rank * N above 2048, ``determination.MAX_TRUNCATION_DIM``, each refused
before any entry is built; for ``fd --trials`` above ``MAX_FD_TRIALS``;
and for a generic determinant beyond ``morphisms.MAX_DET_TERMS`` terms).
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import from_expression
from .determination import module_iso, quotient_iso, truncate, verify_fd
from .errors import (
    AbmodError,
    BadParameter,
    ParseError,
    PrecisionExhausted,
    UnsupportedSpectrum,
)
from .functors import classify_rank2, dual, ext_dims, hom_ab, jordan_holder, twist
from .invariants import (
    alpha_invariant,
    biggest_simple_pole,
    delta_index,
    is_geometric,
    is_regular,
    n0_bound,
    regularity_order,
    saturate,
    spectrum,
    width_table,
)
from .module import AbModule
from .scalars import Scalar
from .series import _make
from .textio import (
    MAX_PRECISION,
    _TokenStream,
    emit_module_file,
    format_scalar,
    parse_module_file,
    parse_scalar,
)

DEFAULT_PRECISION = 24
MAX_FD_TRIALS = 1000  # fd --trials

EXIT_OK = 0
EXIT_COMPUTATIONAL = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_option(low: int | None = None, high: int | None = None):
    """An argparse type: textio's INT after an optional '-', as a module file
    or catalog expression spells an integer, no smaller than ``low`` (nor
    above ``high``).  Any other spelling is argparse's "invalid int value"."""

    def parse(text):
        ts = _TokenStream(text)
        try:
            value = -ts.integer() if ts.accept("OP", "-") else ts.integer()
            ts.expect("END")
        except ParseError:
            raise ValueError(text) from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _scalar_list(values) -> str:
    return ", ".join(format_scalar(v) for v in values)


def _emit(module) -> list:
    return emit_module_file(module).splitlines()


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the report lines
# ---------------------------------------------------------------------------


def _cmd_info(args, load):
    m = load(args.module)
    regular = is_regular(m)
    lines = [
        f"rank: {m.rank}",
        f"precision: {m.precision}",
        f"simple_pole: {_bool(m.is_simple_pole())}",
        f"regular: {_bool(regular)}",
    ]
    if not regular:
        return lines
    lines.append(f"delta: {delta_index(m)}")
    lines.append(f"or: {regularity_order(m)}")
    lines.append(f"spectrum: {_scalar_list(spectrum(saturate(m).saturated))}")
    table = width_table(m)
    lines.append(f"width: {table.width}")
    if args.verbose:
        for rep in sorted(table.classes, key=Scalar.sort_key):
            lo, hi, gap = table.classes[rep]
            lines.append(
                f"# width class {format_scalar(rep)}: min {format_scalar(lo)}, "
                f"max {format_scalar(hi)}, gap {gap}"
            )
    lines.append(f"alpha: {format_scalar(alpha_invariant(m))}")
    lines.append(f"n0: {n0_bound(m)}")
    lines.append(f"geometric: {_bool(is_geometric(m))}")
    return lines


def _cmd_dual(args, load):
    return _emit(dual(load(args.module)))


def _cmd_twist(args, load):
    return _emit(twist(load(args.module), parse_scalar(args.scalar)))


def _cmd_saturate(args, load):
    return _emit(saturate(load(args.module)).saturated)


def _cmd_eb(args, load):
    sub, _ = biggest_simple_pole(load(args.module))
    return _emit(sub)


def _cmd_hom(args, load):
    return _emit(hom_ab(load(args.module), load(args.other)))


def _cmd_ext(args, load):
    d0, d1 = ext_dims(load(args.module), load(args.other))
    return [f"ext0: {d0}", f"ext1: {d1}"]


def _cmd_jh(args, load):
    seq = jordan_holder(load(args.module))
    return [f"jh: {_scalar_list(seq.exponents)}"]


def _cmd_classify2(args, load):
    return [f"class2: {classify_rank2(load(args.module))}"]


def _cmd_truncate(args, load):
    q = truncate(load(args.module), args.level)
    lines = [f"dim {q.dim}"]
    for label, mat in (("A", q.A), ("B", q.B)):
        for i in range(q.dim):
            for j in range(q.dim):
                if not mat[i][j].is_zero():
                    lines.append(f"{label} {i + 1} {j + 1}: {format_scalar(mat[i][j])}")
    return lines


def _cmd_iso(args, load):
    e = load(args.module)
    f = load(args.other)
    if args.trunc is not None:
        found = quotient_iso(truncate(e, args.trunc), truncate(f, args.trunc),
                             seed=args.seed)
    else:
        found = module_iso(e, f, seed=args.seed)
    return ["iso: found" if found is not None else "iso: absent"]


def _cmd_fd(args, load):
    report = verify_fd(load(args.module), args.trials, args.seed)
    lines = [
        f"rank: {report['rank']}",
        f"n0: {report['n0']}",
        f"fd_trials: {report['trials']}",
        f"fd_failures: {len(report['failures'])}",
    ]
    if args.verbose:
        for failure in report["failures"]:
            lines.append(f"# trial {failure['trial']}: {failure['error']}")
    return lines


def _cmd_catalog(args, load):
    del load  # catalog always builds from its expression
    return _emit(from_expression(args.expression, args.precision))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--precision",
        type=_int_option(1, MAX_PRECISION),
        default=DEFAULT_PRECISION,
        help="working precision for catalog-expression inputs",
    )
    common.add_argument(
        "--verbose",
        action="store_true",
        help="add #-prefixed commentary to the report",
    )

    parser = _Parser(
        prog="abmod",
        description="Exact computations with finite-rank (a,b)-modules.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, handler, help_text, *, other=False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("module", help="module file path or catalog expression")
        if other:
            p.add_argument("other", help="second module file path or expression")
        return p

    add("info", _cmd_info, "rank, regularity, spectrum, width, alpha, and bounds")
    add("dual", _cmd_dual, "emit the dual module")
    t = add("twist", _cmd_twist, "emit the twist by a scalar: a becomes a + m*b")
    t.add_argument("scalar", help="twist parameter m")
    add("saturate", _cmd_saturate,
        "emit the saturation (smallest simple-pole overmodule)")
    add("eb", _cmd_eb, "emit the biggest simple-pole submodule")
    add("hom", _cmd_hom, "emit the internal Hom module", other=True)
    add("ext", _cmd_ext, "dimensions of Ext^0 and Ext^1", other=True)
    add("jh", _cmd_jh, "Jordan-Hoelder exponents")
    add("classify2", _cmd_classify2, "normal form of a rank-2 module")
    tr = add("truncate", _cmd_truncate,
             "matrices of a and b on the finite quotient E/b^N E")
    tr.add_argument("level", type=_int_option(), help="truncation level N")
    i = add("iso", _cmd_iso, "decide isomorphism of modules or of truncations",
            other=True)
    i.add_argument("--trunc", type=_int_option(), default=None,
                   help="compare the level-N truncations instead of the modules")
    i.add_argument("--seed", type=_int_option(), default=0, help="search seed")
    f = add("fd", _cmd_fd,
            "perturb above the determination bound and verify unique lifts")
    f.add_argument("--trials", type=_int_option(0, MAX_FD_TRIALS), default=20,
                   help="number of perturbations")
    f.add_argument("--seed", type=_int_option(), default=0, help="perturbation seed")
    c = sub.add_parser("catalog", parents=[common],
                       help="emit a catalog module as a module file")
    c.set_defaults(handler=_cmd_catalog)
    c.add_argument("expression",
                   help="E(l), E(l;n), E(l,m), E(l,n;alpha), J(k;l), F(k;l;rho), "
                        "or rand(rank;seed)")
    return parser


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(args):
    """Run the selected handler; on PrecisionExhausted with expression-only
    inputs, retry once at doubled precision (at most MAX_PRECISION) and
    report the raise.  At the ceiling already, the error stands.  A retry
    answers about the modules asked for: ``rand`` draws a different module
    at each precision, so its expression is drawn at the requested
    precision and widened with zero terms, which is exact, since the draw
    has no terms at or above that precision; other expressions are rebuilt."""
    state = {"file_input": False}
    requested = args.precision

    def make_load(precision):
        def load(text):
            if os.path.isfile(text):
                state["file_input"] = True
                with open(text, encoding="utf-8") as handle:
                    return parse_module_file(handle.read())
            if _TokenStream(text).accept("NAME") != "rand":
                return from_expression(text, precision)
            drawn = from_expression(text, requested).matrix
            return AbModule([[_make(e.terms, precision) for e in row] for row in drawn])

        return load

    try:
        return args.handler(args, make_load(requested)), None
    except PrecisionExhausted:
        if state["file_input"] or args.precision >= MAX_PRECISION:
            raise
        raised = min(2 * args.precision, MAX_PRECISION)
        args.precision = raised
        return args.handler(args, make_load(raised)), raised


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"abmod: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        lines, raised = _dispatch(args)
    except ParseError as exc:
        print(f"abmod: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedSpectrum as exc:
        print(f"abmod: unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BadParameter as exc:
        print(f"abmod: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AbmodError as exc:
        print(f"abmod: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATIONAL
    out = []
    if raised is not None:
        out.append(f"precision_raised: {raised}")
    out.extend(lines)
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
