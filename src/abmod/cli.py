"""Command-line interface.

Module arguments are either paths to module files (``rank``/``precision``
headers plus ``m i j:`` entry lines) or compact catalog expressions such as
``J(3;0)``.  Reports are line oriented, ``key: value``, and byte-stable for
fixed inputs, seed, and version; ``--verbose`` only adds ``#``-prefixed
commentary.  Exit codes: 0 success, 1 computational failure, 2 parse error,
3 unsupported spectrum, 4 usage error (also for a module file or a ``J``,
``F`` or ``rand`` expression declaring a rank above 256,
``textio.MAX_FILE_RANK``, refused before any entry is built, and for a
generic determinant beyond ``morphisms.MAX_DET_TERMS`` terms).
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
from .scalars import Scalar
from .textio import emit_module_file, format_scalar, parse_module_file, parse_scalar

DEFAULT_PRECISION = 24

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


def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
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


_HANDLERS = {
    "info": _cmd_info,
    "dual": _cmd_dual,
    "twist": _cmd_twist,
    "saturate": _cmd_saturate,
    "eb": _cmd_eb,
    "hom": _cmd_hom,
    "ext": _cmd_ext,
    "jh": _cmd_jh,
    "classify2": _cmd_classify2,
    "truncate": _cmd_truncate,
    "iso": _cmd_iso,
    "fd": _cmd_fd,
    "catalog": _cmd_catalog,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--precision",
        type=_int_at_least(1),
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

    def add(name, help_text, *, other=False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("module", help="module file path or catalog expression")
        if other:
            p.add_argument("other", help="second module file path or expression")
        return p

    add("info", "rank, regularity, spectrum, width, alpha, and bounds")
    add("dual", "emit the dual module")
    t = add("twist", "emit the twist by a scalar: a becomes a + m*b")
    t.add_argument("scalar", help="twist parameter m")
    add("saturate", "emit the saturation (smallest simple-pole overmodule)")
    add("eb", "emit the biggest simple-pole submodule")
    add("hom", "emit the internal Hom module", other=True)
    add("ext", "dimensions of Ext^0 and Ext^1", other=True)
    add("jh", "Jordan-Hoelder exponents")
    add("classify2", "normal form of a rank-2 module")
    tr = add("truncate", "matrices of a and b on the finite quotient E/b^N E")
    tr.add_argument("level", type=int, help="truncation level N")
    i = add("iso", "decide isomorphism of modules or of truncations", other=True)
    i.add_argument("--trunc", type=int, default=None,
                   help="compare the level-N truncations instead of the modules")
    i.add_argument("--seed", type=int, default=0, help="search seed")
    f = add("fd", "perturb above the determination bound and verify unique lifts")
    f.add_argument("--trials", type=_int_at_least(0), default=20,
                   help="number of perturbations")
    f.add_argument("--seed", type=int, default=0, help="perturbation seed")
    c = sub.add_parser("catalog", parents=[common],
                       help="emit a catalog module as a module file")
    c.add_argument("expression",
                   help="E(l), E(l;n), E(l,m), E(l,n;alpha), J(k;l), F(k;l;rho), "
                        "or rand(rank;seed)")
    return parser


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(args):
    """Run the selected handler; on PrecisionExhausted with expression-only
    inputs, retry once at doubled precision and report the raise."""
    handler = _HANDLERS[args.command]
    state = {"file_input": False}

    def make_load(precision):
        def load(text):
            if os.path.isfile(text):
                state["file_input"] = True
                with open(text, encoding="utf-8") as handle:
                    return parse_module_file(handle.read())
            return from_expression(text, precision)

        return load

    try:
        return handler(args, make_load(args.precision)), None
    except PrecisionExhausted:
        if state["file_input"]:
            raise
        raised = 2 * args.precision
        args.precision = raised
        return handler(args, make_load(raised)), raised


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
