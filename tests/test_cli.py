"""Command-line interface: reports, exit codes, byte stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import abmod
from abmod import cli
from abmod.errors import PrecisionExhausted
from abmod.textio import MAX_PRECISION
from abmod.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


# -- reports -----------------------------------------------------------------


def test_info_golden(capsys):
    code, out, _ = run(["info", "J(3;0)"], capsys)
    assert code == 0
    assert out == [
        "rank: 3",
        "precision: 24",
        "simple_pole: false",
        "regular: true",
        "delta: 2",
        "or: 2",
        "spectrum: 0, 0, 0",
        "width: -2",
        "alpha: 3",
        "n0: 4",
        "geometric: false",
    ]


def test_info_verbose_width_classes(capsys):
    code, out, _ = run(["info", "E(1/2)", "--verbose"], capsys)
    assert code == 0
    assert "# width class 1/2: min 1/2, max 1/2, gap 0" in out
    assert out[-1] == "geometric: true"
    assert "spectrum: 1/2" in out


def test_catalog_emission(capsys):
    code, out, _ = run(["catalog", "E(1/2,1/3)"], capsys)
    assert code == 0
    assert out == [
        "rank 2",
        "precision 24",
        "m 1 1: (1/3)*b",
        "m 1 2: 1",
        "m 2 2: -(1/2)*b",
    ]


def test_dual_twist_hom_golden(capsys):
    code, out, _ = run(["dual", "E(1/2)"], capsys)
    assert code == 0 and out[-1] == "m 1 1: -(1/2)*b"
    code, out, _ = run(["twist", "E(1/2)", "3/2"], capsys)
    assert code == 0 and out[-1] == "m 1 1: 2*b"
    code, out, _ = run(["hom", "E(0)", "E(1)"], capsys)
    assert code == 0 and out[-1] == "m 1 1: b"


def test_saturate_and_eb_golden(capsys):
    code, out, _ = run(["saturate", "E(1/2,1/3)"], capsys)
    assert code == 0
    assert out == [
        "rank 2",
        "precision 23",
        "m 1 1: -(2/3)*b",
        "m 1 2: b",
        "m 2 2: -(1/2)*b",
    ]
    code, out, _ = run(["eb", "E(1/2,1/3)"], capsys)
    assert code == 0
    assert out == [
        "rank 2",
        "precision 23",
        "m 1 1: (1/3)*b",
        "m 1 2: b",
        "m 2 2: (1/2)*b",
    ]


def test_ext_golden(capsys):
    code, out, _ = run(["ext", "E(0)", "E(0)"], capsys)
    assert code == 0
    assert out == ["ext0: 1", "ext1: 2"]


def test_ext_raises_precision_when_needed(capsys):
    code, out, _ = run(["ext", "J(3;0)", "J(3;0)", "--precision", "14"], capsys)
    assert code == 0
    assert out == ["precision_raised: 28", "ext0: 7", "ext1: 10"]


def test_ext_answers_from_the_certified_level_of_its_hom(capsys):
    # n_lambda of the Hom needs its level w0, not w0 + 3, so this pair
    # answers at precision 6 with no retry, and from 3 after one.
    code, out, _ = run(["ext", "E(1/2)", "J(2;0)", "--precision", "6"], capsys)
    assert code == 0
    assert out == ["ext0: 1", "ext1: 2"]
    code, out, _ = run(["ext", "E(1/2)", "J(2;0)", "--precision", "3"], capsys)
    assert code == 0
    assert out == ["precision_raised: 6", "ext0: 1", "ext1: 2"]


def test_ext_of_a_rank16_hom(capsys):
    code, out, _ = run(["ext", "J(4;0)", "F(4;0;1/2)"], capsys)
    assert code == 0
    assert out == ["precision_raised: 48", "ext0: 12", "ext1: 16"]


def test_jh_classify_truncate_golden(capsys):
    code, out, _ = run(["jh", "J(3;1)"], capsys)
    assert code == 0 and out == ["jh: 3, 2, 1"]
    # each lift keeps only the W - 1 orders it knows, so J(3;0)'s sequence
    # no longer fits in 8 orders
    code, out, _ = run(["jh", "J(3;0)", "--precision", "8"], capsys)
    assert code == 0 and out == ["precision_raised: 16", "jh: 2, 1, 0"]
    code, out, _ = run(["classify2", "E(1/2,3/2)"], capsys)
    assert code == 0 and out == ["class2: NonSplit(1/2, 3/2)"]
    # gap 2: the split test needs gap + 2 = 4 orders, the saturation 6, so
    # no precision_raised line
    code, out, _ = run(["classify2", "E(1/2;2)", "--precision", "6"], capsys)
    assert code == 0 and out == ["class2: SimplePoleJordan(1/2, 2)"]
    code, out, _ = run(["truncate", "E(1/2)", "2"], capsys)
    assert code == 0 and out == ["dim 2", "A 2 1: 1/2", "B 2 1: 1"]


def test_classify_answers_at_the_resonance_order(capsys):
    """The split test is certified at gap + 2 orders on the simple-pole
    model: E(1/2;5) answers at 7, and E(0,5), whose saturation is one order
    shorter, at 8, with no precision retry."""
    code, out, _ = run(["classify2", "E(1/2;5)", "--precision", "7"], capsys)
    assert code == 0 and out == ["class2: SimplePoleJordan(1/2, 5)"]
    code, out, _ = run(["classify2", "E(0,5)", "--precision", "8"], capsys)
    assert code == 0 and out == ["class2: NonSplit(0, 5)"]


def test_iso_module_and_truncation_level(capsys):
    code, out, _ = run(["iso", "F(3;0;1/2)", "J(3;0)"], capsys)
    assert code == 0 and out == ["iso: absent"]
    code, out, _ = run(["iso", "F(3;0;1/2)", "J(3;0)", "--trunc", "3"], capsys)
    assert code == 0 and out == ["iso: found"]


def test_fd_reports(capsys):
    code, out, _ = run(["fd", "J(2;0)", "--trials", "3"], capsys)
    assert code == 0
    assert out == ["rank: 2", "n0: 3", "fd_trials: 3", "fd_failures: 0"]
    code, out, _ = run(["fd", "J(3;0)", "--trials", "5", "--verbose"], capsys)
    assert code == 0
    assert out[:4] == ["rank: 3", "n0: 4", "fd_trials: 5", "fd_failures: 3"]
    assert out[4:] == ["# trial 0: NoLift", "# trial 3: NoLift", "# trial 4: NoLift"]


# -- files -------------------------------------------------------------------


def test_file_input_round_trip(tmp_path, capsys):
    code, emitted, _ = run(["catalog", "E(1/2,1/3)"], capsys)
    assert code == 0
    path = tmp_path / "mod.txt"
    path.write_text("\n".join(emitted) + "\n")
    code, from_file, _ = run(["info", str(path)], capsys)
    assert code == 0
    code, from_expr, _ = run(["info", "E(1/2,1/3)"], capsys)
    assert code == 0
    assert from_file == from_expr


def test_non_regular_file_reports(tmp_path, capsys):
    path = tmp_path / "nr.txt"
    path.write_text("rank 1\nprecision 8\nm 1 1: 1\n")
    code, out, _ = run(["info", str(path)], capsys)
    assert code == 0
    assert out == ["rank: 1", "precision: 8", "simple_pole: false", "regular: false"]
    code, out, err = run(["jh", str(path)], capsys)
    assert code == 1 and out == []
    assert "error" in err


@pytest.mark.parametrize("rank, entries, steps", [
    (2, "m 1 1: 1\nm 2 2: b\n", "2 steps"),
    (1, "m 1 1: 1 + b\n", "1 step"),
])
def test_the_cli_says_not_regular_one_way(tmp_path, capsys, rank, entries, steps):
    """Every command that needs a regular module refuses an irregular file
    with the saturation's one text, worded for its rank; info reports it."""
    path = tmp_path / "irregular.txt"
    path.write_text(f"rank {rank}\nprecision 12\n{entries}")
    want = (f"abmod: error: saturation did not stabilize within {steps}: "
            "the module is not regular\n")
    commands = [["jh"], ["fd"], ["ext", str(path)], ["eb"], ["saturate"]]
    if rank == 2:
        commands.append(["classify2"])
    for command in commands:
        code, out, err = run([command[0], str(path), *command[1:]], capsys)
        assert (code, out, err) == (1, [], want), command
    code, out, err = run(["info", str(path)], capsys)
    assert code == 0 and err == ""
    assert out[-1] == "regular: false"


def test_shallow_file_is_computational_error(tmp_path, capsys):
    path = tmp_path / "shallow.txt"
    path.write_text("rank 3\nprecision 2\nm 2 1: 1\nm 3 2: 1\n")
    code, out, err = run(["info", str(path)], capsys)
    assert code == 1 and out == []
    assert "precision" in err


def test_file_rank_above_the_ceiling_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("rank 100000\nprecision 4\nm 1 1: b\n")
    start = time.perf_counter()
    code, out, err = run(["info", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == []
    assert err == "abmod: error: rank must be at most 256, got 100000\n"


def test_precision_above_the_ceiling_is_a_usage_error(tmp_path, capsys):
    # The case that ran for longer than 15 s before the ceiling existed.
    start = time.perf_counter()
    code, out, err = run(["iso", "J(3;0)", "J(3;0)", "--precision", "100000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == []
    assert err == (
        f"abmod: error: argument --precision: must be at most {MAX_PRECISION}, "
        "got 100000\n"
    )
    path = tmp_path / "deep.txt"
    path.write_text(f"rank 1\nprecision {MAX_PRECISION + 1}\nm 1 1: b\n")
    code, out, err = run(["info", str(path)], capsys)
    assert code == 4 and out == []
    assert err == (
        f"abmod: error: precision must be at most 4096, got {MAX_PRECISION + 1}\n"
    )


def test_precision_retry_stops_at_the_ceiling(monkeypatch, capsys):
    tried = []

    def exhausted(args, load):
        tried.append(load(args.module).precision)
        raise PrecisionExhausted(f"not enough at {tried[-1]}")

    monkeypatch.setattr(cli, "_cmd_info", exhausted)
    code, out, err = run(["info", "E(0)", "--precision", "3000"], capsys)
    assert tried == [3000, MAX_PRECISION]
    assert code == 1 and err == f"abmod: error: not enough at {MAX_PRECISION}\n"
    tried.clear()
    code, out, err = run(["info", "E(0)", "--precision", str(MAX_PRECISION)], capsys)
    assert tried == [MAX_PRECISION]
    assert code == 1 and err == f"abmod: error: not enough at {MAX_PRECISION}\n"


def test_no_retry_below_the_need_of_the_first_refusal(monkeypatch, capsys):
    # a need above twice the precision is not retried; a need at it is
    tried = []

    def exhausted(args, load):
        tried.append(load(args.module).precision)
        raise PrecisionExhausted("the query", need, tried[-1])

    monkeypatch.setattr(cli, "_cmd_info", exhausted)
    for need, want in ((17, [8]), (16, [8, 16])):
        tried.clear()
        code, out, err = run(["info", "E(0)", "--precision", "8"], capsys)
        assert tried == want
        assert code == 1 and err == (
            f"abmod: error: the query needs precision >= {need}, have {want[-1]}\n"
        )


def test_a_retry_widens_the_rand_draw_asked_for(tmp_path, capsys):
    """rand draws a different module at each precision, so a retry widens
    the draw at the requested precision with zero terms: the report is that
    of the precision-4 draw written as a precision-8 file, not that of the
    draw at 8 (or 1, n0 7)."""
    code, out, _ = run(["info", "rand(3;1000)", "--precision", "4"], capsys)
    assert code == 0 and out[0] == "precision_raised: 8"
    assert "or: 2" in out and "n0: 8" in out
    drawn = abmod.emit_module_file(abmod.from_expression("rand(3;1000)", 4))
    path = tmp_path / "drawn.txt"
    path.write_text(drawn.replace("precision 4\n", "precision 8\n"))
    assert run(["info", str(path)], capsys)[:2] == (0, out[1:])
    code, out, _ = run(["info", "rand(3;1000)", "--precision", "8"], capsys)
    assert code == 0 and "or: 1" in out and "n0: 7" in out


def test_hom_rank_above_the_ceiling_is_a_usage_error(capsys):
    # 17 * 16 = 272 > 256: refused before any entry of the Hom is built.
    for command in ("hom", "ext"):
        start = time.perf_counter()
        code, out, err = run([command, "J(17;0)", "J(16;0)"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == []
        assert err == (
            "abmod: error: the rank of the internal Hom must be at most 256, got 272\n"
        )


# -- exit codes --------------------------------------------------------------


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("rank 1\nprecision 4\nm 1 1: b//2\n")
    code, out, err = run(["info", str(path)], capsys)
    assert code == 2 and out == []


def test_a_digit_int_refuses_is_a_parse_error(tmp_path, capsys):
    # A superscript digit passes str.isdigit but not int(): it is an
    # unexpected character, exit 2, in a file, an expression or a scalar.
    path = tmp_path / "superscript.txt"
    path.write_text("rank 1\nprecision 4\nm 1 1: b^²\n", encoding="utf-8")
    for args in (["info", str(path)], ["info", "E(²)"],
                 ["twist", "E(0)", "²"]):
        code, out, err = run(args, capsys)
        assert code == 2 and out == []
        assert err.startswith("abmod: parse error: ")
        assert "unexpected character '²'" in err


def test_exit_code_unsupported_spectrum(capsys):
    code, out, err = run(["info", "F(3;0;1)"], capsys)
    assert code == 3 and out == []
    assert "unsupported" in err


def test_exit_code_usage(capsys):
    assert run([], capsys)[0] == 4
    assert run(["truncate", "E(1/2)", "xyz"], capsys)[0] == 4
    assert run(["info", "E(1,2;0)"], capsys)[0] == 4
    assert run(["iso", "E(1/2)", "J(2;0)"], capsys)[0] == 4
    assert run(["info", "J(257;0)"], capsys)[0] == 4


def test_exit_code_usage_for_out_of_range_counts(capsys):
    for args, flag in (
        (["info", "--precision", "-3", "J(2;0)"], "--precision"),
        (["info", "--precision", "0", "J(2;0)"], "--precision"),
        (["catalog", "E(1/2)", "--precision", "-1"], "--precision"),
        (["fd", "J(2;0)", "--trials", "-1"], "--trials"),
    ):
        code, out, err = run(args, capsys)
        assert code == 4 and out == []
        assert err.startswith(f"abmod: error: argument {flag}: must be at least")
    code, out, _ = run(["fd", "J(2;0)", "--trials", "0"], capsys)
    assert code == 0 and "fd_trials: 0" in out


def test_a_non_integer_catalog_argument_is_a_usage_error(capsys):
    code, out, err = run(["info", "J(1/2;0)"], capsys)
    assert (code, out) == (4, [])
    assert err == "abmod: error: k must be an integer, not '1/2'\n"


@pytest.mark.parametrize("flag, argv", [
    ("--precision", ["info", "E(0)", "--precision"]),
    ("--trials", ["fd", "E(0)", "--trials"]),
    ("--seed", ["fd", "E(0)", "--seed"]),
    ("--seed", ["iso", "E(0)", "E(0)", "--seed"]),
    ("--trunc", ["iso", "E(0)", "E(0)", "--trunc"]),
    ("level", ["truncate", "E(0)"]),
])
def test_integer_options_follow_the_text_grammar(capsys, flag, argv):
    # digits, with a leading '-' where the option's range allows one; no
    # '_', '+' or other spelling that Python's int() also reads
    for text in ("1_0", "+3", " +3", "0x3", "3.0", "3e0"):
        code, out, err = run(argv + [text], capsys)
        assert (code, out) == (4, []), text
        assert err == f"abmod: error: argument {flag}: invalid int value: {text!r}\n"
    code, out, _ = run(argv + ["3"], capsys)
    assert code == 0 and out, out


def test_a_negative_seed_is_read(capsys):
    assert run(["iso", "E(0)", "E(0)", "--seed", "-3"], capsys)[:2] == (0, ["iso: found"])


def test_truncation_and_trial_ceilings_are_usage_errors(capsys, monkeypatch):
    def no_allocation(rows, cols):
        raise MemoryError(f"allocating a {rows} x {cols} matrix")

    def no_trials(*args):
        raise AssertionError("verify_fd ran")

    monkeypatch.setattr(abmod.linalg, "zeros", no_allocation)
    monkeypatch.setattr(cli, "verify_fd", no_trials)
    for args in (
        ["truncate", "E(0)", "2049", "--precision", "4096"],
        ["truncate", "J(4;0)", "513"],
        ["iso", "E(0)", "E(0)", "--trunc", "2049", "--precision", "4096"],
    ):
        code, out, err = run(args, capsys)
        assert code == 4 and out == [], args
        assert err.startswith("abmod: error: the dimension of E/b^")
        assert "must be at most 2048, got " in err
    for trials in (str(cli.MAX_FD_TRIALS + 1), "1000000000"):
        code, out, err = run(["fd", "J(2;0)", "--trials", trials], capsys)
        assert code == 4 and out == []
        assert err.startswith("abmod: error: argument --trials: must be at most 1000")


def test_help_exits_zero(capsys):
    assert run(["--help"], capsys)[0] == 0


# -- determinism -------------------------------------------------------------


def test_reports_are_byte_stable(capsys):
    first = run(["info", "rand(3;11)"], capsys)
    second = run(["info", "rand(3;11)"], capsys)
    assert first == second
    first = run(["fd", "J(2;0)", "--trials", "2"], capsys)
    second = run(["fd", "J(2;0)", "--trials", "2"], capsys)
    assert first == second


# -- imports -------------------------------------------------------------------

SPECTRUM_COMMANDS = [
    ["info", "rand(4;1001)"],
    ["jh", "J(3;0)"],
    ["classify2", "E(1/2,1/3)"],
    ["saturate", "J(3;0)"],
]
# Every intertwiner F(3;0;2) -> J(3;0) is singular; find_invertible tells
# so from the two empty rows of block 0.
SINGULAR_ISO_COMMAND = ["iso", "F(3;0;2)", "J(3;0)"]

SYMPY_PROBE = """
import contextlib, io, json, sys
from abmod.cli import main
outputs = []
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, argv
    outputs.append(out.getvalue())
print(json.dumps(["sympy" in sys.modules, outputs]))
"""


def test_spectrum_commands_run_without_sympy():
    env = dict(os.environ, PYTHONPATH=str(Path(abmod.__file__).resolve().parents[1]))
    probe = subprocess.run(
        [sys.executable, "-c", SYMPY_PROBE % (SPECTRUM_COMMANDS + [SINGULAR_ISO_COMMAND],)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    sympy_loaded, outputs = json.loads(probe.stdout)
    assert outputs[-1] == "iso: absent\n"
    assert sympy_loaded is False

