"""Command-line interface: reports, exit codes, byte stability."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import abmod
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


def test_ext_of_a_rank16_hom(capsys):
    code, out, _ = run(["ext", "J(4;0)", "F(4;0;1/2)"], capsys)
    assert code == 0
    assert out == ["precision_raised: 48", "ext0: 12", "ext1: 16"]


def test_jh_classify_truncate_golden(capsys):
    code, out, _ = run(["jh", "J(3;1)"], capsys)
    assert code == 0 and out == ["jh: 3, 2, 1"]
    code, out, _ = run(["classify2", "E(1/2,3/2)"], capsys)
    assert code == 0 and out == ["class2: NonSplit(1/2, 3/2)"]
    code, out, _ = run(["truncate", "E(1/2)", "2"], capsys)
    assert code == 0 and out == ["dim 2", "A 2 1: 1/2", "B 2 1: 1"]


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
    assert err == "abmod: error: rank 100000 exceeds the module-file ceiling 256\n"


# -- exit codes --------------------------------------------------------------


def test_exit_code_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("rank 1\nprecision 4\nm 1 1: b//2\n")
    code, out, err = run(["info", str(path)], capsys)
    assert code == 2 and out == []


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
# Reaches find_invertible's fallback: all 40 random tries give a singular
# block 0, and the expanded generic determinant vanishes identically.
FALLBACK_COMMAND = ["iso", "F(3;0;2)", "J(3;0)"]

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
        [sys.executable, "-c", SYMPY_PROBE % (SPECTRUM_COMMANDS + [FALLBACK_COMMAND],)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    sympy_loaded, outputs = json.loads(probe.stdout)
    assert outputs[-1] == "iso: absent\n"
    assert sympy_loaded is False

