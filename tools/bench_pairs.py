"""Compare two checkouts with the benchmark and write a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_7.json --seed 800

PARENT and CHANGE are the roots of two checkouts, for example a
``git archive`` of the parent commit and the working tree.  For each of the
four workloads the script runs ``python3 bench/run.py --workload W --seed S
--trace 0`` (run length: ``bench/run.py``'s default) once in each checkout
per pair, ten pairs, with the same seed on both sides (``--seed`` plus the
pair index) and the parent first on even pairs, the change first on odd
ones.  Pick a seed not used while writing the change.  It then times each
probe command nine times in each checkout, alternating the same way, and
records what each printed on stdout and stderr, its exit code, and in how
many of the nine alternating runs the change was faster.  The probes are
the scaling probe ``abmod info 'J(12;0)' --precision 60``,
``abmod ext 'J(4;0)' 'F(4;0;1/2)'``
(its internal Hom has rank 16), ``abmod fd 'J(4;0)' --trials 40`` (the
intertwiner solver, its early exit and the shared prefix of the trials),
``abmod iso 'F(5;0;2)' 'J(5;0)'`` (a pair that agrees to order 5 and is not
isomorphic), ``abmod ext 'J(7;0)' 'J(7;0)' --precision 112`` (the
saturation of a Hom of rank 49 and the intertwiners of the pair, which
bound and read its Ext), ``abmod fd 'rand(4;1001)'
--precision 26 --trials 100`` (the intertwiner solver on a dense structure
matrix, where the ``J(4;0)`` probe's is sparse), ``abmod ext 'J(10;0)'
'J(10;0)' --precision 256`` (a Hom of rank 100), ``abmod classify2
'E(1/2,2;3)' --precision 48`` (the ``NonSplitAlpha`` branch: a primitive
eigenvector read off the saturation, then alpha), ``abmod ext 'J(2;0)'
'J(2;0)' --precision 3`` (the precision retry that fails again: it exits 1
with "saturation of a rank-4 module needs precision >= 10, have 6"),
``abmod ext 'J(3;1)' 'E(0)'`` (README's quickstart pair), and three
Jordan-Hoelder probes, each step a primitive eigenvector read off the kernel
of a - mu*b on E: ``abmod jh 'J(6;0)' --precision 32``, ``abmod jh
'rand(5;11)'`` and ``abmod jh 'J(5;0)' --precision 8`` (the precision retry
that fails again: it exits 1 with "saturation of a rank-3 module needs
precision >= 8, have 7").  Their times are
wall times of the whole process, not scaled to the host's speed.  Three more
probes are in-process twins of the ``rand(4;1001)``, ``J(7;0)`` and
``E(1/2,2;3)`` probes: one fresh child per run and side imports that side's
``abmod``, pins itself to one CPU as ``bench/run.py`` does, builds the
modules untimed (``rand(4;1001)`` at precision 26, ``J(7;0)`` twice at
precision 112, or ``E(1/2,2;3)`` at precision 48), and times one statement
(``verify_fd(module, 100, 0)``, ``ext_dims`` of the pair, or
``classify_rank2`` of its twists by -3..3) between two rounds of
``bench/run.py``'s ``HostSpeed``, which scale it as the workload items are
scaled; their runs are compared on the scaled time.  A fourth, timed and
scaled the same way, reads the width tables of ``J(12;0)`` at precision 60,
``J(10;0)`` at 40, ``J(7;0)`` at 112, and ``rand(5;9)``, ``rand(5;42)``,
``F(4;0;1/2)`` and ``rand(4;38)`` at 24 (one class each for the first
three, three or four classes mod Z each for the last four, which one
eigen-kernel system carries together), whose saturations the setup
computes, so the statement times lambda_min and lambda_max per class
alone.  A fifth in-process probe, timed and
scaled as the first four, puts ``lift_truncation_iso``, which no workload
reaches, under the identical-output check: the identity lift and seven
``_perturb`` lifts of ``J(6;0)`` at N = 16 (precision 48), the identity
lifts of ``E(1/2;2)`` and ``E(0;3)`` at N = 2 and 3 (precision 30; three of
these four raise ``NonUniqueLift``), and the identity lift of ``J(8;0)`` at
N = 128 (precision 256, a truncation of dimension 1024), each printed as
its error type's name or a sha256 of the lifted matrix's repr; the setup
builds each phi with ``identity_truncation_iso``.  A sixth, timed and
scaled as the first four, runs ``module_iso`` on the ``fd`` workload's
heaviest items, the ``iso:dual`` J pairs: dual(J(k;l)) against
J(k;-l-k+1) at precision 16 for k = 2..5 and the workload's eight
exponents l (the pairs are built in the setup; the statement solves,
saturates and verifies).  A seventh puts
``quotient_iso``, which only the ``iso --trunc`` CLI items reach, under the
identical-output check, timed and scaled as the others: ``truncate(J(6;0),
16)`` against ``truncate(dual(J(6;-5)), 16)`` (found, dimension 96) and
against ``truncate(F(6;0;1/2), 16)`` (absent), at precision 24, each printed
as None or a sha256 of the intertwiner's matrix repr.  An eighth, timed and
scaled as the others, puts the Jordan-Hoelder filtrations, whose lattices
the ``jh`` probes do not print, under the identical-output check:
``jordan_holder`` of ``J(6;0)`` at precision 32, ``rand(5;11)`` at 24,
``J(4;1/2)`` at 32 and ``rand(4;3)`` at 32, under ``lex`` and ``revlex``,
each printed as a sha256 of the sequence's repr and of its lattices'
generators (the modules are built in the setup).
Runs are sequential, one process at a time.

The output holds every run, and for every end-to-end metric the median and
quartiles on each side, the ratio of the medians (change / parent) and the
number of pairs in which the change was better.  The script exits with
status 1 when a probe's stdout, stderr or exit code differs between the
checkouts (or between runs), after writing the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("classify2", "invariants", "fd", "cli")
PAIRS = 10
PROBE_RUNS = 9
BETTER = {"items_per_s": "higher", "item_p50_ms": "lower", "item_tail_ms": "lower",
          "setup_s": "lower", "peak_rss_mb": "lower"}
PROBES = (["info", "J(12;0)", "--precision", "60"], ["ext", "J(4;0)", "F(4;0;1/2)"],
          ["fd", "J(4;0)", "--trials", "40"], ["iso", "F(5;0;2)", "J(5;0)"],
          ["ext", "J(7;0)", "J(7;0)", "--precision", "112"],
          ["fd", "rand(4;1001)", "--precision", "26", "--trials", "100"],
          ["ext", "J(10;0)", "J(10;0)", "--precision", "256"],
          ["classify2", "E(1/2,2;3)", "--precision", "48"],
          ["ext", "J(2;0)", "J(2;0)", "--precision", "3"], ["ext", "J(3;1)", "E(0)"],
          ["jh", "J(6;0)", "--precision", "32"], ["jh", "rand(5;11)"],
          ["jh", "J(5;0)", "--precision", "8"])


def _bench(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


OUTPUT = ("stdout", "stderr", "exit")


def _output(out) -> dict:
    return dict(zip(OUTPUT, (out.stdout, out.stderr, out.returncode)))


def _probe(root: str, argv: list) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "abmod.cli", *argv], cwd=root, env=env,
                         capture_output=True, text=True)
    return {"s": time.perf_counter() - start, **_output(out)}


# The lifts of the lift_truncation_iso probe, each with the identity of the
# source's truncation as phi, the last one J(8;0) at N = 128; lift_outcome
# is the error type's name or a sha256 of the lifted matrix's repr.
_LIFT_SETUP = """
import hashlib, random
from abmod.determination import _perturb
def lift_outcome(e, ep, phi, N):
    try:
        lift = lift_truncation_iso(e, ep, phi, N)
    except AbmodError as exc:
        return type(exc).__name__
    return hashlib.sha256(repr(lift.matrix).encode()).hexdigest()
j6 = from_expression('J(6;0)', 48)
rng = random.Random(0)
pairs = [(j6, j6, 16)] + [(j6, _perturb(j6, rng, 16), 16) for _ in range(7)]
pairs += [(m, m, N) for m in (from_expression('E(1/2;2)', 30),
                              from_expression('E(0;3)', 30)) for N in (2, 3)]
j8 = from_expression('J(8;0)', 256)
pairs.append((j8, j8, 128))
lifts = [(e, ep, identity_truncation_iso(e, N), N) for e, ep, N in pairs]
"""
# The J pairs of the fd workload's iso:dual pool: dual(J(k;l)) against
# J(k;-l-k+1) at precision 16, for k = 2..5 and l in its ISO_LAMBDAS.
_JDUAL_SETUP = """
lams = [parse_scalar(l) for l in ('0', '1/2', '-1/3', '1', '2/3', '-1/2', '1/4', '3/2')]
jdual = [(dual(make_J_k(l, k, 16)), make_J_k(-l - Scalar(k - 1), k, 16))
         for k in (2, 3, 4, 5) for l in lams]
"""
# The quotient_iso pairs: truncations at level 16 of J(6;0) and of two
# partners, at precision 24; quotient_outcome is None or a sha256 of T's repr.
_QUOTIENT_SETUP = """
import hashlib
def quotient_outcome(q, qp):
    t = quotient_iso(q, qp)
    return None if t is None else hashlib.sha256(repr(t.matrix).encode()).hexdigest()
q = truncate(from_expression('J(6;0)', 24), 16)
partners = [truncate(dual(from_expression('J(6;-5)', 24)), 16),
            truncate(from_expression('F(6;0;1/2)', 24), 16)]
"""
# The Jordan-Hoelder sequences of four modules under both policies;
# jh_digest is a sha256 of the sequence's repr and of its lattices'
# generators, which that repr does not show.
_JH_SETUP = """
import hashlib
def jh_digest(m, policy):
    seq = jordan_holder(m, policy)
    text = repr((seq, [lat.gens for lat in seq.filtration]))
    return hashlib.sha256(text.encode()).hexdigest()
mods = [from_expression(e, w) for e, w in (('J(6;0)', 32), ('rand(5;11)', 24),
                                          ('J(4;1/2)', 32), ('rand(4;3)', 32))]
"""
# In-process probes: (label, setup, statement).  The setup builds the inputs
# untimed; the statement is what is timed.  Both run with abmod's public
# names in scope.
IN_PROCESS_PROBES = (
    ("verify_fd(from_expression('rand(4;1001)', 26), 100, 0)",
     "module = from_expression('rand(4;1001)', 26)", "verify_fd(module, 100, 0)"),
    ("ext_dims(from_expression('J(7;0)', 112), from_expression('J(7;0)', 112))",
     "left = from_expression('J(7;0)', 112); right = from_expression('J(7;0)', 112)",
     "ext_dims(left, right)"),
    ("[str(classify_rank2(twist(m, k))) for k in range(-3, 4)]",
     "m = from_expression('E(1/2,2;3)', 48)",
     "[str(classify_rank2(twist(m, k))) for k in range(-3, 4)]"),
    ("[width_table(m).classes for m in mods]",
     "mods = [from_expression(e, w) for e, w in (('J(12;0)', 60), ('J(10;0)', 40), "
     "('J(7;0)', 112), ('rand(5;9)', 24), ('rand(5;42)', 24), ('F(4;0;1/2)', 24), "
     "('rand(4;38)', 24))]; sats = [saturate(m) for m in mods]",
     "[width_table(m).classes for m in mods]"),
    ("[lift_outcome(e, ep, phi, N) for e, ep, phi, N in lifts]", _LIFT_SETUP,
     "[lift_outcome(e, ep, phi, N) for e, ep, phi, N in lifts]"),
    ("[module_iso(e, ep) for e, ep in jdual]", _JDUAL_SETUP,
     "[module_iso(e, ep) for e, ep in jdual]"),
    ("[quotient_outcome(q, qp) for qp in partners]", _QUOTIENT_SETUP,
     "[quotient_outcome(q, qp) for qp in partners]"),
    ("[jh_digest(m, p) for m in mods for p in ('lex', 'revlex')]", _JH_SETUP,
     "[jh_digest(m, p) for m in mods for p in ('lex', 'revlex')]"),
)
# Run in a child with argv [bench/run.py, setup, statement]; prints one JSON
# line: raw and host-scaled seconds of the statement, and the repr of its
# value.
_IN_PROCESS_CHILD = """
import importlib.util, json, sys, time
spec = importlib.util.spec_from_file_location("bench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
run._pin_to_one_cpu()
import abmod
scope = {name: getattr(abmod, name) for name in abmod.__all__}
exec(sys.argv[2], scope)
speed = run.HostSpeed()
before = speed.round()
start = time.perf_counter()
value = eval(sys.argv[3], scope)
raw = time.perf_counter() - start
after = speed.round()
scaled = raw * run.HostSpeed.REFERENCE_S / ((before + after) / 2)
print(json.dumps({"s": raw, "scaled_s": scaled, "value": repr(value)}))
"""


def _in_process_probe(root: str, setup: str, statement: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", _IN_PROCESS_CHILD,
                          os.path.join(root, "bench", "run.py"), setup, statement],
                         cwd=root, env=env, capture_output=True, text=True, check=True)
    timed = json.loads(out.stdout)
    return {**_output(out), "s": timed["s"], "scaled_s": timed["scaled_s"],
            "stdout": timed["value"]}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _alternate(n: int, run):
    """``run(side, k)`` for k < n, parent first on even k; {side: [results]}."""
    out = {"parent": [], "change": []}
    for k in range(n):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out[side].append(run(side, k))
            print(f"  {side} #{k}: {json.dumps(out[side][-1])}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    report = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "command": "python3 bench/run.py --workload W --seed S --trace 0",
        "workloads": {},
    }
    for workload in WORKLOADS:
        print(f"{workload}:", file=sys.stderr)
        runs = _alternate(PAIRS, lambda side, k: _bench(roots[side], workload, args.seed + k))
        metrics = {}
        for name, better in BETTER.items():
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            wins = sum((c > p) if better == "higher" else (c < p)
                       for p, c in zip(parent, change))
            metrics[name] = {"better": better, "parent": _spread(parent),
                             "change": _spread(change),
                             "ratio": statistics.median(change) / statistics.median(parent),
                             "change_better_pairs": wins, "pairs": PAIRS}
        report["workloads"][workload] = {
            "correct": all(r["correct"] for side in runs.values() for r in side),
            "failed": sum(r["failed"] for side in runs.values() for r in side),
            "metrics": metrics, "runs": runs}
    report["probes"] = []
    same = True
    probes = [("abmod " + " ".join(argv), lambda root, argv=argv: _probe(root, argv))
              for argv in PROBES] + [
        (label, lambda root, setup=setup, statement=statement:
         _in_process_probe(root, setup, statement))
        for label, setup, statement in IN_PROCESS_PROBES]
    for command, probe in probes:
        print(f"probe {command}:", file=sys.stderr)
        runs = _alternate(PROBE_RUNS, lambda side, k: probe(roots[side]))
        outputs = {side: sorted({tuple(r[key] for key in OUTPUT) for r in rs})
                   for side, rs in runs.items()}
        identical = outputs["parent"] == outputs["change"] and len(outputs["parent"]) == 1
        same = same and identical
        timed = "scaled_s" if "scaled_s" in runs["parent"][0] else "s"
        wins = sum(c[timed] < p[timed] for p, c in zip(runs["parent"], runs["change"]))
        entry = {"command": command, "unit": "s", "same_output": identical,
                 "output": {side: [dict(zip(OUTPUT, o)) for o in out]
                            for side, out in outputs.items()},
                 "compared_on": timed, "change_faster_runs": wins, "probe_runs": PROBE_RUNS}
        for side, rs in runs.items():
            entry[side] = {key: {**_spread([r[key] for r in rs]), "runs": [r[key] for r in rs]}
                           for key in ("s", "scaled_s") if key in rs[0]}
        report["probes"].append(entry)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    if not same:
        print("probe output differs between the checkouts", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
