"""Compare two checkouts with the benchmark and write a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_7.json --seed 800

PARENT and CHANGE are the roots of two checkouts, for example a
``git archive`` of the parent commit and the working tree.  For each of the
four workloads the script runs ``python3 bench/run.py --workload W --seed S
--trace 0`` (run length: ``bench/run.py``'s default) once in each checkout
per pair, ten pairs, with the same seed on both sides (``--seed`` plus the
pair index) and the parent first on even pairs, the change first on odd
ones.  Pick a seed not used while writing the change.  It then times the
scaling probe ``abmod info 'J(12;0)' --precision 60`` three times in each
checkout, alternating the same way.  Runs are sequential, one process at a
time.

The output holds every run, and for every end-to-end metric the median and
quartiles on each side, the ratio of the medians (change / parent) and the
number of pairs in which the change was better.
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
PROBE_RUNS = 3
BETTER = {"items_per_s": "higher", "item_p50_ms": "lower", "item_tail_ms": "lower",
          "setup_s": "lower", "peak_rss_mb": "lower"}
PROBE = ["info", "J(12;0)", "--precision", "60"]


def _bench(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def _probe(root: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "abmod.cli", *PROBE], cwd=root, env=env,
                   capture_output=True, check=True)
    return time.perf_counter() - start


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
    print("probe:", file=sys.stderr)
    times = _alternate(PROBE_RUNS, lambda side, k: _probe(roots[side]))
    report["probe"] = {"command": "abmod " + " ".join(PROBE), "unit": "s",
                       **{side: {**_spread(ts), "runs": ts} for side, ts in times.items()}}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
