"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from a traced pass (see ``README.md`` in this directory).
The lines before it are a human-readable report.

Exit code 0 means the run finished, even when some outputs were wrong (that
is reported through ``correct`` and ``failed``); 2 means the benchmark could
not run at all, for example because ``src/abmod`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_s is the median of this many set-ups, each in a fresh process.
SETUP_SAMPLES = 5
COLD_START_SAMPLES = 5
CHILD_TIMEOUT_S = 150


class HostSpeed:
    """A fixed round of ``Fraction`` arithmetic, timed next to every item.

    The shared host this benchmark was built on changes speed by tens of
    percent within seconds for the same work, which would swamp a change in
    the library.  So every item is bracketed by rounds, and its time is
    scaled by ``REFERENCE_S`` / (mean of the round just before and the round
    just after it): it reads as seconds on a host where one round takes
    ``REFERENCE_S``.  The round exercises the library's own hot path,
    ``Fraction`` arithmetic, so that it slows down with the host in the same
    way; it calls nothing in the library, so no change there can move it.

    Items that run in another process (the ``cli`` commands) are not
    scaled: rounds timed in this process, which waits idle meanwhile, were
    found to track their speed worse than no scaling at all.
    """

    REFERENCE_S = 0.005

    def __init__(self):
        from fractions import Fraction

        self._pairs = [(Fraction(i % 17 - 8, i % 5 + 1), Fraction(i % 13 - 6, i % 7 + 1))
                       for i in range(800)]

    def round(self) -> float:
        # With the collector on, a round's time would depend on how much
        # garbage the library left behind, not only on the host.
        gc.disable()
        try:
            start = time.perf_counter()
            for a, b in self._pairs:
                a * b + a - b
            return time.perf_counter() - start
        finally:
            gc.enable()

    def scale(self, rounds: int = 5) -> float:
        """REFERENCE_S over the median of a few rounds taken now."""
        return self.REFERENCE_S / statistics.median(self.round() for _ in range(rounds))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a child that failed)."""


def _load_library():
    if not (SRC / "abmod" / "__init__.py").is_file():
        raise BenchError(f"no library sources at {SRC / 'abmod'}")
    sys.path.insert(0, str(SRC))
    import abmod

    if Path(abmod.__file__).resolve().parent != (SRC / "abmod").resolve():
        raise BenchError(f"imported abmod from {abmod.__file__}, not from {SRC}")
    return abmod


def setup(workload: str, seed: int):
    """Import the library, build the seeded inputs and run one warm-up item
    drawn outside the timed set.  Returns (plan, seconds taken)."""
    start = time.perf_counter()
    _load_library()
    import workloads

    plan = workloads.Plan(workload, seed, workloads.load_expected())
    plan.warmup.prepare()
    plan.warmup.run()
    return plan, time.perf_counter() - start


def setup_samples(workload: str, seed: int) -> list:
    """Set-up times of ``SETUP_SAMPLES`` fresh processes, one after the
    other, each scaled to the reference speed by rounds this (warm) process
    times just before and just after the child."""
    speed = HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.scale()
        raw = _child(["--role", "setup", "--workload", workload, "--seed", str(seed)])
        samples.append(raw["setup_s"] * (before + speed.scale()) / 2)
    return samples


def timed_pass(plan, cycles, tracer=None, traced_dir=None):
    """Run cycles 0..cycles-1 of the plan, one item after the other.

    Only ``item.run()`` is timed; ``prepare()`` builds the inputs outside
    the timed region.  Returns one record per item, with its time scaled to
    the reference host speed (``latency_s``) and as measured (``raw_s``).
    """
    speed = HostSpeed()
    before = speed.round()
    records = []
    for c in range(cycles):
        for item in plan.cycle(c):
            item.prepare()
            if traced_dir is not None:
                item.traced_out = str(traced_dir / f"item-{len(records)}.json")
            if tracer is not None:
                tracer.item = item.id
                tracer.active = True
            t0 = time.perf_counter()
            try:
                output, error = item.run(), None
            except Exception as exc:  # an untyped failure is a failed item
                output, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            after = speed.round()
            problems = [error] if error else item.check(output)
            scale = HostSpeed.REFERENCE_S / ((before + after) / 2) if item.in_process else 1.0
            records.append({
                "id": item.id,
                "latency_s": latency * scale,
                "raw_s": latency,
                "digest": hashlib.sha256(str(output).encode()).hexdigest(),
                "problems": problems,
                "stderr": getattr(item, "stderr", ""),
            })
            before = after
    return records


def _child(args: list) -> dict:
    """Run this script in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(ROOT),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: "
                         f"{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def tail_latency(latencies: list) -> tuple:
    """(value, percentile, samples beyond it): the highest whole percentile
    of the latencies with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = max(1, -(-p * n // 100))  # nearest-rank percentile
        value = ordered[rank - 1]
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= 10:
            return value, p, beyond
    return ordered[-1], 100, 0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _failures(records: list) -> list:
    return [r for r in records if r["problems"]]


def _report_failures(records: list):
    for r in _failures(records):
        print(f"FAILED {r['id']}: {'; '.join(r['problems'])}")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    import workloads

    cycles = workloads.cycles_for(workload, seconds)
    plan, _ = setup(workload, seed)
    try:
        records = timed_pass(plan, cycles)
    finally:
        plan.close()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = setup_samples(workload, seed)
    latencies = [r["latency_s"] for r in records]
    tail, pct, beyond = tail_latency(latencies)
    failed = len(_failures(records))
    metrics = {
        "items_per_s": _metric(len(records) / sum(latencies), "1/s"),
        "item_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "item_tail_ms": _metric(tail * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    _report_failures(records)
    raw = sum(r["raw_s"] for r in records)
    print(f"workload {workload}  seed {seed}  cycles {cycles}  items {len(records)}  "
          f"timed {raw:.3f} s as measured, {sum(latencies):.3f} s at reference speed")
    for name, m in metrics.items():
        extra = f"  (p{pct} of {len(records)} samples, {beyond} beyond)" \
            if name == "item_tail_ms" else ""
        print(f"  {name:<14} {m['value']:12.4f} {m['unit']}{extra}")
    print(f"  {'failed_frac':<14} {failed / len(records):12.4f} ratio"
          f"  ({failed} of {len(records)})")
    print(f"  setup samples: {', '.join(f'{s:.3f}' for s in setups)} s")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def traced_child(workload: str, seed: int, cycles: int) -> dict:
    """The traced pass, run in a fresh process so that its caches start as
    cold as those of the untraced pass it is compared with."""
    import workloads

    plan, _ = setup(workload, seed)
    workloads.OUT.mkdir(exist_ok=True)
    spans_path = workloads.OUT / f"spans-{workload}.jsonl"
    try:
        if workload == "cli":
            traced_dir = workloads.OUT / f"trace-cli-{seed}"
            traced_dir.mkdir(exist_ok=True)
            records = timed_pass(plan, cycles, traced_dir=traced_dir)
            summary = _merge_cli_traces(traced_dir, records, spans_path)
            sympy = [bool(re.search(r"\|\s+sympy\s*$", r["stderr"], re.M)) for r in records]
        else:
            from tracing import Tracer

            tracer = Tracer().install()
            records = timed_pass(plan, cycles, tracer=tracer)
            tracer.uninstall()
            summary = tracer.summary()
            tracer.write_spans(spans_path)
            sympy = ["sympy" in sys.modules]
    finally:
        plan.close()
    for r in records:
        r.pop("stderr")
    return {"records": records, "summary": summary,
            "sympy_import_frac": sum(sympy) / len(sympy)}


def _merge_cli_traces(traced_dir: Path, records: list, spans_path: Path) -> dict:
    from tracing import merge_summaries

    parts = []
    with open(spans_path, "w", encoding="utf-8") as spans:
        for i in range(len(records)):
            path = traced_dir / f"item-{i}.json"
            parts.append(json.loads(path.read_text(encoding="utf-8")))
            spans.write((traced_dir / f"item-{i}.json.spans").read_text(encoding="utf-8"))
            path.unlink()
            (traced_dir / f"item-{i}.json.spans").unlink()
    traced_dir.rmdir()
    return merge_summaries(parts)


def cold_start_ms() -> float:
    """Median wall time of a fresh interpreter running ``import abmod``."""
    import workloads

    times = []
    for _ in range(COLD_START_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import abmod"], check=True,
                       env=workloads.cli_env(), cwd=str(ROOT), timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def per_layer(workload: str, seed: int, seconds: int) -> dict:
    import workloads
    from kernels import run_kernels

    cycles = workloads.cycles_for(workload, seconds / 2)
    plan, _ = setup(workload, seed)
    try:
        records = timed_pass(plan, cycles)
    finally:
        plan.close()
    kernels = run_kernels()
    cold = cold_start_ms()
    traced = _child(["--role", "traced", "--workload", workload, "--seed", str(seed),
                     "--cycles", str(cycles)])
    t_records, s = traced["records"], traced["summary"]
    mismatched = [
        f"{a['id']}: traced output differs from untraced"
        for a, b in zip(records, t_records) if a["digest"] != b["digest"]
    ]
    if len(t_records) != len(records):
        mismatched.append(f"traced pass ran {len(t_records)} items, untraced {len(records)}")
    untraced_s = sum(r["latency_s"] for r in records)
    traced_s = sum(r["latency_s"] for r in t_records)
    layers = s["layers"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    groups, gcalls = s["group_s"], s["group_calls"]
    sat_calls = s["calls"].get("invariants.saturate", 0)
    looked_up = s["saturate_hits"] + s["saturate_misses"]
    metrics = {name: _metric(v, unit) for name, (v, unit) in kernels.items()}
    metrics.update({
        "scalars.ops": _metric(s["ops"].get("scalars", 0), "count"),
        "series.ops": _metric(s["ops"].get("series", 0), "count"),
        "linalg.elim_calls": _metric(gcalls.get("elim", 0), "count"),
        "linalg.elim_s": _metric(groups.get("elim", 0.0), "s"),
        "linalg.eigen_calls": _metric(gcalls.get("eigen", 0), "count"),
        "linalg.eigen_s": _metric(groups.get("eigen", 0.0), "s"),
        "linalg.eigen_distinct_ratio": _metric(
            s["charpoly_distinct"] / s["charpoly_calls"] if s["charpoly_calls"] else 0.0,
            "ratio"),
        "lattice.calls": _metric(layer("lattice", "calls"), "count"),
        "lattice.self_s": _metric(layer("lattice", "self_s"), "s"),
        "invariants.calls": _metric(layer("invariants", "calls"), "count"),
        "invariants.self_s": _metric(layer("invariants", "self_s"), "s"),
        "invariants.saturate_calls": _metric(sat_calls, "count"),
        "invariants.saturate_hit_ratio": _metric(
            s["saturate_hits"] / looked_up if looked_up else 0.0, "ratio"),
        "invariants.saturate_steps": _metric(s["saturate_steps"], "count"),
        "functors.calls": _metric(layer("functors", "calls"), "count"),
        "functors.self_s": _metric(layer("functors", "self_s"), "s"),
        "morphisms.solve_calls": _metric(gcalls.get("solve", 0), "count"),
        "morphisms.solve_s": _metric(groups.get("solve", 0.0), "s"),
        "morphisms.params_alive": _metric(s["params_alive"], "count"),
        "morphisms.find_invertible_s": _metric(groups.get("find_invertible", 0.0), "s"),
        "morphisms.verify_s": _metric(groups.get("verify", 0.0), "s"),
        "determination.calls": _metric(layer("determination", "calls"), "count"),
        "determination.self_s": _metric(layer("determination", "self_s"), "s"),
        "determination.nolift": _metric(s["fd_errors"].get("NoLift", 0), "count"),
        "determination.nonunique": _metric(s["fd_errors"].get("NonUniqueLift", 0), "count"),
        "catalog.calls": _metric(layer("catalog", "calls"), "count"),
        "catalog.self_s": _metric(layer("catalog", "self_s"), "s"),
        "textio.calls": _metric(layer("textio", "calls"), "count"),
        "textio.self_s": _metric(layer("textio", "self_s"), "s"),
        "cli.cold_start_ms": _metric(cold, "ms"),
        "cli.sympy_import_frac": _metric(traced["sympy_import_frac"], "ratio"),
        "trace.overhead_frac": _metric(traced_s / untraced_s - 1, "ratio"),
    })
    _report_failures(records)
    _report_failures(t_records)
    for line in mismatched:
        print(f"FAILED {line}")
    failed = len(_failures(records)) + len(_failures(t_records)) + len(mismatched)
    attempted = len(records) + len(t_records)
    print(f"workload {workload}  seed {seed}  cycles {cycles}  items {len(records)}  "
          f"untraced {untraced_s:.3f} s  traced {traced_s:.3f} s  spans {s['spans']}")
    print(f"  {'layer':<14} {'calls':>12} {'spans':>9} {'self_s':>10} {'total_s':>10}")
    for name in sorted(layers, key=lambda n: -layers[n]["self_s"]):
        row = layers[name]
        print(f"  {name:<14} {row['calls']:12d} {row['spans']:9d} "
              f"{row['self_s']:10.4f} {row['total_s']:10.4f}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:14.4f} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------


def _pin_to_one_cpu():
    """Run this process, and the children it starts, on one CPU: the host's
    CPUs differ in speed from moment to moment, and the ``HostSpeed`` rounds
    must time the CPU that ran the timed work."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh child processes this script starts
    parser.add_argument("--role", choices=("main", "setup", "traced"), default="main")
    parser.add_argument("--cycles", type=int, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    _pin_to_one_cpu()
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        if args.role == "setup":
            plan, seconds = setup(args.workload, args.seed)
            plan.close()
            result = {"setup_s": seconds}
        elif args.role == "traced":
            result = traced_child(args.workload, args.seed, args.cycles)
        elif args.trace:
            result = per_layer(args.workload, args.seed, args.seconds)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
