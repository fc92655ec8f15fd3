"""Regenerate ``expected.json``: the expected answer and cost of every pool entry.

    python3 bench/make_expected.py

Run it only on a commit whose outputs are known to be right: the goldens it
writes are what later runs are checked against.  Where theory knows the
answer (the c01/c09 isomorphism verdicts, the c02 closed forms for J), the
theory answer is stored and any disagreement is printed, never hidden.
Each pool is stored sorted by the cost its entries had here; the runs
visit it in an order that spreads every prefix over that range.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import abmod  # noqa: E402
import workloads as w  # noqa: E402


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def pool_records(kind: str, entries: list, disagreements: list) -> list:
    records = []
    roster = {}
    if kind.startswith("fd:"):
        # The roster module is reused across trials; pay its invariants
        # before timing so that the first trial's cost is comparable.
        item = w.build_item(kind, entries[0], None, "", 0, roster)
        item.prepare()
        abmod.n0_bound(item.state)
    for entry in entries:
        if kind.startswith("cli:"):
            variants = {k: entry["variant"] for k in w.CLI_KINDS}
            files = {"module": str(w.OUT / "golden.ab"),
                     "malformed": str(w.OUT / "golden.malformed")}
            argv = next(a for a, k in w.cli_commands(variants, files) if k == kind)
            if kind == "cli:file":
                text = abmod.emit_module_file(w.cli_file_module(entry["variant"]))
                Path(files["module"]).write_text(text, encoding="utf-8")
            (code, out, _), cost = _timed(lambda: w.run_cli(argv))
            got = w.cli_output(code, out)
            theory = w.cli_theory(argv)
            theory = None if theory is None else w.cli_output(0, theory)
        else:
            item = w.build_item(kind, entry, None, "", 0, roster)
            item.prepare()
            got, cost = _timed(item.run)
            theory = w.theory_answer(kind, entry)
            if kind == "inv:J":
                for problem in w.j_closed_forms(entry["expr"], got):
                    disagreements.append(f"{kind} {entry}: {problem}")
        if theory is not None and got != theory:
            disagreements.append(f"{kind} {entry}: computed {got!r}, theory {theory!r}")
        records.append({"entry": entry, "expect": theory if theory is not None else got,
                        "cost_s": round(cost, 4)})
    records.sort(key=lambda r: r["cost_s"])
    return records


def main() -> int:
    w.OUT.mkdir(exist_ok=True)
    (w.OUT / "golden.malformed").write_text(w.MALFORMED_MODULE, encoding="utf-8")
    disagreements = []
    pools = {}
    for kind, entries in w.expression_pools().items():
        start = time.perf_counter()
        pools[kind] = pool_records(kind, entries, disagreements)
        print(f"{kind}: {len(entries)} entries in {time.perf_counter() - start:.1f} s",
              flush=True)
    fixed = {}
    files = {"module": str(w.OUT / "golden.ab"),
             "malformed": str(w.OUT / "golden.malformed")}
    variants = {k: 0 for k in w.CLI_KINDS}
    for argv, kind in w.cli_commands(variants, files):
        if kind is None:
            code, out, _ = w.run_cli(argv)
            fixed[w.cli_command_key(argv, kind)] = w.cli_output(code, out)
    for path in files.values():
        Path(path).unlink(missing_ok=True)
    data = {
        "made_with": {"python": platform.python_version(), "abmod": abmod.__version__},
        "disagreements_with_theory": disagreements,
        "cli_fixed": fixed,
        "pools": pools,
    }
    with open(w.EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for line in disagreements:
        print(f"DISAGREES WITH THEORY: {line}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
