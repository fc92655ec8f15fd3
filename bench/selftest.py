"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that the traced pass computes exactly what the untraced pass
computes, that the tracer reaches every public function some workload
calls, that the seed alone fixes the draw, and that a wrong answer is
counted as a failure.  The file is not named ``test_*.py`` so that the
library's test suite does not collect it; it takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import abmod  # noqa: E402
import abmod.cli  # noqa: E402,F401  (so that its functions are listed too)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# Public functions that no workload reaches, with the reason.  A function
# missing from here that shows no calls means a binding the tracer missed.
NOT_REACHED = {
    "determination.identity_truncation_iso": "only the tests call it",
    "determination.lift_truncation_iso": "verify_fd uses the private _free_lift",
    "determination.recover_Eb_from_truncation": "only the tests call it",
    "functors.quotient_by_rank1": "only the tests call it",
    "functors.twist": "the cli workload has no twist command",
    "invariants.default_precision": "no caller in the library",
    "linalg.is_invertible": "no caller in the library",
    "module.apply_a_column": "no caller in the library",
    "module.apply_b": "no caller in the library",
    "module.apply_b_inverse": "no caller in the library",
    "seriesmat.col_add": "called only by Element arithmetic, which no library path uses",
    "seriesmat.col_scale": "called only by Element arithmetic, which no library path uses",
    "seriesmat.col_sub": "called only by Element arithmetic, which no library path uses",
    "scalars.rational": "no caller in the library",
    "series.series_sum": "no caller in the library",
    "seriesmat.col_is_zero": "no caller in the library",
    "seriesmat.smat_add": "no caller in the library",
    "seriesmat.smat_at_precision": "no caller in the library",
    "seriesmat.smat_from_scalars": "no caller in the library",
    "seriesmat.smat_identity": "no caller in the library",
    "seriesmat.smat_negate_variable": "no caller in the library",
    "seriesmat.smat_scale": "no caller in the library",
    "seriesmat.smat_transpose": "no caller in the library",
    "seriesmat.smat_vec": "no caller in the library",
    "seriesmat.smat_zero": "no caller in the library",
}


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _draw(workload: str, seed: int, cycles: int = 3) -> list:
    """What the program would be given: the prepared inputs of a few cycles."""
    plan = workloads.Plan(workload, seed, workloads.load_expected())
    try:
        out = []
        for c in range(cycles):
            for item in plan.cycle(c):
                if isinstance(item, workloads.CliItem):
                    item.prepare()
                    text = item.argv[:]
                    if item.argv[-1] == plan.files["module"]:
                        text.append(Path(plan.files["module"]).read_text())
                    out.append(repr(text))
                else:
                    item.prepare()
                    modules = item.state if isinstance(item.state, tuple) else (item.state,)
                    # The id names the twist and trial seed the item passes on.
                    out.append(item.id + repr([m.matrix for m in modules]))
        return out
    finally:
        plan.close()


class TracedRunMatchesUntraced(unittest.TestCase):
    def test_outputs_identical_and_correct(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = _bench("--workload", workload, "--seed", str(SEED),
                                "--seconds", "1", "--trace", "1")
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)


class EveryPublicFunctionIsReached(unittest.TestCase):
    def test_calls(self):
        called = set()
        for workload in workloads.WORKLOADS:
            child = _bench("--role", "traced", "--workload", workload,
                           "--seed", str(SEED), "--cycles", "1")
            called |= {n for n, c in child["summary"]["calls"].items() if c > 0}
        wrapped = set(tracing.public_functions()) | {"morphisms.IntertwinerSystem.solve"}
        missing = sorted(wrapped - called - set(NOT_REACHED))
        self.assertEqual(missing, [], "public functions with no traced calls")
        stale = sorted(set(NOT_REACHED) & called)
        self.assertEqual(stale, [], "listed as not reached but called")


class SeedFixesTheDraw(unittest.TestCase):
    def test_same_seed_same_draw_other_seed_other_draw(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = _draw(workload, SEED)
                self.assertEqual(first, _draw(workload, SEED))
                self.assertNotEqual(first, _draw(workload, SEED + 1))


class WrongAnswersAreCounted(unittest.TestCase):
    def test_injected_wrong_expected_answer(self):
        expected = workloads.load_expected()
        kind = "fd:E(1/2;2)"
        for record in expected["pools"][kind]:
            record["expect"] = "deliberately wrong"
        plan = workloads.Plan("fd", SEED, expected)
        plan.warmup.prepare()
        plan.warmup.run()
        records = run.timed_pass(plan, 2)
        failed = [r for r in records if r["problems"]]
        self.assertEqual(len(failed), 2)
        self.assertTrue(all("E(1/2;2)" in r["id"] for r in failed))

    def test_wrong_family_tag(self):
        original = workloads.CLASSIFY2_FAMILIES[0]
        workloads.CLASSIFY2_FAMILIES[0] = ("DirectSum(0, 0)",) + original[1:]
        try:
            plan = workloads.Plan("classify2", SEED, {})
            records = run.timed_pass(plan, 2)
        finally:
            workloads.CLASSIFY2_FAMILIES[0] = original
        self.assertEqual(sum(1 for r in records if r["problems"]), 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
