"""The four benchmark workloads: their items, seeded draws and expected answers.

An *item* is one user-level query.  Every workload is a closed loop with one
client: the next item starts when the previous one has finished.  Items come
in *cycles*; a cycle holds one item of every kind the workload has, so the
mix of work is the same in every cycle whatever the seed.  A run is a fixed
number of cycles, set from ``--seconds`` by ``cycles_for``.

Inputs are drawn from ``--seed`` only:

* ``classify2`` runs a fixed stream of random base changes, never repeating
  a module, and the seed twists every module.
* ``invariants`` and ``fd`` run fixed pools whose expected answers are
  stored in ``expected.json``; the seed twists modules or picks trial seeds
  (see ``Plan``), which changes the inputs but not the amount of work.
* ``cli`` runs a fixed command list; the seed picks the variant of the
  seeded commands from pools of stored answers.

Each item has ``prepare()`` (untimed: builds the modules from the seeded
description) and ``run()`` (timed: the query itself).  ``run()`` returns the
canonical output text that the checker compares with the expected answer.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED_FILE = HERE / "expected.json"

# Fixed input sizes.  These must never shrink to make a number look better.
CLASSIFY2_PRECISION = 12
INVARIANTS_PRECISION = 24
FD_TRIALS_PER_ITEM = 1
CLI_FD_TRIALS = 3

# The c03 normal forms and their tags, known by construction.  A tag is a
# template: {0}, {1} are the exponents, which a twist by m moves by m; the
# Jordan gap and alpha do not move.
CLASSIFY2_FAMILIES = [
    ("DirectSum({0}, {1})", ("1/2", "2"), "sum"),
    ("SimplePoleJordan({0}, 2)", ("1/2",), "E(1/2;2)"),
    ("NonSplit({0}, {1})", ("1/3", "1/2"), "E(1/2,1/3)"),
    ("NonSplitAlpha({0}, 2, 3)", ("1/2",), "E(1/2,2;3)"),
]

# The finite-determination roster (c08): module expression and precision.
FD_ROSTER = [
    ("J(3;0)", 24),
    ("J(4;0)", 24),
    ("E(1/2,1/3)", 24),
    ("E(1/2;2)", 24),
    ("rand(3;1000)", 26),
    ("rand(4;1001)", 26),
    ("rand(3;1002)", 24),
    ("rand(4;1003)", 25),
]
FD_TRIAL_SEEDS = 40
FD_BINS = 8

# Parameters of the catalog pools.
J_LAMBDAS = ["0", "1/2", "-1/3", "1", "2/3", "-1/2", "1/4", "3/2", "i", "(1/2+i)"]
F_CASES = [(k, l, rho) for k in (2, 3, 4) for l in ("0", "1/2", "-1/3")
           for rho in ("1/2", "1", "2", "-1/2")]
E_ALPHA_CASES = [(l, n, a) for l in ("1/2", "1", "-1/3", "2") for n in (1, 2, 3)
                 for a in ("1", "3", "i", "-2")]
RAND_POOL = 48
ISO_LAMBDAS = ["0", "1/2", "-1/3", "1", "2/3", "-1/2", "1/4", "3/2"]
CLI_VARIANTS = 16
CLI_KINDS = ["cli:catalog", "cli:iso", "cli:trunc", "cli:fd", "cli:file"]


def expression_pools() -> dict:
    """Every pooled kind with its entries, before sorting by cost.

    Each entry is a JSON-able description from which ``build_item`` makes
    the item; ``make_expected.py`` runs every entry once to record the
    expected output and the cost that orders the pool.
    """
    pools = {}
    for rank in (2, 3, 4, 5):
        pools[f"inv:rand{rank}"] = [
            {"expr": f"rand({rank};{s})"} for s in range(RAND_POOL)
        ]
    pools["inv:J"] = [
        {"expr": f"J({k};{l})"} for k in (2, 3, 4, 5) for l in J_LAMBDAS
    ]
    pools["inv:F"] = [{"expr": f"F({k};{l};{r})"} for k, l, r in F_CASES]
    pools["inv:E"] = [{"expr": f"E({l},{n};{a})"} for l, n, a in E_ALPHA_CASES]
    for expr, prec in FD_ROSTER:
        pools[f"fd:{expr}"] = [
            {"expr": expr, "precision": prec, "trial_seed": s}
            for s in range(FD_TRIAL_SEEDS)
        ]
    # c01 duality pairs: dual(J_k(l)) ~ J_k(-l-k+1), dual(E_l) ~ E_-l and
    # dual(E_{l,m}) ~ E_{-m+1,-l+1}.  Known isomorphic by theory.
    dual_pairs = []
    for k in (2, 3, 4, 5):
        for l in ISO_LAMBDAS:
            dual_pairs.append({"pair": "Jdual", "k": k, "l": l})
    for l in ISO_LAMBDAS:
        dual_pairs.append({"pair": "Edual", "l": l})
        dual_pairs.append({"pair": "EMdual", "l": l, "m": "1/3"})
    pools["iso:dual"] = dual_pairs
    # c09 pairs: F(k;l;rho) agrees with J_k(l) to order k but is not
    # isomorphic to it.  Known non-isomorphic by theory.
    pools["iso:sharp"] = [
        {"pair": "FJ", "k": k, "l": l, "rho": rho}
        for k in (2, 3, 4, 5) for l in ("0", "1/2", "-1/3") for rho in ("1/2", "2")
    ]
    for kind in CLI_KINDS:
        pools[kind] = [{"variant": v} for v in range(CLI_VARIANTS)]
    return pools


def load_expected(path=EXPECTED_FILE) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# the library side (imported lazily so that ``run.py`` can time the import)
# ---------------------------------------------------------------------------


def _abmod():
    import abmod

    return abmod


def _scalar(text: str):
    return _abmod().parse_scalar(text)


def info_report(module) -> str:
    """The ``info`` report of a module, computed through the public API."""
    ab = _abmod()
    fmt = ab.format_scalar
    regular = ab.is_regular(module)
    lines = [
        f"rank: {module.rank}",
        f"precision: {module.precision}",
        f"simple_pole: {str(module.is_simple_pole()).lower()}",
        f"regular: {str(regular).lower()}",
    ]
    if regular:
        spec = ab.spectrum(ab.saturate(module).saturated)
        lines += [
            f"delta: {ab.delta_index(module)}",
            f"or: {ab.regularity_order(module)}",
            "spectrum: " + ", ".join(fmt(s) for s in spec),
            f"width: {ab.width_table(module).width}",
            f"alpha: {fmt(ab.alpha_invariant(module))}",
            f"n0: {ab.n0_bound(module)}",
            f"geometric: {str(ab.is_geometric(module)).lower()}",
        ]
    return "\n".join(lines)


def _outcome(fn) -> str:
    """Run fn; a typed library error is an outcome, reported by its name."""
    ab = _abmod()
    try:
        return fn()
    except ab.AbmodError as exc:
        return f"raises {type(exc).__name__}"


def _random_base_change(module, rng):
    """Conjugate the structure matrix by a random invertible series matrix,
    as the c03 acceptance test does: M' = Q^-1 (M Q + b^2 Q')."""
    ab = _abmod()
    from abmod import linalg
    from abmod.seriesmat import smat_inverse, smat_mul

    p, w = module.rank, module.precision

    def rand_scalar():
        s = ab.Scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))))
        if rng.random() < 0.25:
            s = s + ab.Scalar(0, Fraction(rng.randint(-2, 2)))
        return s

    def sparse_series():
        s = ab.Series.zero(w)
        for _ in range(rng.randint(0, 2)):
            c = rand_scalar()
            if not c.is_zero():
                s = s + ab.Series.monomial(c, rng.randint(0, min(4, w - 1)), w)
        return s

    while True:
        q = [[sparse_series() for _ in range(p)] for _ in range(p)]
        q0 = [[q[i][j].coefficient(0) for j in range(p)] for i in range(p)]
        if not linalg.det(q0).is_zero():
            break
    qi = smat_inverse(q)
    dq = [[e.derivative().shift_up(2) for e in row] for row in q]
    mq = smat_mul(module.matrix, q)
    num = [[mq[i][j] + dq[i][j] for j in range(p)] for i in range(p)]
    return ab.AbModule(smat_mul(qi, num))


def _family_module(name: str, w: int):
    ab = _abmod()
    if name == "sum":
        z = ab.Series.zero(w)
        return ab.AbModule([
            [ab.Series.monomial(_scalar("1/2"), 1, w), z],
            [z, ab.Series.monomial(_scalar("2"), 1, w)],
        ])
    return ab.from_expression(name, w)


def _iso_pair(entry: dict):
    """The two modules of a c01/c09 pair (see ``theory_answer``)."""
    ab = _abmod()
    kind = entry["pair"]
    if kind == "Jdual":
        k, l = entry["k"], _scalar(entry["l"])
        left = ab.dual(ab.make_J_k(l, k, 16))
        return left, ab.make_J_k(-l - ab.Scalar(k - 1), k, 16)
    if kind == "Edual":
        l = _scalar(entry["l"])
        return ab.dual(ab.make_E_lambda(l, 12)), ab.make_E_lambda(-l, 12)
    if kind == "EMdual":
        l, m = _scalar(entry["l"]), _scalar(entry["m"])
        one = ab.Scalar(1)
        left = ab.dual(ab.make_E_lambda_mu(l, m, 14))
        return left, ab.make_E_lambda_mu(-m + one, -l + one, 14)
    if kind == "FJ":
        k, l, rho = entry["k"], _scalar(entry["l"]), _scalar(entry["rho"])
        return ab.make_F_rho(l, k, rho, 14), ab.make_J_k(l, k, 14)
    raise ValueError(f"unknown pair kind {kind!r}")


def theory_answer(kind: str, entry: dict):
    """The answer known from theory for an entry, or None when there is none."""
    if kind.startswith("iso:"):
        return "iso: absent" if entry["pair"] == "FJ" else "iso: found"
    return None


def j_closed_forms(expr: str, report: str) -> list:
    """Mismatches between an ``info`` report of J(k;l) and the c02 closed
    forms delta = or = k-1, width = -k+1, n0 = k+1."""
    k = int(expr[2:].split(";")[0])
    want = {"delta": k - 1, "or": k - 1, "width": -k + 1, "n0": k + 1}
    got = dict(line.split(": ", 1) for line in report.splitlines())
    return [f"{key}={got.get(key)} (theory {val})"
            for key, val in want.items() if got.get(key) != str(val)]


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


class Item:
    """One user-level query: ``prepare`` is untimed, ``run`` is timed."""

    in_process = True  # False when run() starts another process

    def __init__(self, item_id: str, expected: str, prepare, run, theory=None):
        self.id = item_id
        self.expected = expected
        self._prepare = prepare
        self._run = run
        self.theory = theory  # extra check: output -> list of mismatches
        self.state = None

    def prepare(self):
        self.state = self._prepare()

    def run(self) -> str:
        return self._run(self.state)

    def check(self, output: str) -> list:
        """Mismatches of output against the expected answer (empty if right)."""
        problems = []
        if output != self.expected:
            problems.append(f"expected {self.expected!r}, got {output!r}")
        if self.theory is not None:
            problems.extend(self.theory(output))
        return problems


def twisted_report(report: str, m: int) -> str:
    """The ``info`` report of twist(E, m) from the report of E.

    Twisting (a -> a + m*b) is an exact functor that moves every exponent
    by m: the spectrum shifts by m, alpha by rank*m, geometricity is read
    off the shifted spectrum, and rank, precision, simple pole, regularity,
    delta, or, width and n0 do not change.  A typed error stays the same.
    """
    if m == 0 or report.startswith("raises "):
        return report
    ab = _abmod()
    shift = ab.Scalar(m)
    fields = dict(line.split(": ", 1) for line in report.splitlines())
    if fields["regular"] == "true":
        spec = [ab.parse_scalar(x) + shift for x in fields["spectrum"].split(", ")]
        fields["spectrum"] = ", ".join(ab.format_scalar(x) for x in spec)
        fields["alpha"] = ab.format_scalar(
            ab.parse_scalar(fields["alpha"]) + ab.Scalar(m * int(fields["rank"])))
        fields["geometric"] = str(all(x.is_real() and x.re > 0 for x in spec)).lower()
    return "\n".join(f"{k}: {v}" for k, v in fields.items())


def build_item(kind: str, entry: dict, golden: str, tag: str, m: int,
               roster: dict) -> Item:
    """The in-process item for one pool entry of an ``invariants``, ``fd``
    or ``iso`` kind; the modules of invariants and iso items are twisted by
    m.  ``roster`` holds the fd modules of this run, built once and reused
    across cycles as a user running many trials on one module would (the
    library caches their invariants)."""
    ab = _abmod()
    if kind.startswith("inv:"):
        expr = entry["expr"]
        theory = (lambda out: j_closed_forms(expr, out)) if kind == "inv:J" else None
        return Item(
            f"{tag} info twist({expr};{m})", twisted_report(golden, m),
            lambda: ab.twist(ab.from_expression(expr, INVARIANTS_PRECISION), m),
            lambda module: _outcome(lambda: info_report(module)),
            theory,
        )
    if kind.startswith("fd:"):
        expr, prec, trial = entry["expr"], entry["precision"], entry["trial_seed"]

        def prep():
            if expr not in roster:
                roster[expr] = ab.from_expression(expr, prec)
            return roster[expr]

        def run(module):
            def go():
                report = ab.verify_fd(module, FD_TRIALS_PER_ITEM, trial)
                errors = [f["error"] for f in report["failures"]]
                return f"n0={report['n0']} " + (",".join(errors) or "ok")
            return _outcome(go)

        return Item(f"{tag} fd {expr}@{prec} trial_seed={trial}", golden, prep, run)
    if kind.startswith("iso:"):
        def prep_iso():
            left, right = _iso_pair(entry)
            return ab.twist(left, m), ab.twist(right, m)

        def run_iso(pair):
            return _outcome(
                lambda: "iso: found" if ab.module_iso(*pair) is not None
                else "iso: absent"
            )
        return Item(f"{tag} iso {json.dumps(entry, sort_keys=True)} twist {m}",
                    golden, prep_iso, run_iso)
    raise ValueError(f"no in-process item for kind {kind!r}")


def classify2_item(seed: int, index: int) -> Item:
    """Item ``index`` of the stream: family ``index % 4`` under a random base
    change that depends on ``index`` only, twisted by a seeded m."""
    template, exponents, family = CLASSIFY2_FAMILIES[index % len(CLASSIFY2_FAMILIES)]
    m = random.Random(f"classify2:{seed}:{index}").randint(-3, 3)
    ab = _abmod()
    tag = template.format(*(ab.format_scalar(_scalar(e) + ab.Scalar(m))
                            for e in exponents))

    def prep():
        rng = random.Random(f"classify2:{index}")
        module = _random_base_change(_family_module(family, CLASSIFY2_PRECISION), rng)
        return ab.twist(module, m)

    def run(module):
        return _outcome(lambda: str(ab.classify_rank2(module)))

    return Item(f"#{index} classify2 twist(bc{index}({family});{m})", tag, prep, run)


# ---------------------------------------------------------------------------
# cli commands
# ---------------------------------------------------------------------------


MALFORMED_MODULE = "rank 2\nprecision 8\nm 1 1: 1/2*b +\n"


def cli_file_module(variant: int):
    return _abmod().from_expression(f"rand(3;{500 + variant})", 24)


def cli_commands(variants: dict, files: dict) -> list:
    """The fixed command list of one ``cli`` pass: (argv, kind or None).

    ``variants`` maps each seeded kind to its variant number and ``files``
    holds the paths of the module files the benchmark wrote.
    """
    v = variants
    return [
        (["info", "E(0)"], None),
        (["info", "J(5;1/2)"], None),
        (["info", "rand(4;7)"], None),
        (["dual", "J(3;1/2)"], None),
        (["saturate", "E(1/2,2;3)"], None),
        (["eb", "J(4;0)"], None),
        (["hom", "E(1/2)", "J(2;0)"], None),
        (["ext", "J(2;0)", "E(0)"], None),
        (["jh", "rand(3;5)"], None),
        (["classify2", "E(1/2,1/3)"], None),
        (["classify2", "E(1/2;2)"], None),
        (["ext", "E(1/2)", "J(2;0)"], None),
        (["info", "E(1/2,1/3)"], None),
        (["truncate", "E(1/2;2)", "4"], None),
        (["catalog", f"rand(3;{v['cli:catalog']})"], "cli:catalog"),
        (["iso", "J(4;0)", "F(4;0;1/2)", "--seed", str(v["cli:iso"])], "cli:iso"),
        (["iso", "F(3;0;1/2)", "J(3;0)", "--trunc", "3", "--seed",
          str(v["cli:trunc"])], "cli:trunc"),
        (["fd", "E(1/2,1/3)", "--trials", str(CLI_FD_TRIALS), "--seed",
          str(v["cli:fd"])], "cli:fd"),
        (["info", files["module"]], "cli:file"),
        (["info", files["malformed"]], None),
    ]


def cli_command_key(argv: list, kind) -> str:
    """The key of a command in expected.json: file paths are replaced by
    the role of the file, so that the key does not depend on where the
    checkout lives."""
    if kind == "cli:file":
        return "info <module file>"
    if argv[-1].endswith(".malformed"):
        return "info <malformed file>"
    return " ".join(argv)


def cli_theory(argv: list):
    if argv[0] == "iso" and "--trunc" in argv:
        return "iso: found\n"
    if argv[0] == "iso":
        return "iso: absent\n"
    return None


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_cli(argv: list, traced_out=None) -> tuple:
    """Run one command in a fresh interpreter; returns (exit code, stdout,
    stderr).  With ``traced_out`` the command runs under ``tracecli.py``
    with ``-X importtime``, which writes its trace summary to that path."""
    if traced_out is None:
        cmd = [sys.executable, "-m", "abmod.cli", *argv]
    else:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "tracecli.py"),
               str(traced_out), *argv]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        cwd=str(ROOT),
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out.decode(), err.decode()


def cli_output(code: int, stdout: str) -> str:
    return f"exit {code}\n{stdout}"


class CliItem(Item):
    in_process = False

    def __init__(self, item_id, expected, argv, prepare=None):
        super().__init__(item_id, expected, prepare or (lambda: None), None)
        self.argv = argv
        self.traced_out = None  # set by the traced pass
        self.stderr = ""

    def run(self) -> str:
        code, out, err = run_cli(self.argv, self.traced_out)
        self.stderr = err
        return cli_output(code, out)


# ---------------------------------------------------------------------------
# plans: the seeded draw of one run
# ---------------------------------------------------------------------------

WORKLOADS = ("classify2", "invariants", "fd", "cli")

# Seconds one cycle took, on a 2-core x86-64 box, with the library this
# benchmark was first written against.  A run of --seconds S runs
# round(S / NOMINAL_CYCLE_S) cycles, whatever the speed of the code under
# test, so two commits always run the same items.
NOMINAL_CYCLE_S = {"classify2": 0.25, "invariants": 2.0, "fd": 2.5, "cli": 10.5}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


INVARIANTS_KINDS = ["inv:rand2", "inv:rand3", "inv:rand4", "inv:rand5",
                    "inv:J", "inv:F", "inv:E"]
FD_KINDS = [f"fd:{expr}" for expr, _ in FD_ROSTER] + ["iso:dual", "iso:sharp"]


def spread_order(n: int) -> list:
    """A visiting order of 0..n-1 whose every prefix is spread evenly over
    the range (the base-2 van der Corput sequence scaled to n).  Pools are
    sorted by cost, so any number of cycles sees cheap and dear entries in
    about the proportion the whole pool has."""
    order, seen, i = [], set(), 0
    while len(order) < n:
        bits, x, f = i, 0.0, 0.5
        while bits:
            x += f * (bits & 1)
            bits, f = bits >> 1, f / 2
        k = int(x * n)
        if k not in seen:
            seen.add(k)
            order.append(k)
        i += 1
    return order


class Plan:
    """The seeded draw of one run: a warm-up item outside the timed set and
    the items of cycle 0, 1, 2, ...

    The seed chooses, for every ``classify2``, ``invariants`` and ``iso``
    item, the twist a -> a + m*b applied to its modules (m in -3..3); a
    twist changes the modules but not the work, and theory gives its effect
    on every answer.
    For the fd trials it picks the trial seed inside a cost bin, and for
    ``cli`` the variant of each seeded command.  So the seed moves the
    inputs without moving the cost of a run.
    """

    def __init__(self, workload: str, seed: int, expected: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.files = {}
        self.roster = {}
        if workload == "cli":
            OUT.mkdir(exist_ok=True)
            malformed = OUT / f"cli-{os.getpid()}.malformed"
            malformed.write_text(MALFORMED_MODULE, encoding="utf-8")
            self.files = {"malformed": str(malformed),
                          "module": str(OUT / f"cli-{os.getpid()}.ab")}
        self.warmup = self._warmup()

    def close(self):
        for path in self.files.values():
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def _record(self, kind: str, cycle: int) -> dict:
        """The pool record that cycle ``cycle`` uses for ``kind``.

        Most kinds take the pool in ``spread_order``.  The fd trials cut
        their pool (sorted by cost) into ``FD_BINS`` bins of equal size,
        visit the bins in ``spread_order`` and let the seed pick the trial
        seed inside each bin.
        """
        pool = self.expected["pools"][kind]
        if not kind.startswith("fd:"):
            return pool[spread_order(len(pool))[cycle % len(pool)]]
        size = len(pool) // FD_BINS
        b = spread_order(FD_BINS)[cycle % FD_BINS]
        visit = cycle // FD_BINS
        members = list(range(b * size, (b + 1) * size))
        self._rng(kind, b, visit // size).shuffle(members)
        return pool[members[visit % size]]

    def _rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.workload, self.seed) + key)))

    def _warmup(self) -> Item:
        ab = _abmod()
        if self.workload == "classify2":
            def prep():
                rng = random.Random(f"classify2-warmup:{self.seed}")
                return _random_base_change(ab.from_expression("E(1/3;1)", 12), rng)
            return Item("warmup", "SimplePoleJordan(1/3, 1)", prep,
                        lambda m: _outcome(lambda: str(ab.classify_rank2(m))))
        if self.workload == "invariants":
            return Item("warmup", None,
                        lambda: ab.from_expression("rand(3;100000)", INVARIANTS_PRECISION),
                        lambda m: _outcome(lambda: info_report(m)))
        if self.workload == "fd":
            return Item("warmup", None,
                        lambda: ab.from_expression("J(2;0)", 24),
                        lambda m: _outcome(
                            lambda: str(ab.verify_fd(m, 1, self.seed)["n0"])))
        return CliItem("warmup", None, ["info", "E(1)"])

    def cycle(self, c: int) -> list:
        tag = f"#{c}"
        if self.workload == "classify2":
            n = len(CLASSIFY2_FAMILIES)
            return [classify2_item(self.seed, c * n + i) for i in range(n)]
        if self.workload in ("invariants", "fd"):
            kinds = INVARIANTS_KINDS if self.workload == "invariants" else FD_KINDS
            items = []
            for kind in kinds:
                rec = self._record(kind, c)
                m = 0 if kind.startswith("fd:") else self._rng(kind, c).randint(-3, 3)
                items.append(build_item(kind, rec["entry"], rec["expect"], tag, m,
                                        self.roster))
            return items
        variants = {kind: self._rng(kind, c).randrange(CLI_VARIANTS) for kind in CLI_KINDS}
        items = []
        for argv, kind in cli_commands(variants, self.files):
            key = cli_command_key(argv, kind)
            if kind is None:
                expect = self.expected["cli_fixed"][key]
            else:
                pool = self.expected["pools"][kind]
                expect = next(r["expect"] for r in pool
                              if r["entry"]["variant"] == variants[kind])
            prep = None
            if kind == "cli:file":
                path, variant = self.files["module"], variants[kind]

                def prep(path=path, variant=variant):
                    text = _abmod().emit_module_file(cli_file_module(variant))
                    Path(path).write_text(text, encoding="utf-8")
            items.append(CliItem(f"{tag} {key} variant={variants.get(kind)}",
                                 expect, argv, prep))
        return items
