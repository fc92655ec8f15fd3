"""The package carries no dead helpers and writes each rule once."""

import ast
import contextlib
import importlib
import inspect
import re
from pathlib import Path

import pytest

import abmod
from abmod import (
    AbModule,
    BadParameter,
    Element,
    IntertwinerSystem,
    Lattice,
    Rank2NormalForm,
    SaturationResult,
    Scalar,
    Series,
    WidthTable,
    eigen_lift,
    find_invertible,
    from_expression,
    identity_truncation_iso,
    lift_truncation_iso,
    make_E_lambda,
    make_E_lambda_mu_alpha,
    make_E_lambda_n,
    make_F_rho,
    make_J_k,
    module_iso,
    random_regular,
    truncate,
    verify_fd,
)
from abmod.textio import MAX_FILE_RANK, MAX_PRECISION

SRC = Path(abmod.__file__).parent


def test_every_public_function_is_exported_or_named_elsewhere():
    # A public module-level function that abmod does not export must be
    # named somewhere in the package besides its own definition.
    paths = sorted(SRC.glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    unused = []
    for path, text in zip(paths, texts):
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if node.name in abmod.__all__:
                continue
            word = re.compile(rf"\b{node.name}\b")
            if sum(len(word.findall(t)) for t in texts) < 2:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_every_public_method_is_named_elsewhere():
    # A public method of a public class in the package must be read as an
    # attribute outside its own body, in the package or the benchmark
    # harness, or be named in README.md; names in string constants do not
    # count.
    root = Path(__file__).resolve().parents[1]
    package = sorted(SRC.glob("*.py"))
    harness = sorted(root.glob("bench/*.py")) + [root / "tools" / "bench_pairs.py"]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package + harness]
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    readme = (root / "README.md").read_text(encoding="utf-8")
    unused = []
    for path, tree in zip(package, trees):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if reads.get(method.name, set()) - own:
                    continue
                if not re.search(rf"\b{method.name}\b", readme):
                    unused.append(f"{path.stem}.{cls.name}.{method.name}")
    assert unused == []


def test_every_top_level_import_is_used_in_its_module():
    # A name a package module imports at top level must be read somewhere
    # in that module; __init__.py re-exports and is exempt.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_error_type_is_raised_somewhere():
    # Each AbmodError subclass in errors.py is raised by some module of the
    # package; the base class itself is exempt.
    from abmod import errors

    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    types = [
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.AbmodError)
        and value is not errors.AbmodError
    ]
    assert types
    never = [
        name for name in types
        if not any(re.search(rf"\braise\s+{name}\b", t) for t in texts)
    ]
    assert never == []


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_immutability_is_written_once():
    # __setattr__ and __delattr__ are defined in record.Immutable alone, and
    # every value type of the package refuses through it.
    from abmod.record import Immutable, Record

    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(item): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        defined += [
            f"{path.stem}.{owner.get(id(node))}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("__setattr__", "__delattr__")
        ]
    assert sorted(defined) == ["record.Immutable.__delattr__", "record.Immutable.__setattr__"]

    records = [cls for cls in _subclasses(Record) if cls.__module__.startswith("abmod.")]
    assert {Element, Lattice, SaturationResult, WidthTable} <= set(records)
    for cls in [Scalar, Series, AbModule, *records]:
        assert cls.__setattr__ is Immutable.__setattr__
        assert cls.__delattr__ is Immutable.__delattr__
        value = object.__new__(cls)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            value.field = 1
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            del value.field


def _process_caches(tree) -> list:
    """The name of each function decorated with ``cache`` or ``lru_cache``
    (bare, called, or as an attribute such as ``functools.cache``), and
    ``lru_cache`` for each other reference to that name."""
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                decorators.add(id(target))
                if (getattr(target, "id", None) or getattr(target, "attr", None)) in (
                        "cache", "lru_cache"):
                    found.append(node.name)
    for node in ast.walk(tree):
        if id(node) not in decorators and "lru_cache" in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            found.append("lru_cache")
    return found


def test_process_caches_are_found_and_module_memos_are_not():
    flagged = """
@lru_cache(maxsize=512)
def a(module): pass
@functools.lru_cache
def b(module): pass
@cache
def c(module): pass
@functools.cache
def d(module): pass
e = lru_cache(maxsize=16)(lambda module: module)
"""
    kept = """
@_memoized
def a(module): pass
@functools.wraps(fn)
def b(module): pass
"""
    assert _process_caches(ast.parse(flagged)) == ["a", "b", "c", "d", "lru_cache"]
    assert _process_caches(ast.parse(kept)) == []


def test_every_module_memo_lives_on_its_module():
    # A per-module invariant is memoized by module._memoized, on the module
    # object; a process-wide cache would key on module equality and keep
    # modules no caller references.  The one exception is keyed by a prime.
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _process_caches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == ["linalg._sqrt_minus_one"]


def _abmod_paths(tree) -> set:
    """Every dotted ``abmod`` path a benchmark file reads: the names its
    ``from abmod[.x] import`` and ``import abmod[.x]`` statements bind, and
    each attribute chain on ``abmod``, on ``ab`` (its alias for the
    package) and on a name bound to an abmod module or member."""
    bound = {"abmod": "abmod", "ab": "abmod"}
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "abmod":
            for alias in node.names:
                path = bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                paths.add(path)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "abmod":
                    paths.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            paths.add(".".join([bound[node.id], *reversed(chain)]))
    return paths


def _resolves(path: str) -> bool:
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and inspect.ismodule(obj):
            with contextlib.suppress(ImportError):  # a submodule not yet loaded
                importlib.import_module(".".join(parts[:i]))
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_name_the_benchmark_reads_exists():
    # A helper the benchmark harness imports or reads as an attribute must
    # not be deleted from under it; code inside string constants is not read.
    root = Path(__file__).resolve().parents[1]
    sources = sorted(root.glob("bench/*.py")) + [root / "tools" / "bench_pairs.py"]
    paths = set()
    for path in sources:
        paths |= _abmod_paths(ast.parse(path.read_text(encoding="utf-8")))
    assert {"abmod.cli.main", "abmod.linalg.inverse", "abmod.seriesmat.smat_inverse",
            "abmod.invariants.saturate.cache_info"} <= paths
    assert sorted(p for p in paths if not _resolves(p)) == []


def _is_checked_count(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checked_count"


def _hand_bounds(tree) -> list:
    """The lines of each ``if`` that compares an integer against a bound by
    hand and raises BadParameter: one side of the comparison is a
    ``_checked_count(...)`` call, or a name that its function passes to
    ``_checked_count`` compared with a constant or a ``MAX_`` ceiling."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        checked = {
            call.args[0].id for call in ast.walk(func)
            if _is_checked_count(call) and call.args and isinstance(call.args[0], ast.Name)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.If) or not any(
                    isinstance(s, ast.Raise) and isinstance(s.exc, ast.Call)
                    and getattr(s.exc.func, "id", None) == "BadParameter"
                    for s in node.body):
                continue
            for cmp in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
                sides = [cmp.left, *cmp.comparators]
                named = any(isinstance(x, ast.Name) and x.id in checked for x in sides)
                bound = any(isinstance(x, ast.Constant) or isinstance(x, ast.Name)
                            and x.id.startswith("MAX_") for x in sides)
                if any(map(_is_checked_count, sides)) or (named and bound):
                    found.append(node.lineno)
    return sorted(set(found))


def test_hand_bounds_are_found_and_other_checks_are_not():
    flagged = """
def f(n, N, W):
    if _checked_count(n, "n") < 0:
        raise BadParameter("n >= 0")
    _checked_count(N, "N")
    if N > MAX_N:
        raise BadParameter("too big")
"""
    kept = """
def g(self, precision, k, n):
    if _checked_count(precision, "precision", 0) > self.precision:
        raise PrecisionExhausted("cannot raise")
    if _checked_count(precision, "precision") == self.precision:
        return self
    if _checked_count(k, "the power k") < 0 or k + 1 > q.level:
        raise NotFound("too small")
    _checked_count(n, "a block count", 1)
    if len(self.blocks) < n:
        raise BadParameter("not processed")
"""
    assert _hand_bounds(ast.parse(flagged)) == [3, 6]
    assert _hand_bounds(ast.parse(kept)) == []


def test_every_integer_bound_is_checked_by_checked_count():
    # series._checked_count words every refusal of an integer argument;
    # no module compares a checked count by hand and raises BadParameter.
    found = [
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _hand_bounds(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


# ext_dims' failure to stabilize compares no precision with a need.
UNMEASURED_REFUSALS = {"ext dimensions failed to stabilize at consecutive truncation levels"}


def _unmeasured_refusals(tree) -> list:
    """The lines of each ``PrecisionExhausted(...)`` call, by its bare name or
    as an attribute such as ``errors.PrecisionExhausted``, that does not pass
    exactly the three positional arguments what, need and have with a need
    other than the constant None, unless its one argument is a text in
    UNMEASURED_REFUSALS."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and "PrecisionExhausted" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))):
            continue
        if (len(node.args) == 3 and not node.keywords
                and not (isinstance(node.args[1], ast.Constant)
                         and node.args[1].value is None)):
            continue
        if (len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in UNMEASURED_REFUSALS):
            continue
        found.append(node.lineno)
    return found


def test_unmeasured_refusals_are_found_and_measured_ones_are_not():
    flagged = """
raise PrecisionExhausted("operating on a series of precision 0")
raise PrecisionExhausted(f"a pivot b^{v}", v + 2)
raise PrecisionExhausted("a module", need=1, have=w)
raise errors.PrecisionExhausted("operating on a series of precision 0")
raise PrecisionExhausted("a series operand", None, None)
"""
    kept = """
raise PrecisionExhausted(f"the truncation E/b^{N} E", N, module.precision)
raise errors.PrecisionExhausted("a series operand", 1, 0)
raise PrecisionExhausted("ext dimensions failed to stabilize at consecutive truncation levels")
"""
    assert _unmeasured_refusals(ast.parse(flagged)) == [2, 3, 4, 5, 6]
    assert _unmeasured_refusals(ast.parse(kept)) == []


def test_every_precision_refusal_says_what_needs_how_much_and_has():
    # errors.PrecisionExhausted(what, need, have) words every refusal of too
    # little precision, so each one names the level it could not reach.
    found = [
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _unmeasured_refusals(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


PROPERTY_REFUSALS = ("NotRegular", "NotSimplePole")


def _property_refusals(tree) -> list:
    """(function, error) for each ``NotRegular(...)`` or ``NotSimplePole(...)``
    call, by its bare name or as an attribute such as ``errors.NotRegular``,
    with the innermost function that builds it (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in PROPERTY_REFUSALS:
                    found.append((function, name))
            visit(child, function)

    visit(tree, None)
    return found


def test_property_refusals_are_found_where_they_are_built():
    source = """
def regularity_order(module):
    raise NotRegular("regularity order is defined for regular modules only")
def eigen_lift(module):
    if not module.is_simple_pole():
        raise errors.NotSimplePole("eigen lifting requires a simple-pole module")
def saturate(module):
    def stable(k):
        raise NotRegular(f"within {k} steps")
    try:
        return stable(1)
    except NotRegular:
        pass
error = NotSimplePole("at import")
class NotRegular(AbmodError): pass
isinstance(error, errors.NotSimplePole)
"""
    assert _property_refusals(ast.parse(source)) == [
        ("regularity_order", "NotRegular"), ("eigen_lift", "NotSimplePole"),
        ("stable", "NotRegular"), (None, "NotSimplePole"),
    ]


def test_one_refusal_per_module_property():
    # saturate alone decides that a module is not regular and the spectrum
    # alone that its pole is not simple; an entry point that needs either
    # calls them, so each refusal has one wording.
    found = [
        (f"{path.stem}.{function}", error)
        for path in sorted(SRC.glob("*.py"))
        for function, error in _property_refusals(
            ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("invariants.saturate", "NotRegular"),
                     ("invariants._spectrum", "NotSimplePole")]


def _bounded_entries():
    """(name, call, what, least, most): a public entry taking one integer,
    its name in the refusal and its bounds (None: no bound)."""
    s = Series.one(4)
    j2 = from_expression("J(2;0)", 20)
    e0 = from_expression("E(0)", 8)
    nonsplit = from_expression("E(1/2,1/3)", 24)
    phi = identity_truncation_iso(j2, 3)
    system = IntertwinerSystem(j2.matrix, j2.matrix, 3).solve()
    unit = Element([Series.one(8)])
    return [
        ("Series", lambda v: Series([1], v), "precision", 0, None),
        ("Series.zero", Series.zero, "precision", 0, None),
        ("Series.one", Series.one, "precision", 0, None),
        ("Series.monomial", lambda v: Series.monomial(1, v, 4), "monomial exponent", 0, None),
        ("Series.coefficient", s.coefficient, "coefficient order", 0, None),
        ("Series.at_precision", s.at_precision, "precision", 0, None),
        ("Series.shift_up", s.shift_up, "shift_up's m", 0, None),
        ("Series.shift_down", s.shift_down, "shift_down's m", 0, None),
        ("Element", lambda v: Element([s], v), "element shift", 0, None),
        ("from_expression", lambda v: from_expression("E(0)", v), "precision", 1,
         MAX_PRECISION),
        ("make_E_lambda", lambda v: make_E_lambda(0, v), "precision", 1, MAX_PRECISION),
        ("make_E_lambda_n", lambda v: make_E_lambda_n(0, v, 8), "n", 0, None),
        ("make_E_lambda_mu_alpha", lambda v: make_E_lambda_mu_alpha(0, v, 1, 8), "n", 1, None),
        ("make_J_k", lambda v: make_J_k(0, v, 8), "k", 1, MAX_FILE_RANK),
        ("make_F_rho", lambda v: make_F_rho(0, v, 1, 8), "k", 2, MAX_FILE_RANK),
        ("random_regular", lambda v: random_regular(v, 1, 8), "rank", 1, MAX_FILE_RANK),
        ("truncate", lambda v: truncate(j2, v), "truncation level", 1, None),
        ("module_iso", lambda v: module_iso(j2, j2, W=v), "the order count", 1, None),
        ("lift_truncation_iso.N", lambda v: lift_truncation_iso(j2, j2, phi, v),
         "truncation level", 1, None),
        ("lift_truncation_iso.W", lambda v: lift_truncation_iso(j2, j2, phi, 3, W=v),
         "lifting precision", 4, None),
        ("verify_fd.trials", lambda v: verify_fd(nonsplit, v, 0), "the number of trials",
         0, None),
        ("verify_fd.lo", lambda v: verify_fd(nonsplit, 0, 0, lo=v), "the perturbation level",
         1, None),
        ("eigen_lift", lambda v: eigen_lift(e0, 0, unit, v), "kappa", 0, None),
        ("Rank2NormalForm.simple_pole_jordan",
         lambda v: Rank2NormalForm.simple_pole_jordan(0, v), "n", 0, None),
        ("Rank2NormalForm.non_split_alpha",
         lambda v: Rank2NormalForm.non_split_alpha(0, v, 1), "n", 1, None),
        ("IntertwinerSystem", lambda v: IntertwinerSystem(j2.matrix, j2.matrix, v),
         "the order count", 0, None),
        ("find_invertible", lambda v: find_invertible(system, tries=v), "tries", 0, None),
        ("IntertwinerSystem.parameters_in_blocks", system.parameters_in_blocks,
         "a block count", 1, None),
        ("IntertwinerSystem.block_matrix", lambda v: system.block_matrix(v, {}),
         "a block index", None, None),
        ("Element.in_frame", unit.in_frame, "the frame shift", None, None),
    ]


@pytest.mark.parametrize("index", range(len(_bounded_entries())),
                         ids=[entry[0] for entry in _bounded_entries()])
def test_each_integer_argument_is_refused_in_one_wording(index):
    _, call, what, least, most = _bounded_entries()[index]
    with pytest.raises(BadParameter, match=f"^{re.escape(what)} must be an integer, not True$"):
        call(True)
    if least is not None:
        with pytest.raises(BadParameter,
                           match=f"^{re.escape(what)} must be at least {least}, got {least - 1}$"):
            call(least - 1)
    if most is not None:
        with pytest.raises(BadParameter,
                           match=f"^{re.escape(what)} must be at most {most}, got {most + 1}$"):
            call(most + 1)
