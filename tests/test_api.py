"""The package carries no dead helpers and writes each rule once."""

import ast
import contextlib
import importlib
import inspect
import re
from pathlib import Path

import pytest

import abmod
from abmod import AbModule, Element, Lattice, SaturationResult, Scalar, Series, WidthTable

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
