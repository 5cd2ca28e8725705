"""Source hygiene: every module-level import of a package module is used or exported,
every export exists, and no invariant rests on an ``assert`` statement, which
``python -O`` strips."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "wshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_catches_an_import_left_behind():
    source = ("import numpy as np\n"
              "from .transport import lebesgue, w2_weighted_squared\n"
              "__all__ = ['run']\n"
              "def run():\n"
              "    return lebesgue()\n")
    assert unused_imports(source) == ["np (line 1)", "w2_weighted_squared (line 2)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"],
                         ids=lambda p: p.name)
def test_every_export_is_bound(path):
    # unused_imports counts an __all__ entry as read, so it misses a stale one
    module = importlib.import_module(f"wshift.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_the_package_imports_only_exports():
    # a module without __all__ exports every name it binds
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    not_exported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"wshift.{node.module}")
            exported = getattr(module, "__all__", dir(module))
            not_exported += [f"{node.module}.{alias.name}" for alias in node.names
                             if alias.name not in exported]
    assert not_exported == []


def test_every_function_the_benchmark_wraps_exists(monkeypatch):
    # perfbench/tracer.py wraps each of these through getattr, so deleting or renaming
    # one breaks every traced benchmark run; its top-level imports are all standard library
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    wrapped = [span[:2] for span in tracer.SPANS] + list(tracer.FACTORIES)
    assert wrapped
    assert [f"{module}.{name}" for module, name in wrapped
            if not hasattr(importlib.import_module(module), name)] == []


def assert_lines(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_assert_statement(path):
    # a check must raise under python -O too
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_catches_an_assert():
    source = ("def run(x):\n"
              "    if x:\n"
              "        assert x > 0, 'x must be positive'\n"
              "    return x\n")
    assert assert_lines(source) == [3]
