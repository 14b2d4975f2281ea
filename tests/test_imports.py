"""Every name the benchmark and the experiment scripts import from labelcert exists.

The benchmark under `perfbench/` runs the committed sources of two commits, so
a name removed from the package would fail every run of it; this catches that
in the test suite instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])


def _imports(path: Path):
    """(module, name) for each `from labelcert... import name` in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "labelcert":
            yield from ((node.module, alias.name) for alias in node.names)


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imported_names_resolve(path):
    missing = [f"{mod}.{name}" for mod, name in _imports(path) if not _resolves(mod, name)]
    assert not missing, f"{path.name} imports names labelcert lacks: {missing}"


def test_callers_import_labelcert():
    assert any(True for path in CALLERS for _ in _imports(path))
