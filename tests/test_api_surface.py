"""Every public name in `labelcert` has a caller outside the tests.

A module-level function or class must be named, as a whole word, in `src/`,
`scripts/`, `perfbench/` or the README on some line other than its own
`def`/`class` line; a public method or property must appear there as
`.name`.  Code that only tests call belongs in the tests or nowhere.
"""

import importlib
import inspect
import pkgutil
import re
from functools import cached_property
from pathlib import Path

import labelcert

ROOT = Path(__file__).resolve().parent.parent


def _corpus() -> list[str]:
    files = [ROOT / "README.md", *(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "perfbench").rglob("*.md")]
    return [line for path in files for line in path.read_text(encoding="utf-8").splitlines()]


def _public_names():
    """(qualified name, name, is_member) for each public function, class, method and
    property that a `labelcert` module defines."""
    for info in pkgutil.iter_modules(labelcert.__path__):
        module = importlib.import_module(f"labelcert.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            yield f"{info.name}.{name}", name, False
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(
                            member, (property, cached_property, staticmethod, classmethod))):
                        yield f"{info.name}.{name}.{attr}", attr, True


def test_every_public_name_has_a_caller_outside_the_tests():
    lines = _corpus()
    unused = []
    for qualified, name, member in _public_names():
        if member:
            used = any(re.search(rf"\.{name}\b", line) for line in lines)
        else:
            own = re.compile(rf"^\s*(def|class)\s+{name}\b")
            word = re.compile(rf"\b{name}\b")
            used = any(word.search(line) and not own.match(line) for line in lines)
        if not used:
            unused.append(qualified)
    assert not unused, f"public names that only tests use: {unused}"
