"""Every name a module imports is used in it, and so is every private name it
defines; no module imports another module's private name.

No linter ships with the project, so unused imports and leftover private
helpers are caught here. `__init__.py` is skipped for imports: they are
re-exports, which `test_readme.py` checks against the README's API table.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgmix"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level `_name`s (functions, classes, constants) that no other
    top-level statement references; a helper that only calls itself is unused."""
    body = ast.parse(source).body
    loaded = [{node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)
               and isinstance(node.ctx, ast.Load)} for stmt in body]
    unused = []
    for i, stmt in enumerate(body):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        unused += [f"{name} (line {stmt.lineno})" for name in names
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in used for j, used in enumerate(loaded) if j != i)]
    return unused


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nimport a.b\nfrom c import d as e\nos.sep\n"
    assert unused_imports(source) == ["a (line 3)", "e (line 4)"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_unused_private_names_are_found():
    source = ("_USED = 1\n_UNUSED: int = 2\n__all__ = []\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def public():\n    return _USED\nclass _Gone:\n    pass\n")
    assert unused_private_names(source) == [
        "_UNUSED (line 2)", "_recursive (line 4)", "_Gone (line 8)"]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_private_name(path):
    assert unused_private_names((SRC / path).read_text()) == []


def private_imports(source: str) -> list[str]:
    """`_name`s that a relative or `sgmix` import takes from another module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "sgmix"
                                                 or node.module.startswith("sgmix.")):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_module_imports_another_modules_private_name():
    assert private_imports("from .a import b, _c\nfrom os import _exit\n"
                           "from sgmix.d import _e\nfrom __future__ import annotations\n") == [
        "_c (line 1)", "_e (line 3)"]
    found = {path.name: private_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
