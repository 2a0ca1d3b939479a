"""Every name a module imports is used: an ``ast`` scan of ``src/``, ``tests/`` and ``scripts/``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests", "scripts") for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports but never references; a name listed in ``__all__`` counts as referenced."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_aliases_all_and_future():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "__all__ = ['b']\nos.sep\n")
    assert unused_imports(source) == ["line 3: np", "line 4: d"]
