"""Every name a library module imports is used in that module.

No linter is a declared dependency, so this walks the syntax tree with the
standard library.  ``__init__.py`` is exempt: its imports are the public
re-exports.  ``from __future__`` imports are compiler directives.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kronbrist"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom x import a, b as c\nprint(a)\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []
