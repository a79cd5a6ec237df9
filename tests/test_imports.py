"""Every name a library module imports is used in that module, every
module-level function and class is used somewhere in the library or
re-exported, and only ``linalg`` imports numpy.

No linter is a declared dependency, so this walks the syntax tree with the
standard library.  ``__init__.py`` is exempt from the unused-import check:
its imports are the public re-exports.  ``from __future__`` imports are
compiler directives.
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


def unreferenced_definitions(sources: dict, exported: set) -> list:
    """(file, name) for each module-level function and class of the
    ``sources`` (file name -> source) that no file refers to by name and
    that is not in ``exported``."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = {node.id for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, node.name) for name, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in used and node.name not in exported)


def test_guard_flags_an_unreferenced_definition():
    sources = {"a.py": "def f():\n    pass\n\n\nclass C:\n    pass\n",
               "b.py": "from .a import f\n\n\ndef g():\n    return f()\n\n\ndef h():\n    pass\n"}
    assert unreferenced_definitions(sources, exported={"h"}) == [("a.py", "C"), ("b.py", "g")]


def test_every_definition_is_used_or_exported():
    """Code that nothing calls is deleted: each module-level function or
    class of the library is referred to by name in some library module, or
    is public through ``kronbrist/__init__.py``."""
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources, exported) == []


def imported_packages(source: str) -> set:
    """Top-level names of the absolute imports in ``source``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_guard_sees_every_form_of_numpy_import():
    for src in ("import numpy as np\n", "import numpy.linalg\n", "from numpy import zeros\n",
                "def f():\n    import numpy\n"):
        assert "numpy" in imported_packages(src)
    assert "numpy" not in imported_packages("from .linalg import numpy_like\n")


def test_only_linalg_imports_numpy():
    """The integer-over-denominator matrix format is known to linalg alone:
    every other module works through Matrix and Subspace."""
    importers = [p.name for p in sorted(SRC.glob("*.py"))
                 if "numpy" in imported_packages(p.read_text(encoding="utf-8"))]
    assert importers == ["linalg.py"]
