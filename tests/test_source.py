"""The package's own source: no module imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fmeakit

# __init__.py is exempt: its imports are the package's re-export list.
MODULES = sorted(path for path in Path(fmeakit.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name the module imports and never references
    as a Name node; annotations are walked like any other expression."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a.
                imported.setdefault(alias.asname or alias.name.partition(".")[0],
                                    node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_what_is_never_named():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps, loads as read\n"
              "def f(x: Path) -> None:\n    return sys.argv, read\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
