"""The package's own source: no module imports a name it never uses, no
private name is defined that the package itself never loads, only
simulate.py imports numpy, and no module imports importlib."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import fmeakit

SOURCES = sorted(Path(fmeakit.__file__).parent.glob("*.py"))
# __init__.py is exempt: its imports are the package's re-export list.
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each private top-level name the module defines: a
    function, a class or an assignment target whose name starts with one
    underscore and is not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, name.id) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def loaded_names(source: str) -> set[str]:
    """Every name the module reads as a Name node."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_private_definitions_finds_each_kind():
    source = ("_A = 1\n_b, (c, _d) = 2, (3, 4)\n_e: int = 5\n__all__ = []\n"
              "def _f():\n    _g = 6\nclass _H:\n    _i = 7\ndef j(): pass\n")
    assert private_definitions(source) == [(1, "_A"), (2, "_b"), (2, "_d"), (3, "_e"),
                                            (5, "_f"), (7, "_H")]
    assert loaded_names("_A = _b + c.d\n_e(f=_g)\n") == {"_b", "c", "_e", "_g"}


def test_package_loads_every_private_name_it_defines():
    # A private helper that only the tests call is dead code in the package.
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    loaded = set().union(*map(loaded_names, sources.values()))
    unloaded = [(module, line, name) for module, source in sources.items()
                for line, name in private_definitions(source) if name not in loaded]
    assert unloaded == []


def test_all_lists_every_name_the_package_imports():
    # The re-export list is spelt twice, as imports and as __all__.
    init = Path(fmeakit.__file__).read_text(encoding="utf-8")
    imported = [alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert sorted(fmeakit.__all__) == sorted(imported)


def imported_modules(source: str) -> set[str]:
    """The top-level package of every module the source imports, at any
    depth; relative imports are left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_imported_modules_finds_absolute_imports_at_any_depth():
    source = ("import numpy.random as npr\nfrom . import scales\n"
              "def f():\n    from json.decoder import JSONDecodeError\n")
    assert imported_modules(source) == {"numpy", "json"}


def test_only_simulate_imports_numpy():
    # Porting simulate's last numpy use then takes numpy out of the package.
    importers = [path.name for path in SOURCES
                 if "numpy" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == ["simulate.py"]


def test_no_module_imports_importlib():
    # The bundled sheet is a plain file beside dataset.py, read with open.
    importers = [path.name for path in SOURCES
                 if "importlib" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == []


def test_dataset_command_loads_no_resource_machinery():
    # -S keeps the site hooks, which may load these modules, from running.
    code = ("import sys; sys.path[:0] = sys.argv[1:]; from fmeakit.cli import run; "
            "code = run(['dataset']); print([name for name in "
            "('importlib.resources', 'pathlib', 'zipfile') if name in sys.modules], "
            "file=sys.stderr); sys.exit(code)")
    package = Path(fmeakit.__file__).parent
    numpy_parent = Path(numpy.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(package.parent),
                           str(numpy_parent)], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"[]\n")
    assert proc.stdout == (package / "data" / "microgrid_cyber_fmea.csv").read_bytes()
