"""Every name a module exports exists, so ``from nilg2.x import *`` works,
and no module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nilg2

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(nilg2.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(f"nilg2.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from nilg2.{name} import *", {})


def _unused_imports(path):
    """Names a module imports but never reads; names in ``__all__`` are read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src/nilg2", "scripts", "tests")
             for path in sorted((root / folder).glob("*.py"))]
    assert paths
    assert [hit for path in paths for hit in _unused_imports(path)] == []
