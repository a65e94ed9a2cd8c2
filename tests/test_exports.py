"""Every name a module exports exists, so ``from nilg2.x import *`` works."""

import importlib
import pkgutil

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
