import importlib
import pkgutil

import pytest

import mlmkl

MODULES = ["mlmkl"] + ["mlmkl." + m.name for m in pkgutil.iter_modules(mlmkl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # a function deleted from a module must leave its __all__ too, or
    # ``from module import *`` fails
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
