import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency; a scipy import would make it two
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = []
    for path in sorted(Path(mlmkl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert outside == []
