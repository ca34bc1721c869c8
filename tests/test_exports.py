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


def test_config_imports_no_package_module_but_kernels_and_errors():
    # config owns the settings that pipeline, search and svm read, so it
    # must not import them back
    path = Path(mlmkl.__file__).parent / "config.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # an absolute mlmkl import
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            imported |= {n for n in names if n.split(".")[0] == "mlmkl"}
    assert imported == {"kernels", "errors"}


def test_cli_only_parses_and_formats():
    # the library times and probes each layer (``pipeline.train``), so the
    # command line needs no clock and no probe SVM of its own
    path = Path(mlmkl.__file__).parent / "cli.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
    assert imported & {"time", "probe_error"} == set()


def test_one_layer_loop_calls_fit_layer():
    # fit and train share one loop; cv fits its layers through fit_layer_grid
    calls = []
    for path in sorted(Path(mlmkl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "fit_layer":
                    calls.append(path.name)
    assert calls == ["pipeline.py"]
