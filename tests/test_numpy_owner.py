"""numpy has one owner in the package: hyperwalk/_numpy.py imports it on the
first read of one of its names, and every other module reads numpy through it."""

import ast
import importlib
from pathlib import Path

import numpy
import pytest

import hyperwalk

PACKAGE = Path(hyperwalk.__file__).parent


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "numpy"


def test_only_the_owner_imports_numpy():
    importers = [path.name for path in sorted(PACKAGE.glob("*.py")) if any(map(_imports_numpy, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))]
    assert importers == ["_numpy.py"]


def _imports_the_owner(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "hyperwalk._numpy" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    # a relative import inside the package resolves against hyperwalk
    module = ".".join(filter(None, ["hyperwalk" if node.level else "", node.module]))
    return module == "hyperwalk._numpy" or (module == "hyperwalk" and any(alias.name == "_numpy" for alias in node.names))


def test_the_writers_do_not_read_numpy():
    # the command line writes through formatting, so its writers stay numpy-free
    tree = ast.parse((PACKAGE / "formatting.py").read_text(encoding="utf-8"))
    assert not any(map(_imports_the_owner, ast.walk(tree)))


def test_the_owner_binds_nothing_but_its_module_getattr():
    # any other module-level name could shadow one of numpy's
    body = ast.parse((PACKAGE / "_numpy.py").read_text(encoding="utf-8")).body
    assert [type(node).__name__ for node in body] == ["Expr", "FunctionDef"]
    assert isinstance(body[0].value, ast.Constant) and body[1].name == "__getattr__"


def test_a_name_is_read_from_numpy_once_and_then_kept():
    _numpy = importlib.import_module("hyperwalk._numpy")
    assert _numpy.unique is numpy.unique
    assert vars(_numpy)["unique"] is numpy.unique
    with pytest.raises(AttributeError):
        _numpy.no_such_name
    assert "no_such_name" not in vars(_numpy)
