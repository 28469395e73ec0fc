"""The package root: ``__all__`` names what ``__init__`` imports, and every docstring example runs."""

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import dihedrant


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(dihedrant.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_name_in_all_resolves():
    for name in dihedrant.__all__:
        assert hasattr(dihedrant, name), name


def test_all_is_the_set_of_imported_public_names():
    assert len(dihedrant.__all__) == len(set(dihedrant.__all__))
    assert set(dihedrant.__all__) == imported_public_names()


def test_docstring_examples_pass():
    attempted = {}
    names = [info.name for info in pkgutil.iter_modules(dihedrant.__path__)]
    submodules = [importlib.import_module(f"dihedrant.{name}") for name in names]
    for module in [dihedrant, *submodules]:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted[module.__name__] = result.attempted
    assert attempted["dihedrant.perm"] == 5
