"""Every module's __all__ names exactly its public functions and classes,
and every import in the package names a definition and is used."""

import ast
import importlib
import inspect
import os
import pkgutil

import pytest

import futuretube

MODULES = [importlib.import_module(f"futuretube.{m.name}") for m in pkgutil.iter_modules(futuretube.__path__)]
SRC = os.path.dirname(futuretube.__file__)
NAMES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []


def _tree(name):
    with open(os.path.join(SRC, f"{name}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _definitions(tree):
    # the names a module binds at top level by def, class or assignment,
    # not those it imports
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", NAMES)
def test_relative_imports_name_a_definition_of_their_module(name):
    wrong = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    ok = alias.name in NAMES
                else:
                    ok = alias.name in _definitions(_tree(node.module))
                if not ok:
                    wrong.append(f"from .{node.module or ''} import {alias.name}")
    assert wrong == []


@pytest.mark.parametrize("name", NAMES)
def test_every_imported_name_is_used(name):
    tree = _tree(name)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
