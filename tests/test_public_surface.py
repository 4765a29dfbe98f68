"""Every module's __all__ names exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

import pytest

import futuretube

MODULES = [importlib.import_module(f"futuretube.{m.name}") for m in pkgutil.iter_modules(futuretube.__path__)]


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
