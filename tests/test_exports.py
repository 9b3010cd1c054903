"""The public names of the package."""

import importlib
import pkgutil

import qhopf


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone fails here
    modules = [qhopf] + [importlib.import_module(f"qhopf.{info.name}")
                         for info in pkgutil.iter_modules(qhopf.__path__)]
    assert len(modules) > 10
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module.__name__}: {missing}"
