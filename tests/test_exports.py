"""Every name that ``interpk`` or one of its modules lists in ``__all__``
resolves on it."""

import importlib
import pkgutil
import types

import pytest

import interpk

MODULES = ["interpk"] + [f"interpk.{info.name}"
                         for info in pkgutil.iter_modules(interpk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_the_library_modules_declare_their_exports():
    declared = {name for name in MODULES
                if hasattr(importlib.import_module(name), "__all__")}
    assert {"interpk", "interpk.couples", "interpk.interp",
            "interpk.lethargy", "interpk.snum", "interpk.verify"} <= declared


def test_the_package_lists_what_it_reexports():
    """Every public name the package imports from its modules is in its
    ``__all__``, and each one is in that module's ``__all__`` too."""
    reexported = [name for name, value in vars(interpk).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)]
    assert sorted(interpk.__all__) == sorted(reexported)
    for name in reexported:
        module = importlib.import_module(getattr(interpk, name).__module__)
        assert name in getattr(module, "__all__", [name]), name
