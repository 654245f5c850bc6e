"""Every exported name of the package resolves."""

import importlib
import pkgutil

import pytest

import degcontrol

MODULES = sorted(info.name for info in pkgutil.iter_modules(degcontrol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"degcontrol.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"degcontrol.{name}.__all__ names {missing}"


def test_lazy_names_resolve():
    missing = [attr for attr in degcontrol.__all__
               if not hasattr(degcontrol, attr)]
    assert not missing, f"degcontrol.__all__ names {missing}"
