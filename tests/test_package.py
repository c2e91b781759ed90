import importlib
import pkgutil

import pytest

import memrelax

MODULES = sorted(m.name for m in pkgutil.iter_modules(memrelax.__path__))


def test_package_lists_its_modules():
    assert "envelope" in MODULES and "pw_affine" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # "from memrelax.<module> import *" for users
    module = importlib.import_module(f"memrelax.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
