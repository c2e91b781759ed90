import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import memrelax

MODULES = sorted(m.name for m in pkgutil.iter_modules(memrelax.__path__))
SOURCES = sorted([*Path(memrelax.__path__[0]).glob("*.py"),
                  *Path(__file__).parent.glob("*.py")])


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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, except those in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
