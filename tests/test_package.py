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


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _read_names(tree: ast.Module) -> set[str]:
    """Names the code reads, as a bare name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_every_private_definition_is_used():
    # a private helper left behind after its last caller is deleted is
    # dead code; tests do not count as callers
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(Path(memrelax.__path__[0]).glob("*.py"))]
    defined = set().union(*map(_private_definitions, trees))
    read = set().union(*map(_read_names, trees))
    assert defined, "the scan found no private definitions"
    assert sorted(defined - read) == []
