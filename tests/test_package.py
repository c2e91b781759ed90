import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import memrelax

MODULES = sorted(m.name for m in pkgutil.iter_modules(memrelax.__path__))
PACKAGE = sorted(Path(memrelax.__path__[0]).glob("*.py"))
SOURCES = sorted([*PACKAGE, *Path(__file__).parent.glob("*.py")])
BENCH_ALL = sorted((Path(__file__).parent.parent / "bench").glob("*.py"))
# the benchmark's own modules, not its tests
BENCH = [p for p in BENCH_ALL if not p.name.startswith("test_")]


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


def _definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and constants."""
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
    return names


def _stored_members(tree: ast.Module) -> set[str]:
    """Methods of every class and the attributes it stores, as
    ``self._x = ...`` or ``object.__setattr__(self, "_x", ...)``."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        names.update(n.name for n in cls.body
                     if isinstance(n, ast.FunctionDef))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__setattr__"
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
    return names


def _read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names the code reads, as ``obj.name`` loads."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


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


def _strings(tree: ast.Module) -> set[str]:
    """String constants, which name the attributes the tracer wraps."""
    return {n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _parse(paths) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def _private(names: set[str]) -> set[str]:
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_no_module_imports_a_private_name_from_another():
    # a private helper has one home: a second module that needs it needs
    # a public name
    imported = {(path.name, alias.name) for path, tree in
                zip(PACKAGE, _parse(PACKAGE)) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("memrelax"))
                for alias in node.names}
    assert imported, "the scan found no package imports"
    assert sorted(i for i in imported if i[1].startswith("_")) == []


def test_no_module_calls_np_cross():
    # every stack cross product is tensor_kernel.column_invariants, and
    # every cross of two 3-vectors its two-vector form cross3
    calls = [path.name for path, tree in zip(PACKAGE, _parse(PACKAGE))
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "cross"
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("np", "numpy"))
             or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                 and any(a.name == "cross" for a in node.names))]
    assert calls == []


def test_only_the_tensor_kernel_words_the_stack_shape_refusal():
    # the one reader of (N, 3, 2) stacks is tensor_kernel.as_stack
    homes = {path.name for path, tree in zip(PACKAGE, _parse(PACKAGE))
             if any(re.search(r"must have shape \(\w, 3, 2\)", text)
                    for text in _strings(tree))}
    assert homes == {"tensor_kernel.py"}


def test_every_private_definition_is_used():
    # a private helper, method or stored attribute left behind after its
    # last reader is deleted is dead code; tests do not count as readers,
    # and a member counts as read only as an attribute, so a module-level
    # function of the same name does not hide it
    trees = _parse(PACKAGE)
    defined = _private(set().union(*map(_definitions, trees)))
    members = _private(set().union(*map(_stored_members, trees)))
    read = set().union(*map(_read_names, trees))
    attributes = set().union(*map(_read_attributes, trees))
    assert defined and members, "the scan found no private definitions"
    assert sorted((defined - read) | (members - attributes)) == []


def test_every_public_definition_is_read():
    # the package is the pipeline: a public name that only the tests read
    # is an oracle or a fixture and lives in tests/oracles.py. The
    # benchmark counts as a reader, its string constants too, since the
    # tracer wraps attributes by name.
    package, bench = _parse(PACKAGE), _parse(BENCH)
    assert bench, "the scan found no benchmark modules"
    defined = {n for n in set().union(*map(_definitions, package))
               if not n.startswith("_")}
    read = set().union(*map(_read_names, package + bench),
                       *map(_strings, bench))
    assert defined, "the scan found no public definitions"
    assert sorted(defined - read) == []


# the JSON exports the result objects keep for their readers
EXPORTS = {"to_dict", "from_dict", "save_json", "load_json"}


def _members(tree: ast.Module) -> set[str]:
    """Public methods and properties of every class, and the public names
    in its ``__slots__``, as "Class.name"."""
    members = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in node.targets):
                names = ast.literal_eval(node.value)
            else:
                continue
            members.update(f"{cls.name}.{n}" for n in names
                           if not n.startswith("_"))
    return members


def test_every_public_member_is_read():
    # the module-level scan cannot see a method, property or slot that only
    # the tests read; the same readers count here, by attribute name
    package, bench = _parse(PACKAGE), _parse(BENCH)
    members = set().union(*map(_members, package))
    read = set().union(*map(_read_names, package + bench),
                       *map(_strings, bench))
    assert members, "the scan found no class members"
    unread = sorted(m for m in members
                    if m.split(".")[1] not in read | EXPORTS)
    assert unread == []


def _keyword_options(tree: ast.Module) -> set[tuple[str, str]]:
    """(function, option) for each keyword-only option of a public
    module-level function or a public method of a public class."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            functions.extend(n for n in node.body
                             if isinstance(n, ast.FunctionDef))
    return {(f.name, a.arg) for f in functions if not f.name.startswith("_")
            for a in f.args.kwonlyargs}


def _passed_keywords(tree: ast.Module) -> set[tuple[str, str]]:
    """(callee, keyword) for each keyword a call passes, the callee named
    by its bare name or attribute."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        passed.update((name, k.arg) for k in node.keywords
                      if k.arg is not None)
    return passed


def test_every_keyword_option_is_passed():
    # a keyword-only option that no call passes always takes its default:
    # it is a constant of the function, and tests count as callers here,
    # since an option they set is one they check
    callers = _parse(SOURCES) + _parse(BENCH_ALL)
    options = set().union(*map(_keyword_options, _parse(PACKAGE)))
    passed = set().union(*map(_passed_keywords, callers))
    assert options, "the scan found no keyword-only options"
    assert sorted(options - passed) == []
