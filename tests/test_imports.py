"""Hygiene of the package and its tests: no module imports a name it never
uses, only the per-model contexts take a point bound or a substitution
depth, one record holds all that a thread keeps, and only a geometry
touches its spaces.

A name counts as used when the module reads it, names it in a quoted
annotation, lists it in `__all__`, or when another module of the same
directory imports it from this one (the package's `__init__.py` re-exports
that way, and the test modules import from `helpers`).
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import kbgeo

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kbgeo"
PROBES = TESTS.parent / "kbbench" / "probes.py"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg,
                                                                         args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, in code and in quoted annotations, and
    the strings of its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def reexported(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per module, the names other modules of its directory import from it,
    relatively (in the package) or by its bare name (in the tests)."""
    out: dict[str, set[str]] = {name: set() for name in trees}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level < 2 and node.module in out:
                out[node.module] |= {alias.name for alias in node.names}
    return out


def unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    exported = reexported(trees)
    found = []
    for module, tree in sorted(trees.items()):
        used = used_names(tree) | exported[module]
        for name, line in sorted(imported_names(tree).items()):
            if name not in used:
                found.append(f"{module}.py:{line}: {name}")
    return found


def parse_package(directory: Path = PACKAGE) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(parse_package()) == []
    assert unused_imports(parse_package(TESTS)) == []


def test_the_check_finds_an_unused_import():
    """A module that imports a name only its docstring mentions is caught;
    a read name, an `__all__` entry, a quoted annotation and a name another
    module imports from it, relatively or by its bare name, are not."""
    trees = {
        "one": ast.parse('"""Uses Mapping."""\n'
                         "from __future__ import annotations\n"
                         "import os\n"
                         "from typing import Mapping, Optional, Sequence\n"
                         "from .two import Kept, Listed, Quoted, Passed\n"
                         "__all__ = ['Listed']\n"
                         "def f(x: 'Quoted') -> Optional[int]:\n"
                         "    return os.sep, Kept\n"),
        "two": ast.parse("from .one import Passed\n"),
        "three": ast.parse("from one import Sequence\nprint(Sequence)\n"),
    }
    assert unused_imports(trees) == ["one.py:4: Mapping"]


def thread_locals(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """Each call in the modules that makes a `threading.local`, with its
    module: a call of `threading.local` itself, of `local` imported from
    `threading`, or of a class any module bases on either."""
    local = {"threading.local"}
    for tree in trees.values():
        local |= {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "threading"
                  for alias in node.names if alias.name == "local"}
    kinds = {node.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and {ast.unparse(b) for b in node.bases} & local}
    calls = [(module, node) for module, tree in sorted(trees.items())
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [(module, ast.unparse(call)) for module, call in calls
            if ast.unparse(call.func) in local or ast.unparse(call.func).split(".")[-1] in kinds]


def test_one_record_holds_what_a_thread_keeps():
    """The package makes one `threading.local`: `semantics._kept`, the one
    instance of `semantics._Kept`."""
    assert thread_locals(parse_package()) == [("semantics", "_Kept()")]


def test_the_check_finds_every_thread_local():
    """A direct call, a call of `local` imported under another name, and a
    subclass made in its own module and in another are all caught."""
    trees = {
        "one": ast.parse("import threading\n"
                         "class Kept(threading.local):\n"
                         "    pass\n"
                         "kept = Kept()\n"
                         "other = threading.local()\n"),
        "two": ast.parse("from threading import Lock, local as fresh\n"
                         "from . import one\n"
                         "lock = Lock()\n"
                         "mine = fresh()\n"
                         "theirs = one.Kept()\n"),
    }
    assert thread_locals(trees) == [("one", "Kept()"), ("one", "threading.local()"),
                                    ("two", "fresh()"), ("two", "one.Kept()")]


def attribute_users(trees: dict[str, ast.Module], attr: str) -> list[tuple[str, str]]:
    """Each read or write of an attribute named `attr` in the modules, as
    its module and the dotted name of the class or function it is in ("" at
    module level), in module and source order."""
    found = []

    def visit(module: str, node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{owner}.{child.name}".lstrip(".")
            elif isinstance(child, ast.Attribute) and child.attr == attr:
                found.append((module, owner))
            visit(module, child, inner)

    for module, tree in sorted(trees.items()):
        visit(module, tree, "")
    return found


def test_only_a_geometry_touches_its_spaces():
    """`Geometry.space` is the one place a geometry's spaces are stored:
    in the package, only `Geometry`'s own methods read or write
    `_spaces`."""
    users = attribute_users(parse_package(), "_spaces")
    assert users and all(module == "semantics" and owner.startswith("Geometry.")
                         for module, owner in users), users


def test_the_check_finds_every_use_of_the_spaces():
    """A write from another class's method, a read in a function and one
    at module level are found, each with where it stands."""
    trees = {
        "one": ast.parse("class Geometry:\n"
                         "    def space(self, key):\n"
                         "        return self._spaces.setdefault(key, PointSpace(self))\n"
                         "class PointSpace:\n"
                         "    def __init__(self, geometry):\n"
                         "        geometry._spaces[0] = self\n"),
        "two": ast.parse("def peek(g):\n"
                         "    return g._spaces.get(0)\n"
                         "spaces = peek._spaces\n"),
    }
    assert attribute_users(trees, "_spaces") == [
        ("one", "Geometry.space"), ("one", "PointSpace.__init__"), ("two", "peek"), ("two", "")]


def takers(param: str) -> set[str]:
    """The public callables of the package that take a parameter named
    `param`: the callables of `kbgeo.__all__`, classes checked through
    `__init__`, and the methods of `KnowledgeBase`."""
    found = set()
    methods = [(f"KnowledgeBase.{name}", attr)
               for name, attr in vars(kbgeo.KnowledgeBase).items()
               if inspect.isfunction(attr) and name != "__init__"]
    for name, obj in [(name, getattr(kbgeo, name)) for name in kbgeo.__all__] + methods:
        if callable(obj):
            try:
                params = inspect.signature(obj.__init__ if inspect.isclass(obj) else obj).parameters
            except ValueError:  # a builtin __init__ without a signature
                continue
            if param in params:
                found.add(name)
    return found


def test_only_the_contexts_take_a_point_bound():
    """A point bound is given to a `Geometry` or a `KnowledgeBase`, which
    hands it to its geometry; every other public callable reads it from
    one of them."""
    assert takers("max_points") == {"Geometry", "KnowledgeBase"}


def test_only_the_knowledge_base_and_the_wrappers_take_a_depth():
    """The substitution depth is a bound of the knowledge base: besides its
    constructor, only the four module-level sweeps and deciders, which build
    their knowledge bases, and `substitution_generators` take one.  No
    caller picks the carrier path; the decider's mode and pinned phis do."""
    assert takers("depth") == {"KnowledgeBase", "check_duality", "verify_push_functoriality",
                               "check_informational_equivalence",
                               "check_automorphic_equivalence", "substitution_generators"}
    assert takers("use_model_iso") == set()


def test_every_benchmark_span_names_a_bound_function():
    """Each (module, path) of the benchmark's `SPANS`, read from its source
    without importing the benchmark, is bound on `kbgeo.<module>`, so a
    renamed function fails here, not only in a traced benchmark run."""
    tree = ast.parse(PROBES.read_text(), str(PROBES))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and any(
                     isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets))
    unbound = []
    for name, module, path in spans:
        try:
            functools.reduce(getattr, path.split("."), importlib.import_module(f"kbgeo.{module}"))
        except AttributeError:
            unbound.append(name)
    assert spans
    assert unbound == []
