"""Every name(), Name.attr() and module.name a src/layertree/ docstring writes is code that exists.

A docstring that names removed code goes on telling its readers the code
is there.  A name qualified by a package module or class (cascade._walk,
tree._Level, PointSet.from_coords) is checked with or without its ().  A
token's first name is looked up in the docstring's own module, then among
the package's modules and their globals, and a bare name also among the
methods of the package's classes; the lookup must end at a module, class,
function or method of the package, or at an instance attribute a package
class declares, a __slots__ entry or a dataclass field (QueryStats.reported,
tree._Level.subs).  A token whose first name is a Python builtin
(sorted(), str.strip()) is not checked.
"""

import ast
import builtins
import dataclasses
import importlib
import inspect
import pkgutil
import re

import pytest

import layertree

TOKEN = re.compile(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(\)")

# __main__ runs the CLI when imported
MODULES = {name: importlib.import_module(f"layertree.{name}")
           for _, name, _ in pkgutil.iter_modules(layertree.__path__) if name != "__main__"}
CLASSES = {cls.__name__ for module in MODULES.values() for cls in vars(module).values()
           if inspect.isclass(cls) and cls.__module__.startswith("layertree.")}
QUALIFIED = re.compile(r"(?<![\w.])((?:%s)(?:\.[A-Za-z_]\w*)+)" % "|".join([*MODULES, *CLASSES]))


def ours(obj) -> bool:
    """Whether obj is a module, class, function or method of the package."""
    if inspect.ismodule(obj):
        name = obj.__name__
    elif inspect.isclass(obj) or inspect.isroutine(obj):
        name = getattr(obj, "__module__", None) or ""
    else:
        return False
    return name.split(".")[0] == "layertree"


def methods(name: str) -> list:
    """The attribute `name` of every class the package defines."""
    classes = {cls for module in MODULES.values() for cls in vars(module).values()
               if inspect.isclass(cls) and ours(cls)}
    return [vars(cls)[name] for cls in classes if name in vars(cls)]


def declared(cls, name: str) -> bool:
    """Whether package class cls declares instance attribute `name`: a __slots__ entry or a field."""
    if not (inspect.isclass(cls) and ours(cls)):
        return False
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
    return name in fields or any(name in vars(c).get("__slots__", ()) for c in cls.__mro__)


def resolves(token: str, module) -> bool:
    head, *rest = token.split(".")
    if hasattr(builtins, head):
        return True
    starts = [vars(module).get(head), MODULES.get(head)]
    starts += [vars(m).get(head) for m in MODULES.values()]
    if not rest:
        starts += methods(head)
    for obj in starts:
        owner = None
        for attr in rest:
            owner, obj = obj, inspect.getattr_static(obj, attr, None)
        if ours(obj) or rest and declared(owner, rest[-1]):
            return True
    return False


def docstrings(module) -> list[str]:
    """The module's own docstring and those of its classes and functions."""
    tree = ast.parse(inspect.getsource(module))
    nodes = [n for n in ast.walk(tree)
             if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def unresolved(text: str, module) -> list[str]:
    tokens = dict.fromkeys(TOKEN.findall(text) + QUALIFIED.findall(text))
    return [token for token in tokens if not resolves(token, module)]


@pytest.mark.parametrize("name", sorted(["__init__", *MODULES]))
def test_docstring_names_exist(name):
    module = layertree if name == "__init__" else MODULES[name]
    assert [t for doc in docstrings(module) for t in unresolved(doc, module)] == []


def test_removed_names_are_caught():
    # a made-up docstring: the first four tokens name nothing in the package,
    # the fourth a module-qualified name written without ()
    text = ("LayeredRangeTree.structures(), _Level.slots(), splitmix64_next(), (cascade._place), "
            "LayeredRangeTree.query(), PointSet.from_coords(), build(), cascade._walk(), "
            "query(), sorted(), str.strip(), see Walk in cascade.  (tree._Level.reached), "
            "layertree.tree.canonical_subtrees, core.PointSet")
    assert unresolved(text, MODULES["tree"]) == [
        "LayeredRangeTree.structures", "_Level.slots", "splitmix64_next", "cascade._place"]
    # a name qualified by a package class is checked without its () too
    text = "PointSet.take or _Level.slots, as PointSet.from_coords and LayeredRangeTree.query"
    assert unresolved(text, MODULES["core"]) == ["PointSet.take", "_Level.slots"]


def test_declared_attributes_resolve():
    # an instance attribute qualified by its class resolves when the class
    # declares it: a dataclass field (QueryStats.reported) or a __slots__
    # entry (CascadeStructure.order, PointSet.dims), qualified by its module
    # too; an undeclared name on any of them does not, nor a declared one on
    # the wrong class, nor a slot the class no longer has (_Level.rank)
    text = ("QueryStats.reported, tree.QueryStats.nodes_visited, _Level.rank, tree._Level.subs, "
            "CascadeStructure.bridges, CascadeStructure.order, PointSet.dims, core.PointSet.dims, "
            "QueryStats.rank, _Level.reported, _Level.m, QueryStats.merge_moves, PointSet.n")
    assert unresolved(text, MODULES["tree"]) == [
        "_Level.rank", "QueryStats.rank", "_Level.reported", "_Level.m", "QueryStats.merge_moves",
        "PointSet.n"]
