"""Source hygiene: no module imports a name it never uses, every
definition in src/avledger is named by code outside the tests, every
attribute it stores is read there, every frozen record carries the
compiled constructor, and every wire record is slotted and checks nothing
in its constructor.

A name listed in the module's ``__all__`` counts as used by the import
check, since that is how a module re-exports what it imports. It does not
count as a caller of a definition: a module lists what it defines there
too, and a listed definition that no code calls is still dead.
"""

import ast
import dataclasses
import importlib
import pathlib

import pytest

from avledger import encoding
from worldkit import avledger_classes, frozen_records

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for pattern in ("src/avledger/*.py", "tests/*.py", "scripts/*.py")
    for path in ROOT.glob(pattern)
)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, including those inside string
    annotations such as "GenesisBlock"."""
    trees = [tree]
    for annotation in _annotations(tree):
        trees += [
            ast.parse(sub.value, mode="eval")
            for sub in ast.walk(annotation)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        ]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def _is_all(node: ast.stmt) -> bool:
    """Whether the statement assigns the module's ``__all__``."""
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _exported(tree: ast.Module) -> set[str]:
    """The names the module's ``__all__`` lists."""
    return {elt.value for node in tree.body if _is_all(node) for elt in node.value.elts}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return sorted(imported - _used_names(tree) - _exported(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


WIRE_RECORDS = [
    cls
    for cls in avledger_classes()
    if dataclasses.is_dataclass(cls) and any("wire" in f.metadata for f in dataclasses.fields(cls))
]
FROZEN_RECORDS = frozen_records()


def test_wire_records_are_found_in_every_module():
    modules = {cls.__module__ for cls in WIRE_RECORDS}
    assert modules == {f"avledger.{name}" for name in ("identity", "ledger", "scenarios", "txmodel")}


def test_frozen_records_are_found_in_every_module():
    modules = {cls.__module__ for cls in FROZEN_RECORDS}
    assert modules == {
        f"avledger.{name}" for name in ("adjudicator", "identity", "ledger", "netsim", "scenarios", "txmodel", "validation")
    }


@pytest.mark.parametrize("cls", FROZEN_RECORDS, ids=lambda cls: cls.__name__)
def test_frozen_records_carry_the_compiled_constructor(cls):
    """Every frozen record is declared with encoding.frozen, so its
    __init__ sets each field with one bound slot store, never with the
    object.__setattr__ call per field of the __init__ dataclasses writes."""
    assert vars(cls)["__init__"] is encoding._constructor(cls)
    assert "__slots__" in vars(cls)


@pytest.mark.parametrize("cls", WIRE_RECORDS, ids=lambda cls: cls.__name__)
def test_wire_records_are_slotted(cls):
    """A wire record is decoded once per transaction of every loaded
    ledger, so it keeps no per-instance __dict__."""
    assert "__slots__" in vars(cls)
    assert "__dict__" not in dir(cls)


@pytest.mark.parametrize("cls", WIRE_RECORDS, ids=lambda cls: cls.__name__)
def test_wire_records_check_nothing_in_their_constructor(cls):
    """The decoders make a record without calling its __init__: one
    object.__new__, then the slot stores the compiled __init__ makes.
    That skips no check only while the record's __init__ is the compiled
    one and no __post_init__ or __new__ runs."""
    assert vars(cls)["__init__"] is encoding._constructor(cls)
    assert cls.__bases__ == (object,)
    assert not hasattr(cls, "__post_init__")
    assert cls.__new__ is object.__new__
    module = ast.parse(pathlib.Path(importlib.import_module(cls.__module__).__file__).read_text())
    [body] = [node.body for node in module.body if isinstance(node, ast.ClassDef) and node.name == cls.__name__]
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & {"__init__", "__post_init__", "__new__", "__setattr__"}


# --- dead definitions -----------------------------------------------------------

# Code that may call into avledger. Tests do not count as callers: a
# definition only a test names is dead code with a test.
CALLERS = sorted(
    path
    for pattern in ("src/**/*.py", "scripts/*.py", "perfbench/*.py")
    for path in ROOT.glob(pattern)
    if not path.name.startswith("test_") and path.name != "conftest.py"
)


def _definitions(tree: ast.Module):
    """(qualified name, name) of every top-level function and class, and
    of every method that is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _named(tree: ast.Module) -> set[str]:
    """Every name a module reads: a Name, an attribute, or a string
    constant, since the tracer patches methods by name. The strings of
    ``__all__`` are not read."""
    names = set()
    body = [node for node in tree.body if not _is_all(node)]
    for node in (sub for statement in body for sub in ast.walk(statement)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    named = set().union(*map(_named, trees.values()))
    return sorted(
        f"{path.relative_to(ROOT)}::{qualified}"
        for path, tree in trees.items()
        if path.parent == ROOT / "src" / "avledger"
        for qualified, name in _definitions(tree)
        if name not in named
    )


def test_every_definition_has_a_caller():
    """Code that no caller needs is deleted."""
    assert dead_definitions() == []



# --- unread attributes ------------------------------------------------------------

def _stored_attributes(tree: ast.Module):
    """(line, qualified name, name) of every `self.<name> = …` in a
    top-level class."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                continue
            for target in sub.targets if isinstance(sub, ast.Assign) else [sub.target]:
                for t in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                        yield t.lineno, f"{node.name}.{t.attr}", t.attr


def _read_attributes(tree: ast.AST) -> set[str]:
    """Every attribute a module reads, and every string constant, since
    getattr and the tracer name attributes by string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_attributes() -> list[str]:
    src = ROOT / "src" / "avledger"
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    read = set().union(*map(_read_attributes, trees.values()))
    return sorted(
        f"{path.relative_to(src)}:{line} {qualified}"
        for path, tree in trees.items()
        if path.parent == src
        for line, qualified, name in _stored_attributes(tree)
        if name not in read
    )


def test_every_stored_attribute_is_read():
    """An attribute that is set but never read is code no caller needs."""
    assert unread_attributes() == []
