"""Source hygiene of the package, read with the stdlib `ast`: no module
imports a name it never uses or a private name of another `demuskin`
module, no module defines a private name (at module level or as a method)
that the package never references, no public function, class, method
or property is kept for the tests alone, and the CLI turns no
AssertionError into a report."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "demuskin"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# the code that uses the package: its own modules (the re-exports of
# `__init__.py` are no use), the demos and the benchmark
USERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def loaded_names(tree: ast.AST) -> set:
    """Every name read in the tree: bare names, attributes and the names
    that `from ... import` brings in."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def private_definitions(tree: ast.Module):
    """(name, line) of each private module-level function, class or
    assigned name, and of each private method of a module-level class."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.extend((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            defs.extend(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [(name, line) for name, line in defs if is_private(name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    tree = parse(path)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [(name, line) for name, line in imported if name not in used] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_private_name_imported_from_another_module(path):
    # `from demuskin.m import name`, `from . import name` or `import demuskin.m`
    imported = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "demuskin"):
            imported += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, node.lineno) for alias in node.names if alias.name.startswith("demuskin.")]
    assert [(name, line) for name, line in imported if any(map(is_private, name.split(".")))] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unreferenced_private_name(path):
    referenced = set().union(*(loaded_names(parse(p)) for p in PACKAGE.glob("*.py")))
    defined = private_definitions(parse(path))
    assert [(name, line) for name, line in defined if name not in referenced] == []


def public_definitions(tree: ast.Module):
    """(name, line) of each public module-level function or class, and of
    each public method or property of a module-level class."""
    defs = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs.extend(
                (f"{node.name}.{item.name}", item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
            )
    return [(name, line) for name, line in defs if not is_private(name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_public_name_kept_for_tests_alone(path):
    # a member is read by its name alone, so one read on any class keeps it
    referenced = set().union(*(loaded_names(parse(p)) for p in USERS))
    defined = public_definitions(parse(path))
    assert [(name, line) for name, line in defined if name.rsplit(".", 1)[-1] not in referenced] == []


def test_cli_catches_no_assertion_error():
    # an AssertionError is an engine inconsistency: it propagates with its
    # traceback, never read as a red check
    lines = []
    for node in ast.walk(parse(PACKAGE / "cli.py")):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            lines += [node.lineno for t in types if isinstance(t, ast.Name) and t.id == "AssertionError"]
    assert lines == []
