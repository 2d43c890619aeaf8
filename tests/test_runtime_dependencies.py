"""The package imports nothing at run time beyond NumPy and the standard
library; test-only tools stay out of src/hkconv."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "hkconv"


def test_every_absolute_import_is_numpy_or_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    allowed = {"numpy"} | set(sys.stdlib_module_names)
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert foreign == []


def _top_level_owner(tree):
    """(node, name of the top-level def or class holding it, or None at
    module level) for every node of a module."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield node, owner


def _names(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "", *(alias.name for alias in node.names)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]  # getattr(lib, "mallopt"), import_module("ctypes")
    return []


def test_only_the_cli_main_changes_the_allocator():
    # the allocator setting changes the whole process, so neither import
    # nor any library function may apply it: ctypes and mallopt appear
    # only in cli.py, inside one function that only main refers to
    modules = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    touching = {
        (module, owner)
        for module, tree in modules.items()
        for node, owner in _top_level_owner(tree)
        if any(name.split(".")[0] in ("ctypes", "mallopt") for name in _names(node))
    }
    assert len(touching) == 1, touching
    [(module, function)] = touching
    assert module == "cli.py" and function is not None
    assert isinstance(
        next(n for n in modules["cli.py"].body if getattr(n, "name", None) == function),
        ast.FunctionDef,
    )
    referrers = {
        (module, owner)
        for module, tree in modules.items()
        for node, owner in _top_level_owner(tree)
        if isinstance(node, ast.Name) and node.id == function
        or isinstance(node, ast.Attribute) and node.attr == function
    }
    assert referrers == {("cli.py", "main")}
