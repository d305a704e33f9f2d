"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import posicat

MODULES = sorted(Path(posicat.__file__).parent.rglob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently vanish; every check in the package raises a typed error
    assert {p.name for p in MODULES} >= {"__init__.py", "affine.py", "invsets.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_exports_resolve_once():
    # a deletion that leaves its name behind in __all__ fails here
    names = posicat.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(posicat, name)]
    assert missing == []


def _named(tree):
    """Every name a module mentions: names, attributes, imported names and
    string constants (the benchmark's tracer names its targets by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_referenced():
    # a function, class or method that nothing in the package, the tests or
    # the benchmark names is dead code; perfbench/ is parsed, never imported
    others = sorted((ROOT / "tests").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES + others}
    named = {name for tree in trees.values() for name in _named(tree)}
    unnamed = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert unnamed == []


def _code_named(tree):
    """The names of `_named` apart from string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def test_every_definition_has_a_non_test_caller():
    # a definition that only the tests name is API nothing uses; the package
    # counts by code (a trace rule's string is not a call), the benchmark by
    # strings too (its tracer names its targets so), the README by word
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES}
    named = {name for tree in trees.values() for name in _code_named(tree)}
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        named.update(_named(ast.parse(path.read_text(), str(path))))
    named.update(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert uncalled == []
