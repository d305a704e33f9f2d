"""Checks on the package source itself."""

import ast
from pathlib import Path

import posicat

MODULES = sorted(Path(posicat.__file__).parent.rglob("*.py"))


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
