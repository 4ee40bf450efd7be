"""Rules on the library source that no behavioural test would notice breaking."""

import ast
from pathlib import Path

import ybelab

SOURCES = sorted(Path(ybelab.__file__).parent.glob("*.py"))


def test_library_raises_no_assertion_errors():
    """`assert` vanishes under `python -O` and an AssertionError escapes the
    CLI as a traceback; a broken invariant raises InternalError (exit 3)."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found
