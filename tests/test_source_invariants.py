"""Source-level checks on the library package."""

import ast
from pathlib import Path

import modelwatch

PACKAGE = Path(modelwatch.__file__).parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a library invariant written as
    # one silently stops being checked; raise a ModelWatchError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
