"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import wlpower

PACKAGE = Path(wlpower.__file__).parent


def test_no_assert_statements():
    # Invariants raise explicit errors: ``python -O`` strips ``assert``.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
