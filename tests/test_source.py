"""Source rules that hold for every module of the package."""

import ast
import sys
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


def test_runtime_imports_are_stdlib():
    # The runtime is stdlib-only: every absolute import names a standard
    # library module; relative imports stay inside the package.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, found
