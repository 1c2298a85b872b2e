"""Source rules that hold for every module of the package."""

import ast
import importlib
import importlib.util
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


def test_traced_names_resolve():
    # The benchmark's span tracer wraps each TRACED name on every listed
    # module; a refactor that drops one of those imports must fail here,
    # not in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    missing = []
    for name, homes in spans.TRACED.items():
        attr = name.split(".", 1)[1]
        for home in homes:
            module = importlib.import_module(f"wlpower.{home}" if home else "wlpower")
            if not callable(getattr(module, attr, None)):
                missing.append(f"wlpower{'.' + home if home else ''}.{attr}")
    assert not missing, missing
