"""Source rules that hold for every module of the package."""

import ast
import importlib.util
import sys
from pathlib import Path

import wlpower

PACKAGE = Path(wlpower.__file__).parent
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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



def test_imported_names_are_used():
    # Every name a module imports is read there, unless the benchmark's
    # span tracer wraps that name on that module (it then has to stay a
    # module attribute).  ``__init__.py`` imports to re-export.
    spec = importlib.util.spec_from_file_location("wlpower_bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        traced = {name.split(".", 1)[1] for name, homes in spans.TRACED.items() if path.stem in homes}
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read | traced:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found


def test_tuple_facts_come_from_one_table():
    # One tuple table per (spec, graph): in the refinement and game
    # modules only ``_TupleTable`` derives the universe, the aggregation
    # sets and the isomorphism-type codes.
    derive = {"r_set", "f_set", "atp"}
    found = []
    for name in ("refinement.py", "games.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_TupleTable"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in derive:
                    found.append(f"{name}:{node.lineno}: {called}")
    assert not found, found
