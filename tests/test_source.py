"""Source rules that hold for every module of the package."""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import wlpower

PACKAGE = Path(wlpower.__file__).parent
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


PUBLIC_NAMES = {
    # errors
    "BudgetError", "CertificateError", "ClosureError", "ConfigurationError", "DomainError",
    "GraphFormatError",
    # graphs
    "INFINITY", "Graph", "atp", "canonical_form", "complete_graph", "cycle_graph",
    "disjoint_union", "distance_table", "empty_graph", "emit_graph6",
    "enumerate_connected_graphs", "graph_to_json", "hom_count", "homomorphisms",
    "parse_graph6", "parse_graph_json", "path_graph", "rooted_hom_count", "star_graph",
    "treewidth",
    # selectors
    "FSelector", "HomClosedReport", "RSelector", "check_hom_closed", "f_set", "r_set",
    # refinement
    "BUILTIN_SPECS", "PRESET_SPECS", "GfwlSpec", "RefinementResult", "SpecValidationReport",
    "distinguish", "drfwl2_spec", "fwl_plus_spec", "fwl_spec", "joint_graph_colors",
    "local_fwl_spec", "replacements", "stabilize", "validate_spec",
    # games
    "GameVerdict", "cops_robber_wins", "replay_certificate", "spoiler_wins",
    # power
    "PowerReport", "ValidationReport", "check_monotonicity", "compare_to_treewidth",
    "connected_classes", "enumerate_power", "validate_hom_closedness", "validate_soundness",
    "validate_theorem2", "write_power_csv",
    # cli
    "cache_key", "cache_lookup", "cache_store", "load_graph", "load_spec", "run",
}


def test_public_surface_is_pinned():
    # The package exports what its commands run; a new export, or one
    # that comes back, needs an edit here.  Submodules are not counted.
    public = {
        name
        for name, value in vars(wlpower).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES


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


def calls_outside(scopes: set, names: set, paths) -> list[str]:
    """``file:line: name`` for each call of one of ``names`` in ``paths``
    that is not inside a class or function named in ``scopes``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=path.name)
        inside = {
            id(node)
            for owner in ast.walk(tree)
            if isinstance(owner, (ast.ClassDef, ast.FunctionDef)) and owner.name in scopes
            for node in ast.walk(owner)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    found.append(f"{path.name}:{node.lineno}: {called}")
    return found


def test_tuple_facts_come_from_one_table():
    # One tuple table per (spec, graph): in the refinement and game
    # modules only ``_TupleTable`` derives the universe, the aggregation
    # sets, the staged prefix groups and the isomorphism-type codes.
    derive = {"r_set", "f_set", "_stage_groups", "atp"}
    found = calls_outside({"_TupleTable"}, derive, [PACKAGE / "refinement.py", PACKAGE / "games.py"])
    assert not found, found


def test_one_refinement_loop():
    # One round loop for 1..N graphs: only ``_stabilize`` starts and
    # steps a coloring, so ``stabilize``, ``joint_graph_colors`` and the
    # early-stopping ``distinguish`` all read their rounds from it.
    found = calls_outside({"_stabilize"}, {"initial_colors", "step"}, sorted(PACKAGE.glob("*.py")))
    assert not found, found


def test_positions_canonicalized_in_one_place():
    # One pebble-order rule for both games: only the two successor
    # functions call ``_pebble_order``, so each solver and its replays
    # take every key from their game's moves and cannot drift onto a
    # second rule.  No other code in ``games.py`` sorts, but for a
    # certificate, which orders Spoiler's refuting selections by state
    # number.
    movers = {"_PursuitMoves", "_BijectionMoves"}
    found = calls_outside(movers, {"_pebble_order"}, sorted(PACKAGE.glob("*.py")))
    found += calls_outside({"_pebble_order", "certificate"}, {"sorted", "sort"}, [PACKAGE / "games.py"])
    assert not found, found


def test_one_pairing_rule():
    # One rule pairs the bijection game's choices: only the tuple table
    # and ``_BijectionMoves.puts`` read put rows and their choice keys,
    # so the solver and both replays take every put from ``puts`` and
    # cannot pair choices, or cut a state, by a second rule.
    found = calls_outside({"_TupleTable", "puts"}, {"put_row", "put_keys"}, sorted(PACKAGE.glob("*.py")))
    assert not found, found


def test_distinct_license_read_in_put_choices_only():
    # One choice point for the distinct-node arenas: only
    # ``_TupleTable.put_choices`` reads the license ``_distinct_puts``,
    # so both games' solvers, replays and Hall lookahead drop pebbled
    # nodes alike, and no second path can drop them by its own rule.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        inside = {
            id(node)
            for owner in ast.walk(tree)
            if isinstance(owner, ast.FunctionDef) and owner.name == "put_choices"
            for node in ast.walk(owner)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (getattr(node, "id", None) == "_distinct_puts" or getattr(node, "attr", None) == "_distinct_puts")
            and id(node) not in inside
        ]
    assert not found, found


def test_pursuit_solver_reads_moves_once():
    # One pass over the pursuit moves: inside ``_CrSolver`` only
    # ``generate`` reads the game's successor function, so both
    # certificates come from the solved arena and cannot drift back onto
    # a second pass over the moves.
    tree = ast.parse((PACKAGE / "games.py").read_text(), filename="games.py")
    solver = next(
        node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "_CrSolver"
    )
    readers = {
        method.name
        for method in solver.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "moves"
    }
    assert readers == {"generate"}, readers


def test_safety_regions_replay_through_one_walk():
    # Both safety players certify by their winning region: only the
    # bijection fixpoint's judge and the two bijection replays run a
    # matching (so no certificate does), and only the Robber and
    # Duplicator replays walk a region.  A nested function counts as
    # its enclosing function or method.
    tree = ast.parse((PACKAGE / "games.py").read_text(), filename="games.py")
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    funcs += [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    callers: dict[str, set] = {"_max_matching": set(), "_stays_in_region": set()}
    for func in funcs:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                callers[node.func.id].add(func.name)
    assert callers == {
        "_max_matching": {"_survives", "_replay_spoiler", "_replay_duplicator"},
        "_stays_in_region": {"_replay_robber", "_replay_duplicator"},
    }, callers


def test_worker_processes_start_in_one_place():
    # Only the sweep helper in ``power.py`` starts processes: it imports
    # ``multiprocessing`` and ``concurrent.futures`` on its split path
    # alone, so ``import wlpower`` and every other layer stay free of
    # them.  No file sets the process-wide start method.
    pool_modules = {"multiprocessing", "concurrent"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        inside = {
            id(node)
            for func in ast.walk(tree)
            if path.name == "power.py" and isinstance(func, ast.FunctionDef) and func.name == "_solve_sweep"
            for node in ast.walk(func)
        }
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
                if name.partition(".")[0] in pool_modules and id(node) not in inside
            ]
    assert not found, found
    roots = [PACKAGE, Path(__file__).parent, SPANS_PATH.parent]
    setters = [
        f"{path.name}:{node.lineno}"
        for root in roots
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
        if isinstance(node, ast.Attribute) and node.attr == "set_start_method"
        or isinstance(node, ast.alias) and node.name == "set_start_method"
    ]
    assert not setters, setters
