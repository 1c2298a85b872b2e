"""Command-line harness: spec files, graph inputs, caching, reports.

Every report is a JSON envelope ``{"payload": ..., "telemetry": ...}``.
Payloads are deterministic functions of the inputs and budgets;
telemetry (timing, state counts, cache status) is free to vary and is
excluded from any byte-comparison. Exit codes: 0 success, 1 validation
mismatch, 2 input error, 3 resource-budget exhaustion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import (
    BudgetError, ClosureError, ConfigurationError, DomainError, GraphFormatError, deadline,
)
from .games import DEFAULT_MAX_STATES, cops_robber_wins, spoiler_wins
from .graphs import Graph, canonical_form, emit_graph6, hom_count, parse_graph6, parse_graph_json
from .power import (
    check_monotonicity,
    compare_to_treewidth,
    enumerate_power,
    validate_hom_closedness,
    validate_soundness,
    validate_theorem2,
    write_power_csv,
)
from .refinement import PRESET_SPECS, GfwlSpec, distinguish


# ---------------------------------------------------------------------------
# Input loading


def load_spec(value: str) -> GfwlSpec:
    """Load a spec from a JSON file path or a preset name
    (:data:`~wlpower.refinement.PRESET_SPECS`); an existing file wins."""
    path = Path(value)
    if not path.exists() and value in PRESET_SPECS:
        return PRESET_SPECS[value]
    if not path.exists():
        raise ConfigurationError(f"spec file not found: {value}")
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path}: unreadable spec file: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: spec file must hold a JSON object")
    return GfwlSpec.from_json_dict(obj)


def load_graph(value: str) -> Graph:
    """Load a graph from a .g6 file (first line), a .json edge-list
    file, or an inline graph6 string."""
    path = Path(value)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise GraphFormatError(f"{value}: unreadable file: {exc}") from exc
        if path.suffix == ".json":
            try:
                return parse_graph_json(text)
            except GraphFormatError as exc:
                raise GraphFormatError(f"{value}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                try:
                    return parse_graph6(line.strip())
                except GraphFormatError as exc:
                    raise GraphFormatError(f"{value}:{lineno}: {exc}") from exc
        raise GraphFormatError(f"{value}: no graph line found")
    if value.endswith((".g6", ".json")) or os.sep in value:
        raise GraphFormatError(f"graph file not found: {value}")
    return parse_graph6(value)


# ---------------------------------------------------------------------------
# Cache


def _graph_digest(g: Graph) -> str:
    try:
        return canonical_form(g).decode("ascii")
    except BudgetError:
        return "raw:" + emit_graph6(g)  # beyond canonicalization budget


def cache_key(op: str, spec: GfwlSpec | None, graphs: list[Graph], params: dict) -> str:
    material = json.dumps(
        {
            "tool": __version__,
            "op": op,
            "spec": spec.to_json_dict() if spec is not None else None,
            "graphs": [_graph_digest(g) for g in graphs],
            "params": params,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def cache_lookup(cache_dir: str, key: str) -> dict | None:
    path = Path(cache_dir) / f"{key}.json"
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text())
        if record["version"] != __version__:
            return None
        if not isinstance(record["payload"], dict):
            raise TypeError("payload is not a JSON object")
        return record["payload"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_store(cache_dir: str, key: str, payload: dict) -> None:
    directory = Path(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    record = json.dumps({"version": __version__, "payload": payload}, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(record)
        os.replace(tmp, directory / f"{key}.json")
    except OSError:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Command table
#
# A compute function takes ``(args, specs, graphs)``: the parsed command
# line, and the specs and graphs loaded once by :func:`run` in the order
# its entry names them.  It returns ``(payload, extra telemetry)``.
# Solvers are reached through this module's globals at call time, so
# wrapping or patching ``wlpower.cli.<name>`` reaches every call.


def _distinguish(args, specs, graphs):
    (spec,), (g, h) = specs, graphs
    payload = {"spec": spec.to_json_dict(), "g": emit_graph6(g), "h": emit_graph6(h)}
    return {**payload, "distinguished": distinguish(spec, g, h)}, {}


def _cops(args, specs, graphs):
    (spec,), (g,) = specs, graphs
    verdict = cops_robber_wins(spec, g, max_states=args.max_states, want_certificate=False)
    payload = {"spec": spec.to_json_dict(), "graph": emit_graph6(g), "winner": verdict.winner}
    return payload, {"states_explored": verdict.states_explored, **verdict.stats}


def _ef(args, specs, graphs):
    (spec,), (g, h) = specs, graphs
    verdict = spoiler_wins(spec, g, h, max_states=args.max_states, want_certificate=False)
    payload = {"spec": spec.to_json_dict(), "g": emit_graph6(g), "h": emit_graph6(h)}
    telemetry = {"states_explored": verdict.states_explored, **verdict.stats}
    return {**payload, "winner": verdict.winner}, telemetry


def _hom(args, specs, graphs):
    pattern, target = graphs
    payload = {"pattern": emit_graph6(pattern), "target": emit_graph6(target)}
    return {**payload, "count": hom_count(pattern, target)}, {}


def _power(args, specs, graphs):
    report = enumerate_power(*specs, args.max_nodes, max_states=args.max_states)
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as handle:
                write_power_csv(report, handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot write CSV: {exc}") from exc
    return report.payload_dict(), {"per_graph": report.per_graph_stats, "workers": report.workers}


def _validate(args, specs, graphs):
    return SUITES[args.suite].run(args, specs).to_json_dict(), {}


@dataclass(frozen=True)
class Suite:
    """One ``validate --suite`` choice: ``run(args, specs)`` returns a
    ValidationReport; ``specs`` are the namespace attributes it loads
    specs from, each required."""

    run: Callable
    default_nodes: int
    specs: tuple[str, ...] = ()


SUITES = {
    "theorem2": Suite(
        lambda c, specs: validate_theorem2(*specs, c.max_nodes, max_states=c.max_states),
        default_nodes=4,
        specs=("spec",),
    ),
    "treewidth": Suite(
        lambda c, specs: compare_to_treewidth(c.k, c.max_nodes, max_states=c.max_states),
        default_nodes=7,
    ),
    "soundness": Suite(
        lambda c, specs: validate_soundness(
            *specs, c.max_nodes, c.max_patterns, max_states=c.max_states
        ),
        default_nodes=5,
        specs=("spec",),
    ),
    "monotonicity": Suite(
        lambda c, specs: check_monotonicity(*specs, c.max_nodes, max_states=c.max_states),
        default_nodes=6,
        specs=("spec_small", "spec_large"),
    ),
    "hom_closed": Suite(
        lambda c, specs: validate_hom_closedness(*specs, c.max_nodes),
        default_nodes=4,
        specs=("spec",),
    ),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its own ``(flag, add_argument kwargs)`` pairs (the
    budget and output flags are common to all), the flags that give its
    graph inputs, the namespace attributes it loads specs from
    (validate's suite names those), the namespace attributes in its
    cache key (None: not cached), and the exit code of a run that
    produced a payload."""

    help: str
    args: tuple[tuple[str, dict], ...]
    compute: Callable
    graphs: tuple[str, ...] = ()
    specs: tuple[str, ...] = ()
    cache_params: tuple[str, ...] | None = None
    exit_code: Callable[[dict], int] = lambda payload: 0


_SPEC = ("--spec", {"required": True})
_G = ("--g", {"required": True})
_H = ("--h", {"required": True})

COMMANDS = {
    "distinguish": Command(
        "joint color refinement on a graph pair", (_SPEC, _G, _H), _distinguish,
        graphs=("g", "h"), specs=("spec",), cache_params=(),
    ),
    "cops": Command(
        "decide the pursuit game on a query graph", (_SPEC, _G), _cops,
        graphs=("g",), specs=("spec",), cache_params=("max_states",),
    ),
    "ef": Command(
        "decide the bijection game on a graph pair", (_SPEC, _G, _H), _ef,
        graphs=("g", "h"), specs=("spec",), cache_params=("max_states",),
    ),
    "hom": Command(
        "count homomorphisms pattern -> target",
        (("--pattern", {"required": True}), ("--target", {"required": True})), _hom,
        graphs=("pattern", "target"), cache_params=(),
    ),
    "power": Command(
        "enumerate the counting-power set",
        (
            _SPEC,
            ("--max-nodes", {"type": int, "required": True}),
            ("--csv", {"default": None, "help": "also write the per-graph CSV summary here"}),
        ),
        _power,
        specs=("spec",),
        cache_params=("max_states", "max_nodes"),
        exit_code=lambda payload: 0 if payload["complete"] else 3,
    ),
    "validate": Command(
        "run a validation suite",
        (
            ("--suite", {"required": True, "choices": list(SUITES)}),
            ("--spec", {"default": None}),
            ("--spec-small", {"default": None}),
            ("--spec-large", {"default": None}),
            ("--k", {"type": int, "default": 2}),
            ("--max-nodes", {"type": int, "default": None}),
            ("--max-patterns", {"type": int, "default": 6}),
        ),
        _validate,
        exit_code=lambda payload: 0 if payload["passed"] else 1,
    ),
}


# ---------------------------------------------------------------------------
# Command execution


def _emit(args: argparse.Namespace, envelope: dict) -> None:
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; emits the report and returns the
    exit code.  A validate run without ``--max-nodes`` gets its suite's
    default written into ``args``."""
    start = time.perf_counter()
    command = COMMANDS[args.command]
    suite = SUITES.get(getattr(args, "suite", None))
    try:
        if suite is not None:
            if args.max_nodes is None:
                args.max_nodes = suite.default_nodes
            if not all(getattr(args, name) for name in suite.specs):
                flags = "/".join("--" + name.replace("_", "-") for name in suite.specs)
                raise ConfigurationError(f"suite {args.suite} requires {flags}")
        for name in ("max_states", "max_nodes", "time_limit_ms", "max_patterns"):
            value = getattr(args, name, None)
            if value is not None and value <= 0:
                raise ConfigurationError(f"budget {name} must be strictly positive, got {value}")
        specs = [load_spec(getattr(args, name)) for name in (suite or command).specs]
        graphs = [load_graph(getattr(args, name)) for name in command.graphs]
        cache_dir = os.environ.get("WLPOWER_CACHE") or args.cache_dir
        key = None
        if cache_dir and command.cache_params is not None:
            params = {name: getattr(args, name) for name in command.cache_params}
            key = cache_key(args.command, specs[0] if specs else None, graphs, params)
        cache_status = "off" if cache_dir is None else "miss"
        # CSV rows come from per-graph telemetry, which the cache does not hold
        reusable = key is not None and not getattr(args, "csv", None)
        payload = cache_lookup(cache_dir, key) if reusable else None
        extra: dict = {}
        if payload is not None:
            cache_status = "hit"
        else:
            with deadline(args.time_limit_ms, start):
                body, extra = command.compute(args, specs, graphs)
            payload = {"command": args.command, **body}
            if key is not None:
                try:
                    cache_store(cache_dir, key, payload)
                except OSError as exc:  # the verdict stands; only reuse is lost
                    print(f"warning: cache write failed: {exc}", file=sys.stderr)
    except (GraphFormatError, ConfigurationError, DomainError, ClosureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    telemetry = {
        "millis": int(round((time.perf_counter() - start) * 1000)),
        "cache": cache_status,
        "tool_version": __version__,
        **extra,
    }
    try:
        _emit(args, {"payload": payload, "telemetry": telemetry})
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return command.exit_code(payload)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                        help="state budget per game solve")
    parser.add_argument("--time-limit-ms", type=int, default=None,
                        help="wall-clock budget for the whole run")
    parser.add_argument("--out", default=None, help="report file (default: stdout)")
    parser.add_argument("--cache-dir", default=None,
                        help="verdict cache directory (WLPOWER_CACHE overrides)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlpower",
        description="Refinement specs, pebble games, and counting-power reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.args:
            p.add_argument(flag, **kwargs)
        _add_common(p)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    return run(_PARSER.parse_args(argv))
