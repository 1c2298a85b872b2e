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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import BudgetError, ClosureError, ConfigurationError, DomainError, GraphFormatError
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



@dataclass
class RunConfig:
    """One resolved invocation: command, inputs, budgets, channels."""

    command: str
    spec_path: str | None = None
    graph_inputs: list[str] = field(default_factory=list)
    max_states: int = DEFAULT_MAX_STATES
    max_nodes: int | None = None
    time_limit_ms: int | None = None
    output: str | None = None
    csv_path: str | None = None
    cache_dir: str | None = None
    suite: str | None = None
    k: int | None = None
    max_patterns: int | None = None
    spec_small_path: str | None = None
    spec_large_path: str | None = None

    def validate(self) -> None:
        for name in ("max_states", "max_nodes", "time_limit_ms", "max_patterns"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"budget {name} must be strictly positive, got {value}")


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
# A compute function takes ``(config, specs, graphs, time_check)``, with
# the specs and graphs loaded once by :func:`run` in the order its entry
# names them, and returns ``(payload, extra telemetry)``.  Solvers are
# reached through this module's globals at call time, so wrapping or
# patching ``wlpower.cli.<name>`` reaches every call.


def _distinguish(config, specs, graphs, time_check):
    (spec,), (g, h) = specs, graphs
    payload = {"spec": spec.to_json_dict(), "g": emit_graph6(g), "h": emit_graph6(h)}
    return {**payload, "distinguished": distinguish(spec, g, h)}, {}


def _cops(config, specs, graphs, time_check):
    (spec,), (g,) = specs, graphs
    verdict = cops_robber_wins(spec, g, max_states=config.max_states, want_certificate=False)
    payload = {"spec": spec.to_json_dict(), "graph": emit_graph6(g), "winner": verdict.winner}
    return payload, {"states_explored": verdict.states_explored}


def _ef(config, specs, graphs, time_check):
    (spec,), (g, h) = specs, graphs
    verdict = spoiler_wins(spec, g, h, max_states=config.max_states, want_certificate=False)
    payload = {"spec": spec.to_json_dict(), "g": emit_graph6(g), "h": emit_graph6(h)}
    return {**payload, "winner": verdict.winner}, {"states_explored": verdict.states_explored}


def _hom(config, specs, graphs, time_check):
    pattern, target = graphs
    payload = {"pattern": emit_graph6(pattern), "target": emit_graph6(target)}
    return {**payload, "count": hom_count(pattern, target)}, {}


def _power(config, specs, graphs, time_check):
    report = enumerate_power(
        *specs, config.max_nodes, max_states=config.max_states, time_check=time_check
    )
    if config.csv_path:
        with open(config.csv_path, "w", newline="") as handle:
            write_power_csv(report, handle)
    return report.payload_dict(), {"per_graph": report.per_graph_stats}


def _validate(config, specs, graphs, time_check):
    return SUITES[config.suite].run(config, specs, time_check).to_json_dict(), {}


@dataclass(frozen=True)
class Suite:
    """One ``validate --suite`` choice: ``run(config, specs, time_check)``
    returns a ValidationReport; ``specs`` are the RunConfig fields it
    loads specs from, each required."""

    run: Callable
    default_nodes: int
    specs: tuple[str, ...] = ()


SUITES = {
    "theorem2": Suite(
        lambda c, specs, tc: validate_theorem2(
            *specs, c.max_nodes, max_states=c.max_states, time_check=tc
        ),
        default_nodes=4,
        specs=("spec_path",),
    ),
    "treewidth": Suite(
        lambda c, specs, tc: compare_to_treewidth(
            c.k, c.max_nodes, max_states=c.max_states, time_check=tc
        ),
        default_nodes=7,
    ),
    "soundness": Suite(
        lambda c, specs, tc: validate_soundness(
            *specs, c.max_nodes, c.max_patterns, max_states=c.max_states, time_check=tc
        ),
        default_nodes=5,
        specs=("spec_path",),
    ),
    "monotonicity": Suite(
        lambda c, specs, tc: check_monotonicity(
            *specs, c.max_nodes, max_states=c.max_states, time_check=tc
        ),
        default_nodes=6,
        specs=("spec_small_path", "spec_large_path"),
    ),
    "hom_closed": Suite(
        lambda c, specs, tc: validate_hom_closedness(*specs, c.max_nodes, time_check=tc),
        default_nodes=4,
        specs=("spec_path",),
    ),
}


@dataclass(frozen=True)
class Command:
    """One subcommand: its own ``(flag, add_argument kwargs)`` pairs (the
    budget and output flags are common to all), the flags that give its
    graph inputs, the RunConfig fields it loads specs from (validate's
    suite names those), the RunConfig fields in its cache key (None: not
    cached), and the exit code of a run that produced a payload."""

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
        graphs=("g", "h"), specs=("spec_path",), cache_params=(),
    ),
    "cops": Command(
        "decide the pursuit game on a query graph", (_SPEC, _G), _cops,
        graphs=("g",), specs=("spec_path",), cache_params=("max_states",),
    ),
    "ef": Command(
        "decide the bijection game on a graph pair", (_SPEC, _G, _H), _ef,
        graphs=("g", "h"), specs=("spec_path",), cache_params=("max_states",),
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
        specs=("spec_path",),
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


def _deadline_check(config: RunConfig, start: float):
    if config.time_limit_ms is None:
        return None

    def check() -> None:
        elapsed_ms = (time.perf_counter() - start) * 1000
        if elapsed_ms > config.time_limit_ms:
            raise BudgetError(
                "time limit exceeded", stats={"elapsed_ms": int(elapsed_ms)}
            )

    return check


def _entries(config: RunConfig) -> tuple[Command, Command | Suite]:
    """The command of a run, and the entry that names its specs: the
    suite for validate, else the command itself."""
    command = COMMANDS.get(config.command)
    if command is None:
        raise ConfigurationError(f"unknown command {config.command!r}")
    if config.command != "validate":
        return command, command
    if config.suite not in SUITES:
        raise ConfigurationError(f"unknown validation suite {config.suite!r}")
    return command, SUITES[config.suite]


def _emit(config: RunConfig, envelope: dict) -> None:
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if config.output:
        Path(config.output).write_text(text)
    else:
        sys.stdout.write(text)


def run(config: RunConfig) -> int:
    """Execute one command; emits the report and returns the exit code."""
    start = time.perf_counter()
    try:
        config.validate()
        command, spec_entry = _entries(config)
        specs = [load_spec(getattr(config, name)) for name in spec_entry.specs]
        graphs = [load_graph(value) for value in config.graph_inputs]
        cache_dir = os.environ.get("WLPOWER_CACHE") or config.cache_dir
        key = None
        if cache_dir and command.cache_params is not None:
            params = {name: getattr(config, name) for name in command.cache_params}
            key = cache_key(config.command, specs[0] if specs else None, graphs, params)
        cache_status = "off" if cache_dir is None else "miss"
        payload = cache_lookup(cache_dir, key) if key is not None else None
        extra: dict = {}
        if payload is not None:
            cache_status = "hit"
        else:
            body, extra = command.compute(config, specs, graphs, _deadline_check(config, start))
            payload = {"command": config.command, **body}
            if key is not None:
                cache_store(cache_dir, key, payload)
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
    _emit(config, {"payload": payload, "telemetry": telemetry})
    return command.exit_code(payload)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                        help="state budget per game solve")
    parser.add_argument("--time-limit-ms", type=int, default=None,
                        help="wall-clock budget, checked between work items")
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


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(
        command=args.command,
        spec_path=getattr(args, "spec", None),
        graph_inputs=[getattr(args, name) for name in COMMANDS[args.command].graphs],
        max_states=args.max_states,
        max_nodes=getattr(args, "max_nodes", None),
        time_limit_ms=args.time_limit_ms,
        output=args.out,
        csv_path=getattr(args, "csv", None),
        cache_dir=args.cache_dir,
        suite=getattr(args, "suite", None),
        k=getattr(args, "k", None),
        max_patterns=getattr(args, "max_patterns", None),
        spec_small_path=getattr(args, "spec_small", None),
        spec_large_path=getattr(args, "spec_large", None),
    )
    suite = SUITES.get(config.suite)
    if suite is not None:
        if config.max_nodes is None:
            config.max_nodes = suite.default_nodes
        if not all(getattr(config, name) for name in suite.specs):
            # RunConfig field spec_small_path comes from flag --spec-small.
            flags = "/".join("--" + name[: -len("_path")].replace("_", "-") for name in suite.specs)
            raise ConfigurationError(f"suite {config.suite} requires {flags}")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)
