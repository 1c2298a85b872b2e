"""Span recorder for the traced benchmark run.

Wrappers are installed on module attributes (``wlpower.X``,
``wlpower.power.X``, ``wlpower.cli.X``, ...) so that every call a
workload makes into a package layer records one span: name, start, end
and the index of the span that was open when it started.  Spans live in
flat arrays while the run is going and are written out once at the end.
Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("graphs", "selectors", "refinement", "games", "power", "cli")

# Span name -> modules (relative to the ``wlpower`` package, "" for the
# package itself) whose attribute of that name is wrapped.  A workload
# calls ``wlpower.X``; the package reaches the same function through the
# names that ``power``, ``cli``, ``graphs``, ``refinement`` and ``games``
# bound at import.  Functions called once per game state (``atp``,
# ``components_avoiding``) are not wrapped: their time stays in the
# caller's self time.
TRACED = {
    "graphs.canonical_form": ("", "graphs", "cli"),
    "graphs.enumerate_connected_graphs": ("", "power"),
    "graphs.treewidth": ("", "power"),
    "graphs.hom_count": ("", "power", "cli"),
    "graphs.parse_graph6": ("", "power", "cli"),
    "graphs.emit_graph6": ("", "power", "cli"),
    "selectors.r_set": ("", "refinement", "games"),
    "selectors.f_set": ("", "refinement", "games"),
    "refinement.distinguish": ("", "power", "cli"),
    "games.cops_robber_wins": ("", "power", "cli"),
    "games.spoiler_wins": ("", "power", "cli"),
    "games.replay_certificate": ("",),
    "power.connected_classes": ("", "power"),
    "power.enumerate_power": ("", "power", "cli"),
    "power.compare_to_treewidth": ("", "power", "cli"),
    "power.validate_soundness": ("", "power", "cli"),
    "power.validate_theorem2": ("", "power", "cli"),
    "cli.main": ("cli",),
    "cli.run": ("", "cli"),
    "cli.load_spec": ("", "cli"),
    "cli.load_graph": ("", "cli"),
    "cli.cache_key": ("", "cli"),
    "cli.cache_lookup": ("", "cli"),
    "cli.cache_store": ("", "cli"),
}

GENERATORS = {"graphs.enumerate_connected_graphs"}


class Tracer:
    """Records nested spans from wrapped calls in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        nid = self._intern(name)
        observe = _OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        # The span runs from the first resume to exhaustion; it is the
        # open span only while the generator body runs.
        nid = self._intern(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = -1
            while True:
                if idx < 0:
                    idx = self._open(nid)
                else:
                    self._stack.append(idx)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(idx)
                    return
                except BaseException:
                    self._close(idx)
                    raise
                self._stack.pop()
                counts[name + ".yield"] += 1
                yield item

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Replace every attribute named in :data:`TRACED` by a wrapper."""
        for name, homes in TRACED.items():
            attr = name.split(".", 1)[1]
            for home in homes:
                module = getattr(package, home) if home else package
                original = getattr(module, attr)
                self._installed.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds.  Per layer
        (the part of the name before the dot): self seconds, that is
        span time minus the part covered by direct child spans."""
        count = len(self.start)
        covered = array("d", bytes(8 * count))
        for idx in range(count):
            p = self.parent[idx]
            if p >= 0:
                covered[p] += self.end[idx] - self.start[idx]
        by_name: dict[str, dict] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for idx in range(count):
            name = self.names[self.name_id[idx]]
            dur = self.end[idx] - self.start[idx]
            own = dur - covered[idx]
            entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += own
            layer_self[name.split(".", 1)[0]] += own
        return {"spans": by_name, "layer_self_s": dict(layer_self), "counts": dict(self.counts)}

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans opened directly under a
        ``parent_name`` span."""
        pid = self._name_ids.get(parent_name)
        cid = self._name_ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1
            for idx in range(len(self.start))
            if self.name_id[idx] == cid
            and self.parent[idx] >= 0
            and self.name_id[self.parent[idx]] == pid
        )

    def write(self, path: Path) -> None:
        """Write every span, as columns, to a gzipped JSON file."""
        record = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(record, handle, separators=(",", ":"))


def _observe_cops(counts, verdict) -> None:
    counts["games.cops_states"] += verdict.states_explored
    counts["games.cops_states_max"] = max(counts["games.cops_states_max"], verdict.states_explored)


def _observe_ef(counts, verdict) -> None:
    counts["games.ef_states"] += verdict.states_explored


def _observe_r_set(counts, tuples) -> None:
    counts["selectors.r_tuples"] += len(tuples)


_OBSERVERS = {
    "games.cops_robber_wins": _observe_cops,
    "games.spoiler_wins": _observe_ef,
    "selectors.r_set": _observe_r_set,
}
