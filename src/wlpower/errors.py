"""Exception types shared across the package, and the run deadline.

A wall-clock limit is set once per run with :func:`deadline`; the
solvers, the refinement loop, hom counting and the suites call
:func:`check_deadline` at their work-item boundaries, which raises
:class:`BudgetError` once the limit has passed.  The deadline lives in a
context variable, so it ends with the ``with`` block that set it and
never leaks into a later run in the same process or thread.
"""

import time
from contextlib import contextmanager
from contextvars import ContextVar


class GraphFormatError(ValueError):
    """Malformed graph input (graph6 line or JSON edge list).

    ``offset`` is the byte offset of the offending character when the
    problem can be localized, else ``None``.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigurationError(ValueError):
    """Illegal selector/spec combination (arity violations, bad index
    sequences, containment preconditions)."""


class DomainError(ValueError):
    """Operation argument outside its domain (node out of range, pin to a
    missing node, prefix longer than tuples)."""


class BudgetError(RuntimeError):
    """A configured resource budget was exceeded.

    ``stats`` carries partial progress (states explored, nodes reached)
    so callers can report how far the computation got.
    """

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = dict(stats or {})


# (start, limit_ms) of the current run, start from time.perf_counter().
_DEADLINE: ContextVar[tuple[float, int] | None] = ContextVar("wlpower_deadline", default=None)


@contextmanager
def deadline(limit_ms: int | None, start: float):
    """Run the block under a wall-clock limit of ``limit_ms`` counted
    from ``start``; ``None`` runs it without one."""
    token = _DEADLINE.set(None if limit_ms is None else (start, limit_ms))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`BudgetError` if the current run's limit has passed."""
    current = _DEADLINE.get()
    if current is not None:
        elapsed_ms = (time.perf_counter() - current[0]) * 1000
        if elapsed_ms > current[1]:
            raise BudgetError("time limit exceeded", stats={"elapsed_ms": int(elapsed_ms)})


class ClosureError(RuntimeError):
    """A replacement tuple fell outside the colored tuple universe.

    The refinement update assumes every replacement of a colored tuple is
    itself colored; violating selector combinations are rejected loudly
    instead of being silently recolored.  ``violations`` lists them all
    (``v``, ``u``, ``choice``, ``replacement``); the message names the first.
    """

    def __init__(self, violations: list):
        super().__init__("replacement {replacement} of v={v} by u={u} (choice index {choice})"
                         " lies outside the colored tuple universe".format(**violations[0]))
        self.violations = violations


class CertificateError(ValueError):
    """A strategy certificate is malformed or does not match its game."""
