"""Planted defects for the package's own fast paths.

Each entry names a fast path, a wrong version of it and a judge: a test
helper that runs in-process on small inputs and is not a golden digest.
The judge must pass on the package as it is and fail with the wrong
version installed (by ``monkeypatch``), so a fast path whose breakage no
judge sees shows up here.
"""

import itertools
import random

import pytest

import wlpower as wl
from wlpower.games import _BijectionMoves, _pebble_order

CLASSES4 = wl.connected_classes(4)
TRUE_PUTS = _BijectionMoves.puts


def bijection_judge() -> list:
    """The bijection game against refinement (Theorem 2) on every
    unordered pair of classes n <= 4, equal pairs included, with the
    second graph relabeled, under the four built-in specs: the winner
    must follow ``distinguish`` and the certificate must replay.
    Returns the failures."""
    rng = random.Random(5)
    failures = []
    for name, spec in wl.BUILTIN_SPECS.items():
        for g, h in itertools.combinations_with_replacement(CLASSES4, 2):
            h = h.permuted(rng.sample(range(h.n), h.n))
            verdict = wl.spoiler_wins(spec, g, h)
            expected = "spoiler" if wl.distinguish(spec, g, h) else "duplicator"
            if verdict.winner != expected or not wl.replay_certificate(verdict, spec, (g, h)):
                failures.append((name, wl.emit_graph6(g), wl.emit_graph6(h), verdict.winner))
    return failures


def sides_sorted_apart(k: int, phase: tuple, pebbles: tuple) -> tuple:
    """A joint pebble order that sorts the g side and the h side each on
    its own, which breaks the (g node, h node) pairs."""
    if pebbles and isinstance(pebbles[0], tuple):  # the bijection game's pairs
        return tuple(zip(*(_pebble_order(k, phase, side) for side in zip(*pebbles))))
    return _pebble_order(k, phase, pebbles)


def puts_merged(self, key: tuple) -> tuple:
    """Puts deduplicated by canonical successor, which drops choice
    pairs that Duplicator's bijection needs."""
    count, puts = TRUE_PUTS(self, key)
    if puts is None:
        return count, None
    seen = set()
    kept = []
    for ai, bi, succ in puts:
        if succ not in seen:
            seen.add(succ)
            kept.append((ai, bi, succ))
    return count, kept


# name: (the fast path's import path, its wrong version, the judge)
PLANTED = {
    "joint-order-sides-sorted-apart": ("wlpower.games._pebble_order", sides_sorted_apart, bijection_judge),
    "bijection-puts-merged": ("wlpower.games._BijectionMoves.puts", puts_merged, bijection_judge),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_judge_catches_planted_defect(name, monkeypatch):
    target, wrong, judge = PLANTED[name]
    assert judge() == []
    monkeypatch.setattr(target, wrong)
    assert judge() != []
