"""Shared fixtures: small-graph corpora and the acceptance summary hook."""

import itertools

import pytest

import wlpower as wl

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Accumulates one human-readable pass/fail line per criterion."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def classes4():
    return list(wl.connected_classes(4))


@pytest.fixture(scope="session")
def classes5():
    return list(wl.connected_classes(5))


@pytest.fixture(scope="session")
def classes6():
    return list(wl.connected_classes(6))


@pytest.fixture(scope="session")
def c6():
    return wl.cycle_graph(6)


@pytest.fixture(scope="session")
def two_c3():
    return wl.disjoint_union(wl.cycle_graph(3), wl.cycle_graph(3))


@pytest.fixture(scope="session")
def graphs5():
    """Every labelled graph on 1..5 nodes."""
    out = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            out.append(wl.Graph(n, [p for idx, p in enumerate(pairs) if bits >> idx & 1]))
    return out


@pytest.fixture(scope="session")
def graph_classes5(graphs5):
    """One labelled graph per isomorphism class on 1..5 nodes,
    disconnected ones included."""
    return list({wl.canonical_form(g): g for g in reversed(graphs5)}.values())
