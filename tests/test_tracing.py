"""The benchmark's span recorder against the package it wraps.

``perfbench/spans.py`` replaces module attributes by name, so renaming
one of them, or calling it through a reference bound at import, breaks
a traced benchmark run without failing any other test.  The recorder is
loaded from its file as it stands, without being changed.
"""

import importlib.util
from pathlib import Path

import pytest

import wlpower as wl
import wlpower.cli as cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("wlpower_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for name, homes in spans.TRACED.items():
        attr = name.split(".", 1)[1]
        for home in homes:
            module = getattr(wl, home) if home else wl
            assert callable(getattr(module, attr, None)), f"{name} on wlpower.{home}"


def test_traced_cli_call_records_every_cli_span(spans, tmp_path, monkeypatch, capsys):
    # Each cli.* span opens only if cli.main reaches the wrapped name
    # through the module's globals at call time.
    monkeypatch.delenv("WLPOWER_CACHE", raising=False)
    tracer = spans.Tracer()
    tracer.install(wl)
    try:
        argv = ["cops", "--spec", "fwl_k", "--g", "C~", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = set(tracer.summary()["spans"])
    assert {name for name in spans.TRACED if name.startswith("cli.")} <= recorded
    assert tracer.count_children("cli.main", "cli.run") == 2
