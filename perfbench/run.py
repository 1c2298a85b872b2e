"""Benchmark for the wlpower package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload power-n7 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One run is one fresh process for one workload.  It sets up several
times (fresh import of ``wlpower`` from ``src/``, seeded inputs, warm
class cache) and reports the median set-up time, then runs the timed
body a fixed number of times, about ``--seconds`` of body time on a
2-vCPU VM (the same count on every run, so every run of a workload
attempts the same operations), checks every body's outputs and prints
the end-to-end metrics (``--trace 0``) or, after one more body under
the span recorder, the per-layer metrics (``--trace 1``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A result file with
provenance and raw samples goes to ``perfbench/out/``.
``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

# Set-up runs at least SETUP_MIN times and then again while the total is
# under SETUP_BUDGET_S, so that a short set-up is still a median of many.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 2.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


PER_LAYER = {
    "games.cops_calls": "count",
    "games.cops_s": "s",
    "games.cops_states": "count",
    "games.cops_states_max": "count",
    "games.ef_calls": "count",
    "games.ef_s": "s",
    "games.ef_states": "count",
    "games.replay_calls": "count",
    "games.replay_s": "s",
    "refinement.distinguish_calls": "count",
    "refinement.distinguish_s": "s",
    "graphs.treewidth_calls": "count",
    "graphs.treewidth_s": "s",
    "graphs.hom_count_calls": "count",
    "graphs.hom_count_s": "s",
    "graphs.enumerate_s": "s",
    "graphs.canonical_form_calls": "count",
    "graphs.canonical_form_s": "s",
    "graphs.enumerate_yield": "ratio",
    "selectors.r_set_calls": "count",
    "selectors.f_set_calls": "count",
    "selectors.r_tuples": "count",
    "selectors.s": "s",
    "cli.requests": "count",
    "cli.cache_hit_ratio": "ratio",
    "cli.hit_p50_ms": "ms",
    "cli.miss_p50_ms": "ms",
    "cli.cache_entries": "count",
    "cli.cache_bytes": "bytes",
    "cli.echo_mismatch": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})


# ---------------------------------------------------------------------------
# Provenance


def git_sha() -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the package source, which identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "wlpower").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": sys.version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


# ---------------------------------------------------------------------------
# One workload in this process


def fresh_import():
    """Import ``wlpower`` from ``src/`` as if for the first time."""
    for name in [m for m in sys.modules if m == "wlpower" or m.startswith("wlpower.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    wl = importlib.import_module("wlpower")
    importlib.import_module("wlpower.cli")
    if Path(wl.__file__).resolve().parent != SRC / "wlpower":
        raise ImportError(f"wlpower imported from {wl.__file__}, not from {SRC}")
    return wl


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def body_count(workload, seconds: float) -> int:
    """Bodies in one run: a function of ``seconds`` alone, so that the
    operations a run attempts do not depend on the machine's speed."""
    return max(1, round(seconds / workload.BODY_S))


def run_bodies(workload, wl, state: dict, seconds: float, checks: Checks):
    """Run the timed body ``body_count`` times; check each body's outputs
    outside the timed region."""
    walls, latencies, items = [], [], 0
    for _ in range(body_count(workload, seconds)):
        if walls and hasattr(workload, "next_body"):
            workload.next_body(state)
        t0 = time.perf_counter()
        out, request_s, n_items = workload.body(wl, state)
        walls.append(time.perf_counter() - t0)
        workload.check(wl, state, out, checks)
        latencies += walls[-1:] if request_s is None else request_s
        items += n_items
    return walls, latencies, items


def end_to_end(setups, walls, latencies, items) -> dict:
    ms = [s * 1000 for s in latencies]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": items / sum(walls),
        "request_p50_ms": percentile(ms, 50),
        "request_p99_ms": percentile(ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, wl, seed: int, untraced_wall: float, spans_path: Path) -> dict:
    """Set up and run the body once more under the span recorder and
    derive the per-layer metrics from the spans."""
    wl.power.connected_classes.cache_clear()
    tracer = Tracer()
    tracer.install(wl)
    try:
        with tracer.span("bench.setup"):
            state = workload.setup(wl, seed)
        t0 = time.perf_counter()
        with tracer.span("bench.body"):
            out, request_s, items = workload.body(wl, state)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    checks = Checks()
    workload.check(wl, state, out, checks)
    tracer.write(spans_path)
    summary = tracer.summary()
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def inclusive(name):
        return spans.get(name, {}).get("s", 0.0)

    canon_in_enum = tracer.count_children("graphs.enumerate_connected_graphs", "graphs.canonical_form")
    hits = out.get("hits", [])
    hit_ms = [s * 1000 for s, hit in zip(request_s or [], hits) if hit]
    miss_ms = [s * 1000 for s, hit in zip(request_s or [], hits) if not hit]
    metrics = {
        "games.cops_calls": calls("games.cops_robber_wins"),
        "games.cops_s": inclusive("games.cops_robber_wins"),
        "games.cops_states": counts.get("games.cops_states", 0),
        "games.cops_states_max": counts.get("games.cops_states_max", 0),
        "games.ef_calls": calls("games.spoiler_wins"),
        "games.ef_s": inclusive("games.spoiler_wins"),
        "games.ef_states": counts.get("games.ef_states", 0),
        "games.replay_calls": calls("games.replay_certificate"),
        "games.replay_s": inclusive("games.replay_certificate"),
        "refinement.distinguish_calls": calls("refinement.distinguish"),
        "refinement.distinguish_s": inclusive("refinement.distinguish"),
        "graphs.treewidth_calls": calls("graphs.treewidth"),
        "graphs.treewidth_s": inclusive("graphs.treewidth"),
        "graphs.hom_count_calls": calls("graphs.hom_count"),
        "graphs.hom_count_s": inclusive("graphs.hom_count"),
        "graphs.enumerate_s": inclusive("graphs.enumerate_connected_graphs"),
        "graphs.canonical_form_calls": calls("graphs.canonical_form"),
        "graphs.canonical_form_s": inclusive("graphs.canonical_form"),
        "graphs.enumerate_yield": (
            counts.get("graphs.enumerate_connected_graphs.yield", 0) / canon_in_enum if canon_in_enum else 0.0
        ),
        "selectors.r_set_calls": calls("selectors.r_set"),
        "selectors.f_set_calls": calls("selectors.f_set"),
        "selectors.r_tuples": counts.get("selectors.r_tuples", 0),
        "selectors.s": inclusive("selectors.r_set") + inclusive("selectors.f_set"),
        "cli.requests": calls("cli.main"),
        "cli.cache_hit_ratio": len(hit_ms) / len(hits) if hits else 0.0,
        "cli.hit_p50_ms": statistics.median(hit_ms) if hit_ms else 0.0,
        "cli.miss_p50_ms": statistics.median(miss_ms) if miss_ms else 0.0,
        "cli.cache_entries": out.get("cache_entries", 0),
        "cli.cache_bytes": out.get("cache_bytes", 0),
        "cli.echo_mismatch": checks.failures["echo_mismatch_on_hit"] + checks.failures["echo_mismatch_on_miss"],
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    return {
        "metrics": metrics,
        "checks": checks,
        "items": items,
        "spans": spans,
        "counts": counts,
        "traced_wall_s": traced_wall,
    }


def run_one(args) -> int:
    if not (SRC / "wlpower" / "__init__.py").is_file():
        print(f"error: no wlpower package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("WLPOWER_CACHE", None)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.size, workdir)
    try:
        setups = []
        while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
            t0 = time.perf_counter()
            wl = fresh_import()
            state = workload.setup(wl, args.seed)
            setups.append(time.perf_counter() - t0)
        checks = Checks()
        walls, latencies, items = run_bodies(workload, wl, state, args.seconds, checks)
        result = {
            "provenance": provenance(args),
            "samples": {"setup_s": setups, "wall_s": walls, "request_ms": [s * 1000 for s in latencies]},
        }
        if args.trace:
            # The first body had the same inputs as the traced one.
            traced = traced_run(workload, wl, args.seed, walls[0], OUT / f"spans-{tag}.json.gz")
            metrics, units = traced["metrics"], PER_LAYER
            checks.merge(traced["checks"])
            items += traced["items"]
            result["trace"] = {k: traced[k] for k in ("spans", "counts", "traced_wall_s")}
        else:
            metrics, units = end_to_end(setups, walls, latencies, items), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # One operation can fail several checks; it counts once at most.
    attempted, failed = items, min(checks.failed, items)
    result.update(
        {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "failures": dict(checks.failures),
            "errors": checks.errors[:20],
            "correct": checks.correct,
        }
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} bodies={len(walls)} items={items} "
          f"request_samples={len(latencies)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    for name, count in sorted(checks.failures.items()):
        print(f"  failed.{name} = {count}")
    for line in checks.errors[:5]:
        print(f"  error: {line}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in its own process


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a few classes, for self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
