"""Self-tests of the benchmark: every workload at a tiny size, every
output check against a planted wrong answer, the span recorder, the
printed result and the failure outside a full checkout.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, canonical, gnp, graph6, relabel  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def flip_first(fn, flips: dict):
    """Wrap a solver so that the first verdict it returns has its winner
    swapped by ``flips``."""
    done = []

    def wrapper(*args, **kwargs):
        verdict = fn(*args, **kwargs)
        if not done and verdict.winner in flips:
            done.append(True)
            verdict.winner = flips[verdict.winner]
        return verdict

    return wrapper


def first_call_returns(fn, change):
    done = []

    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        if not done:
            done.append(True)
            value = change(value)
        return value

    return wrapper


class WorkloadChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.OUT.mkdir(exist_ok=True)
        cls.wl = bench.fresh_import()

    def run_tiny(self, name: str, seed: int = 3) -> Checks:
        workdir = bench.OUT / f"selftest-{name}-{os.getpid()}"
        self.addCleanup(shutil.rmtree, workdir, True)
        workload = WORKLOADS[name]("tiny", workdir)
        state = workload.setup(self.wl, seed)
        out, latencies, items = workload.body(self.wl, state)
        self.assertGreater(items, 0)
        self.assertTrue(latencies is None or len(latencies) == WORKLOADS[name].SIZES["tiny"]["requests"])
        checks = Checks()
        workload.check(self.wl, state, out, checks)
        return checks

    def assert_fires(self, checks: Checks, name: str) -> None:
        self.assertIn(name, checks.failures, dict(checks.failures))
        self.assertFalse(checks.correct)

    # -- power-n7 ----------------------------------------------------------

    def test_power_clean(self):
        checks = self.run_tiny("power-n7")
        self.assertEqual(dict(checks.failures), {})
        self.assertTrue(checks.correct)

    def test_power_flipped_pursuit_verdict(self):
        flipped = flip_first(self.wl.power.cops_robber_wins, {"cops": "robber"})
        with mock.patch.object(self.wl.power, "cops_robber_wins", flipped):
            self.assert_fires(self.run_tiny("power-n7"), "treewidth_k1.mismatch")

    def test_power_dropped_cops_win(self):
        def drop_one(report):
            report = copy.copy(report)
            report.cops_win = report.cops_win[1:]
            return report

        wrapped = first_call_returns(self.wl.enumerate_power, drop_one)
        with mock.patch.object(self.wl, "enumerate_power", wrapped):
            self.assert_fires(self.run_tiny("power-n7"), "drfwl2_1.cops_count")

    def test_power_outside_treewidth_two(self):
        def swap_one(report):
            report = copy.copy(report)
            report.cops_win = report.cops_win[:-1] + [graph6(5, [(i, j) for j in range(5) for i in range(j)])]
            return report

        wrapped = first_call_returns(self.wl.enumerate_power, swap_one)
        with mock.patch.object(self.wl, "enumerate_power", wrapped):
            self.assert_fires(self.run_tiny("power-n7"), "drfwl2_1.cops_outside_tw2")

    def test_power_failed_replay(self):
        wrapped = first_call_returns(self.wl.replay_certificate, lambda ok: False)
        with mock.patch.object(self.wl, "replay_certificate", wrapped):
            self.assert_fires(self.run_tiny("power-n7"), "certificate.replay")

    def test_power_certificate_verdict(self):
        def flip_with_certificate(verdict):
            verdict.winner = "robber" if verdict.winner == "cops" else "cops"
            verdict.certificate = None
            return verdict

        wrapped = first_call_returns(self.wl.cops_robber_wins, flip_with_certificate)
        with mock.patch.object(self.wl, "cops_robber_wins", wrapped):
            self.assert_fires(self.run_tiny("power-n7"), "certificate")

    # -- suites-n6 ---------------------------------------------------------

    def test_suites_clean(self):
        checks = self.run_tiny("suites-n6")
        self.assertEqual(dict(checks.failures), {})

    def test_suites_flipped_refinement_verdict(self):
        wrapped = first_call_returns(self.wl.power.distinguish, lambda d: not d)
        with mock.patch.object(self.wl.power, "distinguish", wrapped):
            checks = self.run_tiny("suites-n6")
        self.assertFalse(checks.correct)
        self.assertTrue(any(name.startswith("sound_local_1fwl") for name in checks.failures))

    def test_suites_flipped_bijection_verdict(self):
        flipped = flip_first(self.wl.power.spoiler_wins, {"spoiler": "duplicator", "duplicator": "spoiler"})
        with mock.patch.object(self.wl.power, "spoiler_wins", flipped):
            self.assert_fires(self.run_tiny("suites-n6"), "t2_local_1fwl.mismatch")

    def test_suites_short_report(self):
        def shorten(report):
            report = copy.copy(report)
            report.cases_run -= 1
            return report

        wrapped = first_call_returns(self.wl.validate_theorem2, shorten)
        with mock.patch.object(self.wl, "validate_theorem2", wrapped):
            self.assert_fires(self.run_tiny("suites-n6"), "t2_local_1fwl.cases_run")

    def test_suites_game_vs_isomorphism(self):
        def flip_with_certificate(verdict):
            verdict.winner = "duplicator" if verdict.winner == "spoiler" else "spoiler"
            verdict.certificate = dict(verdict.certificate, winner=verdict.winner)
            return verdict

        wrapped = first_call_returns(self.wl.spoiler_wins, flip_with_certificate)
        with mock.patch.object(self.wl, "spoiler_wins", wrapped):
            checks = self.run_tiny("suites-n6")
        self.assertFalse(checks.correct)
        self.assertTrue({"certificate", "certificate.replay", "certificate.vs_isomorphism"} & set(checks.failures))

    # -- cli-cached --------------------------------------------------------

    def test_cli_only_known_echo_defect(self):
        checks = self.run_tiny("cli-cached")
        # Relabeled cache hits echo the first input's graph6; every repeat,
        # half of the requests, is one, whatever the seed.
        self.assertEqual(checks.failures["echo_mismatch_on_hit"], WORKLOADS["cli-cached"].SIZES["tiny"]["requests"] // 2)
        self.assertEqual(set(checks.failures), {"echo_mismatch_on_hit"})
        self.assertTrue(checks.correct)

    def test_cli_flipped_pursuit_verdict(self):
        flipped = flip_first(self.wl.cli.cops_robber_wins, {"cops": "robber", "robber": "cops"})
        with mock.patch.object(self.wl.cli, "cops_robber_wins", flipped):
            self.assert_fires(self.run_tiny("cli-cached"), "cops_vs_treewidth")

    def test_cli_cache_hit_changes_verdict(self):
        original = self.wl.cli.cache_lookup

        def lookup(cache_dir, key):
            payload = original(cache_dir, key)
            if payload is not None:
                for field in ("winner", "distinguished", "count"):
                    if field in payload:
                        payload[field] = ["changed"]
            return payload

        with mock.patch.object(self.wl.cli, "cache_lookup", lookup):
            self.assert_fires(self.run_tiny("cli-cached"), "verdict_vs_first")

    def test_cli_echo_on_miss(self):
        wrapped = first_call_returns(self.wl.cli.emit_graph6, lambda text: text + "?")
        with mock.patch.object(self.wl.cli, "emit_graph6", wrapped):
            self.assert_fires(self.run_tiny("cli-cached"), "echo_mismatch_on_miss")

    def test_cli_failed_request(self):
        wrapped = first_call_returns(self.wl.cli.main, lambda code: 3)
        with mock.patch.object(self.wl.cli, "main", wrapped):
            self.assert_fires(self.run_tiny("cli-cached"), "exit_code")

    # -- inputs ------------------------------------------------------------

    def test_graph6_matches_package_codec(self):
        rng = random.Random(5)
        for _ in range(200):
            n, edges = gnp(rng.randint(1, 9), rng)
            text = graph6(n, edges)
            self.assertEqual(self.wl.emit_graph6(self.wl.parse_graph6(text)), text)
            self.assertEqual(self.wl.parse_graph6(text), self.wl.Graph(n, edges))

    def test_canonical_labeling(self):
        rng = random.Random(6)
        classes: dict = {}
        for _ in range(300):
            g = gnp(rng.randint(1, 8), rng)
            self.assertEqual(canonical(*relabel(*g, rng)), canonical(*g))
            key = self.wl.canonical_form(self.wl.parse_graph6(graph6(*g)))
            self.assertEqual(classes.setdefault(key, canonical(*g)), canonical(*g))

    def test_inputs_follow_seed(self):
        workload = WORKLOADS["cli-cached"]("tiny", bench.OUT / "unused")
        self.assertEqual(workload.setup(self.wl, 8), workload.setup(self.wl, 8))
        state = workload.setup(self.wl, 8)
        workload.next_body(state)
        self.assertNotEqual(state["requests"], workload.setup(self.wl, 8)["requests"])
        self.assertNotEqual(workload.setup(self.wl, 8), workload.setup(self.wl, 9))


class SpanRecorder(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        clock = iter([0.0, 1.0, 3.0, 4.0, 10.0, 12.0])
        with mock.patch("spans.time.perf_counter", lambda: next(clock)):
            with tracer.span("power.outer"):
                with tracer.span("games.inner"):
                    pass
                with tracer.span("graphs.leaf"):
                    pass
        summary = tracer.summary()
        self.assertEqual(summary["spans"]["power.outer"]["s"], 12.0)
        self.assertEqual(summary["layer_self_s"], {"power": 4.0, "games": 2.0, "graphs": 6.0})

    def test_generator_span_parents_its_children(self):
        tracer = Tracer()
        leaf = tracer.wrap("graphs.canonical_form", lambda x: x)

        def gen():
            for i in range(3):
                leaf(i)
                yield i

        wrapped = tracer.wrap("graphs.enumerate_connected_graphs", gen)
        with tracer.span("power.connected_classes"):
            self.assertEqual(list(wrapped()), [0, 1, 2])
        self.assertEqual(tracer.count_children("graphs.enumerate_connected_graphs", "graphs.canonical_form"), 3)
        self.assertEqual(tracer.count_children("power.connected_classes", "graphs.enumerate_connected_graphs"), 1)
        self.assertEqual(tracer.counts["graphs.enumerate_connected_graphs.yield"], 3)

    def test_install_restores_originals(self):
        wl = bench.fresh_import()
        before = (wl.cli.canonical_form, wl.refinement.f_set, wl.cops_robber_wins)
        tracer = Tracer()
        tracer.install(wl)
        self.assertIsNot(wl.refinement.f_set, before[1])
        tracer.uninstall()
        self.assertEqual((wl.cli.canonical_form, wl.refinement.f_set, wl.cops_robber_wins), before)


class CommandLine(unittest.TestCase):
    def run_bench(self, *args, cwd=ROOT, script=HERE / "run.py"):
        return subprocess.run(
            [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
        )

    def test_result_line_carries_every_metric(self):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
            for workload in BENCHMARK["workloads"]:
                proc = self.run_bench("--workload", workload["name"], "--seed", "4", "--seconds", "0.1",
                                      "--trace", trace, "--size", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                got = {name: entry["unit"] for name, entry in result["metrics"].items()}
                self.assertEqual(got, expected)
                if trace == "0":
                    self.assertTrue(all(entry["value"] > 0 for entry in result["metrics"].values()))

    def test_fails_without_the_package(self):
        bare = bench.OUT / f"selftest-bare-{os.getpid()}"
        self.addCleanup(shutil.rmtree, bare, True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = self.run_bench("--workload", "power-n7", "--seed", "1", "--seconds", "1",
                              cwd=bare, script=bare / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
