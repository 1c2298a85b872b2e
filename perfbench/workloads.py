"""The benchmark workloads: seeded inputs, the timed body, output checks.

Each workload has three steps, and ``BODY_S``, the time of one body on
a 2-vCPU x86-64 VM, from which a run sets its number of bodies.
``setup`` makes the seeded inputs and warms ``connected_classes`` for
every node bound the body uses.
``body`` is the timed region; it returns the program's outputs, one
latency sample per request (``None`` for the batch workloads, whose
request is the whole body) and the number of items done.  ``check`` compares those outputs with
independent oracles outside the timed region and counts every failure
by name.  The program only sees graph6 strings, specs and argv; graphs
are relabeled and generated here, from the seed.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from collections import Counter
from pathlib import Path

# Connected isomorphism classes on 1..n nodes (partial sums of OEIS
# A001349: 1, 1, 2, 6, 21, 112, 853).
CLASSES_UP_TO = {1: 1, 2: 2, 3: 4, 4: 10, 5: 31, 6: 143, 7: 996}

# Failures that leave ``correct`` true.  An echo mismatch on a cache hit
# is the known defect of the disk cache (a hit returns the payload stored
# for an isomorphic input, with that input's graph6): it counts in
# ``failed`` and is reported by name.  Every other failed check,
# including an echo mismatch on a cache miss, makes the run incorrect.
TOLERATED = frozenset({"echo_mismatch_on_hit"})


def pairs(count: int) -> int:
    return count * (count - 1) // 2


# ---------------------------------------------------------------------------
# Seeded graph inputs (benchmark-side; no program code involved)


def graph6(n: int, edges) -> str:
    """Short-form graph6 of a labeled graph on nodes 0..n-1."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for pos in range(0, len(bits), 6):
        val = 0
        for b in bits[pos:pos + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def relabel(n: int, edges, rng: random.Random) -> tuple[int, tuple]:
    perm = list(range(n))
    rng.shuffle(perm)
    return n, tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))


def gnp(n: int, rng: random.Random) -> tuple[int, tuple]:
    """G(n, 1/2)."""
    return n, tuple((i, j) for j in range(n) for i in range(j) if rng.random() < 0.5)


def canonical(n: int, edges) -> tuple[int, tuple]:
    """The labeled copy of a graph whose graph6 is smallest among the
    leaves of a color-refinement search, so isomorphic graphs give the
    same copy.  A partition whose cells are homogeneous (adjacency
    constant inside each cell and between each pair of cells) is a leaf:
    every order within its cells gives the same graph."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = []

    def refine(colors: list[int]) -> list[int]:
        while True:
            sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
            ids = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            new = [ids[sig] for sig in sigs]
            if len(ids) == len(set(colors)):
                return new
            colors = new

    def homogeneous(cells) -> bool:
        return all(
            len({v in adj[u] for u in a for v in b if u != v}) <= 1 for i, a in enumerate(cells) for b in cells[i:]
        )

    def search(colors: list[int]) -> None:
        colors = refine(colors)
        cells = [[v for v in range(n) if colors[v] == c] for c in range(max(colors, default=-1) + 1)]
        if homogeneous(cells):
            position = {v: i for i, v in enumerate(v for cell in cells for v in cell)}
            copy = tuple(sorted((min(position[u], position[v]), max(position[u], position[v])) for u, v in edges))
            leaves.append((graph6(n, copy), copy))
            return
        for v in next(cell for cell in cells if len(cell) > 1):
            search([2 * c - (u == v) for u, c in enumerate(colors)])

    search([0] * n)
    return n, min(leaves)[1]


def relabelable(n: int, edges) -> bool:
    """Some permutation changes the graph6: the graph is neither empty
    nor complete."""
    return 0 < len(edges) < n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Failure accounting


class Checks:
    """Failure counts by check name, over ``attempted`` operations."""

    def __init__(self):
        self.failures: Counter = Counter()
        self.errors: list[str] = []

    def expect(self, name: str, ok: bool, count: int = 1) -> bool:
        if not ok:
            self.failures[name] += count
        return ok

    def error(self, name: str, exc: BaseException) -> None:
        self.failures[name] += 1
        self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def merge(self, other: "Checks") -> None:
        self.failures.update(other.failures)
        self.errors += other.errors

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return all(name in TOLERATED for name in self.failures)


def _attempt(out: dict, key: str, fn, *args, **kwargs) -> None:
    """Run one body operation; an exception is stored as its output."""
    try:
        out[key] = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by check()
        out[key] = exc


def _report_ok(checks: Checks, name: str, report, cases: int) -> None:
    if isinstance(report, Exception):
        checks.error(name, report)
        return
    checks.expect(name + ".mismatch", report.passed, max(1, len(report.mismatches)))
    checks.expect(name + ".cases_run", report.cases_run == cases)


def _certificate_items(wl, solve, spec, inputs) -> list:
    """Solve each input with a certificate and replay it; one
    ``(winner, replayed)`` row per input."""
    rows = []
    for item in inputs:
        try:
            verdict = solve(spec, *item, want_certificate=True)
            rows.append((verdict.winner, wl.replay_certificate(verdict, spec, item[0] if len(item) == 1 else item)))
        except Exception as exc:  # counted as a failed operation by check()
            rows.append((exc, False))
    return rows


# ---------------------------------------------------------------------------
# power-n7: the pursuit solver over every connected class up to n


class PowerSweep:
    name = "power-n7"
    BODY_S = 21.0
    SIZES = {
        # k=1 Cops wins are the trees; the others are pinned counts.
        "full": {"n": 7, "n_cert": 6, "cops_k1": 25, "cops_k2": 321, "cops_dr": 178},
        "tiny": {"n": 5, "n_cert": 4, "cops_k1": 8, "cops_k2": 24, "cops_dr": 19},
    }

    def __init__(self, size: str, workdir: Path):
        self.size = self.SIZES[size]

    def setup(self, wl, seed: int) -> dict:
        wl.connected_classes(self.size["n"])
        rng = random.Random(seed)
        cert = [
            wl.parse_graph6(graph6(*relabel(g.n, g.edge_set, rng)))
            for g in wl.connected_classes(self.size["n_cert"])
        ]
        return {"cert_graphs": cert}

    def body(self, wl, state: dict) -> tuple[dict, list[float] | None, int]:
        n = self.size["n"]
        out: dict = {}
        _attempt(out, "tw1", wl.compare_to_treewidth, 1, n)
        _attempt(out, "tw2", wl.compare_to_treewidth, 2, n)
        _attempt(out, "dr", wl.enumerate_power, wl.drfwl2_spec(1), n)
        out["cert"] = _certificate_items(
            wl, wl.cops_robber_wins, wl.fwl_spec(2), [(g,) for g in state["cert_graphs"]]
        )
        return out, None, 3 * CLASSES_UP_TO[n] + len(state["cert_graphs"])

    def check(self, wl, state: dict, out: dict, checks: Checks) -> None:
        size = self.size
        classes = wl.connected_classes(size["n"])
        if "widths" not in state:
            state["widths"] = {wl.emit_graph6(g): wl.treewidth(g) for g in classes}
        widths = state["widths"]
        checks.expect("classes", len(classes) == CLASSES_UP_TO[size["n"]])
        for k, key in ((1, "tw1"), (2, "tw2")):
            _report_ok(checks, f"treewidth_k{k}", out[key], CLASSES_UP_TO[size["n"]])
            cops = sum(1 for w in widths.values() if w <= k)
            checks.expect(f"treewidth_k{k}.cops_count", cops == size[f"cops_k{k}"])
        report = out["dr"]
        if isinstance(report, Exception):
            checks.error("drfwl2_1", report)
        else:
            checks.expect("drfwl2_1.complete", report.complete)
            checks.expect("drfwl2_1.cops_count", len(report.cops_win) == size["cops_dr"])
            outside = [key for key in report.cops_win if widths.get(key, 99) > 2]
            checks.expect("drfwl2_1.cops_outside_tw2", not outside, max(1, len(outside)))
        for g, (winner, replayed) in zip(state["cert_graphs"], out["cert"]):
            if isinstance(winner, Exception):
                checks.error("certificate", winner)
                continue
            checks.expect("certificate.replay", replayed is True)
            checks.expect("certificate.vs_treewidth", (winner == "cops") == (wl.treewidth(g) <= 2))


# ---------------------------------------------------------------------------
# suites-n6: the refinement engine under the validation suites


class Suites:
    name = "suites-n6"
    BODY_S = 13.0
    SIZES = {
        "full": {"sound": (6, 6), "sound2": (5, 6), "t2": 4, "t2_local": 5, "undistinguished": 3},
        "tiny": {"sound": (4, 4), "sound2": (3, 4), "t2": 3, "t2_local": 4, "undistinguished": 0},
    }

    def __init__(self, size: str, workdir: Path):
        self.size = self.SIZES[size]

    def setup(self, wl, seed: int) -> dict:
        size = self.size
        for n in sorted({*size["sound"], *size["sound2"], size["t2"], size["t2_local"]}, reverse=True):
            wl.connected_classes(n)
        rng = random.Random(seed)
        classes = wl.connected_classes(size["t2"])
        parse = wl.parse_graph6
        game_pairs = []
        for i, g in enumerate(classes):
            game_pairs.append(
                (parse(graph6(*relabel(g.n, g.edge_set, rng))), parse(graph6(*relabel(g.n, g.edge_set, rng))), True)
            )
            for h in classes[i + 1:]:
                game_pairs.append(
                    (parse(graph6(*relabel(g.n, g.edge_set, rng))), parse(graph6(*relabel(h.n, h.edge_set, rng))), False)
                )
        return {"seed": seed, "game_pairs": game_pairs}

    def body(self, wl, state: dict) -> tuple[dict, list[float] | None, int]:
        size = self.size
        out: dict = {}
        _attempt(out, "sound_local_1fwl", wl.validate_soundness, wl.local_fwl_spec(1), *size["sound"])
        _attempt(out, "sound_2fwl", wl.validate_soundness, wl.fwl_spec(2), *size["sound2"])
        for name, spec in wl.BUILTIN_SPECS.items():
            _attempt(out, "t2_" + name, wl.validate_theorem2, spec, size["t2"], seed=state["seed"])
        _attempt(out, "t2_local_1fwl_wide", wl.validate_theorem2, wl.local_fwl_spec(1), size["t2_local"], seed=state["seed"])
        out["cert"] = _certificate_items(
            wl, wl.spoiler_wins, wl.fwl_spec(2), [(g, h) for g, h, _ in state["game_pairs"]]
        )
        return out, None, sum(self.expected_cases().values()) + len(state["game_pairs"])

    def expected_cases(self) -> dict:
        size = self.size
        cases = {
            "sound_local_1fwl": pairs(CLASSES_UP_TO[size["sound"][0]]),
            "sound_2fwl": pairs(CLASSES_UP_TO[size["sound2"][0]]),
            "t2_local_1fwl_wide": CLASSES_UP_TO[size["t2_local"]] + pairs(CLASSES_UP_TO[size["t2_local"]]),
        }
        for name in ("local_1fwl", "2fwl", "local_2fwl", "drfwl2_1"):
            cases["t2_" + name] = CLASSES_UP_TO[size["t2"]] + pairs(CLASSES_UP_TO[size["t2"]])
        return cases

    def check(self, wl, state: dict, out: dict, checks: Checks) -> None:
        for key, cases in self.expected_cases().items():
            _report_ok(checks, key, out[key], cases)
        report = out["sound_local_1fwl"]
        if not isinstance(report, Exception):
            checks.expect(
                "sound_local_1fwl.undistinguished",
                report.coverage.get("undistinguished_pairs") == self.size["undistinguished"],
            )
        # At n <= 4, 2-FWL separates exactly the non-isomorphic pairs,
        # and the pairs were built isomorphic or not.
        for (_, _, same), (winner, replayed) in zip(state["game_pairs"], out["cert"]):
            if isinstance(winner, Exception):
                checks.error("certificate", winner)
                continue
            checks.expect("certificate.replay", replayed is True)
            checks.expect("certificate.vs_isomorphism", (winner == "duplicator") == same)


# ---------------------------------------------------------------------------
# cli-cached: one closed-loop client calling cli.main with a disk cache


class CliCached:
    name = "cli-cached"
    BODY_S = 9.0
    SIZES = {"full": {"requests": 1000}, "tiny": {"requests": 40}}
    # Share of fresh requests per command.  Shares, node counts and the
    # fresh/repeat split are exact in every run (stratified), so a seed
    # changes the graphs and the order, not the mix.
    #
    # Fresh graphs are sent in their canonical labeling, so a fresh
    # request isomorphic to an earlier one sends the same graph6 and its
    # cache hit echoes it correctly.  Every repeat is relabeled until its
    # graph6 differs from the first request of its group, so every repeat
    # is a relabeled cache hit.  The echo defect therefore fails exactly
    # the repeats, half of the requests, whatever the seed.
    MIX = (("cops", 0.40), ("distinguish", 0.25), ("ef", 0.15), ("hom", 0.20))
    EF_SAME = 0.3
    ECHO = {"cops": ("graph",), "distinguish": ("g", "h"), "ef": ("g", "h"), "hom": ("pattern", "target")}
    VERDICT = {"cops": "winner", "distinguish": "distinguished", "ef": "winner", "hom": "count"}

    def __init__(self, size: str, workdir: Path):
        self.size = self.SIZES[size]
        self.workdir = workdir

    def setup(self, wl, seed: int) -> dict:
        return {"seed": seed, "body": 0, "requests": self.stream(random.Random(seed))}

    def next_body(self, state: dict) -> None:
        """Later bodies of a run send a stream of their own."""
        state["body"] += 1
        state["requests"] = self.stream(random.Random(f"{state['seed']}/{state['body']}"))

    def stream(self, rng: random.Random) -> list[tuple[str, list[str]]]:
        total = self.size["requests"]
        fresh = self.fresh_requests(total - total // 2, rng)
        order = [False] * (total - len(fresh)) + [True] * (len(fresh) - 1)
        rng.shuffle(order)
        # Repeats are drawn from the requests that a relabeling can change,
        # which the first request is.
        first = fresh.pop(next(i for i, (_, graphs) in enumerate(fresh) if any(relabelable(*g) for g in graphs)))
        requests: list[tuple[str, list]] = [first]
        changeable: list[tuple[str, list]] = [first]
        for is_fresh in order:
            if is_fresh:
                requests.append(fresh.pop())
                if any(relabelable(*g) for g in requests[-1][1]):
                    changeable.append(requests[-1])
            else:
                command, graphs = changeable[rng.randrange(len(changeable))]
                while True:
                    copy = [relabel(n, edges, rng) for n, edges in graphs]
                    if copy != graphs:
                        break
                requests.append((command, copy))
                changeable.append((command, graphs))
        return [(command, [graph6(*g) for g in graphs]) for command, graphs in requests]

    def fresh_requests(self, count: int, rng: random.Random) -> list[tuple[str, list]]:
        def spread(k: int, *axes) -> list:
            """k tuples cycling through every axis at once, shuffled: the
            count of each value, and of each combination when the axis
            lengths are coprime, is the same for every seed."""
            seq = [tuple(axis[i % len(axis)] for axis in axes) for i in range(k)]
            rng.shuffle(seq)
            return seq

        def graph(n: int) -> tuple[int, tuple]:
            return canonical(*gnp(n, rng))

        shares = {command: round(share * count) for command, share in self.MIX}
        shares["hom"] = count - sum(shares.values()) + shares["hom"]
        out = [("cops", [graph(n)]) for n, in spread(shares["cops"], range(4, 8))]
        out += [("distinguish", [graph(n), graph(n)]) for n, in spread(shares["distinguish"], range(4, 8))]
        same = [i < round(self.EF_SAME * shares["ef"]) for i in range(shares["ef"])]
        for n, is_same in spread(shares["ef"], range(4, 7), same):
            g = graph(n)
            if is_same:
                # The relabeled copy depends on the class only, like g itself.
                out.append(("ef", [g, relabel(*g, random.Random(graph6(*g)))]))
                continue
            h = graph(n)
            while h == g:  # the other pairs are not isomorphic
                h = graph(n)
            out.append(("ef", [g, h]))
        out += [("hom", [graph(p), graph(t)]) for p, t in spread(shares["hom"], range(3, 6), range(5, 9))]
        rng.shuffle(out)
        return out

    def argv(self, command: str, g6: list[str], cache: Path, out: Path) -> list[str]:
        if command == "hom":
            args = ["hom", "--pattern", g6[0], "--target", g6[1]]
        else:
            args = [command, "--spec", "fwl_k", "--g", g6[0]]
            if len(g6) == 2:
                args += ["--h", g6[1]]
        return args + ["--cache-dir", str(cache), "--out", str(out)]

    def body(self, wl, state: dict) -> tuple[dict, list[float] | None, int]:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        cache, outs = self.workdir / "cache", self.workdir / "out"
        outs.mkdir(parents=True)
        argvs = [
            self.argv(command, g6, cache, outs / f"{i:05d}.json")
            for i, (command, g6) in enumerate(state["requests"])
        ]
        main = wl.cli.main
        codes, latencies = [], []
        for argv in argvs:
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except Exception as exc:  # counted as a failed request by check()
                code = exc
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
        return {"codes": codes}, latencies, len(argvs)

    def check(self, wl, state: dict, out: dict, checks: Checks) -> None:
        canonical = wl.canonical_form
        parse = wl.parse_graph6
        first: dict = {}
        hits: list[bool] = []
        for i, ((command, g6), code) in enumerate(zip(state["requests"], out["codes"])):
            path = self.workdir / "out" / f"{i:05d}.json"
            if not checks.expect("exit_code", code == 0):
                hits.append(False)
                continue
            envelope = json.loads(path.read_text())
            payload = envelope["payload"]
            hit = envelope["telemetry"]["cache"] == "hit"
            hits.append(hit)
            echo = [payload.get(field) for field in self.ECHO[command]]
            if echo != g6:
                checks.expect("echo_mismatch_on_hit" if hit else "echo_mismatch_on_miss", False)
            verdict = payload.get(self.VERDICT[command])
            group = (command, tuple(canonical(parse(s)) for s in g6))
            checks.expect("verdict_vs_first", first.setdefault(group, verdict) == verdict)
            if command == "cops":
                checks.expect("cops_vs_treewidth", (verdict == "cops") == (wl.treewidth(parse(g6[0])) <= 2))
        out["hits"] = hits
        files = list((self.workdir / "cache").glob("*.json"))
        out["cache_entries"] = len(files)
        out["cache_bytes"] = sum(f.stat().st_size for f in files)


WORKLOADS = {cls.name: cls for cls in (PowerSweep, Suites, CliCached)}
