"""Golden digests: solver output pinned across commits.

Criterion 8 compares two runs of the same code; these pins catch a
change that alters state numbering, ``states_explored``, certificate
contents or power payloads in both runs alike.  Recompute a pin only
for a change that means to alter that output.
"""

import hashlib
import itertools
import json
import sys

import pytest

import wlpower as wl
import wlpower.cli as cli
from wlpower.games import DEFAULT_MAX_STATES, _CrSolver

POWER_SHA256 = {
    "local_1fwl": "fd32e40b3fca1f36c76683cf9567c3d2442e97d16ee2cb77b858bbfe0289136a",
    "2fwl": "45621e9d8034979f94bc50dc534e99efa29f54d0dd67f78dc22f0d8b15036cfb",
    "local_2fwl": "52e159d813d013a666bb77b179e700023400d1d0658a579584c9960e78ebe602",
    "drfwl2_1": "fc46fb5c677cd1f80adbaaa805d324d89d98ba3cb9b9c9c2cb6b836bf9289483",
}
# Recomputed when the pursuit solver began to key states by positions up
# to pebble order: ``states_explored`` and the certificates shrank, the
# winners pin ``COPS_WINNERS_SHA256`` below is unchanged.  Recomputed
# again when a Robber certificate became its winning region (every state
# outside the Cops attractor) in place of one reply per (state, choice):
# on every class n <= 6 under fwl_1, 2fwl, drfwl2_1 and both uneven
# schedules, every reply the old form named lies in the region and both
# replays visit the same states.  Cops certificates did not change.
# Recomputed when certificates took the one form JSON holds (keyed tables
# as lists of [state key, value] pairs, components as sorted nodes): on
# every class n <= 5 under the four built-in specs, the old and new
# certificates name the same states and moves in the same order.
# Recomputed when the games began to put on unpebbled nodes only under
# graph-independent selectors (``_distinct_puts``), after checking that
# every class n <= 6 keeps its winner against the parent solver (the
# winners pin below is unchanged): the states explored fell from 1,694
# to 690.
COPS_FWL2_N5_SHA256 = "5e3e9afea7791a11384aa1a8490a291bbfd2f50eaa95b63d021bc02113788c84"
# Recomputed when the bijection solver began to cut putting states that
# fail Hall's condition: cut states get no successors, so Spoiler
# certificates list fewer dead states (the winners pin below is unchanged).
# Recomputed again when a dead removing state began to name the index
# selection whose successor was dead already when the state died, not the
# first one dead at the end of the fixpoint: 70 of the 84 removal choices
# in two of the 45 certificates changed; winners, state counts and dead
# lists did not.  Recomputed again for the JSON form (above): on every
# ordered pair of classes n <= 4 under the four built-in specs, the old
# and new certificates name the same states and moves in the same order.
# Recomputed when the bijection solver began to key states up to joint
# pebble order, after checking against the parent solver that each of
# the 45 pinned pairs keeps its winner (Spoiler on all 45); the states
# explored fell from 313 to 237 in total.  Recomputed when puts began to
# pair only choices whose successors pass Hall's condition one move
# ahead, after checking against the parent solver that each of the 45
# pinned pairs keeps its winner (Spoiler on all 45): every root is now
# cut at birth, so each certificate is ``dead: [root]`` and the states
# explored fell from 237 to 45.
SPOILER_FWL2_N4_SHA256 = "56b86fd9ec03a02935e3217ba07d5b795c8b79c803c16e069a93afa743ae3fb1"


def verdicts_digest(verdicts) -> str:
    """SHA-256 over each verdict's sorted-key JSON, certificate included."""
    digest = hashlib.sha256()
    for verdict in verdicts:
        record = verdict.to_json_dict(include_certificate=True)
        digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


def test_power_payload_digests():
    for name, spec in wl.BUILTIN_SPECS.items():
        payload = wl.enumerate_power(spec, 5).payload_bytes()
        assert hashlib.sha256(payload).hexdigest() == POWER_SHA256[name], name


def test_pursuit_certificate_digest(classes5):
    spec = wl.fwl_spec(2)
    digest = verdicts_digest(wl.cops_robber_wins(spec, g) for g in classes5)
    assert digest == COPS_FWL2_N5_SHA256


# SHA-256 over ``(graph6, winner, states_explored)`` of the pursuit solve
# of every connected class with n <= 6, computed on the set-based solver
# before the move to node masks: a differential test of the mask path
# against the path it replaced.  Recomputed when the solver began to key
# states by positions up to pebble order, which changes ``states_explored``
# and no winner (``COPS_WINNERS_SHA256``).  ``fwl_1`` and ``2fwl`` were
# recomputed when the games began to put on unpebbled nodes only under
# graph-independent selectors, after the same parent-side check of all
# 143 winners: the states explored fell from 4,617 to 3,677 and from
# 13,436 to 6,372.
COPS_N6_SHA256 = {
    "fwl_1": "65cf8edfe4a2241cf30d443547704bbcaa09b3598093c2c4cbae860245a095a2",
    "local_1fwl": "652b74e00a227c2c7c31a47327e9e37187a360dd321c696a3d9d90a8fe1b8f82",
    "2fwl": "9f2089586e2b55109967cc02859f271593f1a50405dea8666a59d11499cf48ce",
    "local_2fwl": "780f6c6cb0ce3f55b6814f465db0cb8b5c8f6e2927d76e0c1feccc97519976b3",
    "drfwl2_1": "2ec21e2abb1d8e2d4773afb6cf802e0445e0a0b6a9627f3817710dd840b6f34b",
}


@pytest.mark.parametrize("name", sorted(COPS_N6_SHA256))
def test_pursuit_winner_and_states_digest(name, classes6):
    spec = wl.fwl_spec(1) if name == "fwl_1" else wl.BUILTIN_SPECS[name]
    digest = hashlib.sha256()
    for g in classes6:
        verdict = wl.cops_robber_wins(spec, g, want_certificate=False)
        digest.update(json.dumps([wl.emit_graph6(g), verdict.winner, verdict.states_explored]).encode())
    assert digest.hexdigest() == COPS_N6_SHA256[name]


# SHA-256 over ``(graph6, winner)`` of the pursuit solve of every
# connected class with n <= 6 under each spec above, and with n <= 4
# under each uneven schedule of ``UNEVEN_SPECS`` (defined below).
# Computed on the full game, before the solver keyed its states by
# positions up to pebble order: a differential test of the quotient
# against the full game.
COPS_WINNERS_SHA256 = {
    "fwl_1": "e870669278cb3a7d15bf39ab0e5193ea3b2cf3e104a7fb5b09f4d81208a49f1a",
    "local_1fwl": "e870669278cb3a7d15bf39ab0e5193ea3b2cf3e104a7fb5b09f4d81208a49f1a",
    "2fwl": "3f45113f0bb53e10f922077c4da5278416c98c9344e1e008e90855f0c33beece",
    "local_2fwl": "3f45113f0bb53e10f922077c4da5278416c98c9344e1e008e90855f0c33beece",
    "drfwl2_1": "f9bfa2204069303815d76313a7ef482e753bc5624453efb5d15d9ec25be576fe",
    "k3_t1_i023": "0240486e0d0d1022498346e8383a58c0ac009500b06990d911bfe17d2c28bb4c",
    "k2_t3_j023": "0240486e0d0d1022498346e8383a58c0ac009500b06990d911bfe17d2c28bb4c",
}


@pytest.mark.parametrize("name", sorted(COPS_WINNERS_SHA256))
def test_pursuit_winner_digest(name, classes4, classes6):
    if name in UNEVEN_SPECS:
        spec, classes = UNEVEN_SPECS[name], classes4
    else:
        spec, classes = wl.fwl_spec(1) if name == "fwl_1" else wl.BUILTIN_SPECS[name], classes6
    digest = hashlib.sha256()
    for g in classes:
        verdict = wl.cops_robber_wins(spec, g, want_certificate=False)
        digest.update(json.dumps([wl.emit_graph6(g), verdict.winner]).encode())
    assert digest.hexdigest() == COPS_WINNERS_SHA256[name]


def test_bijection_certificate_digest(classes4):
    spec = wl.fwl_spec(2)
    pairs = itertools.combinations(classes4, 2)
    digest = verdicts_digest(wl.spoiler_wins(spec, g, h) for g, h in pairs)
    assert digest == SPOILER_FWL2_N4_SHA256


def test_bijection_certificates_replay(classes4):
    spec = wl.fwl_spec(2)
    for g, h in itertools.combinations(classes4, 2):
        assert wl.replay_certificate(wl.spoiler_wins(spec, g, h), spec, (g, h))


# SHA-256 over ``(graph6 g, graph6 h, winner)`` of the bijection game on
# every unordered pair, with repetition, of the connected classes with
# n <= 4 (and n <= 5 where the solve is quick), computed before the solver
# bucketed puts by type and cut states that fail Hall's condition: a
# differential test of the cut against the path it replaced.
SPOILER_WINNERS_SHA256 = {
    4: "9912a66175ef9f2e944de60368a9d4393f9dc0adcb2c1b9a56ad96245c532442",
    5: "75f67c7bb10318c469d94ace053eb2c77d6dd992a3f40aa8b99c222f3f0ac3df",
}
SPOILER_WINNER_CASES = [
    *((name, 4) for name in ["fwl_2", *wl.BUILTIN_SPECS]),
    ("local_1fwl", 5),
    ("drfwl2_1", 5),
]


@pytest.mark.parametrize("name, n_max", SPOILER_WINNER_CASES)
def test_bijection_winner_digest(name, n_max, classes4, classes5):
    spec = wl.fwl_spec(2) if name == "fwl_2" else wl.BUILTIN_SPECS[name]
    classes = classes4 if n_max == 4 else classes5
    digest = hashlib.sha256()
    for g, h in itertools.combinations_with_replacement(classes, 2):
        winner = wl.spoiler_wins(spec, g, h, want_certificate=False).winner
        digest.update(json.dumps([wl.emit_graph6(g), wl.emit_graph6(h), winner]).encode())
    assert digest.hexdigest() == SPOILER_WINNERS_SHA256[n_max]


# SHA-256 over ``(pattern graph6, target graph6, result)`` of the
# homomorphism layer on every class, connected or not, computed on the
# set-based search before it moved to adjacency masks: a differential
# test of the mask path against the path it replaced.  ``maps`` pins the
# lexicographic order the hom-closedness suite depends on.
HOM_SHA256 = {
    "hom_count": "28dfcc22ab1aefde92e15ca361a90add8d05ae9e9e441b3e3f44b3e45ab63bea",
    "rooted": "b30f99d7413a4451c0730a6c1baf0603ba49b0b0aacdc134880e73556bcdc19f",
    "maps": "99208eabb4bc9aa54e18385b1954b16e970828ebe3cf1c80b40d473e14769522",
}
HOM_CASES = {
    # name: (pattern n_max, target n_max, result of one pair)
    "hom_count": (5, 6, wl.hom_count),
    "rooted": (4, 5, lambda p, t: [wl.rooted_hom_count(p, {0: v}, t) for v in range(t.n)]),
    "maps": (4, 5, lambda p, t: list(wl.homomorphisms(p, t))),
}


@pytest.mark.parametrize("name", sorted(HOM_SHA256))
def test_hom_layer_digests(name):
    n_patterns, n_targets, result = HOM_CASES[name]
    patterns = list(wl.enumerate_connected_graphs(n_patterns, connected_only=False))
    targets = list(wl.enumerate_connected_graphs(n_targets, connected_only=False))
    digest = hashlib.sha256()
    for p in patterns:
        for t in targets:
            digest.update(json.dumps([wl.emit_graph6(p), wl.emit_graph6(t), result(p, t)]).encode())
    assert digest.hexdigest() == HOM_SHA256[name]


# SHA-256 over ``(graph6, treewidth)`` of every connected class with
# n <= 7, then every class with n <= 6, connected or not, computed while
# the DP found each vertex's component by a per-node BFS: a differential
# test of the subset-neighbourhood DP against the path it replaced.
TREEWIDTH_SHA256 = "cab5d03ce8a6e7b2f515416e4c22efc5d4f5634145b160b7f8ed48bc25aec5fd"


def test_treewidth_digest():
    graphs = itertools.chain(wl.connected_classes(7), wl.enumerate_connected_graphs(6, connected_only=False))
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(json.dumps([wl.emit_graph6(g), wl.treewidth(g)]).encode())
    assert digest.hexdigest() == TREEWIDTH_SHA256


# SHA-256 of ``to_json_dict()`` of the refinement-side validation
# suites, computed before they moved from pairwise refinement to one
# joint run per class set.
SOUNDNESS_SHA256 = {
    # 3 undistinguished pairs among the 10,153 n<=6 pairs.
    ("local_1fwl", 6, 6): "08e5257d7ac2c1829a05b42c715d3977bdf0684416e4601bdf872e5b6a6e0fa0",
    ("2fwl", 5, 6): "7a1e5fb2fb0d5aa77fa12d68d4ef8846c82fc5b4845ec6177ecff303fb3041c0",
}
THEOREM2_SHA256 = {
    ("local_1fwl", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("2fwl", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("local_2fwl", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("drfwl2_1", 4): "fa726a2678af78b52f7716e5d7c71b2fdea6613dee9a9353d903eeeb2747c349",
    ("local_1fwl", 5): "241de5ac35445036e66361936350f89c45822be975cdafc899b936ab43112bd4",
}


# SHA-256 over the graph-level color ids of one joint refinement run,
# computed while the initial colors were keyed by ``IsoType`` objects,
# before ``atp`` became an integer code.  The ids come from the shared
# dictionary in first-seen order, so the pin catches any change to which
# keys the run hashes or in what order.  ``fwl_plus_2_2`` runs the
# multi-stage ``j_seq`` path on the n <= 4 classes; the two uneven
# schedules of ``UNEVEN_SPECS`` (pinned before the aggregation became a
# fold over the tuple table's stage groups) run a two-stage ``i_seq``
# with a first step of 2 and a two-stage ``j_seq`` with steps 2 and 1.
UNEVEN_SPECS = {
    "k3_t1_i023": wl.GfwlSpec(
        3, 1, (0, 2, 3), (0, 1), wl.RSelector("all_k_tuples"), wl.FSelector("all_nodes")
    ),
    "k2_t3_j023": wl.GfwlSpec(
        2, 3, (0, 2), (0, 2, 3), wl.RSelector("all_k_tuples"), wl.FSelector("all_t_tuples")
    ),
}
JOINT_COLORS_SHA256 = {
    "local_1fwl": "dc69fafb8f83b787ac7e1702357fe25593791273c55bc4acdd81b55acc3d42fc",
    "2fwl": "1ae764b5b0635f01273de26c78228a8b31069dd3d3f764e8da0e96d6c3c17d89",
    "local_2fwl": "a04e125627bf5b53c3ec4e70bd9823df8aa196b250a91e672200fd38f83bae27",
    "drfwl2_1": "a3666a0089dc2a733da72dd7f2f4ee6262f0ec5b8096b352ceefb370dca5e550",
    "fwl_plus_2_2": "3a4b218f1ae194faccd61b5ce8cddbb71e71e3e4bc481410d1a867d319feac05",
    "k3_t1_i023": "ef96bdb74910557b8eaadcf960b908f0238a1e218b5a81f1f8597e53b4dc8aec",
    "k2_t3_j023": "3899c3d07b3251669d95ca0acac2d934cf9ab80bc54fca1cfa1589d336cdd249",
}


@pytest.mark.parametrize("name", sorted(JOINT_COLORS_SHA256))
def test_joint_color_id_digests(name, classes4, classes6):
    if name == "fwl_plus_2_2":
        spec, classes = wl.fwl_plus_spec(2, 2), classes4
    elif name in UNEVEN_SPECS:
        spec, classes = UNEVEN_SPECS[name], classes4
    else:
        spec, classes = wl.BUILTIN_SPECS[name], classes6
    colors = wl.joint_graph_colors(spec, *classes)
    assert hashlib.sha256(json.dumps(colors).encode()).hexdigest() == JOINT_COLORS_SHA256[name]


# SHA-256 over ``(graph6, winner, states_explored)`` of the pursuit game
# on every connected class with n <= 4, and over ``(graph6 g, graph6 h,
# winner, states_explored)`` of the bijection game on every unordered
# pair, with repetition, of those classes, under each uneven schedule.
# Computed before both games took their putting stages from the tuple
# table's stage groups; the two pursuit pins were recomputed when the
# pursuit solver began to key states by positions up to pebble order,
# and the two bijection pins when the bijection solver began to key
# states up to joint pebble order, after checking against the parent
# solver that each of the 55 pairs per schedule keeps its winner (the
# states explored fell from 14,720 to 2,864 and from 58,384 to 7,122).
# The two bijection pins were recomputed again when puts began to pair
# only choices whose successors pass Hall's condition one move ahead,
# after the same parent-side check of all 55 winners per schedule (the
# states explored fell from 2,864 to 2,366 and from 7,122 to 6,716).
# The two ``k3_t1_i023`` pins were recomputed when the games began to put
# on unpebbled nodes only under graph-independent selectors, after
# checking against the parent solver that its 10 classes and 55 pairs
# keep their winners (pursuit states 538 to 144, bijection 1,037 to
# 469); ``k2_t3_j023`` needs k + t = 5 nodes, so its n <= 4 arenas do
# not change.  The two ``k2_t3_j023`` pins were recomputed when both
# games began to sort the whole position in every phase, not the main
# and aux parts of an update round apart, after checking against the
# parent solver that its 10 classes and 55 pairs keep their winners
# (pursuit states 1,192 to 764, bijection 6,716 to 3,926).
UNEVEN_GAMES_SHA256 = {
    ("k3_t1_i023", "pursuit"): "1ff66d29152feb7cff00aee476254b02fd75f956fd721cf245f23690d59f68ff",
    ("k3_t1_i023", "bijection"): "ed459befa6abde936db22217fff4106e7f9c27b0c67a020ab6e69c183705a520",
    ("k2_t3_j023", "pursuit"): "af16828458cec6517e3983a80f7616b6b6fe61537c64a814e24b42d4557bb0d7",
    ("k2_t3_j023", "bijection"): "0c964dcf4177ff108fe9642e09163fa78174c7b18e1103be56f5ee8b9d578573",
}


@pytest.mark.parametrize("name, game", sorted(UNEVEN_GAMES_SHA256))
def test_uneven_schedule_game_digests(name, game, classes4):
    if game == "pursuit":
        solve, inputs = wl.cops_robber_wins, [(g,) for g in classes4]
    else:
        solve, inputs = wl.spoiler_wins, itertools.combinations_with_replacement(classes4, 2)
    digest = hashlib.sha256()
    for graphs in inputs:
        verdict = solve(UNEVEN_SPECS[name], *graphs, want_certificate=False)
        record = [*map(wl.emit_graph6, graphs), verdict.winner, verdict.states_explored]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == UNEVEN_GAMES_SHA256[(name, game)]


# SHA-256 over the generated arena of each pursuit solve: the state keys
# in sid order, ``(owner, choice, pending replies)`` per for-all edge and
# the reply-to-edge lists, on every connected class with n <= 6 (n <= 4
# for the uneven schedules).  The attractor picks each Cops-win state's
# move by edge order, so this pins the order the other pins do not see.
# Computed before the component table filled itself and the removal
# choices were built once per game.  ``fwl_1``, ``2fwl`` and
# ``k3_t1_i023`` were recomputed when the games began to put on
# unpebbled nodes only under graph-independent selectors (their winners
# pins above are unchanged).  ``k2_t3_j023`` was recomputed when both
# games began to sort the whole position in every phase (its winners
# pin is unchanged, and so is every winner against the parent solver).
PURSUIT_ARENA_SHA256 = {
    "fwl_1": "f3493cb8af1edfc0ccb2477eee348ddb99e7c9d59c37f1af06b8b102d3489fa8",
    "2fwl": "e426280ba478b894cf6bcbf07bbda3368bfbab38befe4e25d285ac34dd9270e0",
    "drfwl2_1": "ac0ed154866453d05d50410d3a893c5f25090941107519dcd291bc31d9a7a85c",
    "k3_t1_i023": "a7d48660b535d972bc5ade1e8bcc22a7a9b5748f2c202d2322c2d0fba38f14d4",
    "k2_t3_j023": "e52ed93c29d96641cd461b68e6b52bd29d4180fcc771d25d3106ba65cd029945",
}


@pytest.mark.parametrize("name", sorted(PURSUIT_ARENA_SHA256))
def test_pursuit_arena_digest(name, classes4, classes6):
    if name in UNEVEN_SPECS:
        spec, classes = UNEVEN_SPECS[name], classes4
    else:
        spec, classes = wl.fwl_spec(1) if name == "fwl_1" else wl.BUILTIN_SPECS[name], classes6
    digest = hashlib.sha256()
    for g in classes:
        solver = _CrSolver(spec, g, DEFAULT_MAX_STATES)
        solver.generate()
        edges = list(zip(solver.edge_owner, solver.edge_choice, solver.edge_pending))
        record = [wl.emit_graph6(g), solver.states.keys, edges, solver.states.preds]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == PURSUIT_ARENA_SHA256[name]


# SHA-256 over ``canonical_form(g) + b"\n"`` for every labelled graph g,
# node counts ascending, each count's edge subsets in counting order over
# the node pairs in graph6 order.  Computed while the search built a
# relabeled graph and its graph6 line at every leaf: a differential test
# of the int-valued leaves against the path they replaced.
CANONICAL_SHA256 = {
    5: "88c72dd8b2493163dd189bb0c798a2ca1b21aa45e46719f9cd279e6398ff193d",  # n = 0..5
    6: "1216f433e66baec01d1045f89b4698eb6622446053687524e97af3074018e89c",  # n = 6 only
}


def labelled_graphs(n: int):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for bits in range(1 << len(pairs)):
        yield wl.Graph(n, [p for idx, p in enumerate(pairs) if bits >> idx & 1])


def canonical_digest(node_counts) -> str:
    digest = hashlib.sha256()
    for n in node_counts:
        for g in labelled_graphs(n):
            digest.update(wl.canonical_form(g) + b"\n")
    return digest.hexdigest()


def test_canonical_form_digest_n5():
    assert canonical_digest(range(6)) == CANONICAL_SHA256[5]


@pytest.mark.slow
def test_canonical_form_digest_n6():
    # all 32,768 labelled graphs on 6 nodes
    assert canonical_digest([6]) == CANONICAL_SHA256[6]


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, n_pairs, n_patterns", sorted(SOUNDNESS_SHA256))
def test_soundness_report_digests(name, n_pairs, n_patterns):
    report = wl.validate_soundness(wl.BUILTIN_SPECS[name], n_pairs, n_patterns)
    assert report_digest(report) == SOUNDNESS_SHA256[(name, n_pairs, n_patterns)]


@pytest.mark.parametrize("name, n_max", sorted(THEOREM2_SHA256))
def test_theorem2_report_digests(name, n_max):
    report = wl.validate_theorem2(wl.BUILTIN_SPECS[name], n_max, seed=7)
    assert report_digest(report) == THEOREM2_SHA256[(name, n_max)]


# One argv per CLI command and per validate suite (at 3 nodes), with the
# SHA-256 of its payload's sorted-key JSON and its cache key: the key of
# an uncached command is None.  A cache written by an earlier build
# still hits as long as these hold.
CLI_GOLDEN = {
    "distinguish": (
        ["distinguish", "--spec", "fwl_k", "--g", "EhEG", "--h", "EwCW"],
        "1beb98fc98f3a6d07e637beb1073300b7047395c0b2be20cde5dfd4af545c325",
        "2d7430290af58f46926b6ca4e2d939f624bf6b449ce87126ce519c04a4128fdf",
    ),
    "cops": (
        ["cops", "--spec", "fwl_k", "--g", "C~"],
        "7f5ec3210e4bbb8c570a911fbc8f6d1d919053d67083a6561fe49abaeaf2e9d7",
        "f0a7e8dbd8de85256580dc4ae8dcc143ef285772cc22f8a340a35e18e0fe4553",
    ),
    "ef": (
        ["ef", "--spec", "fwl_k", "--g", "EhEG", "--h", "EwCW"],
        "3c5d0d763cf3b2ea6fca5a16be4b931e92f438ab63ca63d01b3d5dfa8e3e4139",
        "ef22356ef9180a8b6f42c948dc725176eebb5fb96d9f4b50c609c76a28a9a483",
    ),
    "hom": (
        ["hom", "--pattern", "EhEG", "--target", "Bw"],
        "1aac9fdb02f8a87e17f108053b7c9fe9caa5bf60f11dadbbb692b020edae98ad",
        "9f666f0b4ff0d44c12335204b1e21c94391fd04a2c18f19f12229be5cfebddb8",
    ),
    "power": (
        ["power", "--spec", "fwl_k", "--max-nodes", "4"],
        "7e40e9ffec4401c447248c71ece8c2ee42e4ed52bef9457db394107eccb54617",
        "87ee9de164248a60b4a822baae9613c56c2d39e540c73ba7903180cf6df4a68b",
    ),
    "validate-treewidth": (
        ["validate", "--suite", "treewidth", "--k", "2", "--max-nodes", "3"],
        "862c2c6454234d3c9aba4c860347feaccacd01bf7cfd77b3a187a0a41f1b35d5",
        None,
    ),
    "validate-theorem2": (
        ["validate", "--suite", "theorem2", "--spec", "fwl_k", "--max-nodes", "3"],
        "8d705ef99caa7accff481368e12f2221bbd2d79e0c9a0a0949e9273d504d7bb6",
        None,
    ),
    "validate-soundness": (
        ["validate", "--suite", "soundness", "--spec", "fwl_k", "--max-nodes", "3"],
        "e36c45d9903c55dd3ec3eee4b1e0a3c92be2a1905b5af6729e42c2b355a080cf",
        None,
    ),
    "validate-monotonicity": (
        [
            "validate", "--suite", "monotonicity", "--spec-small", "drfwl2_delta",
            "--spec-large", "fwl_k", "--max-nodes", "3",
        ],
        "6184a8ceb1779e97d04a7646f8f09b9e6715e0843aada82196a1b4d707882e09",
        None,
    ),
    "validate-hom_closed": (
        ["validate", "--suite", "hom_closed", "--spec", "local_fwl_k", "--max-nodes", "3"],
        "4b1a5d090790a7ce585b477190731a582526135d3db4e7152a57986c64c79a32",
        None,
    ),
}


@pytest.fixture
def no_cache_env(monkeypatch):
    monkeypatch.delenv("WLPOWER_CACHE", raising=False)


@pytest.mark.parametrize("name", CLI_GOLDEN)
def test_cli_payload_and_cache_key_digests(name, tmp_path, no_cache_env):
    argv, payload_sha256, key = CLI_GOLDEN[name]
    cache, out = tmp_path / "cache", tmp_path / "out.json"
    assert cli.main(argv + ["--cache-dir", str(cache), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == payload_sha256
    keys = [p.stem for p in cache.glob("*.json")]
    assert keys == ([key] if key else [])


def test_cache_miss_loads_each_input_once(tmp_path, monkeypatch, no_cache_env):
    calls = {"load_spec": 0, "load_graph": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(value):
            calls[name] += 1
            return original(value)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    argv, _, _ = CLI_GOLDEN["distinguish"]
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["telemetry"]["cache"] == "miss"
    assert calls == {"load_spec": 1, "load_graph": 2}


# SHA-256 of ``--help`` for the top level and for each subcommand, at
# 80 columns, computed before the parser became a module constant.
# argparse's layout is not this project's output and shifts between
# Python versions, so the pins hold on the version they were taken with.
HELP_SHA256 = {
    None: "cf8ab3af22a03c11a7b208864c509db8f7526ae2c286720dce17d01a2aba49c1",
    "distinguish": "84fff58a727abcb80d97511e3f9d5dd5fc1dd2b07fdcc5f2a9634737c354815a",
    "cops": "0ef6ba2317dc1c58b6dcd3fb639d694bebf73eb8b283f208b7a060d93240a5ea",
    "ef": "84eddd084b2f16700e2405756a68692c9864a1a7b2462dfd9716a6f7951b35f7",
    "hom": "fee177ee0c45f63d1df4e399c94fbab41af119b1cbbd397f825f97c0027e1d92",
    "power": "9dd769d7fa6675344c2b3518ade4b77c1752ff8ebfba34c9e5def795e8eecc40",
    "validate": "b2a2355b9a830a11ea96e696d402e1cc6bd0441d575a4d71c5c8c7ddb75be1eb",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help pinned on Python 3.11")
@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_text_digests(command, capsys, monkeypatch):
    assert set(HELP_SHA256) == {None, *cli.COMMANDS}
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command]
