"""Exact solvers for the two pebble games attached to a refinement spec.

Both games share the move schedule of the spec: an initialization round
of N putting/guarding moves staged by ``i_seq``, then repeated update
rounds of M putting/guarding moves staged by ``j_seq`` plus one
removing/unguarding move that keeps k of the k+t pebbles.  Both read
their choice sets and type codes from refinement's tuple table, which
checks replacement closure when it is built, so a spec whose refinement
is undefined raises :class:`~wlpower.errors.ClosureError` here too.

* The bijection game runs on a pair of graphs.  The second player picks
  a bijection between the two current choice sets, the first player
  picks an element, and the first player wins on a cardinality mismatch
  or an isomorphism-type mismatch of the occupied tuples.  Infinite play
  favors the second player, so the solver computes a greatest fixed
  point: states are deleted until every survivor has a perfect matching
  of safe choice pairs (putting) and only surviving index selections
  (removing).  A putting state whose choices differ in their per-type
  counts between the two sides fails Hall's condition (P. Hall, "On
  representatives of subsets", 1935) and is dead at birth.  The game is
  Hella's bijective pebble game ("Logical hierarchies in PTIME",
  Information and Computation 1996).

* The pursuit game runs on one graph.  The first player (Cops) places
  pebbles from the same choice sets; the second player (Robber)
  maintains a connected node set that shrinks within the unblocked part
  after each placement and grows back to its enclosing component after
  each removal.  Cops must trap Robber in finite play, so the solver
  computes the attractor (least fixed point) of the Robber-stuck
  positions, folding Robber replies into for-all edges.

Each game has one successor function (``_BijectionMoves``,
``_PursuitMoves``) that both its solver and :func:`replay_certificate`
call, so replay is no second copy of the rules; the independent oracles
stay the treewidth DP (Cops win iff treewidth <= k) and agreement of the
bijection game with refinement.  Both solvers number states through one
``_StateIndex``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import BudgetError, CertificateError, check_deadline
from .graphs import Graph, component_masks, mask_nodes, node_mask
from .refinement import GfwlSpec, _index_vectors, _TupleTable
# ``r_set`` and ``f_set`` are not called here: the tuple table reads
# them.  They stay module attributes because the benchmark's span tracer
# (``perfbench/spans.py``) wraps ``wlpower.games.r_set`` and ``f_set``.
from .selectors import f_set, r_set  # noqa: F401

DEFAULT_MAX_STATES = 1_000_000


# ---------------------------------------------------------------------------
# Bipartite matching


def _max_matching(n: int, pairs: Iterable[tuple[int, int]]) -> list:
    """Maximum matching (augmenting paths) between two sides of ``n``
    choices each, over the ``(left index, right index)`` pairs, tried in
    their given order.  Returns the right-side partner per left index,
    -1 where unmatched."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adjacency[a].append(b)
    match_left = [-1] * n
    match_right = [-1] * n

    def augment(a: int, seen: list[bool]) -> bool:
        for b in adjacency[a]:
            if not seen[b]:
                seen[b] = True
                if match_right[b] == -1 or augment(match_right[b], seen):
                    match_left[a] = b
                    match_right[b] = a
                    return True
        return False

    for a in range(n):
        augment(a, [False] * n)
    return match_left


# ---------------------------------------------------------------------------
# Shared move tables


def _next_phase(spec: GfwlSpec, phase: tuple) -> tuple:
    if phase[0] == "I":
        return ("I", phase[1] + 1) if phase[1] < spec.n_stages else ("U", 1)
    if phase[0] == "U":
        return ("U", phase[1] + 1) if phase[1] < spec.m_stages else ("R",)
    return ("U", 1)


def _stage_groups(tuples: list[tuple[int, ...]], seq: tuple[int, ...]) -> list[dict]:
    """For each stage ``(seq[n-1], seq[n])``: the length-``seq[n]``
    prefixes of ``tuples``, in sorted order, as suffixes grouped by their
    length-``seq[n-1]`` prefix."""
    groups = []
    for prev, cur in zip(seq, seq[1:]):
        stage: dict = {}
        for tup in sorted({full[:cur] for full in tuples}):
            stage.setdefault(tup[:prev], []).append(tup[prev:])
        groups.append(stage)
    return groups


class _MoveTables(_TupleTable):
    """The tuple table with its sorted lists grouped, per putting stage,
    into suffixes by occupied prefix: ``groups[()]`` for the universe
    (``R(G)`` is ``F(G, ())``) and ``groups[v]`` for the aggregation
    tuples of each colored tuple ``v``.  Closure holds once the table is
    built, so every main part a game reaches is a key."""

    def __init__(self, spec: GfwlSpec, g: Graph):
        super().__init__(spec, g)
        self.k = spec.k
        self.groups = {v: _stage_groups(us, spec.j_seq) for v, us in self.fsets.items()}
        self.groups[()] = _stage_groups(self.rset, spec.i_seq)

    def put_choices(self, phase: tuple, pos: tuple) -> list:
        main = () if phase[0] == "I" else pos[: self.k]
        return self.groups[main][phase[1] - 1].get(pos[len(main):], [])


# ---------------------------------------------------------------------------
# Successor functions, shared by the solvers and certificate replay


class _BijectionMoves:
    """The bijection game on ``(g, h)``.  A state key is ``(phase,
    g-side tuple, h-side tuple)``; two occupied tuples have the same
    type when their :func:`~wlpower.graphs.atp` codes are equal.  Only a
    put can end in a type mismatch: it checks the whole position, and
    every index selection of two tuples of one type has one type, so a
    removal never does.  :meth:`puts` buckets a putting state's choices
    by the type of the position they lead to, so it pairs only choices
    of one type; the solver and both replays take every put from it, and
    a pair it does not list is a type mismatch."""

    def __init__(self, spec: GfwlSpec, g: Graph, h: Graph):
        self.spec = spec
        self.tables_g = _MoveTables(spec, g)
        self.tables_h = _MoveTables(spec, h)

    def puts(self, key: tuple) -> tuple[list, list, list | None]:
        """A putting state's g-side and h-side choice lists and its
        type-respecting puts: ``(g index, h index, successor)`` in index
        order, pairing each g-side choice only with the h-side choices
        whose position has the same type.  The puts are None when the two
        sides' per-type counts differ: then no bijection respects types
        (Hall's condition fails), so the state is lost for the second
        player whatever its successors."""
        phase, pos_g, pos_h = key
        d = self.tables_g.put_choices(phase, pos_g)
        e = self.tables_h.put_choices(phase, pos_h)
        if len(d) != len(e):  # Hall fails on the totals alone: skip the type codes
            return d, e, None
        new_g = [pos_g + a for a in d]
        new_h = [pos_h + b for b in e]
        codes_g = list(map(self.tables_g.type_code, new_g))
        codes_h = list(map(self.tables_h.type_code, new_h))
        if sorted(codes_g) != sorted(codes_h):
            return d, e, None
        buckets: dict[int, list[int]] = {}
        for bi, code in enumerate(codes_h):
            buckets.setdefault(code, []).append(bi)
        nxt = _next_phase(self.spec, phase)
        return d, e, [
            (ai, bi, (nxt, tup, new_h[bi]))
            for ai, (tup, code) in enumerate(zip(new_g, codes_g))
            for bi in buckets[code]
        ]

    def removal(self, key: tuple, combo: tuple) -> tuple:
        """The state after the pebbles at index selection ``combo`` are
        kept."""
        _, pos_g, pos_h = key
        return (("U", 1), tuple([pos_g[i] for i in combo]), tuple([pos_h[i] for i in combo]))

    def removals(self, key: tuple) -> list[tuple]:
        """The successors of a removing state, one per index selection
        in lexicographic order."""
        return [self.removal(key, combo) for combo in _index_vectors(self.spec.k, self.spec.t)]


class _PursuitMoves:
    """The pursuit game on one graph.  A state key is ``(phase, pebbles,
    Robber's component)``, with the component as a node mask (bit ``v``
    set iff node ``v`` is in it).  Robber's component is always a
    component of g minus the pebbled nodes, so every component comes
    from one table keyed by the blocked-node mask.  A put's replies are
    memoized per (blocked mask, Robber mask), and a removal's grown
    component per (kept mask, lowest bit of Robber's mask): Robber's
    component is connected and avoids the kept pebbles, so the one
    component of g minus them that holds any of its nodes holds it all.
    Certificates store components as frozensets; :meth:`decode` converts
    a key to that form."""

    def __init__(self, spec: GfwlSpec, g: Graph):
        self.spec = spec
        self.tables = _MoveTables(spec, g)
        self._components: dict[int, list[int]] = {}
        self._replies: dict[tuple[int, int], list[int]] = {}
        self._grown: dict[tuple[int, int], int] = {}
        self.table_misses = 0  # memo lookups in moves() that had to compute

    def _avoiding(self, blocked: int) -> list[int]:
        comps = self._components.get(blocked)
        if comps is None:
            comps = self._components[blocked] = component_masks(self.tables.g, blocked)
        return comps

    def initial(self) -> list[tuple]:
        """The empty board with Robber in each component of g."""
        return [(("I", 1), (), comp) for comp in self._avoiding(0)]

    @staticmethod
    def decode(key: tuple) -> tuple:
        """The key with Robber's component as a frozenset of nodes."""
        phase, pos, comp = key
        return (phase, pos, frozenset(mask_nodes(comp)))

    def moves(self, key: tuple) -> list[tuple]:
        """Cops' moves as ``[(choice, [successor per Robber reply])]``.
        A put leaves Robber the components inside the current one; a
        removal grows Robber's component to the one that contains it."""
        phase, pos, comp = key
        out = []
        if phase[0] != "R":
            nxt = _next_phase(self.spec, phase)
            blocked = node_mask(pos)
            replies_memo = self._replies
            for delta in self.tables.put_choices(phase, pos):
                new_blocked = blocked
                for v in delta:
                    new_blocked |= 1 << v
                replies = replies_memo.get((new_blocked, comp))
                if replies is None:
                    self.table_misses += 1
                    replies = replies_memo[(new_blocked, comp)] = [
                        c for c in self._avoiding(new_blocked) if not c & ~comp
                    ]
                new_pos = pos + delta
                out.append((("put", delta), [(nxt, new_pos, c) for c in replies]))
            return out
        low = comp & -comp
        for combo in _index_vectors(self.spec.k, self.spec.t):
            new_pos = tuple([pos[i] for i in combo])
            kept = node_mask(new_pos)
            grown = self._grown.get((kept, low))
            if grown is None:
                self.table_misses += 1
                grown = self._grown[(kept, low)] = next(c for c in self._avoiding(kept) if c & low)
            out.append((("rm", combo), [(("U", 1), new_pos, grown)]))
        return out


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class GameVerdict:
    """Outcome of one game solve.

    ``winner`` is ``"cops"``/``"robber"`` for the pursuit game and
    ``"spoiler"``/``"duplicator"`` for the bijection game;
    ``first_player`` folds these back to the mover/defender split.
    ``stats`` holds solver counters (phase milliseconds, edges, table
    hits); they vary between runs and are no part of the verdict, so
    neither equality nor :meth:`to_json_dict` reads them.
    """

    winner: str
    states_explored: int
    certificate: dict | None = None
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def first_player(self) -> bool:
        return self.winner in ("cops", "spoiler")

    def to_json_dict(self, include_certificate: bool = False) -> dict:
        out = {"winner": self.winner, "states_explored": self.states_explored}
        if include_certificate and self.certificate is not None:
            out["certificate"] = _jsonify(self.certificate)
        return out


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else repr(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


# ---------------------------------------------------------------------------
# State index, shared by both solvers


class _StateIndex:
    """Reachable game states numbered in discovery order: ``keys[sid]``,
    ``index[key]``, and per state a ``preds`` list that its solver fills
    with what leads to it (states in the bijection game, for-all edges in
    the pursuit game).  Adding state number ``max_states`` raises
    :class:`BudgetError`."""

    def __init__(self, game: str, max_states: int):
        self.game = game
        self.max_states = max_states
        self.keys: list = []
        self.index: dict = {}
        self.preds: list[list[int]] = []

    def add(self, key: tuple) -> int:
        sid = self.index.get(key)
        if sid is None:
            sid = len(self.keys)
            if sid >= self.max_states:
                raise BudgetError(
                    f"{self.game} game state budget exceeded",
                    stats={"states": sid},
                )
            self.index[key] = sid
            self.keys.append(key)
            self.preds.append([])
        return sid

    def walk(self) -> Iterator[tuple[int, tuple]]:
        """``(sid, key)`` in sid order, states added during the walk
        included; the run deadline is checked every 256 states."""
        for sid, key in enumerate(self.keys):  # reaches appended keys
            if not sid & 255:
                check_deadline()
            yield sid, key


# ---------------------------------------------------------------------------
# Bijection game solver


def spoiler_wins(
    spec: GfwlSpec,
    g: Graph,
    h: Graph,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    want_certificate: bool = True,
) -> GameVerdict:
    """Decide the bijection game on ``(g, h)``.

    Greatest fixed point over reachable type-consistent states: a
    putting state survives while the safe pairs (same type, surviving
    successor) admit a perfect matching; a removing state survives while
    every index selection leads to a surviving state.  The first player
    wins iff the empty-board root is deleted.  The run deadline is
    checked every 256 generated states.  ``stats`` holds the phase
    milliseconds, ``matching_calls`` (bipartite matchings run by the
    fixpoint) and ``cut_states`` (putting states cut, dead at birth, by
    Hall's condition).
    """
    solver = _EfSolver(spec, g, h, max_states)
    start = time.perf_counter()
    solver.generate()
    generated = time.perf_counter()
    solver.fixpoint()
    fixed = time.perf_counter()
    root_alive = solver.alive[0]
    verdict = GameVerdict(
        winner="duplicator" if root_alive else "spoiler",
        states_explored=len(solver.states.keys),
        stats={
            "generate_ms": round((generated - start) * 1000, 3),
            "fixpoint_ms": round((fixed - generated) * 1000, 3),
            "matching_calls": solver.matching_calls,
            "cut_states": solver.succs.count(None),
        },
    )
    if want_certificate:
        verdict.certificate = solver.certificate(root_alive)
    return verdict


class _EfSolver:
    """Per state in sid order (the root is state 0): ``choices`` holds a
    putting state's g-side and h-side choice lists (None for a removing
    state), and ``succs`` its moves: ``(g index, h index, successor)``
    per type-respecting put, or the successor per index selection.  A
    putting state cut by Hall's condition has None for ``succs``: it is
    dead at birth.  ``states.preds[sid]`` lists each state with a move
    to ``sid`` once."""

    def __init__(self, spec: GfwlSpec, g: Graph, h: Graph, max_states: int):
        self.spec = spec
        self.game = _BijectionMoves(spec, g, h)
        self.states = _StateIndex("bijection", max_states)
        self.choices: list = []
        self.succs: list = []
        self.alive: list[bool] = []
        self.matching_calls = 0

    def generate(self) -> None:
        states, game = self.states, self.game
        add, preds = states.add, states.preds
        add((("I", 1), (), ()))
        for sid, key in states.walk():
            if key[0][0] == "R":
                choice = None
                succs = targets = [add(s) for s in game.removals(key)]
            else:
                d, e, puts = game.puts(key)
                choice = d, e
                if puts is None:  # dead at birth: explore no further
                    succs, targets = None, []
                else:
                    succs = [(ai, bi, add(s)) for ai, bi, s in puts]
                    targets = [s for _, _, s in succs]
            self.choices.append(choice)
            self.succs.append(succs)
            for succ in targets:
                if not preds[succ] or preds[succ][-1] != sid:
                    preds[succ].append(sid)

    def _matching(self, sid: int) -> list:
        """Maximum matching of a putting state's choices over the pairs
        whose successor survives: h-side index per g-side index, -1
        where unmatched."""
        self.matching_calls += 1
        alive = self.alive
        pairs = [(ai, bi) for ai, bi, succ in self.succs[sid] if alive[succ]]
        return _max_matching(len(self.choices[sid][0]), pairs)

    def _survives(self, sid: int) -> bool:
        """Judge a removing state, or a putting state not cut at birth."""
        if self.choices[sid] is None:
            return all(self.alive[s] for s in self.succs[sid])
        return -1 not in self._matching(sid)

    def fixpoint(self) -> None:
        """States cut at birth start dead; a backward pass judges the
        rest, then rejudges those a later death may kill."""
        alive = self.alive = [s is not None for s in self.succs]
        preds = self.states.preds
        stale = []
        for sid in reversed(range(len(alive))):
            if alive[sid] and not self._survives(sid):
                alive[sid] = False
                stale.extend(p for p in preds[sid] if p > sid)
        while stale:
            sid = stale.pop()
            if alive[sid] and not self._survives(sid):
                alive[sid] = False
                stale.extend(preds[sid])

    def certificate(self, root_alive: bool) -> dict:
        keys = self.states.keys
        if root_alive:
            matchings = {}
            for sid, key in enumerate(keys):
                if not self.alive[sid] or self.choices[sid] is None:
                    continue
                d, e = self.choices[sid]
                matchings[key] = [(d[ai], e[bi]) for ai, bi in enumerate(self._matching(sid))]
            return {"winner": "duplicator", "matchings": matchings}
        dead_keys = [key for sid, key in enumerate(keys) if not self.alive[sid]]
        remove_choices = {}
        combos = _index_vectors(self.spec.k, self.spec.t)
        for sid, key in enumerate(keys):
            if self.alive[sid] or self.choices[sid] is not None:
                continue
            for combo, succ in zip(combos, self.succs[sid]):
                if not self.alive[succ]:
                    remove_choices[key] = combo
                    break
        return {
            "winner": "spoiler",
            "dead": dead_keys,
            "remove_choices": remove_choices,
        }


# ---------------------------------------------------------------------------
# Pursuit game solver


def cops_robber_wins(
    spec: GfwlSpec,
    f: Graph,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    want_certificate: bool = True,
) -> GameVerdict:
    """Decide the pursuit game on the query graph ``f``.

    Builds the reachable game graph over (phase, pebbles, robber
    component) states with Robber replies folded into for-all edges,
    then computes the attractor of the Robber-stuck positions by
    backward counter propagation.  Cops win iff every initial component
    choice lies in the attractor; every state outside it (cycles
    included) is a Robber win.  The run deadline is checked every 256
    generated states.
    """
    solver = _CrSolver(spec, f, max_states)
    start = time.perf_counter()
    solver.generate()
    generated = time.perf_counter()
    solver.attract()
    attracted = time.perf_counter()
    cops = all(solver.win[sid] for sid in solver.initial)
    edges = len(solver.edge_owner)
    verdict = GameVerdict(
        winner="cops" if cops else "robber",
        states_explored=len(solver.states.keys),
        stats={
            "generate_ms": round((generated - start) * 1000, 3),
            "attract_ms": round((attracted - generated) * 1000, 3),
            "edges": edges,
            "component_table_hits": edges - solver.game.table_misses,
        },
    )
    if want_certificate:
        verdict.certificate = solver.certificate(cops)
    return verdict


class _CrSolver:
    """Per for-all edge (one Cops move), in (owner, move) order: its
    owner state, choice and count of Robber replies not yet known to be
    Cops wins.  ``states.preds[sid]`` lists the edges that have state
    ``sid`` as a reply, in (owner, edge, reply) order."""

    def __init__(self, spec: GfwlSpec, f: Graph, max_states: int):
        self.spec = spec
        self.game = _PursuitMoves(spec, f)
        self.states = _StateIndex("pursuit", max_states)
        self.edge_owner: list[int] = []
        self.edge_choice: list = []
        self.edge_pending: list[int] = []
        self.initial: list[int] = []
        self.win: list[bool] = []
        self.win_edge: list = []

    def generate(self) -> None:
        states = self.states
        self.initial = [states.add(key) for key in self.game.initial()]
        index, rev, add = states.index, states.preds, states.add
        owner, choices, pending = self.edge_owner, self.edge_choice, self.edge_pending
        moves = self.game.moves
        eid = 0
        for sid, key in states.walk():
            for choice, succs in moves(key):
                owner.append(sid)
                choices.append(choice)
                pending.append(len(succs))
                for succ in succs:
                    tid = index.get(succ)
                    rev[add(succ) if tid is None else tid].append(eid)
                eid += 1
        n = self.game.tables.g.n
        bound = (n + 1) ** (self.spec.k + self.spec.t) * 2 ** n * (
            self.spec.n_stages + self.spec.m_stages + 1
        )
        if len(states.keys) > bound:
            raise RuntimeError("reachable state count exceeded its bound")

    def attract(self) -> None:
        """Propagate Cops wins backward over a queue of the edges whose
        Robber replies are all Cops wins, seeded in edge order; a
        state's first edge off the queue is its winning move."""
        owner, choices, pending = self.edge_owner, self.edge_choice, self.edge_pending
        rev, count = self.states.preds, len(self.states.keys)
        win = self.win = [False] * count
        win_edge = self.win_edge = [None] * count
        queue = [eid for eid, left in enumerate(pending) if not left]
        for eid in queue:  # list iteration reaches the appended edges
            sid = owner[eid]
            if win[sid]:
                continue
            win[sid] = True
            win_edge[sid] = choices[eid]
            for pred in rev[sid]:
                pending[pred] -= 1
                if not pending[pred]:
                    queue.append(pred)

    def certificate(self, cops: bool) -> dict:
        keys, index, decode = self.states.keys, self.states.index, self.game.decode
        if cops:
            moves = {
                decode(keys[sid]): self.win_edge[sid]
                for sid in range(len(keys))
                if self.win[sid] and self.win_edge[sid] is not None
            }
            return {"winner": "cops", "moves": moves}
        losing_initial = next(sid for sid in self.initial if not self.win[sid])
        responses = {}
        for sid, key in enumerate(keys):
            if self.win[sid] or key[0][0] not in ("I", "U"):
                continue
            decoded = decode(key)
            for choice, succs in self.game.moves(key):
                survivor = next((succ for succ in succs if not self.win[index[succ]]), None)
                if survivor is None:
                    raise RuntimeError("losing state must offer a surviving reply")
                responses[(decoded, choice)] = decode(survivor)[2]
        return {
            "winner": "robber",
            "initial_component": decode(keys[losing_initial])[2],
            "responses": responses,
        }


# ---------------------------------------------------------------------------
# Certificate replay


def replay_certificate(verdict: GameVerdict, spec: GfwlSpec, inputs) -> bool:
    """Replay a stored strategy against an exhaustive adversary.

    ``inputs`` is one graph for pursuit verdicts and a pair of graphs
    for bijection verdicts.  Returns True iff the claimed winner wins
    every line of play.  Malformed certificates raise
    :class:`CertificateError`.
    """
    cert = verdict.certificate
    if not isinstance(cert, dict) or cert.get("winner") != verdict.winner:
        raise CertificateError("certificate missing or winner mismatch")
    if verdict.winner in ("cops", "robber"):
        if not isinstance(inputs, Graph):
            raise CertificateError("pursuit replay needs a single graph input")
        if verdict.winner == "cops":
            return _replay_cops(cert, spec, inputs)
        return _replay_robber(cert, spec, inputs)
    try:
        g, h = inputs
    except (TypeError, ValueError) as exc:
        raise CertificateError("bijection replay needs a pair of graphs") from exc
    if verdict.winner == "spoiler":
        return _replay_spoiler(cert, spec, g, h)
    return _replay_duplicator(cert, spec, g, h)


def _component(stored) -> frozenset:
    try:
        return frozenset(stored)
    except TypeError as exc:
        raise CertificateError(f"component {stored!r} is not a node set") from exc


def _replay_cops(cert: dict, spec: GfwlSpec, g: Graph) -> bool:
    moves = cert.get("moves")
    if not isinstance(moves, dict):
        raise CertificateError("cops certificate needs a moves table")
    game = _PursuitMoves(spec, g)
    proven: set = set()

    def wins_from(key: tuple, path: frozenset) -> bool:
        if key in proven:
            return True
        if key in path:
            return False  # cycle: Cops never trap Robber on this line
        choice = moves.get(game.decode(key))
        if choice is None:
            return False
        try:
            tag, payload = choice
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"cops move {choice!r} is not a (tag, payload) pair") from exc
        succs = next((s for c, s in game.moves(key) if c == (tag, payload)), None)
        if succs is None:
            return False  # not a legal move in this state
        ok = all(wins_from(s, path | {key}) for s in succs)
        if ok:
            proven.add(key)
        return ok

    return all(wins_from(key, frozenset()) for key in game.initial())


def _replay_robber(cert: dict, spec: GfwlSpec, g: Graph) -> bool:
    responses = cert.get("responses")
    initial = cert.get("initial_component")
    if not isinstance(responses, dict) or initial is None:
        raise CertificateError("robber certificate needs responses and an initial component")
    game = _PursuitMoves(spec, g)
    initial_keys = {game.decode(key): key for key in game.initial()}
    start = initial_keys.get((("I", 1), (), _component(initial)))
    if start is None:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        key = frontier.pop()
        decoded = game.decode(key)
        for choice, succs in game.moves(key):
            if choice[0] == "put":
                stored = responses.get((decoded, choice))
                reply = None if stored is None else _component(stored)
                succs = [s for s in succs if game.decode(s)[2] == reply]
                if not succs:
                    return False  # stuck or invalid reply: Robber loses this line
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
    return True  # no reachable line traps Robber; infinite play wins


def _replay_duplicator(cert: dict, spec: GfwlSpec, g: Graph, h: Graph) -> bool:
    matchings = cert.get("matchings")
    if not isinstance(matchings, dict):
        raise CertificateError("duplicator certificate needs a matchings table")
    game = _BijectionMoves(spec, g, h)
    start = (("I", 1), (), ())
    seen = {start}
    frontier = [start]
    while frontier:
        key = frontier.pop()
        if key[0][0] in ("I", "U"):
            d, e, puts = game.puts(key)
            stored = matchings.get(key)
            if stored is None:
                return False
            try:
                pairs = [(tuple(a), tuple(b)) for a, b in stored]
                bijective = sorted(a for a, _ in pairs) == sorted(d) and sorted(
                    b for _, b in pairs
                ) == sorted(e)
            except (TypeError, ValueError) as exc:
                raise CertificateError(f"matching {stored!r} is not a list of tuple pairs") from exc
            if not bijective:
                return False  # not a bijection between the two choice sets
            # A pair that puts does not list has two types; when puts is
            # None, every bijection holds such a pair.
            typed = {(d[ai], e[bi]): succ for ai, bi, succ in puts or ()}
            succs = [typed.get(pair) for pair in pairs]
        else:
            succs = game.removals(key)
        if None in succs:
            return False
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return True  # play never reaches a mismatch; infinite play wins


def _replay_spoiler(cert: dict, spec: GfwlSpec, g: Graph, h: Graph) -> bool:
    dead = cert.get("dead")
    remove_choices = cert.get("remove_choices")
    if not isinstance(dead, list) or not isinstance(remove_choices, dict):
        raise CertificateError("spoiler certificate needs dead states and remove choices")
    try:
        dead_set = set(dead)
    except TypeError as exc:
        raise CertificateError("dead states must be state keys") from exc
    game = _BijectionMoves(spec, g, h)
    proven: set = set()

    def refuted(key: tuple, succ: tuple, path: frozenset) -> bool:
        """A dead successor from which Spoiler wins."""
        return succ in dead_set and succ not in path and wins_from(succ, path | {key})

    def wins_from(key: tuple, path: frozenset) -> bool:
        """Spoiler forces a win from ``key`` against every adversary move."""
        if key in proven:
            return True
        if key[0][0] in ("I", "U"):
            d, _, puts = game.puts(key)
            # Every bijection contains a refutable pair (a type mismatch
            # or a refuted put) iff the non-refutable puts admit no
            # perfect matching.  Puts exist only when both sides have
            # ``len(d)`` choices.
            if puts is not None:
                safe = [(ai, bi) for ai, bi, succ in puts if not refuted(key, succ, path)]
                if -1 not in _max_matching(len(d), safe):
                    return False
            proven.add(key)
            return True
        choice = remove_choices.get(key)
        if choice is None:
            return False
        try:
            combo = tuple(choice)
        except TypeError as exc:
            raise CertificateError(f"invalid index selection {choice!r}") from exc
        if combo not in _index_vectors(spec.k, spec.t):
            raise CertificateError(f"invalid index selection {choice!r}")
        ok = refuted(key, game.removal(key, combo), path)
        if ok:
            proven.add(key)
        return ok

    return wins_from((("I", 1), (), ()), frozenset())
