"""Exact solvers for the two pebble games attached to a refinement spec.

Both games share the move schedule of the spec: an initialization round
of N putting/guarding moves staged by ``i_seq``, then repeated update
rounds of M putting/guarding moves staged by ``j_seq`` plus one
removing/unguarding move that keeps k of the k+t pebbles.  Both build
refinement's tuple table and read everything from it: each putting
stage chooses from the same staged prefix groups the refinement's
aggregations fold over, a removal keeping index selection c is
replacement c (the table's getters), and type codes come from its
memo.  The table checks replacement closure when it is built, so a spec
whose refinement is undefined raises
:class:`~wlpower.errors.ClosureError` here too.

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

  Puts apply Hall's condition one move ahead.  Each choice of a putting
  state gets a key: the type of its new position and the Hall row of
  the state it leads to, which is the sorted type codes of that
  position's own choices when the next phase puts, and the Hall rows of
  the ``("U", 1)`` states its index selections keep when it removes.  A
  pair of choices with one type but two Hall rows leads to a state dead
  at birth: a putting state that fails Hall's condition, or a removing
  state with a selection that leads to one.  Such a pair is in no
  Duplicator matching, exactly like a type mismatch, so puts pair only
  choices of one key.  If the two sides' multisets of keys differ,
  every bijection pairs two keys that differ, so the state is dead at
  birth too.  Keys are computed on the positions before their joint
  pebble order, and two rows compared there agree with the same rows
  compared after it: the order moves both sides by one permutation,
  which maps the choices and their types alike on both sides, as the
  argument for type codes below says.

* The pursuit game runs on one graph.  The first player (Cops) places
  pebbles from the same choice sets; the second player (Robber)
  maintains a connected node set that shrinks within the unblocked part
  after each placement and grows back to its enclosing component after
  each removal.  Cops must trap Robber in finite play, so the solver
  computes the attractor (least fixed point) of the Robber-stuck
  positions, folding Robber replies into for-all edges.

Both games key their states by positions up to pebble order, one rule
for both (:func:`_pebble_order`; the symmetry quotient of Emerson and
Sistla, "Symmetry and model checking", FMSD 1996; Seymour and Thomas
place cops as a set for the same reason, JCTB 1993).  Permuting pebble
indices keeps a state's value.  Every selector kind is symmetric in the
entries of a tuple: the universe and the aggregation sets are closed
under permuting a tuple's entries, and each aggregation set depends only
on the entries of its colored tuple
(``tests/test_selectors.py::test_r_set_closed_under_entry_permutations``
and ``::test_f_set_depends_on_entry_set``), so permuted positions have
the same choices up to the same permutation.  In the bijection game one
permutation moves both sides at once, so it keeps two occupied tuples'
types equal or unequal (the type of a permuted tuple is the permuted
type); in the pursuit game Robber's component depends only on the set of
pebbled nodes.

Both games sort the whole position in every phase.  That is plainly
safe in the initialization round, whose choices depend only on the
universe, and where the next move is a removal, which keeps every
k-subsequence of the position.  Inside an update round the next stage
draws from the aggregation set of the main part ``pos[:k]``, and a sort
may move aux entries into it; that matters only where a put leads into
a phase ``("U", m)`` with m >= 2.  Such a phase needs a ``j_seq`` of two
or more stages, so t >= 2, and only ``all_t_tuples`` takes t >= 2
(``FSelector.validate_arity``; ``tests/test_selectors.py`` guards this
premise).  Under ``all_t_tuples`` every colored tuple's stage groups
continue every prefix with the same suffixes, so the choices of a
position do not depend on which k entries form its main part, and the
distinct-node filter reads only its node set.  And the main part of a
sorted position is a colored tuple: every k-subsequence of the
position, in any order, is in the universe, which is closed under
entry permutations, and closure under replacement by every t-tuple
forces a ``distance_restricted`` universe to hold every pair.  So
permuting the whole position keeps a state's value, by the argument
above.  The bijection game sorts ``(g node, h node)`` pairs, so its
pairs stay together.

Under selectors that ignore the graph (``all_k_tuples`` with
``all_nodes`` or ``all_t_tuples``), on a graph of at least k + t nodes,
both games put on unpebbled nodes only: the new nodes of a put are
distinct from each other and from the pebbled nodes
(:meth:`~wlpower.refinement._TupleTable.put_choices`, licensed by
``_distinct_puts``; graph searching places its searchers as a set for
the same reason, Seymour and Thomas, JCTB 1993).  The distinct-node
game has the full game's winner:

- Only the first player loses moves.  A Duplicator bijection that
  sends a choice repeating a pebbled g-node anywhere but to the choice
  repeating its h-partner leads to two positions with different
  equality patterns, a type mismatch; so Duplicator's safe bijections
  already pair the repeating choices by the partner map, and what is
  left is a bijection of the distinct choices, one of the distinct game.
  Robber's moves do not change.  So a first-player win in the distinct
  game is one in the full game.
- A spare pebble never hurts the first player, who plays a full-game
  strategy in the distinct game: where it puts on a pebbled node, the
  put goes to an unpebbled one instead, and one exists since n >= k +
  t; where it later puts on a node that holds a spare, that spare is
  re-designated and the next spare put elsewhere.  A spare only blocks
  more nodes, so Robber's component, grown or not, stays inside the
  full game's; or it adds a pebble pair whose type Duplicator must also
  respect, since the type of a sub-tuple is a function of the whole
  tuple's type.  Every put is legal because the selectors ignore the
  graph.
- A pair of graphs with different node counts is cut at the root
  either way: the first stage's choice counts differ, with or without
  the license on either side (a product of two or more consecutive
  positive integers is no perfect power: Erdős and Selfridge, Illinois
  J. Math. 1975).

Each game has one successor function (``_BijectionMoves``,
``_PursuitMoves``) that both its solver and :func:`replay_certificate`
call, so replay is no second copy of the rules; the independent oracles
stay the treewidth DP (Cops win iff treewidth <= k) and agreement of the
bijection game with refinement.  Both solvers number states through one
``_StateIndex``, and every certificate is read from the solved arena,
with no second pass over the moves.  Spoiler's names the dead states.
Both safety players, Robber and Duplicator, certify by their winning
region (the certificate of a safety game's winner: Grädel, Thomas and
Wilke (eds.), "Automata, Logics, and Infinite Games", LNCS 2500, 2002,
ch. 2): Robber's is every state outside the Cops attractor, Duplicator's
every state the fixpoint left alive, and one walk replays both, checking
that the player can keep play inside it forever.  A certificate has one
form, the one JSON holds: lists of state keys and of ``[state key,
value]`` pairs in sid order, a pursuit key naming Robber's component by
its sorted nodes.  Replay reads every key through its game's key reader
once, at entry, so a certificate replays alike from memory and from its
JSON dump.  Replay explores every move of the certified player's
opponent, so it stays sound whatever a certificate holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import BudgetError, CertificateError, check_deadline
from .graphs import Graph, component_masks, mask_nodes, node_mask
from .refinement import GfwlSpec, _index_vectors, _next_phase, _tables_of, _TupleTable
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
# Successor functions, shared by the solvers and certificate replay


def _pebble_order(pebbles: tuple) -> tuple:
    """``pebbles`` up to pebble order, the one rule by which both games
    key their positions in every phase: the whole tuple sorted (sound as
    the module docstring says).  The pursuit game passes its pebbled
    nodes; the bijection game passes ``(g node, h node)`` pairs, so one
    permutation of pebble indices moves both sides."""
    return tuple(sorted(pebbles))


class _BijectionMoves:
    """The bijection game on the graphs of two tuple tables of one spec.
    A state key is ``(phase, g-side tuple, h-side tuple)``, with the two
    sides up to one joint pebble order (:func:`_pebble_order` on their
    pairs); two occupied tuples have the same type when their
    :func:`~wlpower.graphs.atp` codes are equal.  Only a put can end in
    a type mismatch: it checks the whole position, and every index
    selection of two tuples of one type has one type, so a removal never
    does.  :meth:`puts` pairs the two sides' put rows and their choice
    keys (:meth:`~wlpower.refinement._TupleTable.put_row`,
    :meth:`~wlpower.refinement._TupleTable.put_keys`), so it pairs only
    choices of one type whose successors share a Hall row; the solver
    and both replays take every put from it, and a pair it does not list
    is a type mismatch or leads to a state dead at birth.  The two
    tables must share their ``hall_ids`` dictionary, so their ids
    compare."""

    def __init__(self, table_g: _TupleTable, table_h: _TupleTable):
        if table_g.hall_ids is not table_h.hall_ids:
            raise ValueError("the two tuple tables of a bijection game must share hall_ids")
        self.spec = table_g.spec
        self.tables_g = table_g
        self.tables_h = table_h

    def puts(self, key: tuple) -> tuple[int, list | None]:
        """A putting state's g-side choice count and its puts: ``(g
        index, h index, successor)`` in index order, pairing each g-side
        choice with every h-side choice of the same key, and each
        successor up to joint pebble order.  Puts are never merged, even
        where two lead to one successor: Duplicator's bijection is over
        choices.  The puts are None, the state lost for the second player
        whatever its successors, when the two sides' Hall rows differ (no
        bijection respects types: Hall's condition fails) or, checked
        only after them, their sorted keys (every bijection pairs two
        keys that differ)."""
        phase, pos_g, pos_h = key
        table_g, table_h = self.tables_g, self.tables_h
        new_g, _, hall_g = table_g.put_row(phase, pos_g)
        new_h, _, hall_h = table_h.put_row(phase, pos_h)
        if hall_g != hall_h:
            return len(new_g), None
        keys_g, sorted_g, _ = table_g.put_keys(phase, pos_g)
        _, sorted_h, buckets = table_h.put_keys(phase, pos_h)
        if sorted_g != sorted_h:
            return len(new_g), None
        nxt = _next_phase(self.spec, phase)
        return len(new_g), [
            (ai, bi, (nxt, *zip(*_pebble_order(tuple(zip(tup, new_h[bi]))))))
            for ai, (tup, choice) in enumerate(zip(new_g, keys_g))
            for bi in buckets[choice]
        ]

    def removals(self, key: tuple) -> list[tuple]:
        """The successors of a removing state, one per index selection
        in lexicographic order: keeping selection ``c`` is replacement
        ``c``, so the table's getters give them.  The kept pairs are an
        ordered subsequence of a jointly sorted position, so they need
        no sort."""
        _, pos_g, pos_h = key
        return [(("U", 1), get(pos_g), get(pos_h)) for get in self.tables_g.getters]


class _ComponentTable(dict):
    """Blocked-node mask to the component masks of g minus those nodes
    (:func:`~wlpower.graphs.component_masks`), computed on the first
    lookup of each mask; ``len`` counts the misses."""

    __slots__ = ("adj",)

    def __init__(self, g: Graph):
        super().__init__()
        self.adj = g.adj_masks

    def __missing__(self, blocked: int) -> list[int]:
        comps = self[blocked] = component_masks(self.adj, blocked)
        return comps


class _PursuitMoves:
    """The pursuit game on one graph.  A state key is ``(phase, pebbles,
    Robber's component)``, with the component as a node mask (bit ``v``
    set iff node ``v`` is in it) and the pebbles up to pebble order
    (:func:`_pebble_order`, sound as the module docstring says).
    Robber's component is always a component of g minus the pebbled
    nodes, so every component comes from one table keyed by the
    blocked-node mask, the game's only memo (:class:`_ComponentTable`, a
    dict that fills itself on a miss).
    A put's replies are the table's components inside Robber's, and a
    removal's grown component is the one holding the lowest node of
    Robber's: Robber's component is connected and avoids the kept
    pebbles, so the one component of g minus them that holds any of its
    nodes holds it all.  Certificates name a component by its sorted
    nodes, and :func:`_pursuit_key` reads that back into a mask."""

    def __init__(self, spec: GfwlSpec, g: Graph):
        self.spec = spec
        self.tables = _TupleTable(spec, g)
        self._components = _ComponentTable(g)
        combos = _index_vectors(spec.k, spec.t)
        self._removals = [(("rm", combo), get) for combo, get in zip(combos, self.tables.getters)]

    def initial(self) -> list[tuple]:
        """The empty board with Robber in each component of g."""
        return [(("I", 1), (), comp) for comp in self._components[0]]

    def moves(self, key: tuple) -> list[tuple]:
        """Cops' moves as ``[(choice, [successor per Robber reply])]``.
        A put leaves Robber the components inside the current one, and
        each canonical position it leads to is offered once, by its first
        choice.  A removal grows Robber's component to the one that
        contains it; its kept pebbles are an ordered subsequence of a
        sorted tuple, so they need no sort.  Each put and each removal
        looks the component table up once."""
        phase, pos, comp = key
        out = []
        table = self._components
        if phase[0] != "R":
            nxt = _next_phase(self.spec, phase)
            blocked = node_mask(pos)
            offered = set()
            for delta in self.tables.put_choices(phase, pos):
                new_pos = _pebble_order(pos + delta)
                if new_pos in offered:
                    continue
                offered.add(new_pos)
                new_blocked = blocked
                for v in delta:
                    new_blocked |= 1 << v
                replies = [(nxt, new_pos, c) for c in table[new_blocked] if not c & ~comp]
                out.append((("put", delta), replies))
            return out
        low = comp & -comp
        for choice, get in self._removals:
            new_pos = get(pos)
            for grown in table[node_mask(new_pos)]:
                if grown & low:
                    break
            else:
                raise RuntimeError(
                    "Robber's component must lie in one component of g minus the kept pebbles"
                )
            out.append((choice, [(("U", 1), new_pos, grown)]))
        return out


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class GameVerdict:
    """Outcome of one game solve.

    ``winner`` is ``"cops"``/``"robber"`` for the pursuit game and
    ``"spoiler"``/``"duplicator"`` for the bijection game.  ``stats``
    holds solver counters (phase milliseconds, edges, table hits); they
    vary between runs and are no part of the verdict, so neither
    equality nor :meth:`to_json_dict` reads them.
    """

    winner: str
    states_explored: int
    certificate: dict | None = None
    stats: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self, include_certificate: bool = False) -> dict:
        out = {"winner": self.winner, "states_explored": self.states_explored}
        if include_certificate and self.certificate is not None:
            out["certificate"] = dict(self.certificate)
        return out


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
        included; the run deadline is checked every 256 states and once
        more when the walk ends, so an arena of fewer states than that is
        checked after its generation too."""
        for sid, key in enumerate(self.keys):  # reaches appended keys
            if not sid & 255:
                check_deadline()
            yield sid, key
        check_deadline()


# ---------------------------------------------------------------------------
# Bijection game solver


def spoiler_wins(
    spec: GfwlSpec,
    g: Graph,
    h: Graph,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    want_certificate: bool = True,
    tables: tuple[_TupleTable, _TupleTable] | None = None,
) -> GameVerdict:
    """Decide the bijection game on ``(g, h)``.

    Greatest fixed point over reachable type-consistent states: a
    putting state survives while the safe pairs (same key, surviving
    successor) admit a perfect matching; a removing state survives while
    every index selection leads to a surviving state.  The first player
    wins iff the empty-board root is deleted.  A Duplicator certificate
    lists every surviving state, its winning region (``region``); a
    Spoiler certificate lists the deleted states (``dead``) and pairs each
    deleted removing state with a refuting index selection
    (``remove_choices``).  The run deadline is checked every 256
    generated states and when generation ends.  States are counted up
    to joint pebble order, and a pair of choices whose successor fails
    Hall's condition is never listed, so that successor is not counted.
    ``stats`` holds the phase milliseconds (``table_ms`` builds the two
    tuple tables), ``matching_calls`` (bipartite matchings run by the
    fixpoint) and ``cut_states`` (putting states cut, dead at birth, by
    Hall's condition on the state or one move ahead).
    ``tables`` hands in the tuple tables of ``(spec, g)`` and ``(spec,
    h)`` when the caller built them already, so a suite that solves many
    pairs builds one table per graph and shares its put rows; tables
    built by one ``_tables_of`` call share their ``hall_ids``, as a game
    needs.
    """
    start = time.perf_counter()
    solver = _EfSolver(*_tables_of(spec, (g, h), tables), max_states)
    built = time.perf_counter()
    solver.generate()
    generated = time.perf_counter()
    solver.fixpoint()
    fixed = time.perf_counter()
    root_alive = solver.alive[0]
    verdict = GameVerdict(
        winner="duplicator" if root_alive else "spoiler",
        states_explored=len(solver.states.keys),
        stats={
            "table_ms": round((built - start) * 1000, 3),
            "generate_ms": round((generated - built) * 1000, 3),
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
    putting state's g-side choice count (None for a removing state), and
    ``succs`` its moves: ``(g index, h index, successor)`` per put
    listed by ``_BijectionMoves.puts``, or the successor per index
    selection.  A putting state cut by Hall's condition, on the state or
    one move ahead, has None for ``succs``: it is dead at birth.
    ``states.preds[sid]`` lists each state with a move to ``sid`` once.
    ``refuting`` maps each dead removing state to the first index
    selection whose successor was dead already when the state died, so
    Spoiler replay follows the order of deaths and never cycles."""

    def __init__(self, table_g: _TupleTable, table_h: _TupleTable, max_states: int):
        self.spec = table_g.spec
        self.game = _BijectionMoves(table_g, table_h)
        self.states = _StateIndex("bijection", max_states)
        self.choices: list = []
        self.succs: list = []
        self.alive: list[bool] = []
        self.refuting: dict[int, int] = {}
        self.matching_calls = 0

    def generate(self) -> None:
        states, game = self.states, self.game
        add, preds = states.add, states.preds
        add((("I", 1), (), ()))
        for sid, key in states.walk():
            if key[0][0] == "R":
                count = None
                succs = targets = [add(s) for s in game.removals(key)]
            else:
                count, puts = game.puts(key)
                if puts is None:  # dead at birth: explore no further
                    succs, targets = None, []
                else:
                    succs = [(ai, bi, add(s)) for ai, bi, s in puts]
                    targets = [s for _, _, s in succs]
            self.choices.append(count)
            self.succs.append(succs)
            for succ in targets:
                if not preds[succ] or preds[succ][-1] != sid:
                    preds[succ].append(sid)

    def _survives(self, sid: int) -> bool:
        """Judge a removing state, or a putting state not cut at birth,
        which survives while the pairs whose successor survives admit a
        perfect matching.  The fixpoint deletes a state judged lost at
        once, so a lost removing state records its ``refuting`` selection
        here."""
        alive, count = self.alive, self.choices[sid]
        if count is None:
            dead = next((c for c, s in enumerate(self.succs[sid]) if not alive[s]), None)
            if dead is not None:
                self.refuting[sid] = dead
            return dead is None
        self.matching_calls += 1
        pairs = [(ai, bi) for ai, bi, succ in self.succs[sid] if alive[succ]]
        return -1 not in _max_matching(count, pairs)

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
        keys, alive = self.states.keys, self.alive
        if root_alive:
            region = [key for key, live in zip(keys, alive) if live]
            return {"winner": "duplicator", "region": region}
        dead_keys = [key for key, live in zip(keys, alive) if not live]
        combos = _index_vectors(self.spec.k, self.spec.t)
        remove_choices = [(keys[sid], combos[c]) for sid, c in sorted(self.refuting.items())]
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
    included) is a Robber win.  A Cops certificate pairs each attractor
    state with its winning move (``moves``); a Robber certificate lists
    every state outside the attractor, its winning region (``region``).
    Both are in sid order.  Robber replay follows, for each Cops move,
    the first reply in move order that lies in the region.  The run
    deadline is checked every 256 generated states and when generation
    ends.  ``stats`` holds the phase milliseconds (``table_ms`` builds
    the tuple table), ``edges`` and ``component_table_hits``.
    """
    start = time.perf_counter()
    solver = _CrSolver(spec, f, max_states)
    built = time.perf_counter()
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
            "table_ms": round((built - start) * 1000, 3),
            "generate_ms": round((generated - built) * 1000, 3),
            "attract_ms": round((attracted - generated) * 1000, 3),
            "edges": edges,
            # one table lookup per edge plus the initial board's; each miss adds an entry
            "component_table_hits": edges + 1 - len(solver.game._components),
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
        rev, add = states.preds, states.add
        owner, choices, pending = self.edge_owner, self.edge_choice, self.edge_pending
        moves = self.game.moves
        eid = 0
        for sid, key in states.walk():
            for choice, succs in moves(key):
                owner.append(sid)
                choices.append(choice)
                pending.append(len(succs))
                for succ in succs:
                    rev[add(succ)].append(eid)
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
        """Keys name Robber's component by its sorted nodes."""
        keys = [(phase, pos, tuple(mask_nodes(comp))) for phase, pos, comp in self.states.keys]
        if cops:
            moves = [(key, move) for key, move in zip(keys, self.win_edge) if move is not None]
            return {"winner": "cops", "moves": moves}
        win, owner = self.win, self.edge_owner
        if any(not left and not win[owner[eid]] for eid, left in enumerate(self.edge_pending)):
            raise RuntimeError("losing state must offer a surviving reply")
        return {"winner": "robber", "region": [key for key, won in zip(keys, win) if not won]}


# ---------------------------------------------------------------------------
# Certificate replay


def replay_certificate(verdict: GameVerdict, spec: GfwlSpec, inputs) -> bool:
    """Replay a stored strategy against an exhaustive adversary.

    ``inputs`` is one graph for pursuit verdicts and a pair of graphs
    for bijection verdicts.  The certificate may be the solver's own or
    read back from JSON.  Returns True iff the claimed winner wins every
    line of play.  Malformed certificates raise :class:`CertificateError`.
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


def _pursuit_key(entry) -> tuple:
    """A pursuit state key read from ``[phase, pebbles, component nodes]``."""
    phase, pos, comp = entry
    return (tuple(phase), tuple(pos), node_mask(comp))


def _bijection_key(entry) -> tuple:
    """A bijection state key read from ``[phase, g pebbles, h pebbles]``."""
    phase, pos_g, pos_h = entry
    return (tuple(phase), tuple(pos_g), tuple(pos_h))


def _read(cert: dict, name: str, read_key, pairs: bool = False):
    """The certificate's list ``name`` with every state key read by
    ``read_key``: a dict of its ``[state key, value]`` pairs when
    ``pairs``, else a set of its state keys."""
    entries = cert.get(name)
    if not isinstance(entries, list):
        raise CertificateError(f"{cert['winner']} certificate needs a {name} list")
    try:
        if pairs:
            return {read_key(key): value for key, value in entries}
        return {read_key(key) for key in entries}
    except (TypeError, ValueError) as exc:
        form = "[state key, value] pairs" if pairs else "state keys"
        raise CertificateError(f"{name} entries must be {form}") from exc


def _replay_cops(cert: dict, spec: GfwlSpec, g: Graph) -> bool:
    moves = _read(cert, "moves", _pursuit_key, pairs=True)
    game = _PursuitMoves(spec, g)
    proven: set = set()

    def wins_from(key: tuple, path: frozenset) -> bool:
        if key in proven:
            return True
        if key in path:
            return False  # cycle: Cops never trap Robber on this line
        choice = moves.get(key)
        if choice is None:
            return False
        try:
            tag, payload = choice
            move = (tag, tuple(payload))
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"cops move {choice!r} is not a (tag, payload) pair") from exc
        succs = next((s for c, s in game.moves(key) if c == move), None)
        if succs is None:
            return False  # not a legal move in this state
        ok = all(wins_from(s, path | {key}) for s in succs)
        if ok:
            proven.add(key)
        return ok

    return all(wins_from(key, frozenset()) for key in game.initial())


def _stays_in_region(region: set, starts: list, follow) -> bool:
    """Whether a safety player keeps play inside ``region`` forever.
    Play starts at the first start state inside it; ``follow`` gives,
    per reached state, the successors that the player's replies to every
    opponent move lead to, or None when some move leaves no reply
    inside.  Every successor is walked, so True holds on every line of
    play, and play that never leaves the region is a win."""
    start = next((key for key in starts if key in region), None)
    if start is None:
        return False
    seen = {start}
    frontier = [start]
    while frontier:
        succs = follow(frontier.pop())
        if succs is None:
            return False
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return True


def _replay_robber(cert: dict, spec: GfwlSpec, g: Graph) -> bool:
    region = _read(cert, "region", _pursuit_key)
    game = _PursuitMoves(spec, g)

    def follow(key: tuple) -> list | None:
        """Per Cops move, the first reply in move order inside the region."""
        replies = [next((s for s in succs if s in region), None) for _, succs in game.moves(key)]
        return None if None in replies else replies

    return _stays_in_region(region, game.initial(), follow)


def _replay_duplicator(cert: dict, spec: GfwlSpec, g: Graph, h: Graph) -> bool:
    region = _read(cert, "region", _bijection_key)
    game = _BijectionMoves(*_tables_of(spec, (g, h), None))

    def follow(key: tuple) -> list | None:
        """Every removal, or the puts of a perfect matching of the listed
        puts whose successor lies inside the region."""
        if key[0][0] == "R":
            succs = game.removals(key)
            return succs if all(s in region for s in succs) else None
        count, puts = game.puts(key)
        if puts is None:  # every bijection pairs two keys that differ
            return None
        inside = [(ai, bi, s) for ai, bi, s in puts if s in region]
        match = _max_matching(count, [(ai, bi) for ai, bi, _ in inside])
        if -1 in match:
            return None
        return [s for ai, bi, s in inside if match[ai] == bi]

    return _stays_in_region(region, [(("I", 1), (), ())], follow)


def _replay_spoiler(cert: dict, spec: GfwlSpec, g: Graph, h: Graph) -> bool:
    dead_set = _read(cert, "dead", _bijection_key)
    remove_choices = _read(cert, "remove_choices", _bijection_key, pairs=True)
    game = _BijectionMoves(*_tables_of(spec, (g, h), None))
    combos = _index_vectors(spec.k, spec.t)
    proven: set = set()

    def refuted(key: tuple, succ: tuple, path: frozenset) -> bool:
        """A dead successor from which Spoiler wins."""
        return succ in dead_set and succ not in path and wins_from(succ, path | {key})

    def wins_from(key: tuple, path: frozenset) -> bool:
        """Spoiler forces a win from ``key`` against every adversary move."""
        if key in proven:
            return True
        if key[0][0] in ("I", "U"):
            count, puts = game.puts(key)
            # Every bijection contains a refutable pair (two keys that
            # differ, or a refuted put) iff the non-refutable puts admit
            # no perfect matching.  Puts exist only when both sides have
            # ``count`` choices.
            if puts is not None:
                safe = [(ai, bi) for ai, bi, succ in puts if not refuted(key, succ, path)]
                if -1 not in _max_matching(count, safe):
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
        if combo not in combos:
            raise CertificateError(f"invalid index selection {choice!r}")
        ok = refuted(key, game.removals(key)[combos.index(combo)], path)
        if ok:
            proven.add(key)
        return ok

    return wins_from((("I", 1), (), ()), frozenset())
