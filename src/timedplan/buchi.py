"""Lazy acceptance product of a weighted transition system with a timed
automaton.

A product node is one int, ``sid << 32 | cid``: ``sid`` numbers system
states and ``cid`` (automaton location, clock tuple) configurations in the
order they are first met, the initial ones first and sorted, so initial nodes
sort as their tuples do.  ``BuchiWTS.node`` reads a node back as (system
state, location, clock tuple), and runs hold such tuples.

A move dwells in the source for one transition weight, so the clocks advance
by exactly that weight before the guard is read.  Clocks count integer
ticks of ``unit``, the largest rational that divides the system's quantum
and every guard and invariant constant, so every reachable value is a whole
number of ticks.  Values above the automaton's largest constant collapse to
the sentinel ``cap``, one tick above it, and a clock that no guard or
invariant can read before it is reset (``TBA.active``) is stored as 0.
Neither changes any guard verdict, so the product is bisimilar to the one
with exact clocks; together they keep it finite, and let a lasso close as
soon as nothing left to read tells its nodes apart.  Acceptance is
inherited from the automaton, so an accepting lasso of this product
projects to a system run whose observation word the automaton accepts,
and the durations along the lasso are genuine transition weights.

The automaton's initial and step rules are ``TBA.start`` and ``TBA.step``,
applied to its copy in ticks (``TBA.in_ticks``), a step once per distinct
(configuration, delay, letter); a node's successors are the system moves of
its state crossed with those steps.

Anchors, the accepting nodes that lie on a cycle, are met one at a time
by a lazy breadth-first walk (``BuchiWTS.anchor``) that explores the
product only until the anchor asked for is decided, as on-the-fly
emptiness checks do (Courcoubetis, Vardi, Wolper & Yannakakis, FMSD 1992;
Couvreur, FM 1999).  An accepting node is decided when it is discovered:
by a self-loop at once, else by a cycle pass from it.  ``anchors`` and
``live`` run the walk to the end.

The product of a joint system with the ``intersect`` of its agents'
automata is synchronized from the agents' own completely explored
products (``SyncProduct``, after Tumova & Dimarogonas, Automatica 2016).
Agents provide disjoint services, so each operand reads only its own
agent's letter and a joint move is one move of each agent's product; the
fold's phases and acceptance are read off ``intersect``, which states the
counter once.  A joint node is kept only when each agent's node in it can
reach an accepting cycle in the agent's product (``live``).  A dead node
reaches only dead nodes and lies on no accepting lasso, so a depth-first
search meets the kept nodes in the same order with or without the dead
ones, and every path to a kept node, breadth-first stems and cycles
included, runs through kept nodes.  Each agent's clocks count its own
ticks up to its own cap, so where those differ from the ones the whole
intersection would use, the product is a quotient of the unpruned one,
with the same verdict.  ``SyncProduct`` is a ``BuchiWTS`` in all but how
it expands a node.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from fractions import Fraction

from .errors import AlphabetMismatch, BudgetExceeded, MismatchedTimeStep
from .rational import frac_gcd
from .search import bfs_order, nested_dfs, on_cycle, shortest_cycle, tree_path
from .tba import TBA
from .wts import TimedRun

_CID = (1 << 32) - 1  # the configuration bits of a node


class BuchiWTS:
    """Explored on demand; keeps every discovered node for budget control.

    The system must expose ``dt``, a quantum every transition weight is a
    whole multiple of.  ``tba`` holds the automaton in ticks of ``unit``.
    """

    def __init__(self, wts, tba: TBA, max_states: int | None = None):
        if wts.alphabet != tba.ap:
            raise AlphabetMismatch(
                f"system alphabet {sorted(wts.alphabet)} differs from the "
                f"automaton alphabet {sorted(tba.ap)}"
            )
        self.wts = wts
        self.max_states = max_states
        self.unit: Fraction = frac_gcd([wts.dt, *tba.constants])
        self.tba = tba = tba.in_ticks(self.unit)
        self.cap: int = int(tba.c_max) + 1
        self._dt_ticks = int(wts.dt / self.unit)  # the weight of most moves
        self._states: list = []  # sid -> system state
        self._sids: dict = {}
        self._letters: list = []  # sid -> label
        self._moves: dict = {}  # sid -> (moves, keys), see _moves_of
        self._reaches: dict = {}  # sid -> the states its moves reach
        self._confs: list = []  # cid -> (location, clocks)
        self._cids: dict = {}
        self._accepting: set = set()  # cids at accepting locations
        self._steps: dict = {}
        self._memo: dict = {}
        self._seen: set = set()
        self._start_walk()
        zeros = (0,) * len(tba.clocks)
        sids = [self._sid(s) for s in sorted(wts.initial)]
        cids = {q: self._cid((q, zeros)) for q in sorted(tba.initial)}
        self.initial = tuple(
            sid << 32 | cids[q] for sid in sids for q in tba.start(self._letters[sid])
        )
        self._note(self.initial)

    @property
    def n_explored(self) -> int:
        return len(self._seen)

    def _note(self, codes):
        self._seen.update(codes)
        if self.max_states is not None and len(self._seen) > self.max_states:
            raise BudgetExceeded(
                f"acceptance product passed {self.max_states} states",
                count=len(self._seen),
            )

    def accepting(self, code) -> bool:
        return code & _CID in self._accepting

    def node(self, code) -> tuple:
        return (self._states[code >> 32], *self._confs[code & _CID])

    def _start_walk(self):
        self._parent: dict = {}  # the walk's breadth-first tree so far
        self._hits: list = []  # the anchors it has met, in order
        # the walk holds the product weakly, so that the two make no
        # reference cycle and the product is freed as soon as it is dropped
        self._walk = _anchor_walk(weakref.proxy(self))  # None once it is done

    def _met(self, n) -> int:
        """Walks until ``n`` anchors are met or the product is exhausted;
        the number met."""
        hits = self._hits
        if len(hits) < n and self._walk is not None:
            for hit in self._walk:
                hits.append(hit)
                if len(hits) >= n:
                    break
            else:
                if self._walk is not None:  # an error ended the walk early
                    raise RuntimeError("the product's walk was cut short by an earlier error")
        return len(hits)

    def anchor(self, i: int):
        """Anchor ``i`` in breadth-first discovery order, or None when the
        product has no more than ``i`` anchors.  Explores the product only
        until the walk meets it, or completely when it is missing."""
        return self._hits[i] if self._met(i + 1) > i else None

    def anchors(self):
        """Every anchor in breadth-first discovery order, with the walk's
        parent map: the walk run to the end, which explores the whole
        reachable product.  The product is empty of accepting lassos
        exactly when the list is empty.
        """
        self._met(math.inf)
        return self._hits, self._parent

    def live(self) -> set:
        """Explored nodes from which an accepting cycle is reachable: the
        backward closure of ``anchors()`` over the explored product, which
        the first call explores completely.
        """
        live = set(self.anchors()[0])
        preds: dict = {}
        for src, dsts in self._memo.items():
            for dst in dsts:
                preds.setdefault(dst, []).append(src)
        todo = list(live)
        while todo:
            for src in preds.get(todo.pop(), ()):
                if src not in live:
                    live.add(src)
                    todo.append(src)
        return live

    def _sid(self, s) -> int:
        sid = self._sids.setdefault(s, len(self._states))
        if sid == len(self._states):
            self._states.append(s)
            self._letters.append(self.wts.label(s))
        return sid

    def _cid(self, conf) -> int:
        cid = self._cids.setdefault(conf, len(self._confs))
        if cid == len(self._confs):
            self._confs.append(conf)
            if conf[0] in self.tba.accepting:
                self._accepting.add(cid)
        return cid

    def _moves_of(self, sid):
        """``(moves, keys)`` of system state ``sid``: ``keys`` are its moves'
        distinct (weight in ticks, successor's label) pairs and ``moves`` has
        one ``(successor sid << 32, key index, weight)`` per move, lightest
        first, then staying put, then by state.
        """
        got = self._moves.get(sid)
        if got is None:
            s = self._states[sid]
            keyed = []
            dt = self.wts.dt
            for s2, w in self.wts.succ_weighted(s):
                # identity first: comparing, let alone hashing, Fractions is slow
                if w is dt or w == dt:
                    ticks = self._dt_ticks
                else:
                    ticks = w / self.unit
                    if ticks.denominator != 1:
                        raise MismatchedTimeStep(
                            f"weight {w} of {s!r} -> {s2!r} is not a multiple "
                            f"of the system quantum {dt}"
                        )
                    ticks = int(ticks)
                keyed.append((ticks, s2 != s, s2, w))
            # staying put first keeps enumerated lassos compact, which makes
            # the per-agent route's combination step far more likely to succeed
            keyed.sort()  # ties on (ticks, s2) are ties on the weight too
            keys: dict = {}
            moves = []
            for ticks, _, s2, w in keyed:
                sid2 = self._sid(s2)
                k = keys.setdefault((ticks, self._letters[sid2]), len(keys))
                moves.append((sid2 << 32, k, w))
            got = self._moves[sid] = (tuple(moves), tuple(keys))
        return got

    def _reach(self, sid) -> set:
        """The system states the moves of system state ``sid`` reach
        (memoized)."""
        got = self._reaches.get(sid)
        if got is None:
            states = self._states
            got = self._reaches[sid] = {states[m >> 32] for m, _, _ in self._moves_of(sid)[0]}
        return got

    def _step(self, cid, ticks, letter):
        """Automaton moves after dwelling ``ticks`` in configuration ``cid``
        and then reading ``letter`` (``TBA.step``), numbered: distinct target
        cids in edge order.
        """
        key = (cid, ticks, letter)
        got = self._steps.get(key)
        if got is None:
            targets = self.tba.step(*self._confs[cid], ticks, letter, self.cap)
            got = self._steps[key] = tuple(map(self._cid, targets))
        return got

    def succ(self, code):
        got = self._memo.get(code)
        if got is None:
            got = self._expand(code)
            self._note(got)
            self._memo[code] = got
        return got

    def _expand(self, code):
        moves, keys = self._moves_of(code >> 32)
        cid = code & _CID
        steps = [self._step(cid, ticks, letter) for ticks, letter in keys]
        return tuple(dict.fromkeys([base | c for base, k, _ in moves for c in steps[k]]))

    def delta(self, src, dst) -> Fraction:
        """Sojourn of an explored product move: the smallest weight that
        makes it.
        """
        if dst in self._memo.get(src, ()):
            moves, keys = self._moves_of(src >> 32)
            for base, k, w in moves:
                if base == dst & ~_CID and dst & _CID in self._step(src & _CID, *keys[k]):
                    return w
        raise RuntimeError(f"no explored product move {src} -> {dst}")


class SyncProduct(BuchiWTS):
    """The product of the ``ProductWTS`` ``wts`` with ``tba``, the
    ``intersect`` of its agents' automata, synchronized from ``agents``:
    product ``k`` of agent ``k``'s system with operand ``k``, each explored
    completely.  A node is (joint state, one live node of each agent's
    product, the fold's phases), one int ``sid << 32 | cid`` where ``cid``
    numbers (agent cids, phases), so that initial nodes sort as their
    tuples do.  Its successors are, for each joint move that
    ``ProductWTS.successors`` gives with every agent's post cut to the
    cells its live successors land on, staying put first, the product,
    agent 1 outermost, of each agent's live successors on the agent's
    cell; ``max_states`` and ``n_explored`` count these nodes.  It is
    searched, budgeted and memoized as a ``BuchiWTS``; only how a node is
    expanded differs.
    """

    def __init__(self, wts, tba: TBA, agents, max_states: int | None = None):
        self.wts = wts
        self.tba = tba
        self.agents = tuple(agents)
        self.max_states = max_states
        self._lives = [a.live() for a in self.agents]
        self._states: list = []  # sid -> joint state
        self._asids: list = []  # sid -> the agents' sids
        self._sids: dict = {}  # joint state -> sid
        self._checked: set = set()  # sids whose posts _check has seen
        self._confs: list = []  # cid -> (the agents' cids, phases)
        self._cids: dict = {}
        self._nexts: list = []  # cid -> phases after a move
        self._accepting: set = set()  # cids at accepting locations
        self._steps = [{} for _ in self.agents]  # per agent: node -> live steps
        self._memo: dict = {}
        self._seen: set = set()
        self._start_walk()
        ones = (1,) * (len(self.agents) - 1)
        starts = {}
        for s in sorted(wts.initial):
            starts[self._sid(s)] = list(itertools.product(*(
                [c & _CID for c in a.initial if a._states[c >> 32] == x and c in live]
                for a, x, live in zip(self.agents, s, self._lives)
            )))
        # each product numbers its initial configurations in sorted order,
        # so numbering these in sorted order sorts initial nodes as tuples
        for conf in sorted(set(itertools.chain(*starts.values()))):
            self._cid((conf, ones))
        self.initial = tuple(
            sid << 32 | self._cids[(conf, ones)] for sid, confs in starts.items() for conf in confs
        )
        self._note(self.initial)

    def node(self, code) -> tuple:
        """(joint state, location of ``tba``, clocks): the agents' clocks in
        turn, each in its own product's ticks."""
        acids, ps = self._confs[code & _CID]
        confs = [a._confs[c] for a, c in zip(self.agents, acids)]
        return (self._states[code >> 32], (tuple(q for q, _ in confs), ps),
                tuple(itertools.chain.from_iterable(nu for _, nu in confs)))

    def _sid(self, s) -> int:
        sid = self._sids.setdefault(s, len(self._states))
        if sid == len(self._states):
            self._states.append(s)
            self._asids.append(tuple(a._sids[x] for a, x in zip(self.agents, s)))
        return sid

    def _cid(self, conf) -> int:
        cid = self._cids.setdefault(conf, len(self._confs))
        if cid == len(self._confs):
            self._confs.append(conf)
            acids, ps = conf
            q = (tuple(a._confs[c][0] for a, c in zip(self.agents, acids)), ps)
            # ``intersect`` sets the same phases on every out-edge of a
            # location; no move leaves a location without one
            out = self.tba.out_edges(q)
            self._nexts.append(out[0].dst[1] if out else None)
            if q in self.tba.accepting:
                self._accepting.add(cid)
        return cid

    def _check(self, sid):
        """Every joint move is a move of each agent's system, so a post of
        joint state ``sid`` outside those moves is a bug, raised as such."""
        s = self._states[sid]
        for k, (a, x, post) in enumerate(zip(self.agents, self._asids[sid], self.wts.posts(s)), 1):
            if not a._reach(x).issuperset(post):
                raise RuntimeError(f"a joint move from {s} projects outside agent product {k}")
        self._checked.add(sid)

    def _live_steps(self, k, code) -> dict:
        """Agent ``k``'s live successors of its node ``code``, grouped by
        cell: cell -> cids, in its product's order."""
        got = self._steps[k].get(code)
        if got is None:
            got = self._steps[k][code] = {}
            a, live = self.agents[k], self._lives[k]
            for n in a._memo[code]:
                if n in live:
                    got.setdefault(a._states[n >> 32], []).append(n & _CID)
        return got

    def _expand(self, code):
        sid, cid = code >> 32, code & _CID
        if sid not in self._checked:
            self._check(sid)
        s = self._states[sid]
        steps = [self._live_steps(k, x << 32 | c)
                 for k, (x, c) in enumerate(zip(self._asids[sid], self._confs[cid][0]))]
        # posts cut to where some live agent node goes, before any product
        moves = list(self.wts.successors(s, steps))
        if s in moves:
            moves.remove(s)  # staying put first, as in BuchiWTS
            moves.insert(0, s)
        nxt = self._nexts[cid]
        sids, cids = self._sids, self._cids
        got = []
        for move in moves:  # number 0 reads as missing and is looked up again
            base = (sids.get(move) or self._sid(move)) << 32
            for conf in itertools.product(*map(dict.__getitem__, steps, move)):
                key = (conf, nxt)
                got.append(base | (cids.get(key) or self._cid(key)))
        return tuple(got)

    def delta(self, src, dst) -> Fraction:
        """Sojourn of an explored product move: one quantum."""
        if dst in self._memo.get(src, ()):
            return self.wts.dt
        raise RuntimeError(f"no explored product move {src} -> {dst}")


def _anchor_walk(b: BuchiWTS):
    """Anchors, accepting nodes that lie on a cycle, as a lazy breadth-first
    walk of ``b`` meets them.  Each accepting node is decided when it is
    discovered: by a self-loop at once, else by a cycle pass from it whose
    numbering carries over to the next pass; an accepting node's component
    lies in its own forward closure, so the passes see all of it.
    """
    num: dict = {}
    cyclic: set = set()
    parent, memo, accepting = b._parent, b._memo, b._accepting

    def succ(code):  # b.succ, with its memo read here: the proxy is slow
        got = memo.get(code)
        return b.succ(code) if got is None else got

    for node, up in bfs_order(b.initial, succ):
        parent[node] = up
        if node & _CID in accepting and (
            node in succ(node) or node in on_cycle((node,), succ, num, cyclic)
        ):
            yield node
    b._walk = None


def _lasso(b: BuchiWTS, parent, node, succ) -> TimedRun:
    """The lasso through ``node``: its stem along the breadth-first tree
    ``parent``, its cycle the shortest one through ``node`` under ``succ``.
    """
    stem = tree_path(parent, node)[:-1]
    codes = [*stem, *shortest_cycle(node, succ)]
    durations = tuple(b.delta(u, v) for u, v in zip(codes, [*codes[1:], node]))
    return TimedRun(tuple(map(b.node, codes)), durations, len(stem))


def find_accepting(b: BuchiWTS) -> TimedRun | None:
    """One accepting lasso (or None).  ``nested_dfs``, one Tarjan pass,
    decides emptiness and names an accepting node on a cycle, stopping at
    the first edge onto its depth-first path with an accepting end or else
    at the first accepting node in postorder on a cycle; the lasso is
    ``_lasso`` through that node over the nodes the search expanded, so
    building it expands no node and leaves ``n_explored`` as it was.
    """
    node = nested_dfs(b.initial, b.succ, b.accepting)
    if node is None:
        return None
    expanded = lambda code: b._memo.get(code, ())
    return _lasso(b, dict(bfs_order(b.initial, expanded)), node, expanded)


def enumerate_accepting(b: BuchiWTS):
    """The accepting lassos of ``b``, as ``lasso(i)``: ``_lasso`` through
    anchor ``i``, built the first time it is read and kept, and
    ``IndexError`` when ``b`` has no anchor ``i``.  Deterministic for a
    fixed product.  Returns at once and explores nothing: reading lasso
    ``i`` walks the product only until anchor ``i`` is met, whose cycle
    lies in what the walk expanded to decide it, and pays one
    ``shortest_cycle``, so a caller pays only for the lassos it reads.
    """

    @functools.cache
    def lasso(i: int) -> TimedRun:
        node = b.anchor(i) if i >= 0 else None
        if node is None:
            raise IndexError(f"no lasso {i}")
        return _lasso(b, b._parent, node, b._memo.__getitem__)

    return lasso


def project_run(run: TimedRun) -> TimedRun:
    """Drop automaton bookkeeping: the underlying system run."""
    return TimedRun(tuple(n[0] for n in run.states), run.durations, run.stem_len)
