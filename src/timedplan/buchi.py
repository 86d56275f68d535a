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

A product of a joint system with an intersection automaton can be kept to
its live part: given the completely explored product of each agent with
its operand of ``intersect``, a node is kept only when each agent's
projection of it (cell, the operand's location and clocks, read off the
joint names and in the agent's ticks) can reach an accepting cycle there
(``live``).  A dead node reaches only dead nodes and lies on no accepting
lasso, so a depth-first search meets the kept nodes in the same order
with or without the dead ones, and every path to a kept node,
breadth-first stems and cycles included, runs through kept nodes.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache

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

    ``agents``, when given, holds one completely explored product per
    operand of ``tba``, an ``intersect``: product ``k`` is of coordinate
    ``k`` of this system's states with operand ``k``.  Then only nodes whose
    every projection is ``live()`` in its product are kept; other
    successors and initial nodes are dropped before they are counted, so
    ``max_states`` and ``n_explored`` see kept nodes only.
    """

    def __init__(self, wts, tba: TBA, max_states: int | None = None, agents=None):
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
        self._confs: list = []  # cid -> (location, clocks)
        self._cids: dict = {}
        self._accepting: set = set()  # cids at accepting locations
        self._steps: dict = {}
        self._memo: dict = {}
        self._seen: set = set()
        self._anchors = None
        self._keep = None if agents is None else self._projection(agents)
        zeros = (0,) * len(tba.clocks)
        sids = [self._sid(s) for s in sorted(wts.initial)]
        cids = {q: self._cid((q, zeros)) for q in sorted(tba.initial)}
        self.initial = tuple(
            sid << 32 | cids[q] for sid in sids for q in tba.start(self._letters[sid])
        )
        if self._keep is not None:
            self.initial = tuple(filter(self._keep, self.initial))
        self._note(self.initial)

    @property
    def n_explored(self) -> int:
        return len(self._seen)

    def accepting(self, code) -> bool:
        return code & _CID in self._accepting

    def node(self, code) -> tuple:
        return (self._states[code >> 32], *self._confs[code & _CID])

    def anchors(self):
        """Accepting nodes that lie on a cycle, in breadth-first discovery
        order, with the discovery tree's parent map.  Explores the whole
        reachable product on the first call; the product is empty of
        accepting lassos exactly when the list is empty.
        """
        if self._anchors is None:
            order, parent = bfs_order(self.initial, self.succ)
            # the search expanded every node it reached, so the rest reads
            # the memo instead of asking ``succ`` again
            cyclic = on_cycle(order, self._memo.__getitem__)
            hits = [n for n in order if n in cyclic and self.accepting(n)]
            self._anchors = (hits, parent)
        return self._anchors

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

    def _projection(self, agents):
        """The test "every projection of this node is live".

        A node at location ``(qs, ps)`` projects on product ``k`` to system
        coordinate ``k``, operand ``k``'s location ``qs[k]`` and its clocks
        ``(k, c)``, each read as ticks times this unit over product ``k``'s
        unit, or as product ``k``'s cap when it is this cap or above that
        product's largest constant.  Agents have disjoint alphabets, so
        every combination of operand edges is a joint edge; where no
        operand location is a dead end, an operand's clock is therefore
        active at a joint location exactly when it is active at the
        operand's own location, and a clock stored as 0 here is stored as 0
        there.
        Projections are memoized per sid and per cid, so a test is one set
        lookup per product, and verdicts per node.  Every move here
        projects to a move of each product, so a projection missing from a
        completely explored product is a bug, raised as such and never
        read as dead.
        """
        lives = [a.live() for a in agents]
        clocks = []  # per product: (position here, ticks here per tick there)
        for k, a in enumerate(agents):
            ratio = a.unit / self.unit
            if ratio.denominator != 1:
                raise ValueError(f"unit {a.unit} of agent product {k + 1} is not "
                                 f"a multiple of {self.unit}")
            clocks.append([(self.tba.clocks.index((k, c)), int(ratio)) for c in a.tba.clocks])
        # the closures hold no reference to self, which would make the
        # product a reference cycle that only the garbage collector frees
        cap, states, confs = self.cap, self._states, self._confs

        @cache
        def project_sid(sid):
            return tuple(a._sids.get(x, -1) << 32 for a, x in zip(agents, states[sid]))

        @cache
        def project_cid(cid):
            q, nu = confs[cid]
            return tuple(
                a._cids.get((qk, tuple(
                    a.cap if nu[i] >= cap else min(nu[i] // r, a.cap) for i, r in ck
                )), -1)
                for a, qk, ck in zip(agents, q[0], clocks)
            )

        @cache
        def keep(code):
            sids, cids = project_sid(code >> 32), project_cid(code & _CID)
            for a, live, sid, cid in zip(agents, lives, sids, cids):
                if sid | cid not in live:
                    if sid < 0 or cid < 0 or sid | cid not in a._memo:
                        raise RuntimeError(
                            f"node {(states[code >> 32], *confs[code & _CID])} projects "
                            f"outside agent product {agents.index(a) + 1}"
                        )
                    return False
            return True

        return keep

    def _note(self, codes):
        self._seen.update(codes)
        if self.max_states is not None and len(self._seen) > self.max_states:
            raise BudgetExceeded(
                f"acceptance product passed {self.max_states} states",
                count=len(self._seen),
            )

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
        if got is not None:
            return got
        moves, keys = self._moves_of(code >> 32)
        cid = code & _CID
        steps = [self._step(cid, ticks, letter) for ticks, letter in keys]
        got = dict.fromkeys([base | c for base, k, _ in moves for c in steps[k]])
        got = tuple(got if self._keep is None else filter(self._keep, got))
        self._note(got)
        self._memo[code] = got
        return got

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


def _lasso(b: BuchiWTS, parent, node, succ) -> TimedRun:
    """The lasso through ``node``: its stem along the breadth-first tree
    ``parent``, its cycle the shortest one through ``node`` under ``succ``.
    """
    stem = tree_path(parent, node)[:-1]
    codes = [*stem, *shortest_cycle(node, succ)]
    durations = tuple(b.delta(u, v) for u, v in zip(codes, [*codes[1:], node]))
    return TimedRun(tuple(map(b.node, codes)), durations, len(stem))


def find_accepting(b: BuchiWTS) -> TimedRun | None:
    """One accepting lasso (or None).  Nested depth-first search decides
    emptiness and names an accepting node on a cycle, stopping at the first
    back edge that closes one; the lasso is ``_lasso`` through that node
    over the nodes the search expanded, so building it expands no node and
    leaves ``n_explored`` as it was.
    """
    node = nested_dfs(b.initial, b.succ, b.accepting)
    if node is None:
        return None
    expanded = lambda code: b._memo.get(code, ())
    return _lasso(b, bfs_order(b.initial, expanded)[1], node, expanded)


class _Lassos(Sequence):
    """``_lasso`` through each of ``anchors`` in turn, built the first time
    its int index is read and kept."""

    def __init__(self, b: BuchiWTS, anchors, parent):
        self._b = b
        self._anchors = anchors
        self._parent = parent
        self._runs: dict[int, TimedRun] = {}

    def __len__(self):
        return len(self._anchors)

    def __getitem__(self, i):
        i = range(len(self._anchors))[i]  # IndexError past the end
        run = self._runs.get(i)
        if run is None:
            b = self._b
            run = _lasso(b, self._parent, self._anchors[i], b._memo.__getitem__)
            self._runs[i] = run
        return run


def enumerate_accepting(b: BuchiWTS, limit: int) -> Sequence[TimedRun]:
    """Up to ``limit`` accepting lassos, ``_lasso`` through each anchor of
    ``b.anchors()`` in turn.  Deterministic for a fixed product.  Explores
    the product now; each lasso is built when it is first read, so a
    caller pays one ``shortest_cycle`` only per lasso it reads.
    """
    anchors, parent = b.anchors()
    return _Lassos(b, anchors[:limit], parent)


def project_run(run: TimedRun) -> TimedRun:
    """Drop automaton bookkeeping: the underlying system run."""
    return TimedRun(tuple(n[0] for n in run.states), run.durations, run.stem_len)
