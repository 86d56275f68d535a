"""Lazy acceptance product of a weighted transition system with a timed
automaton.

Product nodes are (system state, automaton location, clock tuple) where a
move dwells in the source for one transition weight, so the clocks advance
by exactly that weight before the guard is read.  Clocks count integer
ticks of ``unit``, the largest rational that divides the system's quantum
and every guard and invariant constant, so every reachable value is a whole
number of ticks.  Values above the automaton's largest constant collapse to
the sentinel ``cap``, one tick above it, which keeps the node set finite
without changing any guard verdict.  Acceptance is inherited from the
automaton, so an accepting lasso of this product projects to a system run
whose observation word the automaton accepts, and the durations along the
lasso are genuine transition weights.

Guards are read on the automaton in ticks (``TBA.in_ticks``) with int clocks,
once per distinct (location, clocks, delay, letter) step; a node's
successors are the system moves of its state crossed with those steps.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlphabetMismatch, BudgetExceeded, MismatchedTimeStep
from .rational import frac_gcd
from .search import bfs_order, nested_dfs, on_cycle, shortest_cycle, tree_path
from .tba import TBA, eval_guard
from .wts import TimedRun


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
        self._memo: dict = {}
        self._moves: dict = {}
        self._ticks: dict = {}
        self._steps: dict = {}
        self._seen: set = set()
        self._anchors = None
        zeros = (0,) * len(tba.clocks)
        initial = []
        for s in sorted(wts.initial):
            for q in tba.initial:
                if wts.label(s) != tba.labels[q]:
                    continue
                if not eval_guard(tba.valuation(zeros), tba.invariants[q]):
                    continue
                node = (s, q, zeros)
                initial.append(node)
                self._note(node)
        self.initial = tuple(initial)

    @property
    def n_explored(self) -> int:
        return len(self._seen)

    def accepting(self, node) -> bool:
        return node[1] in self.tba.accepting

    def anchors(self):
        """Accepting nodes that lie on a cycle, in breadth-first discovery
        order, with the discovery tree's parent map.  Explores the whole
        reachable product on the first call; the product is empty of
        accepting lassos exactly when the list is empty.
        """
        if self._anchors is None:
            order, parent = bfs_order(self.initial, self.succ)
            cyclic = on_cycle(order, self.succ)
            hits = [n for n in order if n in cyclic and self.accepting(n)]
            self._anchors = (hits, parent)
        return self._anchors

    def _note(self, node):
        if node not in self._seen:
            self._seen.add(node)
            if self.max_states is not None and len(self._seen) > self.max_states:
                raise BudgetExceeded(
                    f"acceptance product passed {self.max_states} states",
                    count=len(self._seen),
                )

    def _moves_from(self, s):
        """``(successor, weight in ticks, weight, successor's label)`` per
        system move of ``s``: lightest first, then staying put, then by state.
        """
        got = self._moves.get(s)
        if got is None:
            keyed = []
            for s2, w in self.wts.succ_weighted(s):
                ticks = self._ticks.get(w)
                if ticks is None:
                    ticks = w / self.unit
                    if ticks.denominator != 1:
                        raise MismatchedTimeStep(
                            f"weight {w} of {s!r} -> {s2!r} is not a multiple "
                            f"of the system quantum {self.wts.dt}"
                        )
                    ticks = self._ticks[w] = int(ticks)
                keyed.append((ticks, s2 != s, s2, w))
            # staying put first keeps enumerated lassos compact, which makes
            # the per-agent route's combination step far more likely to succeed
            keyed.sort(key=lambda m: m[:3])
            got = tuple(
                (s2, ticks, w, self.wts.label(s2)) for ticks, _, s2, w in keyed
            )
            self._moves[s] = got
        return got

    def _step(self, q, nu, ticks, letter):
        """Automaton moves after dwelling ``ticks`` at (q, nu) and then
        reading ``letter``: distinct (target, clocks) pairs in edge order.
        """
        key = (q, nu, ticks, letter)
        got = self._steps.get(key)
        if got is None:
            tba = self.tba
            cap = self.cap
            moved = tuple(min(v + ticks, cap) for v in nu)
            moved_map = tba.valuation(moved)
            out = {}
            if eval_guard(moved_map, tba.invariants[q]):
                for e in tba.edges_reading(q, letter):
                    if not eval_guard(moved_map, e.guard):
                        continue
                    after = tuple(
                        0 if c in e.resets else v for c, v in zip(tba.clocks, moved)
                    )
                    if eval_guard(tba.valuation(after), tba.invariants[e.dst]):
                        out[(e.dst, after)] = None
            got = tuple(out)
            self._steps[key] = got
        return got

    def succ(self, node):
        got = self._memo.get(node)
        if got is not None:
            return got
        s, q, nu = node
        step = self._step
        out = []
        emitted = set()
        for s2, ticks, _, letter in self._moves_from(s):
            for dst, after in step(q, nu, ticks, letter):
                nxt = (s2, dst, after)
                if nxt in emitted:
                    continue
                emitted.add(nxt)
                out.append(nxt)
                self._note(nxt)
        got = tuple(out)
        self._memo[node] = got
        return got

    def delta(self, src, dst) -> Fraction:
        """Sojourn of an explored product move: the smallest weight that
        makes it.
        """
        if dst in self._memo.get(src, ()):
            s, q, nu = src
            for s2, ticks, w, letter in self._moves_from(s):
                if s2 == dst[0] and dst[1:] in self._step(q, nu, ticks, letter):
                    return w
        raise RuntimeError(f"no explored product move {src} -> {dst}")


def _to_run(b: BuchiWTS, prefix, cycle) -> TimedRun:
    states = list(prefix) + list(cycle)
    stem = len(prefix)
    for node in states:
        b.succ(node)
    durations = []
    for j, node in enumerate(states):
        nxt = states[j + 1] if j + 1 < len(states) else states[stem]
        durations.append(b.delta(node, nxt))
    return TimedRun(tuple(states), tuple(durations), stem)


def find_accepting(b: BuchiWTS) -> TimedRun | None:
    """One accepting lasso (or None), found by nested depth-first search."""
    lasso = nested_dfs(b.initial, b.succ, b.accepting)
    if lasso is None:
        return None
    prefix, cycle = lasso
    return _to_run(b, prefix, cycle)


def enumerate_accepting(b: BuchiWTS, limit: int) -> list[TimedRun]:
    """Up to ``limit`` accepting lassos, one per anchor of ``b.anchors()``:
    stem along the search tree, cycle the shortest one through the anchor.
    Deterministic for a fixed product.
    """
    anchors, parent = b.anchors()
    out = []
    for node in anchors[:limit]:
        path = tree_path(parent, node)
        out.append(_to_run(b, path[:-1], shortest_cycle(node, b.succ)))
    return out


def project_run(run: TimedRun) -> TimedRun:
    """Drop automaton bookkeeping: the underlying system run."""
    return TimedRun(tuple(n[0] for n in run.states), run.durations, run.stem_len)
