"""Lazy acceptance product of a weighted transition system with a timed
automaton.

Product nodes are (system state, automaton location, clock tuple) where a
move dwells in the source for one transition weight, so the clocks advance
by exactly that weight before the guard is read.  Clock values above the
automaton's largest constant collapse to an infinity sentinel, which keeps
the node set finite without changing any guard verdict.  Acceptance is
inherited from the automaton, so an accepting lasso of this product projects
to a system run whose observation word the automaton accepts, and the
durations along the lasso are genuine transition weights.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlphabetMismatch, BudgetExceeded
from .rational import INF, canon_key
from .search import bfs_order, nested_dfs, on_cycle, shortest_cycle, tree_path
from .tba import TBA, eval_guard
from .wts import TimedRun


class BuchiWTS:
    """Explored on demand; keeps every discovered node for budget control."""

    def __init__(self, wts, tba: TBA, max_states: int | None = None):
        if wts.alphabet != tba.ap:
            raise AlphabetMismatch(
                f"system alphabet {sorted(wts.alphabet)} differs from the "
                f"automaton alphabet {sorted(tba.ap)}"
            )
        self.wts = wts
        self.tba = tba
        self.max_states = max_states
        self._memo: dict = {}
        self._delta: dict = {}
        self._seen: set = set()
        self._anchors = None
        zeros = tuple(Fraction(0) for _ in tba.clocks)
        initial = []
        for s in sorted(wts.initial, key=canon_key):
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

    def _advance(self, v, w):
        if v == INF:
            return INF
        v = v + w
        return INF if v > self.tba.c_max else v

    def succ(self, node):
        got = self._memo.get(node)
        if got is not None:
            return got
        s, q, nu = node
        tba = self.tba
        out = []
        emitted = set()
        # staying put first keeps enumerated lassos compact, which makes the
        # per-agent route's combination step far more likely to succeed
        moves = sorted(
            self.wts.succ_weighted(s),
            key=lambda tw: (tw[1], tw[0] != s, canon_key(tw[0])),
        )
        for s2, w in moves:
            moved = tuple(self._advance(v, w) for v in nu)
            moved_map = tba.valuation(moved)
            if not eval_guard(moved_map, tba.invariants[q]):
                continue
            for e in tba.edges_reading(q, self.wts.label(s2)):
                if not eval_guard(moved_map, e.guard):
                    continue
                after = tuple(
                    Fraction(0) if c in e.resets else v
                    for c, v in zip(tba.clocks, moved)
                )
                if not eval_guard(tba.valuation(after), tba.invariants[e.dst]):
                    continue
                nxt = (s2, e.dst, after)
                if nxt in emitted:
                    continue
                emitted.add(nxt)
                self._delta.setdefault((node, nxt), w)
                out.append(nxt)
                self._note(nxt)
        got = tuple(out)
        self._memo[node] = got
        return got

    def delta(self, src, dst) -> Fraction:
        """Sojourn recorded for a discovered product move (smallest weight)."""
        try:
            return self._delta[(src, dst)]
        except KeyError:
            raise RuntimeError(f"no recorded sojourn for {src} -> {dst}") from None


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


def locations(run: TimedRun) -> tuple:
    """The automaton locations along a product lasso."""
    return tuple(n[1] for n in run.states)
