"""Shared generators, explicit fixtures and independent oracles for the
test suite.

The oracles here deliberately re-derive verdicts by brute force (explicit
unrolling, exhaustive cycle enumeration) so the package's cleverer
implementations are checked against structurally different computations.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from timedplan.dynamics import integrate_closed
from timedplan.errors import UnknownState
from timedplan.graphs import CommGraph, build_graph
from timedplan.mitl import (
    Always,
    And,
    Eventually,
    Interval,
    Next,
    Not,
    Prop,
    Until,
)
from timedplan.rational import INF, as_fraction, frac_gcd
from timedplan.tba import TBA, Atom, Edge, GAnd, GNot, TOP, eval_guard, gand
from timedplan.workspace import EPS_GEO
from timedplan.wts import SimulationReport, StepReport, TimedWord


def rand_fraction(rng, max_den=4, max_num=8):
    """Positive rational with a small denominator."""
    den = int(rng.integers(1, max_den + 1))
    num = int(rng.integers(1, max_num + 1))
    return Fraction(num, den)


def rand_word(rng, props, max_len=6) -> TimedWord:
    n = int(rng.integers(1, max_len + 1))
    labels = []
    for _ in range(n):
        labels.append(frozenset(p for p in props if rng.random() < 0.5))
    durations = tuple(rand_fraction(rng) for _ in range(n))
    stem = int(rng.integers(0, n))
    return TimedWord(tuple(labels), durations, stem)


def _rand_interval(rng, allow_inf=True) -> Interval:
    lo = rand_fraction(rng) if rng.random() < 0.7 else Fraction(0)
    if allow_inf and rng.random() < 0.25:
        return Interval(lo, INF)
    return Interval(lo, lo + rand_fraction(rng))


def _rand_combo(rng, props, depth):
    """Boolean combination of propositions."""
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return Prop(props[int(rng.integers(0, len(props)))])
    if roll < 0.75:
        return Not(_rand_combo(rng, props, depth - 1))
    return And(_rand_combo(rng, props, depth - 1), _rand_combo(rng, props, depth - 1))


def rand_fragment(rng, props, depth=3):
    """Formula in the compilable fragment, tree depth bounded by ``depth``."""
    roll = rng.random()
    if roll < 0.10:
        return _rand_combo(rng, props, depth - 1)
    if roll < 0.35:
        return Eventually(_rand_interval(rng), _rand_combo(rng, props, depth - 1))
    if roll < 0.55:
        return Always(_rand_interval(rng), _rand_combo(rng, props, depth - 1))
    if roll < 0.70:
        return Until(
            _rand_interval(rng),
            _rand_combo(rng, props, depth - 2 if depth > 1 else 0),
            _rand_combo(rng, props, depth - 2 if depth > 1 else 0),
        )
    if roll < 0.80:
        return Next(_rand_interval(rng, allow_inf=False), _rand_combo(rng, props, depth - 1))
    if depth >= 2:
        return And(rand_fragment(rng, props, depth - 1), rand_fragment(rng, props, depth - 1))
    return Eventually(_rand_interval(rng), _rand_combo(rng, props, 0))


# -- brute-force satisfaction --------------------------------------------------


def _finite_bound_sum(f) -> Fraction:
    if isinstance(f, Prop):
        return Fraction(0)
    if isinstance(f, Not):
        return _finite_bound_sum(f.sub)
    if isinstance(f, And):
        return _finite_bound_sum(f.left) + _finite_bound_sum(f.right)
    if isinstance(f, Until):
        inner = _finite_bound_sum(f.left) + _finite_bound_sum(f.right)
    else:
        inner = _finite_bound_sum(f.sub)
    hi = f.interval.hi
    bound = f.interval.lo if hi == INF else hi
    return inner + bound


def naive_sat(w: TimedWord, f, j: int = 0) -> bool:
    """Brute-force point-wise evaluation on an explicit unrolling.

    The horizon is sized so every window any subformula can open is fully
    covered, plus two whole cycles of slack; positions past the horizon are
    never needed because the suffix repeats with the cycle period.
    """
    cyc_dur = sum(w.durations[w.stem_len:], Fraction(0))
    need = _finite_bound_sum(f) + w.time(len(w) - 1)
    laps = 3 + math.ceil(need / cyc_dur)
    horizon = len(w) + w.cycle_len * laps
    return _brute(w, f, j, horizon)


def _brute(w, f, j, horizon) -> bool:
    if isinstance(f, Prop):
        return f.name in w.label(j)
    if isinstance(f, Not):
        return not _brute(w, f.sub, j, horizon)
    if isinstance(f, And):
        return _brute(w, f.left, j, horizon) and _brute(w, f.right, j, horizon)
    t0 = w.time(j)
    if isinstance(f, Next):
        return f.interval.contains(w.time(j + 1) - t0) and _brute(
            w, f.sub, j + 1, horizon
        )
    if isinstance(f, Eventually):
        for k in range(j, horizon):
            if f.interval.contains(w.time(k) - t0) and _brute(w, f.sub, k, horizon):
                return True
        return False
    if isinstance(f, Always):
        for k in range(j, horizon):
            d = w.time(k) - t0
            if f.interval.hi != INF and d > f.interval.hi:
                break
            if f.interval.contains(d) and not _brute(w, f.sub, k, horizon):
                return False
        return True
    if isinstance(f, Until):
        for k in range(j, horizon):
            d = w.time(k) - t0
            if f.interval.hi != INF and d > f.interval.hi:
                return False
            if f.interval.contains(d) and _brute(w, f.right, k, horizon):
                return True
            if not _brute(w, f.left, k, horizon):
                return False
        return False
    raise TypeError(f"unsupported node {f!r}")


# -- explicit systems and automata ---------------------------------------------


class WTS:
    """Explicit finite weighted transition system for hand-built examples.

    transitions: mapping state -> iterable of (successor, weight).  ``dt``
    is the largest quantum every weight is a whole multiple of (1 when there
    are no transitions).
    """

    def __init__(self, states, initial, transitions, labels, alphabet=None):
        self.state_list = tuple(states)
        self.initial = frozenset(initial)
        self._trans = {
            s: tuple((t, as_fraction(w)) for t, w in transitions.get(s, ()))
            for s in self.state_list
        }
        weights = (w for outs in self._trans.values() for _, w in outs)
        self.dt = frac_gcd(weights) or Fraction(1)
        self._labels = {s: frozenset(labels.get(s, ())) for s in self.state_list}
        if alphabet is None:
            alphabet = set()
            for l in self._labels.values():
                alphabet |= l
        self.alphabet = frozenset(alphabet)
        for s in self.initial:
            if s not in self._trans:
                raise UnknownState(f"initial state {s!r} not declared")

    def label(self, s) -> frozenset[str]:
        try:
            return self._labels[s]
        except KeyError:
            raise UnknownState(f"state {s!r} not declared") from None

    def succ_weighted(self, s):
        try:
            return self._trans[s]
        except KeyError:
            raise UnknownState(f"state {s!r} not declared") from None


class TableAgentWTS:
    """Agent-shaped system with an explicit action table.

    Mirrors the geometric abstraction's protocol (agent, neighbors, dt,
    post, post_any, label) so products and consistency checks can run on
    hand-specified transition data.
    """

    def __init__(self, agent, neighbors, dt, table, labels=None, initial=(), alphabet=None):
        self.agent = agent
        self.neighbors = tuple(neighbors)
        self.dt = as_fraction(dt)
        self._table = {}
        states = set()
        for (src, action), targets in table.items():
            action = tuple(action)
            if action[0] != src:
                raise ValueError("action tuples start with the source cell")
            self._table[action] = frozenset(targets)
            states.add(src)
            states.update(targets)
            states.update(action[1:])
        self.state_set = frozenset(states)
        self._labels = {s: frozenset(l) for s, l in (labels or {}).items()}
        self.initial = frozenset(initial)
        if alphabet is None:
            alphabet = set()
            for l in self._labels.values():
                alphabet |= l
        self.alphabet = frozenset(alphabet)

    @property
    def states(self):
        return sorted(self.state_set)

    def label(self, cell) -> frozenset[str]:
        return self._labels.get(cell, frozenset())

    def post(self, action) -> frozenset:
        return self._table.get(tuple(action), frozenset())

    def post_rows(self, actions) -> np.ndarray:
        """``post`` of each action laid out as the geometric ``post_rows``
        lays it out: ascending after a padding that repeats the largest
        cell, all -1 when empty."""
        posts = [sorted(self.post(a)) or [-1] for a in actions.tolist()]
        width = max(map(len, posts), default=1)
        return np.array(
            [p[-1:] * (width - len(p)) + p for p in posts], dtype=np.int64
        ).reshape(len(posts), width)

    def post_any(self, cell) -> frozenset:
        acc = set()
        for action, targets in self._table.items():
            if action[0] == cell:
                acc |= targets
        return frozenset(acc)

    def succ_weighted(self, cell):
        for nxt in sorted(self.post_any(cell)):
            yield nxt, self.dt


def universal_tba(ap) -> TBA:
    """Accepts every word over the alphabet: one location per letter."""
    ap = sorted(ap)
    letters = [
        frozenset(ap[i] for i in range(len(ap)) if mask >> i & 1)
        for mask in range(1 << len(ap))
    ]
    labels = {"any:{" + ",".join(sorted(l)) + "}": l for l in letters}
    locations = list(labels)
    edges = [Edge(src, TOP, frozenset(), dst) for src in locations for dst in locations]
    return TBA(locations, locations, (), edges, locations, labels, frozenset(ap))


# -- random systems and automata -----------------------------------------------


def rand_wts(rng, props, n_states=6) -> WTS:
    names = [f"n{i}" for i in range(n_states)]
    labels = {}
    trans = {}
    for s in names:
        labels[s] = frozenset(p for p in props if rng.random() < 0.4)
        k = int(rng.integers(1, 4))
        outs = []
        for _ in range(k):
            outs.append((names[int(rng.integers(0, n_states))], rand_fraction(rng)))
        trans[s] = outs
    return WTS(names, [names[0]], trans, labels, alphabet=props)


def _rand_guard(rng):
    roll = rng.random()
    c = "c"
    if roll < 0.3:
        return TOP
    if roll < 0.5:
        return Atom(c, "<=", rand_fraction(rng))
    if roll < 0.7:
        return Atom(c, ">=", rand_fraction(rng))
    a = rand_fraction(rng)
    g = gand(Atom(c, ">=", a), Atom(c, "<=", a + rand_fraction(rng)))
    if roll < 0.9:
        return g
    return GNot(g)


def rand_tba(rng, props, n_locs=4) -> TBA:
    locs = [f"q{i}" for i in range(n_locs)]
    labels = {q: frozenset(p for p in props if rng.random() < 0.4) for q in locs}
    edges = []
    for src in locs:
        for dst in locs:
            if rng.random() < 0.55:
                resets = frozenset({"c"}) if rng.random() < 0.3 else frozenset()
                edges.append(Edge(src, _rand_guard(rng), resets, dst))
    initial = [q for q in locs if rng.random() < 0.5] or [locs[0]]
    accepting = [q for q in locs if rng.random() < 0.4]
    return TBA(locs, initial, ("c",), edges, accepting, labels, frozenset(props))


# -- exhaustive emptiness oracle -------------------------------------------------


def crawl(initials, succ):
    """Full reachable graph: (nodes in discovery order, adjacency dict)."""
    seen = list(initials)
    seen_set = set(seen)
    adj = {}
    i = 0
    while i < len(seen):
        node = seen[i]
        i += 1
        kids = tuple(succ(node))
        adj[node] = kids
        for k in kids:
            if k not in seen_set:
                seen_set.add(k)
                seen.append(k)
    return seen, adj


def accepting_cycle_exists(initials, succ, accepting) -> bool:
    """SCC-based oracle: some reachable accepting node lies on a cycle."""
    nodes, adj = crawl(initials, succ)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    result = [False]

    def strongconnect(v):
        work = [(v, iter(adj[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.append(u)
                    if u == node:
                        break
                comp_set = set(comp)
                has_cycle = len(comp) > 1 or any(
                    u in adj[u] for u in comp
                )
                if has_cycle and any(accepting(u) for u in comp):
                    result[0] = True

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return result[0]


def rand_connected_graph(rng, n) -> CommGraph:
    edges = []
    for i in range(2, n + 1):
        edges.append((int(rng.integers(1, i)), i))
    for _ in range(int(rng.integers(0, n))):
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        if a != b and (min(a, b), max(a, b)) not in [
            (min(e), max(e)) for e in edges
        ]:
            edges.append((a, b))
    return build_graph(n, edges)


def rand_wts_lasso(rng, wts: WTS, max_len=8):
    """Random lasso run of a WTS starting at an initial state, or None."""
    from timedplan.wts import TimedRun

    start = sorted(wts.initial)[0]
    path = [start]
    durations = []
    for _ in range(max_len):
        outs = list(wts.succ_weighted(path[-1]))
        if not outs:
            return None
        nxt, w = outs[int(rng.integers(0, len(outs)))]
        if nxt in path:
            k = path.index(nxt)
            durations.append(w)
            return TimedRun(tuple(path), tuple(durations), k)
        path.append(nxt)
        durations.append(w)
    return None


def locations(run) -> tuple:
    """The automaton locations along a product lasso."""
    return tuple(n[1] for n in run.states)


# -- whole-graph lasso probing -------------------------------------------------


def probe_every_accepting(b, limit):
    """Lasso enumeration by probing: ``shortest_cycle`` from every accepting
    node in breadth-first order, skipping those it finds on no cycle.
    Returns ``(states, durations, stem_len)`` triples.
    """
    from timedplan.search import bfs_order, shortest_cycle, tree_path

    order, parent = bfs_order(b.initial, b.succ)
    out = []
    for node in order:
        if len(out) >= limit:
            break
        if not b.accepting(node):
            continue
        cyc = shortest_cycle(node, b.succ)
        if cyc is None:
            continue
        codes = tuple(tree_path(parent, node)[:-1]) + tuple(cyc)
        stem = len(codes) - len(cyc)
        nxt = codes[1:] + (codes[stem],)
        durations = tuple(b.delta(u, v) for u, v in zip(codes, nxt))
        out.append((tuple(map(b.node, codes)), durations, stem))
    return out


# -- acceptance product with rational clocks -------------------------------------


class RationalProduct:
    """The acceptance product read with exact rational clocks: values above
    the automaton's largest constant become ``INF``, every guard is walked on
    every move, and each move's weight is recorded as it is discovered.
    Same nodes, successor order and sojourns as ``BuchiWTS``, with clocks as
    Fractions instead of ticks.
    """

    def __init__(self, wts, tba):
        self.wts = wts
        self.tba = tba
        self._memo = {}
        self._delta = {}
        zeros = tuple(Fraction(0) for _ in tba.clocks)
        self.initial = tuple(
            (s, q, zeros)
            for s in sorted(wts.initial)
            for q in tba.initial
            if wts.label(s) == tba.labels[q]
            and eval_guard(tba.valuation(zeros), tba.invariants[q])
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
        moves = sorted(
            self.wts.succ_weighted(s),
            key=lambda tw: (tw[1], tw[0] != s, tw[0]),
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
                if nxt in out:
                    continue
                self._delta.setdefault((node, nxt), w)
                out.append(nxt)
        got = tuple(out)
        self._memo[node] = got
        return got

    def delta(self, src, dst):
        return self._delta[(src, dst)]


# -- successor balls by full scan ------------------------------------------------


def scan_successors(disc, action):
    """Cells meeting the closed successor ball, by testing every cell box
    against the nominal endpoint recomputed from ``Box.center``; the empty
    set when the ball misses the workspace bounds.
    """
    dec = disc.dec
    own = dec.center(action[0])
    h = float(disc.dt)
    x_hat = tuple(
        own[k] + h * sum(dec.center(nb)[k] - own[k] for nb in action[1:])
        for k in range(dec.dim)
    )
    reach = disc.radius + EPS_GEO
    if dec.bounds.distance(x_hat) > reach:
        return frozenset()
    return frozenset(
        i + 1 for i, cell in enumerate(dec.cells) if cell.distance(x_hat) <= reach
    )


def enumerate_post_any(post, cell, n_cells, degree):
    """``AgentWTS.post_any`` by enumeration: the union of ``post`` over all
    ``n_cells ** degree`` neighbor configurations of ``cell``."""
    acc = set()
    for nbs in itertools.product(range(1, n_cells + 1), repeat=degree):
        acc |= post((cell,) + nbs)
    return frozenset(acc)


# -- the landing certificate one sample at a time --------------------------------


def reference_controller(disc, g):
    """The certificate's feedback law on one agent set, agent by agent:
    each agent's neighbor differences summed in neighbor order, and its
    input saturated by ``np.linalg.norm`` of the single vector.
    ``controller(dst)`` returns ``law(t, x)`` for ``x`` of shape ``(N, n)``.
    """

    def controller(dst):
        targets = [np.array(disc.dec.center(c), dtype=float) for c in dst]

        def law(t, x):
            remain = float(disc.dt - t)
            if remain <= 0.0:
                remain = float(disc.dt) * 1e-6
            v = np.empty_like(x)
            for i in range(x.shape[0]):
                drift = np.zeros(x.shape[1])
                for j in g.neighbors(i + 1):
                    drift += x[j - 1] - x[i]
                u = (targets[i] - x[i]) / remain - drift
                nrm = float(np.linalg.norm(u))
                v[i] = u * (disc.v_max / nrm) if nrm > disc.v_max and nrm > 0 else u
            return v

        return law

    return controller


def per_sample_certificate(p, disc, g, steps, controller, n_samples, seed):
    """``simulation_check`` one landing at a time: for each step, for each
    sample, draw the start coordinate by coordinate from the source cells,
    integrate one quantum in twentieths, and test each agent's landing with
    ``Box.contains`` and ``Box.distance``."""
    rng = np.random.default_rng(seed)
    dec = disc.dec
    reports = []
    for j, (src, dst) in enumerate(steps):
        src, dst = tuple(src), tuple(dst)
        if not p.has_transition(src, dst):
            raise UnknownState(f"step {j}: {src} -> {dst} is not a product transition")
        misses = 0
        worst = 0.0
        for _ in range(n_samples):
            x0 = np.array(
                [
                    [a + rng.random() * (b - a) for a, b in zip(dec.cell(c).lo, dec.cell(c).hi)]
                    for c in src
                ]
            )
            traj = integrate_closed(
                g, x0, controller(dst), disc.dt / 20, disc.dt, disc.v_max
            )
            for box, x in zip((dec.cell(c) for c in dst), traj.final()):
                worst = max(worst, box.distance(x))
                if not box.contains(x, eps=EPS_GEO):
                    misses += 1
        reports.append(StepReport(j, n_samples, misses, worst))
    return SimulationReport(tuple(reports))


# -- reachable layers without the fixed-point stop --------------------------------


def expand_layers(p, steps):
    """Every forward image of ``p``'s initial set up to ``steps``, each
    expanded from the one before: ``reachable_layers`` before it stopped
    at a fixed point."""
    succ = functools.cache(p.successors)  # a state recurs in many layers
    layers = [set(p.initial)]
    for _ in range(steps):
        layers.append(set(itertools.chain.from_iterable(map(succ, layers[-1]))))
    return layers
