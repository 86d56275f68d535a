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
from timedplan.tba import TBA, Atom, Edge, GAnd, GNot, TOP, _rewrite, eval_guard, gand
from timedplan.workspace import EPS_GEO
from timedplan.wts import SimulationReport, StepReport, TimedWord, product


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


def gor(a, b):
    """Guard disjunction, for hand-built automata."""
    return GNot(GAnd(GNot(a), GNot(b)))


def fold_intersect(first: TBA, *rest: TBA) -> TBA:
    """The reference intersection: a left fold of binary products by the
    two-phase counter, with string names.  At each step the clocks are
    renamed apart (``a.`` the fold so far, ``b.`` the next operand), a pair
    of locations ``qa|qb|phase`` is kept when the two labels agree on shared
    propositions, phase 1 waits for the fold's acceptance and phase 2 for
    the operand's, and accepting = phase 1 at an accepting fold location.
    """
    a = first
    for b in rest:
        a = _fold_meet(a, b)
    return a


def _fold_meet(a: TBA, b: TBA) -> TBA:
    map_a = {c: f"a.{c}" for c in a.clocks}
    map_b = {c: f"b.{c}" for c in b.clocks}
    shared_a = {qa: a.labels[qa] & b.ap for qa in a.locations}
    shared_b = {qb: b.labels[qb] & a.ap for qb in b.locations}

    def joint(ga, gb):
        return gand(_rewrite(ga, lambda x: Atom(map_a[x.clock], x.op, x.const)),
                    _rewrite(gb, lambda x: Atom(map_b[x.clock], x.op, x.const)))

    locations, labels, invariants, edges, accepting = [], {}, {}, [], []
    for qa in a.locations:
        for qb in b.locations:
            if shared_a[qa] != shared_b[qb]:
                continue
            turns = ((1, 2 if qa in a.accepting else 1), (2, 1 if qb in b.accepting else 2))
            for phase, nxt_phase in turns:
                q = f"{qa}|{qb}|{phase}"
                locations.append(q)
                labels[q] = a.labels[qa] | b.labels[qb]
                invariants[q] = joint(a.invariants[qa], b.invariants[qb])
                if phase == 1 and qa in a.accepting:
                    accepting.append(q)
                edges += [
                    Edge(q, joint(ea.guard, eb.guard),
                         {map_a[c] for c in ea.resets} | {map_b[c] for c in eb.resets},
                         f"{ea.dst}|{eb.dst}|{nxt_phase}")
                    for ea in a.out_edges(qa)
                    for eb in b.out_edges(qb)
                    if shared_a[ea.dst] == shared_b[eb.dst]
                ]
    initial = [f"{qa}|{qb}|1" for qa in a.initial for qb in b.initial
               if shared_a[qa] == shared_b[qb]]
    clocks = tuple(map_a.values()) + tuple(map_b.values())
    return TBA(locations, initial, clocks, edges, accepting, labels, a.ap | b.ap, invariants)


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


def with_invariants(rng, a: TBA) -> TBA:
    """``a`` with a random invariant at every location (``TOP`` at about 30 %
    of them), drawn from ``rng``.
    """
    invariants = {q: _rand_guard(rng) for q in a.locations}
    return TBA(a.locations, a.initial, a.clocks, a.edges, a.accepting, a.labels, a.ap,
               invariants)


def padded(dt, tbas):
    """``tbas`` with an invariant at every location that always holds but
    names the largest constant of them all and the tick of ``dt`` and all
    of them, so that every agent's product counts the joint product's
    ticks up to its cap."""
    consts = [x for a in tbas for x in a.constants]
    unit = frac_gcd([dt, *consts])
    out = []
    for a in tbas:
        c = a.clocks[0]
        named = GAnd(Atom(c, "=", max(consts, default=0)), Atom(c, "=", unit))
        pad = GNot(GAnd(Atom(c, "<", 0), named))  # no clock is below 0
        out.append(TBA(a.locations, a.initial, a.clocks, a.edges, a.accepting, a.labels, a.ap,
                       {q: gand(g, pad) for q, g in a.invariants.items()}))
    return out


class JointWTS:
    """A ``ProductWTS`` as ``BuchiWTS`` reads a system, each joint move
    weighing one quantum: ``BuchiWTS(JointWTS(p), intersect(...))`` is the
    unpruned joint product that the synchronized one is tested against."""

    def __init__(self, p):
        self.p = p
        self.dt, self.initial = p.dt, p.initial
        self.alphabet = frozenset().union(*(c.alphabet for c in p.components))

    def label(self, joint) -> frozenset[str]:
        """The (disjoint) union of the agents' labels."""
        return frozenset().union(*(c.label(x) for c, x in zip(self.p.components, joint)))

    def succ_weighted(self, joint):
        for nxt in self.p.successors(joint):
            yield nxt, self.dt


def same_ticks(joint, agents) -> bool:
    """Whether every agent's product counts its clocks in the unit of the
    unpruned joint product ``joint`` and holds them at its cap."""
    return all((a.unit, a.cap) == (joint.unit, joint.cap) for a in agents)


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


def first_calls(search, initials, succ, accepting):
    """What ``search`` returns, and the nodes it asks ``succ`` for, each
    once, in the order it first asks."""
    asked: dict = {}
    got = search(initials, lambda x: asked.setdefault(x, None) or succ(x), accepting)
    return got, list(asked)


def two_pass_nested_dfs(initials, succ, accepting):
    """The two-pass nested depth-first search that ``search.nested_dfs``
    replaced, kept as its reference.  An accepting node on a reachable
    cycle, or None when no accepting lasso is reachable: an accepting end
    of the first edge back onto the outer stack that has one (the edge's
    source first), else the accepting node whose inner search got back onto
    the outer stack.  The search expanded every node of some path to it
    from an initial node and of some cycle through it.
    """
    blue: set = set()
    red: set = set()
    for root in sorted(initials):
        if root in blue:
            continue
        found = _blue_dfs(root, succ, accepting, blue, red)
        if found is not None:
            return found
    return None


def _blue_dfs(root, succ, accepting, blue, red):
    blue.add(root)
    on_stack = {root}
    stack = [(root, iter(succ(root)))]
    while stack:
        node, it = stack[-1]
        for child in it:
            if child not in blue:
                blue.add(child)
                on_stack.add(child)
                stack.append((child, iter(succ(child))))
                break
            if child in on_stack:
                # a back edge: node -> child -> ... -> node is a cycle
                if accepting(node):
                    return node
                if accepting(child):
                    return child
        else:
            if accepting(node) and _red_dfs(node, succ, red, on_stack):
                return node
            stack.pop()
            on_stack.remove(node)
    return None


def _red_dfs(seed, succ, red, on_stack) -> bool:
    """Inner search from an accepting seed: whether it touches the outer
    stack (the seed itself included).
    """
    stack = [iter(succ(seed))]
    while stack:
        for child in stack[-1]:
            if child in on_stack:
                return True
            if child not in red:
                red.add(child)
                stack.append(iter(succ(child)))
                break
        else:
            stack.pop()
    return False


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


def rand_capped_graph(rng, n, max_degree) -> CommGraph:
    """A random graph of ``n`` agents, any of them isolated, with no agent
    above ``max_degree`` neighbors; unlike ``build_graph`` it may have one
    agent or be disconnected."""
    edges, degree = [], [0] * (n + 1)
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.6 and max(degree[a], degree[b]) < max_degree:
            edges.append((a, b))
            degree[a] += 1
            degree[b] += 1
    return CommGraph(n, tuple(edges))


def rand_table_product(rng, g, n_cells=3, density=0.85, dt=Fraction(1, 4)):
    """The ``ProductWTS`` of one ``TableAgentWTS`` per agent of ``g`` over
    cells ``1..n_cells``, with ``g``'s neighbor lists: each action enables
    each cell with probability ``density``."""
    cells = range(1, n_cells + 1)
    systems = []
    for agent in range(1, g.n_agents + 1):
        nbs = g.neighbors(agent)
        table = {
            (action[0], action): {c for c in cells if rng.random() < density}
            for action in itertools.product(cells, repeat=1 + len(nbs))
        }
        systems.append(TableAgentWTS(agent, nbs, dt, table, initial=[1]))
    return product(systems)


def reference_coupling(g, x) -> np.ndarray:
    """Every agent's drift for ``x`` of shape ``(..., N, n)``, agent by
    agent: zero plus ``x_j - x_i`` for each neighbor ``j`` in neighbor order."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for i in range(1, g.n_agents + 1):
        drift = np.zeros(x.shape[:-2] + x.shape[-1:])
        for j in g.neighbors(i):
            drift += x[..., j - 1, :] - x[..., i - 1, :]
        out[..., i - 1, :] = drift
    return out


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

    parent = dict(bfs_order(b.initial, b.succ))
    out = []
    for node in parent:
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


def every_lasso(lasso, limit=None) -> list:
    """Every lasso that ``enumerate_accepting``'s ``lasso`` holds, in index
    order: ``lasso(0)``, ``lasso(1)``, ... up to the first ``IndexError``,
    or the first ``limit`` of them."""
    out = []
    for i in itertools.count() if limit is None else range(limit):
        try:
            out.append(lasso(i))
        except IndexError:
            break
    return out


def eager_synthesize(g, comps, formulas, r_selec):
    """``synthesize`` on the compiled route with every lasso built first:
    each agent's lassos are ``probe_every_accepting``'s, all of them
    projected, and the combinations are the product of those lists.
    Emptiness comes from the SCC oracle.  Returns a ``Plan`` or an
    ``Infeasible`` as ``synthesize`` words them.
    """
    from timedplan.buchi import BuchiWTS, SyncProduct, find_accepting, project_run
    from timedplan.synthesis import Infeasible, Plan, zip_runs
    from timedplan.tba import intersect, mitl_to_tba
    from timedplan.wts import TimedRun, check_consistent, product

    tbas = [mitl_to_tba(f, alphabet=c.alphabet) for f, c in zip(formulas, comps)]
    agents, per_agent = [], []
    for i, (c, a) in enumerate(zip(comps, tbas), start=1):
        b = BuchiWTS(c, a)
        if not accepting_cycle_exists(b.initial, b.succ, b.accepting):
            return Infeasible(
                f"agent {i} has no run satisfying its task even in isolation", agent=i
            )
        agents.append(b)
        lassos = probe_every_accepting(b, r_selec)
        per_agent.append([project_run(TimedRun(*lasso)) for lasso in lassos])
    combos = 0
    for pick in itertools.product(*per_agent):
        if combos >= r_selec:
            break
        combos += 1
        joint = zip_runs(pick)
        if check_consistent(joint, g, comps):
            return Plan(joint, "independent", combos)
    run = find_accepting(SyncProduct(product(comps), intersect(*tbas), agents))
    if run is None:
        return Infeasible("no joint run satisfies every task together")
    return Plan(project_run(run), "joint-product", combos)


# -- acceptance product with rational clocks -------------------------------------


def _clocks_in(g) -> set:
    """The clocks a constraint compares."""
    if isinstance(g, Atom):
        return {g.clock}
    if isinstance(g, GNot):
        return _clocks_in(g.sub)
    if isinstance(g, GAnd):
        return _clocks_in(g.left) | _clocks_in(g.right)
    return set()


def readable_clocks(tba) -> dict:
    """Per location ``q``, the clocks ``c`` that some guard or invariant can
    still read: a location that reads ``c`` in its invariant or an out-edge
    guard is reachable from ``q`` along edges that do not reset ``c``.  One
    depth-first search per (location, clock), forward from ``q``.
    """
    out = {}
    for q in tba.locations:
        out[q] = set()
        for c in tba.clocks:
            seen, todo = {q}, [q]
            while todo:
                r = todo.pop()
                guards = [tba.invariants[r], *(e.guard for e in tba.out_edges(r))]
                if any(c in _clocks_in(g) for g in guards):
                    out[q].add(c)
                    break
                for e in tba.out_edges(r):
                    if c not in e.resets and e.dst not in seen:
                        seen.add(e.dst)
                        todo.append(e.dst)
    return out


class RationalProduct:
    """The acceptance product read with exact rational clocks: values above
    the automaton's largest constant become ``INF``, every guard is walked on
    every move, and each move's weight is recorded as it is discovered.
    A clock that no guard or invariant can read any more at the target
    (``readable_clocks``) becomes 0, unless ``reduce`` is false.  Same
    nodes, successor order and sojourns as ``BuchiWTS``, with clocks as
    Fractions instead of ticks.
    """

    def __init__(self, wts, tba, reduce=True):
        self.wts = wts
        self.tba = tba
        self._readable = (readable_clocks(tba) if reduce
                          else dict.fromkeys(tba.locations, set(tba.clocks)))
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
                    Fraction(0) if c in e.resets or c not in self._readable[e.dst] else v
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
    own = dec.cell(action[0]).center
    h = float(disc.dt)
    x_hat = tuple(
        own[k] + h * sum(dec.cell(nb).center[k] - own[k] for nb in action[1:])
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
        targets = [np.array(disc.dec.cell(c).center, dtype=float) for c in dst]

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


# -- verdicts without an automaton ------------------------------------------------


def window_tasks(formulas, dt):
    """Each task ``F[a,b] q`` or ``G[a,b] q`` as (is_f, first, last, q), where
    positions first..last are the j with a <= j*dt <= b: the windows
    ``mitl.sat`` reads on a word of dt-spaced positions."""
    out = []
    for f in formulas:
        if not (isinstance(f, (Eventually, Always)) and isinstance(f.sub, Prop)
                and f.interval.hi != INF):
            raise ValueError(f"not a bounded F or G task on one service: {f}")
        first, last = math.ceil(f.interval.lo / dt), math.floor(f.interval.hi / dt)
        out.append((isinstance(f, Eventually), first, last, f.sub.name))
    return out


def windows_met(joint, comps, formulas) -> list:
    """Per agent, whether its cells along the joint lasso ``joint`` meet
    its window, read position by position; every sojourn must be the
    quantum, so position j lies at j*dt."""
    dt = comps[0].dt
    assert all(d == dt for d in joint.durations)
    met = []
    for i, (is_f, first, last, q) in enumerate(window_tasks(formulas, dt)):
        hits = [q in comps[i].label(joint.state(j)[i]) for j in range(first, last + 1)]
        met.append(any(hits) if is_f else all(hits))
    return met


def infinite_paths(roots, succ) -> set:
    """The states reachable from ``roots`` that start an infinite path: the
    greatest fixpoint of Z = {s : some successor of s lies in Z}, from Z =
    every reachable state."""
    z = set(roots)
    todo = list(z)
    while todo:
        for t in succ(todo.pop()):
            if t not in z:
                z.add(t)
                todo.append(t)
    while True:
        kept = {s for s in z if not z.isdisjoint(succ(s))}
        if len(kept) == len(z):
            return z
        z = kept


def oracle_plan_exists(p, formulas) -> bool:
    """Whether some infinite run of the joint product ``p`` meets every
    agent's ``F[a,b] q`` or ``G[a,b] q`` window, read point-wise at the
    positions j*dt; no automaton, acceptance product or search of the
    package takes part.  Layer j holds, per status (one bit per agent: its
    F window met, its G window not yet missed), the joint states that a
    path of j steps reaches with that status; a G miss drops the path.  A
    plan exists exactly when a state of the last window's layer with every
    bit set starts an infinite path (``infinite_paths``).
    """
    tasks = window_tasks(formulas, p.dt)
    labels = [c.label for c in p.components]
    succ = functools.cache(p.successors)

    def status(bits, j, state):
        out = list(bits)
        for i, (is_f, first, last, q) in enumerate(tasks):
            if first <= j <= last:
                holds = q in labels[i](state[i])
                if is_f:
                    out[i] = out[i] or holds
                elif not holds:
                    return None
        return tuple(out)

    layer: dict = {}
    start = tuple(not is_f for is_f, *_ in tasks)
    for s in p.initial:
        bits = status(start, 0, s)
        if bits is not None:
            layer.setdefault(bits, set()).add(s)
    for j in range(1, max(last for _, _, last, _ in tasks) + 1):
        nxt: dict = {}
        for bits, states in layer.items():
            image = set()
            for s in states:
                image.update(succ(s))
            for t in image:
                got = status(bits, j, t)
                if got is not None:
                    nxt.setdefault(got, set()).add(t)
        layer = nxt
    ends = set().union(*(states for bits, states in layer.items() if all(bits)))
    return not ends.isdisjoint(infinite_paths(ends, succ))
