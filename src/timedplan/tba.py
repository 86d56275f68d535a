"""Timed Buchi automata with location labels, plus the compiler from the
single-operator formula fragment.

Semantics: a run alternates time and discrete transitions.  A delay d moves
every clock forward (the location invariant must hold at the new valuation);
an edge (q, guard, resets, q') fires when the post-delay valuation satisfies
the guard, resets its clocks to 0, and the target invariant must hold.  A
lasso word is accepted when some run over it (labels matching the word
letters pointwise) visits an accepting location infinitely often, decided on
the finite graph of (word position, location, capped valuation) triples:
values above the largest constant collapse to an infinity sentinel, which is
sound because every comparison constant lies at or below the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AlphabetMismatch,
    GuardFailed,
    InvariantViolated,
    UndeclaredClock,
    UnsupportedFragment,
)
from .mitl import And, Eventually, Interval, Next, Not, Prop, Until, Always, props
from .rational import INF, as_fraction
from .search import nested_dfs
from .wts import TimedWord

# -- clock constraints -------------------------------------------------------


@dataclass(frozen=True)
class Top:
    def __str__(self):
        return "true"


TOP = Top()


@dataclass(frozen=True)
class Atom:
    clock: str
    op: str  # one of < > <= >= =
    const: Fraction

    def __post_init__(self):
        if self.op not in ("<", ">", "<=", ">=", "="):
            raise ValueError(f"unknown comparison {self.op!r}")
        object.__setattr__(self, "const", as_fraction(self.const))

    def __str__(self):
        return f"{self.clock} {self.op} {self.const}"


@dataclass(frozen=True)
class GNot:
    sub: object

    def __str__(self):
        return f"!({self.sub})"


@dataclass(frozen=True)
class GAnd:
    left: object
    right: object

    def __str__(self):
        return f"({self.left} & {self.right})"


def gand(*parts):
    out = None
    for p in parts:
        if isinstance(p, Top):
            continue
        out = p if out is None else GAnd(out, p)
    return TOP if out is None else out


def gor(a, b):
    return GNot(GAnd(GNot(a), GNot(b)))


def window(clock: str, interval: Interval):
    """Guard for 'the clock sits inside the interval'."""
    lo_atom = Atom(clock, ">=", interval.lo)
    if interval.hi == INF:
        return lo_atom
    return gand(lo_atom, Atom(clock, "<=", interval.hi))


def eval_guard(nu, g) -> bool:
    """Evaluate a constraint against a clock valuation (mapping).

    Values are rationals or the infinity sentinel; infinity compares above
    every constant and equals none.
    """
    if isinstance(g, Top):
        return True
    if isinstance(g, GNot):
        return not eval_guard(nu, g.sub)
    if isinstance(g, GAnd):
        return eval_guard(nu, g.left) and eval_guard(nu, g.right)
    if isinstance(g, Atom):
        try:
            v = nu[g.clock]
        except KeyError:
            raise UndeclaredClock(f"clock {g.clock!r} not in the valuation") from None
        c = g.const
        if g.op == "<":
            return v < c
        if g.op == ">":
            return v > c
        if g.op == "<=":
            return v <= c
        if g.op == ">=":
            return v >= c
        return v == c
    raise TypeError(f"not a clock constraint: {g!r}")


def _constants(g):
    if isinstance(g, Atom):
        yield g.const
    elif isinstance(g, GNot):
        yield from _constants(g.sub)
    elif isinstance(g, GAnd):
        yield from _constants(g.left)
        yield from _constants(g.right)


def _rename_clocks(g, mapping):
    if isinstance(g, Top):
        return g
    if isinstance(g, Atom):
        return Atom(mapping[g.clock], g.op, g.const)
    if isinstance(g, GNot):
        return GNot(_rename_clocks(g.sub, mapping))
    return GAnd(_rename_clocks(g.left, mapping), _rename_clocks(g.right, mapping))


# -- the automaton ------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    src: str
    guard: object
    resets: frozenset[str]
    dst: str

    def __post_init__(self):
        object.__setattr__(self, "resets", frozenset(self.resets))


class TBA:
    """Locations carry the letter read there; acceptance is Buchi."""

    def __init__(self, locations, initial, clocks, edges, accepting, labels,
                 ap, invariants=None):
        self.locations = tuple(locations)
        loc_set = set(self.locations)
        self.initial = tuple(q for q in initial)
        self.clocks = tuple(clocks)
        self.edges = tuple(edges)
        self.accepting = frozenset(accepting)
        self.ap = frozenset(ap)
        self.labels = {q: frozenset(labels.get(q, ())) for q in self.locations}
        self.invariants = {q: TOP for q in self.locations}
        if invariants:
            self.invariants.update(invariants)
        clock_set = set(self.clocks)
        for q in self.initial:
            if q not in loc_set:
                raise ValueError(f"initial location {q!r} undeclared")
        for q in self.accepting:
            if q not in loc_set:
                raise ValueError(f"accepting location {q!r} undeclared")
        for q, l in self.labels.items():
            if not l <= self.ap:
                raise AlphabetMismatch(f"label {set(l)} of {q!r} outside the alphabet")
        for e in self.edges:
            if e.src not in loc_set or e.dst not in loc_set:
                raise ValueError(f"edge {e} references undeclared locations")
            if not e.resets <= clock_set:
                raise UndeclaredClock(f"edge {e} resets undeclared clocks")
            for cl in _guard_clocks(e.guard):
                if cl not in clock_set:
                    raise UndeclaredClock(f"edge {e} guards undeclared clock {cl!r}")
        by_src = {q: [] for q in self.locations}
        for e in self.edges:
            by_src[e.src].append(e)
        self._out = {q: tuple(v) for q, v in by_src.items()}
        self._reading: dict = {}
        consts = [c for e in self.edges for c in _constants(e.guard)]
        consts += [c for g in self.invariants.values() for c in _constants(g)]
        self.constants = frozenset(consts)
        self.c_max: Fraction = max(consts, default=Fraction(0))

    def out_edges(self, q: str):
        return self._out[q]

    def edges_reading(self, q: str, letter: frozenset):
        """Out-edges of q whose target reads the given letter (memoized)."""
        got = self._reading.get((q, letter))
        if got is None:
            got = tuple(e for e in self._out[q] if self.labels[e.dst] == letter)
            self._reading[(q, letter)] = got
        return got

    def valuation(self, values=None) -> dict:
        if values is None:
            return {c: Fraction(0) for c in self.clocks}
        return dict(zip(self.clocks, values))


def _guard_clocks(g):
    if isinstance(g, Atom):
        yield g.clock
    elif isinstance(g, GNot):
        yield from _guard_clocks(g.sub)
    elif isinstance(g, GAnd):
        yield from _guard_clocks(g.left)
        yield from _guard_clocks(g.right)


def step(a: TBA, state, delta, edge: Edge):
    """One delay + one discrete transition; returns the new (location, nu).

    The delay endpoint must satisfy the source invariant, the guard is read
    at the post-delay valuation, resets apply after, and the target
    invariant must hold.
    """
    q, nu = state
    if edge.src != q:
        raise ValueError(f"edge leaves {edge.src!r}, state is at {q!r}")
    delta = as_fraction(delta)
    if delta < 0:
        raise ValueError("delays are nonnegative")
    moved = {c: (v if v == INF else v + delta) for c, v in nu.items()}
    if not eval_guard(moved, a.invariants[q]):
        raise InvariantViolated(f"delay {delta} leaves the invariant of {q!r}")
    if not eval_guard(moved, edge.guard):
        raise GuardFailed(f"guard {edge.guard} fails at {moved}")
    after = {c: (Fraction(0) if c in edge.resets else v) for c, v in moved.items()}
    if not eval_guard(after, a.invariants[edge.dst]):
        raise InvariantViolated(f"entering {edge.dst!r} violates its invariant")
    return edge.dst, after


def _cap(v, c_max):
    return INF if v > c_max else v


def accepts(a: TBA, word: TimedWord, witness: bool = False):
    """Lasso-word membership; optionally also return the accepting lasso.

    Nodes of the decision graph are (canonical position, location, capped
    valuation); an accepting reachable cycle is searched with nested DFS.
    """
    for l in word.labels:
        if not l <= a.ap:
            raise AlphabetMismatch(
                f"letter {set(l)} outside the automaton alphabet {set(a.ap)}"
            )
    c_max = a.c_max
    zeros = tuple(Fraction(0) for _ in a.clocks)

    initials = []
    for q in a.initial:
        if a.labels[q] == word.label(0) and eval_guard(a.valuation(zeros), a.invariants[q]):
            initials.append((0, q, zeros))

    succ_memo: dict = {}

    def succ(node):
        got = succ_memo.get(node)
        if got is not None:
            return got
        pos, q, nu = node
        delta = word.gap(pos)
        nxt_pos = word.canon(pos + 1)
        letter = word.label(pos + 1)
        moved = tuple(_cap(v + delta, c_max) if v != INF else INF for v in nu)
        out = []
        moved_map = a.valuation(moved)
        if eval_guard(moved_map, a.invariants[q]):
            for e in a.edges_reading(q, letter):
                if not eval_guard(moved_map, e.guard):
                    continue
                after = tuple(
                    Fraction(0) if c in e.resets else v
                    for c, v in zip(a.clocks, moved)
                )
                if eval_guard(a.valuation(after), a.invariants[e.dst]):
                    out.append((nxt_pos, e.dst, after))
        got = tuple(out)
        succ_memo[node] = got
        return got

    lasso = nested_dfs(initials, succ, lambda n: n[1] in a.accepting)
    if witness:
        return (lasso is not None), lasso
    return lasso is not None


# -- fragment compiler ---------------------------------------------------------


def _prop_eval(f, letter: frozenset[str]) -> bool:
    if isinstance(f, Prop):
        return f.name in letter
    if isinstance(f, Not):
        return not _prop_eval(f.sub, letter)
    if isinstance(f, And):
        return _prop_eval(f.left, letter) and _prop_eval(f.right, letter)
    raise UnsupportedFragment(f"not a propositional combination: {f}")


def _is_prop_combo(f) -> bool:
    if isinstance(f, Prop):
        return True
    if isinstance(f, Not):
        return _is_prop_combo(f.sub)
    if isinstance(f, And):
        return _is_prop_combo(f.left) and _is_prop_combo(f.right)
    return False


def _letters(ap):
    """All subsets of the alphabet, deterministically ordered."""
    ap = sorted(ap)
    out = []
    for mask in range(1 << len(ap)):
        out.append(frozenset(ap[i] for i in range(len(ap)) if mask >> i & 1))
    return out


def _loc(phase: str, letter: frozenset[str]) -> str:
    return f"{phase}:{{{','.join(sorted(letter))}}}"


def mitl_to_tba(f, alphabet=None) -> TBA:
    """Compile a fragment formula into a language-equivalent automaton.

    Fragment: F[a,b] l, G[a,b] l, l1 U[a,b] l2, X[a,b] l, a bare l, and
    top-level conjunctions of these, where l is a propositional combination.
    Locations are phase x letter pairs so every word over the alphabet has
    matching runs; the single clock is never reset and therefore reads the
    absolute stamp of the position under evaluation.
    """
    if isinstance(f, And) and not _is_prop_combo(f):
        left = mitl_to_tba(f.left, alphabet)
        right = mitl_to_tba(f.right, alphabet)
        return intersect(left, right)

    ap = frozenset(props(f)) | (frozenset(alphabet) if alphabet else frozenset())
    letters = _letters(ap)
    c = "c"

    def locs(phase, pred=None):
        return [
            _loc(phase, l) for l in letters if pred is None or _prop_eval(pred, l)
        ]

    labels = {}
    for phase in ("wait", "done", "hold", "init", "next", "tail"):
        for l in letters:
            labels[_loc(phase, l)] = l

    if isinstance(f, Eventually) and _is_prop_combo(f.sub):
        interval = f.interval
        locations = locs("wait") + locs("done")
        initial = locs("wait")
        if interval.lo == 0:
            initial += locs("done", f.sub)
        edges = []
        for l in letters:
            for l2 in letters:
                edges.append(Edge(_loc("wait", l), TOP, frozenset(), _loc("wait", l2)))
                edges.append(Edge(_loc("done", l), TOP, frozenset(), _loc("done", l2)))
                if _prop_eval(f.sub, l2):
                    edges.append(
                        Edge(_loc("wait", l), window(c, interval), frozenset(), _loc("done", l2))
                    )
        return TBA(locations, initial, (c,), edges, locs("done"), labels, ap)

    if isinstance(f, Always) and _is_prop_combo(f.sub):
        interval = f.interval
        locations = locs("hold")
        if interval.lo == 0:
            initial = locs("hold", f.sub)
        else:
            initial = locs("hold")
        edges = []
        inside = window(c, interval)
        for l in letters:
            for l2 in letters:
                if _prop_eval(f.sub, l2):
                    edges.append(Edge(_loc("hold", l), inside, frozenset(), _loc("hold", l2)))
                edges.append(Edge(_loc("hold", l), GNot(inside), frozenset(), _loc("hold", l2)))
        return TBA(locations, initial, (c,), edges, locations, labels, ap)

    if isinstance(f, Until) and _is_prop_combo(f.left) and _is_prop_combo(f.right):
        interval = f.interval
        locations = locs("wait") + locs("done")
        initial = locs("wait", f.left)
        if interval.lo == 0:
            initial += locs("done", f.right)
        edges = []
        for l in letters:
            for l2 in letters:
                if _prop_eval(f.left, l2):
                    edges.append(Edge(_loc("wait", l), TOP, frozenset(), _loc("wait", l2)))
                if _prop_eval(f.right, l2):
                    edges.append(
                        Edge(_loc("wait", l), window(c, interval), frozenset(), _loc("done", l2))
                    )
                edges.append(Edge(_loc("done", l), TOP, frozenset(), _loc("done", l2)))
        return TBA(locations, initial, (c,), edges, locs("done"), labels, ap)

    if isinstance(f, Next) and _is_prop_combo(f.sub):
        interval = f.interval
        locations = locs("init") + locs("next", f.sub) + locs("tail")
        initial = locs("init")
        edges = []
        for l in letters:
            for l2 in letters:
                if _prop_eval(f.sub, l2):
                    edges.append(
                        Edge(_loc("init", l), window(c, interval), frozenset(), _loc("next", l2))
                    )
                edges.append(Edge(_loc("tail", l), TOP, frozenset(), _loc("tail", l2)))
        for l in letters:
            if _prop_eval(f.sub, l):
                for l2 in letters:
                    edges.append(Edge(_loc("next", l), TOP, frozenset(), _loc("tail", l2)))
        return TBA(locations, initial, (c,), edges, locs("tail"), labels, ap)

    if _is_prop_combo(f):
        locations = locs("init") + locs("tail")
        initial = locs("init", f)
        edges = []
        for l in letters:
            for l2 in letters:
                edges.append(Edge(_loc("init", l), TOP, frozenset(), _loc("tail", l2)))
                edges.append(Edge(_loc("tail", l), TOP, frozenset(), _loc("tail", l2)))
        return TBA(locations, initial, (c,), edges, locations, labels, ap)

    raise UnsupportedFragment(f"cannot compile {f} (operator nesting unsupported)")


# -- products ---------------------------------------------------------------


def universal_tba(ap) -> TBA:
    """Accepts every word over the alphabet."""
    letters = _letters(frozenset(ap))
    labels = {_loc("any", l): l for l in letters}
    locations = list(labels)
    edges = [
        Edge(src, TOP, frozenset(), dst) for src in locations for dst in locations
    ]
    return TBA(locations, locations, (), edges, locations, labels, frozenset(ap))


def empty_tba(ap) -> TBA:
    """Accepts nothing (no accepting locations)."""
    u = universal_tba(ap)
    return TBA(u.locations, u.initial, u.clocks, u.edges, (), u.labels, u.ap)


def intersect(a: TBA, b: TBA) -> TBA:
    """Language intersection via the two-phase counter construction.

    Clocks are renamed apart; a pair of locations is kept only when the two
    labels agree on shared propositions, and the joint label is their union.
    The counter waits for the first factor's acceptance in phase 1 and the
    second's in phase 2; accepting = phase-1 visits accepting in the first.
    """
    map_a = {c: f"a.{c}" for c in a.clocks}
    map_b = {c: f"b.{c}" for c in b.clocks}
    clocks = tuple(map_a.values()) + tuple(map_b.values())
    ap = a.ap | b.ap

    def consistent(qa, qb):
        return a.labels[qa] & b.ap == b.labels[qb] & a.ap

    locations = []
    labels = {}
    invariants = {}
    name = {}
    for qa in a.locations:
        for qb in b.locations:
            if not consistent(qa, qb):
                continue
            for phase in (1, 2):
                q = f"{qa}|{qb}|{phase}"
                name[(qa, qb, phase)] = q
                locations.append(q)
                labels[q] = a.labels[qa] | b.labels[qb]
                invariants[q] = gand(
                    _rename_clocks(a.invariants[qa], map_a),
                    _rename_clocks(b.invariants[qb], map_b),
                )
    edges = []
    for qa in a.locations:
        for qb in b.locations:
            if not consistent(qa, qb):
                continue
            for phase in (1, 2):
                if phase == 1:
                    nxt_phase = 2 if qa in a.accepting else 1
                else:
                    nxt_phase = 1 if qb in b.accepting else 2
                for ea in a.out_edges(qa):
                    for eb in b.out_edges(qb):
                        if (ea.dst, eb.dst, nxt_phase) not in name:
                            continue
                        edges.append(
                            Edge(
                                name[(qa, qb, phase)],
                                gand(
                                    _rename_clocks(ea.guard, map_a),
                                    _rename_clocks(eb.guard, map_b),
                                ),
                                frozenset(map_a[c] for c in ea.resets)
                                | frozenset(map_b[c] for c in eb.resets),
                                name[(ea.dst, eb.dst, nxt_phase)],
                            )
                        )
    initial = [
        name[(qa, qb, 1)]
        for qa in a.initial
        for qb in b.initial
        if (qa, qb, 1) in name
    ]
    accepting = [
        name[(qa, qb, 1)]
        for qa in a.locations
        for qb in b.locations
        if qa in a.accepting and (qa, qb, 1) in name
    ]
    return TBA(locations, initial, clocks, edges, accepting, labels, ap, invariants)


def dump(a: TBA) -> str:
    """Deterministic human-readable listing."""
    lines = [f"clocks: {', '.join(a.clocks) if a.clocks else '(none)'}"]
    for q in a.locations:
        marks = []
        if q in a.initial:
            marks.append("init")
        if q in a.accepting:
            marks.append("accepting")
        label = "{" + ",".join(sorted(a.labels[q])) + "}"
        inv = a.invariants[q]
        inv_s = "" if isinstance(inv, Top) else f" inv: {inv}"
        lines.append(f"{q} {label}{' [' + ' '.join(marks) + ']' if marks else ''}{inv_s}")
    for e in sorted(a.edges, key=lambda e: (e.src, e.dst, str(e.guard))):
        resets = ",".join(sorted(e.resets)) if e.resets else "-"
        lines.append(f"{e.src} --{e.guard}/{resets}--> {e.dst}")
    return "\n".join(lines)
