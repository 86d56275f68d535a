"""Timed Buchi automata with location labels, plus the compiler from the
single-operator formula fragment.

Semantics: a run alternates time and discrete transitions.  A delay d moves
every clock forward (the location invariant must hold at the new valuation);
an edge (q, guard, resets, q') fires when the post-delay valuation satisfies
the guard, resets its clocks to 0, and the target invariant must hold.  A
lasso word is accepted when some run over it (labels matching the word
letters pointwise) visits an accepting location infinitely often, decided on
the finite graph of (word position, location, clocks) triples.

``TBA.start`` and ``TBA.step`` state these rules once, for word acceptance
and for the acceptance product alike.  Both read a copy of the automaton in
whole ticks (``TBA.in_ticks``) with int clocks, and a clock above the
largest constant is held at ``cap``, one tick above it: no guard or
invariant tells such values apart.  A clock that no guard or invariant can
read before it is reset (``TBA.active``) is stored as 0, so that
configurations that differ only in such clocks are one (Daws & Yovine,
RTSS 1996).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Hashable
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, ge, gt, le, lt

from .errors import AlphabetMismatch, UndeclaredClock, UnsupportedFragment
from .mitl import And, Eventually, Interval, Next, Not, Prop, Until, Always, props
from .rational import INF, as_fraction, frac_gcd
from .search import nested_dfs
from .wts import TimedWord

# -- clock constraints -------------------------------------------------------


@dataclass(frozen=True)
class Top:
    def __str__(self):
        return "true"


TOP = Top()
_COMPARE = {"<": lt, ">": gt, "<=": le, ">=": ge, "=": eq}


@dataclass(frozen=True)
class Atom:
    clock: Hashable  # a name: ``intersect`` names operand k's clock c (k, c)
    op: str  # one of < > <= >= =
    const: Fraction | int  # int ticks on an automaton from TBA.in_ticks

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise ValueError(f"unknown comparison {self.op!r}")
        if not isinstance(self.const, int):
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


def window(clock: str, interval: Interval):
    """Guard for 'the clock sits inside the interval'."""
    lo_atom = Atom(clock, ">=", interval.lo)
    if interval.hi == INF:
        return lo_atom
    return gand(lo_atom, Atom(clock, "<=", interval.hi))


def eval_guard(nu, g) -> bool:
    """Evaluate a constraint against a clock valuation (mapping).

    Values are rationals, or int ticks on an automaton from ``TBA.in_ticks``.
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
        return _COMPARE[g.op](v, g.const)
    raise TypeError(f"not a clock constraint: {g!r}")


def atoms(g):
    """The comparison atoms of a constraint, left to right."""
    if isinstance(g, Atom):
        yield g
    elif isinstance(g, GNot):
        yield from atoms(g.sub)
    elif isinstance(g, GAnd):
        yield from atoms(g.left)
        yield from atoms(g.right)


def _rewrite(g, atom):
    """The constraint with every atom ``x`` replaced by ``atom(x)``."""
    if isinstance(g, Atom):
        return atom(g)
    if isinstance(g, GNot):
        return GNot(_rewrite(g.sub, atom))
    if isinstance(g, GAnd):
        return GAnd(_rewrite(g.left, atom), _rewrite(g.right, atom))
    return g


# -- the automaton ------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    src: Hashable
    guard: object
    resets: frozenset
    dst: Hashable

    def __post_init__(self):
        object.__setattr__(self, "resets", frozenset(self.resets))


def _active(reads, edges) -> dict:
    """The least sets ``active[q] ⊇ reads[q]`` closed under "active at an
    edge's target and not reset by it is active at its source", by one
    backward worklist: a location is pushed each time its set grows.
    Grows the sets of ``reads`` in place.
    """
    active = reads
    preds = {q: [] for q in active}
    for e in edges:
        preds[e.dst].append((e.src, e.resets))
    todo = [q for q, got in active.items() if got]
    while todo:
        q = todo.pop()
        for src, resets in preds[q]:
            new = active[q] - resets - active[src]
            if new:
                active[src] |= new
                todo.append(src)
    return {q: frozenset(got) for q, got in active.items()}


class TBA:
    """Locations carry the letter read there; acceptance is Buchi.
    Locations and clocks may be any hashable names; ``initial`` keeps a
    location listed twice once, where it is first listed.

    ``active`` maps each location to the clocks it can still read: those
    its invariant or an out-edge's guard reads, and those active at an
    edge's target that the edge does not reset.  It is computed once, when
    not given, by one backward worklist pass over the edges.
    """

    def __init__(self, locations, initial, clocks, edges, accepting, labels,
                 ap, invariants=None, active=None):
        self.locations = tuple(locations)
        loc_set = set(self.locations)
        self.initial = tuple(dict.fromkeys(initial))
        self.clocks = tuple(clocks)
        self.edges = tuple(edges)
        self.accepting = frozenset(accepting)
        self.ap = frozenset(ap)
        self.labels = {q: frozenset(labels.get(q, ())) for q in self.locations}
        self.invariants = {q: TOP for q in self.locations}
        self.invariants.update(invariants or {})
        clock_set = set(self.clocks)
        for kind, qs in (("initial", self.initial), ("accepting", self.accepting),
                         ("invariant", self.invariants)):
            for q in qs:
                if q not in loc_set:
                    raise ValueError(f"{kind} location {q!r} undeclared")
        for q, l in self.labels.items():
            if not l <= self.ap:
                raise AlphabetMismatch(f"label {set(l)} of {q!r} outside the alphabet")
        for e in self.edges:
            if e.src not in loc_set or e.dst not in loc_set:
                raise ValueError(f"edge {e} references undeclared locations")
            if not e.resets <= clock_set:
                raise UndeclaredClock(f"edge {e} resets undeclared clocks")
        guarded = [(e, e.src, e.guard) for e in self.edges]
        guarded += [(f"invariant of {q!r}", q, g) for q, g in self.invariants.items()]
        consts = []
        reads = {q: set() for q in self.locations}
        for where, q, g in guarded:
            for x in atoms(g):
                if x.clock not in clock_set:
                    raise UndeclaredClock(f"{where} guards undeclared clock {x.clock!r}")
                consts.append(x.const)
                reads[q].add(x.clock)
        by_src = {q: [] for q in self.locations}
        for e in self.edges:
            by_src[e.src].append(e)
        self._out = {q: tuple(v) for q, v in by_src.items()}
        self._reading: dict = {}
        self.constants = frozenset(consts)
        self.c_max: Fraction = max(consts, default=Fraction(0))
        self.active = active or _active(reads, self.edges)

    def in_ticks(self, unit: Fraction) -> TBA:
        """This automaton with every guard and invariant constant divided by
        ``unit``, which must divide each: ``k`` ticks read as ``k * unit`` here.
        """
        def scale(x):
            ticks, rest = divmod(x.const, unit)
            if rest:
                raise ValueError(f"constant of {x} is not a whole number of {unit}")
            return Atom(x.clock, x.op, ticks)

        @functools.cache  # the edges repeat a few guards hundreds of times
        def rewrite(g):
            return _rewrite(g, scale)

        edges = [Edge(e.src, rewrite(e.guard), e.resets, e.dst) for e in self.edges]
        invariants = {q: rewrite(g) for q, g in self.invariants.items()}
        return TBA(self.locations, self.initial, self.clocks, edges, self.accepting,
                   self.labels, self.ap, invariants, self.active)

    def out_edges(self, q: Hashable):
        return self._out[q]

    def edges_reading(self, q: Hashable, letter: frozenset):
        """Out-edges of q whose target reads the given letter (memoized)."""
        got = self._reading.get((q, letter))
        if got is None:
            got = tuple(e for e in self._out[q] if self.labels[e.dst] == letter)
            self._reading[(q, letter)] = got
        return got

    def valuation(self, values) -> dict:
        return dict(zip(self.clocks, values))

    def start(self, letter: frozenset) -> tuple:
        """Initial locations a run over a word beginning with ``letter`` can
        begin at: labelled ``letter``, with the invariant holding at zero.
        """
        zeros = self.valuation((0,) * len(self.clocks))
        return tuple(q for q in self.initial
                     if self.labels[q] == letter and eval_guard(zeros, self.invariants[q]))

    def step(self, q: Hashable, clocks: tuple, ticks: int, letter: frozenset, cap: int) -> tuple:
        """Distinct ``(location, clocks)`` targets, in edge order, after
        dwelling ``ticks`` at ``q`` and then reading ``letter``: the clocks
        advance, held at ``cap``; the invariant of ``q`` holds on them; an
        edge into a location labelled ``letter`` passes its guard, resets
        its clocks and every clock not ``active`` at its target to 0, and
        the target invariant holds after.
        """
        moved = tuple(min(v + ticks, cap) for v in clocks)
        moved_map = self.valuation(moved)
        if not eval_guard(moved_map, self.invariants[q]):
            return ()
        out = {}
        for e in self.edges_reading(q, letter):
            if eval_guard(moved_map, e.guard):
                live = self.active[e.dst] - e.resets
                after = tuple(v if c in live else 0 for c, v in zip(self.clocks, moved))
                if eval_guard(self.valuation(after), self.invariants[e.dst]):
                    out[(e.dst, after)] = None
        return tuple(out)


def accepts(a: TBA, word: TimedWord, witness: bool = False):
    """Lasso-word membership; with ``witness``, ``(verdict, node)``, where
    ``node`` is an accepting node on a reachable cycle of the decision
    graph, or None.

    Nodes of the decision graph are (canonical position, location, clocks),
    the clocks in int ticks of the largest rational that divides every
    duration and constant, held one tick above the largest constant; an
    accepting reachable cycle is searched with ``nested_dfs``, one Tarjan
    pass that stops at the first accepting node it finds on a cycle.
    """
    for l in word.labels:
        if not l <= a.ap:
            raise AlphabetMismatch(
                f"letter {set(l)} outside the automaton alphabet {set(a.ap)}"
            )
    unit = frac_gcd([*word.durations, *a.constants])
    a = a.in_ticks(unit)
    cap = int(a.c_max) + 1
    gaps = [int(d / unit) for d in word.durations]
    succ_memo: dict = {}

    def succ(node):
        got = succ_memo.get(node)
        if got is None:
            pos, q, nu = node
            nxt = word.canon(pos + 1)
            got = succ_memo[node] = tuple(
                (nxt, *target) for target in a.step(q, nu, gaps[pos], word.label(nxt), cap)
            )
        return got

    zeros = (0,) * len(a.clocks)
    initials = [(0, q, zeros) for q in a.start(word.label(0))]
    node = nested_dfs(initials, succ, lambda n: n[1] in a.accepting)
    if witness:
        return node is not None, node
    return node is not None


# -- fragment compiler ---------------------------------------------------------


def _prop_eval(f, letter: frozenset[str]) -> bool:
    """Truth of a propositional combination on a letter; None is true."""
    if f is None:
        return True
    if isinstance(f, Prop):
        return f.name in letter
    if isinstance(f, Not):
        return not _prop_eval(f.sub, letter)
    if isinstance(f, And):
        return _prop_eval(f.left, letter) and _prop_eval(f.right, letter)
    raise UnsupportedFragment(f"not a propositional combination: {f}")


def _is_prop_combo(f) -> bool:
    if f is None or isinstance(f, Prop):
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


def _rules(f):
    """The rule table of a single-operator formula.

    A table is (phases, initial, moves, accepting): ``phases`` maps each
    phase to the test its letters pass, ``initial`` lists (phase, test on the
    first letter), ``moves`` lists (source phase, guard, target phase, test
    on the target letter), and ``accepting`` names phases.  A test of None
    passes every letter.  F[a,b] l is true U[a,b] l.
    """
    if isinstance(f, Eventually) and _is_prop_combo(f.sub):
        f = Until(f.interval, None, f.sub)
    if isinstance(f, Always) and _is_prop_combo(f.sub):
        inside = window("c", f.interval)
        return ({"hold": None},
                [("hold", f.sub if f.interval.lo == 0 else None)],
                [("hold", inside, "hold", f.sub), ("hold", GNot(inside), "hold", None)],
                {"hold"})
    if isinstance(f, Until) and _is_prop_combo(f.left) and _is_prop_combo(f.right):
        return ({"wait": None, "done": None},
                [("wait", f.left)] + ([("done", f.right)] if f.interval.lo == 0 else []),
                [("wait", TOP, "wait", f.left),
                 ("wait", window("c", f.interval), "done", f.right),
                 ("done", TOP, "done", None)],
                {"done"})
    if isinstance(f, Next) and _is_prop_combo(f.sub):
        return ({"init": None, "next": f.sub, "tail": None},
                [("init", None)],
                [("init", window("c", f.interval), "next", f.sub),
                 ("next", TOP, "tail", None),
                 ("tail", TOP, "tail", None)],
                {"tail"})
    if _is_prop_combo(f):
        return ({"init": None, "tail": None},
                [("init", f)],
                [("init", TOP, "tail", None), ("tail", TOP, "tail", None)],
                {"init", "tail"})
    raise UnsupportedFragment(f"cannot compile {f} (operator nesting unsupported)")


def mitl_to_tba(f, alphabet=None) -> TBA:
    """Compile a fragment formula into a language-equivalent automaton.

    Fragment: F[a,b] l, G[a,b] l, l1 U[a,b] l2, X[a,b] l, a bare l, and
    top-level conjunctions of these, where l is a propositional combination.
    Locations are phase x letter pairs so every word over the alphabet has
    matching runs; the single clock is never reset and therefore reads the
    absolute stamp of the position under evaluation while a guard can still
    read it.  Where none can (``done`` of F and U, ``next`` and ``tail`` of
    X), ``TBA.step`` stores it as 0, so the stamp stops counting there.
    Each location's out-edges go by target letter, then by the table's
    moves in order.
    """
    if isinstance(f, And) and not _is_prop_combo(f):
        left = mitl_to_tba(f.left, alphabet)
        right = mitl_to_tba(f.right, alphabet)
        return intersect(left, right)

    ap = frozenset(props(f)) | (frozenset(alphabet) if alphabet else frozenset())
    phases, initial, moves, accepting = _rules(f)
    letters = _letters(ap)
    at = [(p, l) for p, test in phases.items() for l in letters if _prop_eval(test, l)]
    labels = {_loc(p, l): l for p, l in at}
    edges = [
        Edge(_loc(p, l), guard, (), _loc(dst, l2))
        for p, l in at
        for l2 in letters
        for src, guard, dst, test in moves
        if src == p and _prop_eval(test, l2)
    ]
    return TBA(
        list(labels),
        [_loc(p, l) for p, test in initial for l in letters if _prop_eval(test, l)],
        ("c",),
        edges,
        [_loc(p, l) for p, l in at if p in accepting],
        labels,
        ap,
    )


# -- products ---------------------------------------------------------------


def intersect(first: TBA, *rest: TBA) -> TBA:
    """Language intersection of the operands: the left fold of binary
    products by the two-phase counter (Courcoubetis, Vardi, Wolper &
    Yannakakis, FMSD 1992), built in one pass.

    A location is ``(qs, ps)``: ``qs`` holds one location per operand,
    kept when their labels agree on shared propositions, and the label is
    their union; ``ps`` holds one phase per fold step.  Step ``k`` waits in
    phase 1 for the fold of the operands before ``k`` to accept and in
    phase 2 for operand ``k``; a location accepts when every phase is 1 and
    operand 0 accepts.  The phases a move sets depend only on the location
    it leaves, so every out-edge of a location leads to the same phases.
    Operand ``k``'s clock ``c`` is the clock ``(k, c)``.  Out-edges are the
    product of the operands' out-edges, in operand order, that lead to a
    kept location.
    """
    ops = (first, *rest)
    labels = {(q,): first.labels[q] for q in first.locations}  # kept qs -> label
    locations = [((q,), ()) for q in first.locations]
    ap = first.ap
    for b in rest:
        shared = {qb: b.labels[qb] & ap for qb in b.locations}
        fits = {qs: [qb for qb in b.locations if got & b.ap == shared[qb]]
                for qs, got in labels.items()}
        labels = {qs + (qb,): got | b.labels[qb] for qs, got in labels.items() for qb in fits[qs]}
        locations = [(qs + (qb,), ps + (p,))
                     for qs, ps in locations for qb in fits[qs] for p in (1, 2)]
        ap |= b.ap

    outs, invs = [], []  # per operand: location -> renamed out-edges, invariant
    for k, a in enumerate(ops):
        rename = functools.cache(
            lambda g, k=k: _rewrite(g, lambda x: Atom((k, x.clock), x.op, x.const)))
        outs.append({q: [(e.dst, rename(e.guard), frozenset((k, c) for c in e.resets))
                         for e in a.out_edges(q)] for q in a.locations})
        invs.append({q: rename(g) for q, g in a.invariants.items()})

    edges, invariants, accepting = [], {}, []
    for q in locations:
        qs, ps = q
        invariants[q] = gand(*(inv[x] for inv, x in zip(invs, qs)))
        done = qs[0] in first.accepting  # the fold so far accepts
        nxt = []
        for b, x, p in zip(rest, qs[1:], ps):
            nxt.append((2 if done else 1) if p == 1 else (1 if x in b.accepting else 2))
            done = done and p == 1
        if done:
            accepting.append(q)
        nxt = tuple(nxt)
        for combo in itertools.product(*(out[x] for out, x in zip(outs, qs))):
            dst = tuple(d for d, _, _ in combo)
            if dst in labels:
                edges.append(Edge(q, gand(*(g for _, g, _ in combo)),
                                  frozenset().union(*(r for _, _, r in combo)), (dst, nxt)))
    ones = (1,) * len(rest)
    initial = [(qs, ones) for qs in itertools.product(*(a.initial for a in ops)) if qs in labels]
    clocks = [(k, c) for k, a in enumerate(ops) for c in a.clocks]
    return TBA(locations, initial, clocks, edges, accepting,
               {q: labels[q[0]] for q in locations}, ap, invariants)
