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
invariant tells such values apart.
"""

from __future__ import annotations

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
    clock: str
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
    src: str
    guard: object
    resets: frozenset[str]
    dst: str

    def __post_init__(self):
        object.__setattr__(self, "resets", frozenset(self.resets))


class TBA:
    """Locations carry the letter read there; acceptance is Buchi.

    ``factors`` maps each location to its factor locations and
    ``clock_factors`` gives each clock's (factor index, factor clock), in
    clock order; an automaton that ``intersect`` did not build is its own
    one factor.
    """

    def __init__(self, locations, initial, clocks, edges, accepting, labels,
                 ap, invariants=None, factors=None):
        self.locations = tuple(locations)
        loc_set = set(self.locations)
        self.initial = tuple(q for q in initial)
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
        guarded = [(e, e.guard) for e in self.edges]
        guarded += [(f"invariant of {q!r}", g) for q, g in self.invariants.items()]
        consts = []
        for where, g in guarded:
            for x in atoms(g):
                if x.clock not in clock_set:
                    raise UndeclaredClock(f"{where} guards undeclared clock {x.clock!r}")
                consts.append(x.const)
        by_src = {q: [] for q in self.locations}
        for e in self.edges:
            by_src[e.src].append(e)
        self._out = {q: tuple(v) for q, v in by_src.items()}
        self._reading: dict = {}
        self.constants = frozenset(consts)
        self.c_max: Fraction = max(consts, default=Fraction(0))
        self.factors, self.clock_factors = factors or (
            {q: (q,) for q in self.locations}, tuple((0, c) for c in self.clocks)
        )

    def in_ticks(self, unit: Fraction) -> TBA:
        """This automaton with every guard and invariant constant divided by
        ``unit``, which must divide each: ``k`` ticks read as ``k * unit`` here.
        """
        def scale(x):
            ticks, rest = divmod(x.const, unit)
            if rest:
                raise ValueError(f"constant of {x} is not a whole number of {unit}")
            return Atom(x.clock, x.op, ticks)

        edges = [Edge(e.src, _rewrite(e.guard, scale), e.resets, e.dst) for e in self.edges]
        invariants = {q: _rewrite(g, scale) for q, g in self.invariants.items()}
        return TBA(self.locations, self.initial, self.clocks, edges, self.accepting,
                   self.labels, self.ap, invariants, (self.factors, self.clock_factors))

    def out_edges(self, q: str):
        return self._out[q]

    def edges_reading(self, q: str, letter: frozenset):
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

    def step(self, q: str, clocks: tuple, ticks: int, letter: frozenset, cap: int) -> tuple:
        """Distinct ``(location, clocks)`` targets, in edge order, after
        dwelling ``ticks`` at ``q`` and then reading ``letter``: the clocks
        advance, held at ``cap``; the invariant of ``q`` holds on them; an
        edge into a location labelled ``letter`` passes its guard, resets
        its clocks, and the target invariant holds after.
        """
        moved = tuple(min(v + ticks, cap) for v in clocks)
        moved_map = self.valuation(moved)
        if not eval_guard(moved_map, self.invariants[q]):
            return ()
        out = {}
        for e in self.edges_reading(q, letter):
            if eval_guard(moved_map, e.guard):
                after = tuple(0 if c in e.resets else v for c, v in zip(self.clocks, moved))
                if eval_guard(self.valuation(after), self.invariants[e.dst]):
                    out[(e.dst, after)] = None
        return tuple(out)


def accepts(a: TBA, word: TimedWord, witness: bool = False):
    """Lasso-word membership; optionally also return the accepting lasso.

    Nodes of the decision graph are (canonical position, location, clocks),
    the clocks in int ticks of the largest rational that divides every
    duration and constant, held one tick above the largest constant; an
    accepting reachable cycle is searched with nested DFS.
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
    lasso = nested_dfs(initials, succ, lambda n: n[1] in a.accepting)
    if witness:
        return (lasso is not None), lasso
    return lasso is not None


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
    absolute stamp of the position under evaluation.  Each location's
    out-edges go by target letter, then by the table's moves in order.
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
    """Language intersection of the operands, folded left by the two-phase
    counter construction.

    At each step clocks are renamed apart (``a.`` the fold so far, ``b.``
    the next operand); a pair of locations is kept only when the two labels
    agree on shared propositions, and the joint label is their union.  The
    counter waits for the fold's acceptance in phase 1 and the operand's in
    phase 2; accepting = phase-1 visits accepting in the fold.  Each operand
    is one factor of the result, whatever it was built from, so
    ``factors`` lists one location per operand and ``clock_factors`` names
    operands by their index, with no nesting however many are folded.
    """
    # rebuilt without its record, the first operand is one factor
    a = TBA(first.locations, first.initial, first.clocks, first.edges, first.accepting,
            first.labels, first.ap, first.invariants)
    for k, b in enumerate(rest, start=1):
        a = _meet(a, b, k)
    return a


def _meet(a: TBA, b: TBA, k: int) -> TBA:
    """One step of ``intersect``'s fold: ``b`` becomes factor ``k``."""
    map_a = {c: f"a.{c}" for c in a.clocks}
    map_b = {c: f"b.{c}" for c in b.clocks}
    shared_a = {qa: a.labels[qa] & b.ap for qa in a.locations}
    shared_b = {qb: b.labels[qb] & a.ap for qb in b.locations}

    def joint(ga, gb):
        return gand(_rewrite(ga, lambda x: Atom(map_a[x.clock], x.op, x.const)),
                    _rewrite(gb, lambda x: Atom(map_b[x.clock], x.op, x.const)))

    locations, labels, invariants, edges, accepting, factors = [], {}, {}, [], [], {}
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
                factors[q] = (*a.factors[qa], qb)
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
    clock_factors = a.clock_factors + tuple((k, c) for c in b.clocks)
    return TBA(locations, initial, clocks, edges, accepting, labels, a.ap | b.ap, invariants,
               (factors, clock_factors))
