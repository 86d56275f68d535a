import hashlib
from fractions import Fraction

import numpy as np
import pytest

from timedplan.errors import (
    AlphabetMismatch,
    UndeclaredClock,
    UnsupportedFragment,
)
from timedplan.mitl import parse
from timedplan.rational import INF
from timedplan.tba import (
    TBA,
    Atom,
    Edge,
    TOP,
    accepts,
    eval_guard,
    gand,
    gor,
    intersect,
    mitl_to_tba,
    window,
)
from timedplan.wts import TimedWord

from helpers import rand_fragment, rand_word


def visit_window_tba(c1=Fraction(2), c2=Fraction(5)):
    """Three-location acceptor: reach the marked cell inside [c1, c2].

    q0 waits (only while the clock can still make the window), q1 is the
    on-time hit, q2 the miss sink.
    """
    edges = (
        Edge("q0", Atom("c", "<=", c2), frozenset(), "q0"),
        Edge("q0", gor(Atom("c", "<", c1), Atom("c", ">", c2)), frozenset({"c"}), "q2"),
        Edge("q0", gand(Atom("c", ">=", c1), Atom("c", "<=", c2)), frozenset({"c"}), "q1"),
        Edge("q1", TOP, frozenset({"c"}), "q1"),
        Edge("q2", TOP, frozenset({"c"}), "q2"),
    )
    return TBA(
        locations=("q0", "q1", "q2"),
        initial=("q0",),
        clocks=("c",),
        edges=edges,
        accepting=("q1",),
        labels={"q0": frozenset(), "q1": frozenset({"green"}), "q2": frozenset()},
        ap=frozenset({"green"}),
    )


def hit_word(alpha, period=Fraction(1)):
    """Empty at 0, green at alpha, green forever after with the period."""
    return TimedWord(
        (frozenset(), frozenset({"green"})), (alpha, period), 1
    )


def test_eval_guard_examples():
    nu0 = {"c": Fraction(0)}
    assert eval_guard(nu0, TOP)
    assert eval_guard({"c": Fraction(3)}, gand(Atom("c", ">=", 2), Atom("c", "<=", 5)))
    assert not eval_guard({"c": INF}, Atom("c", "<=", 5))
    assert eval_guard({"c": INF}, Atom("c", ">=", 5))
    with pytest.raises(UndeclaredClock):
        eval_guard({}, Atom("c", "<=", 1))


def test_window_guard():
    from timedplan.mitl import Interval

    g = window("c", Interval(1, 2))
    assert eval_guard({"c": Fraction(3, 2)}, g)
    assert not eval_guard({"c": Fraction(3)}, g)
    g_inf = window("c", Interval(1, INF))
    assert eval_guard({"c": INF}, g_inf)


def test_accepts_respects_invariants():
    a = TBA(
        locations=("u",),
        initial=("u",),
        clocks=("c",),
        edges=(Edge("u", TOP, frozenset({"c"}), "u"),),
        accepting=("u",),
        labels={"u": frozenset()},
        ap=frozenset(),
        invariants={"u": Atom("c", "<=", 2)},
    )
    assert accepts(a, TimedWord((frozenset(),), (Fraction(2),), 0))
    # a delay of 3 leaves the invariant before the reset can fire
    assert not accepts(a, TimedWord((frozenset(),), (Fraction(3),), 0))


def test_accepts_window_words():
    a = visit_window_tba()
    assert accepts(a, hit_word(Fraction(3)))
    assert not accepts(a, hit_word(Fraction(1)))  # before the window opens
    assert not accepts(a, hit_word(Fraction(6)))  # after it closes
    assert accepts(a, hit_word(Fraction(2)))  # boundaries are closed
    assert accepts(a, hit_word(Fraction(5)))
    ok, lasso = accepts(a, hit_word(Fraction(3)), witness=True)
    assert ok and lasso is not None
    prefix, cycle = lasso
    assert any(n[1] == "q1" for n in cycle)


def test_accepts_rejects_when_no_accepting_location():
    a = visit_window_tba()
    stripped = TBA(
        a.locations, a.initial, a.clocks, a.edges, (), a.labels, a.ap
    )
    assert not accepts(stripped, hit_word(Fraction(3)))


def test_accepts_alphabet_mismatch():
    a = visit_window_tba()
    w = TimedWord((frozenset({"blue"}),), (Fraction(1),), 0)
    with pytest.raises(AlphabetMismatch):
        accepts(a, w)


def test_tba_validation():
    with pytest.raises(UndeclaredClock):
        TBA(
            ("q",), ("q",), ("c",),
            (Edge("q", Atom("d", "<=", 1), frozenset(), "q"),),
            ("q",), {"q": frozenset()}, frozenset(),
        )
    with pytest.raises(UndeclaredClock):
        TBA(
            ("q",), ("q",), ("c",),
            (Edge("q", TOP, frozenset({"d"}), "q"),),
            ("q",), {"q": frozenset()}, frozenset(),
        )
    # invariants go through the same checks as edges, at construction
    with pytest.raises(ValueError, match="'zz'"):
        TBA(
            ("q",), ("q",), ("c",), (), ("q",), {"q": frozenset()}, frozenset(),
            invariants={"zz": Atom("c", "<=", 9)},
        )
    with pytest.raises(UndeclaredClock, match="'d'"):
        TBA(
            ("q",), ("q",), ("c",), (), ("q",), {"q": frozenset()}, frozenset(),
            invariants={"q": gand(Atom("c", ">=", 0), Atom("d", "<=", 1))},
        )


def test_cmax_and_capping():
    a = visit_window_tba()
    assert a.c_max == 5
    # a run that parks in q2 forever still accepts nothing
    w = TimedWord(
        (frozenset(), frozenset(), frozenset()),
        (Fraction(7), Fraction(7), Fraction(7)),
        2,
    )
    assert not accepts(a, w)


# -- compiler ------------------------------------------------------------------


def lasso(labels, durations, stem):
    return TimedWord(
        tuple(frozenset(l) for l in labels),
        tuple(Fraction(d) for d in durations),
        stem,
    )


def test_compile_eventually_matches_sat():
    f = parse("F[2,5] green")
    a = mitl_to_tba(f)
    assert accepts(a, hit_word(Fraction(3)))
    assert not accepts(a, hit_word(Fraction(6)))
    assert accepts(a, hit_word(Fraction(2)))


def _shape(a):
    """Locations, initial set, accepting set, and every location's
    out-edges as (target, guard) in order."""
    return (
        a.locations,
        a.initial,
        a.accepting,
        {q: [(e.dst, e.guard) for e in a.out_edges(q)] for q in a.locations},
    )


@pytest.mark.parametrize(
    "text, p, lo, hi, done_initial",
    [("F[1/20, 1/4] p1", "p1", Fraction(1, 20), Fraction(1, 4), ()),
     ("F[0, 1/10] a", "a", Fraction(0), Fraction(1, 10), ("done:{a}",))],
)
def test_compile_eventually_golden(text, p, lo, hi, done_initial):
    # out-edge order fixes the acceptance product's successor order, and
    # with it which lassos the planner finds first
    a = mitl_to_tba(parse(text), alphabet={p})
    wait_, wait_p, done_, done_p = "wait:{}", f"wait:{{{p}}}", "done:{}", f"done:{{{p}}}"
    inside = gand(Atom("c", ">=", lo), Atom("c", "<=", hi))
    waiting = [(wait_, TOP), (wait_p, TOP), (done_p, inside)]
    done = [(done_, TOP), (done_p, TOP)]
    assert _shape(a) == (
        (wait_, wait_p, done_, done_p),
        (wait_, wait_p) + done_initial,
        frozenset({done_, done_p}),
        {wait_: waiting, wait_p: waiting, done_: done, done_p: done},
    )


def _render(a):
    """Every location with its label, invariant and out-edges in order."""
    lines = [
        "locations " + " ".join(a.locations),
        "initial " + " ".join(a.initial),
        "accepting " + " ".join(sorted(a.accepting)),
    ]
    for q in a.locations:
        lines.append(f"{q} label {sorted(a.labels[q])} invariant {a.invariants[q]}")
        for e in a.out_edges(q):
            lines.append(f"  {e.guard} reset {sorted(e.resets)} -> {e.dst}")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "text, n_locations, n_edges, digest",
    [("G[0,3] p", 4, 24, "abdac53dbdc10784"),
     ("G[1,3] p", 4, 24, "8a1c2c108d3a5ebf"),
     ("p U[0,2] q", 8, 32, "662561d3fd344451"),
     ("p U[1,inf] q", 8, 32, "b18a459293639b6f"),
     ("F[1/2,4] q", 8, 40, "1edc940ca754b020"),
     ("X[1,2] p", 10, 32, "99ce9d10dea641eb"),
     ("p & !q", 8, 32, "0698ee383f906e02"),
     ("F[0,2] p & G[1,inf] !q", 16, 120, "318e32801b5ec262"),
     ("(F[0,2] p & G[1,3] q) & X[0,1] p", 80, 504, "c628cf65e71f4703")],
)
def test_compiled_automata_are_pinned(text, n_locations, n_edges, digest):
    # the per-source edge order is part of the pin: it fixes the acceptance
    # product's successor order and so which plan the search returns
    a = mitl_to_tba(parse(text), alphabet={"p", "q"})
    assert (len(a.locations), len(a.edges)) == (n_locations, n_edges)
    assert hashlib.sha256(_render(a).encode()).hexdigest()[:16] == digest


def test_compile_always_hand_case():
    f = parse("G[0,5] g")
    a = mitl_to_tba(f)
    all_g = lasso([{"g"}], [1], 0)
    assert accepts(a, all_g)
    drop = lasso([{"g"}, set()], [3, 1], 1)
    assert not accepts(a, drop)
    late_drop = lasso([{"g"}, set()], [6, 1], 1)
    assert accepts(a, late_drop)


def test_compile_until_hand_case():
    f = parse("p U[1,3] q")
    a = mitl_to_tba(f)
    w = lasso([{"p"}, {"p"}, {"q"}], [1, 1, 1], 2)
    assert accepts(a, w)
    broken = lasso([{"p"}, set(), {"q"}], [1, 1, 1], 2)
    assert not accepts(a, broken)


def test_compile_next_hand_case():
    f = parse("X[1/2,3/2] p")
    a = mitl_to_tba(f)
    assert accepts(a, lasso([set(), {"p"}], [1, 1], 1))
    assert not accepts(a, lasso([set(), {"p"}], [2, 1], 1))
    assert not accepts(a, lasso([set(), set()], [1, 1], 1))


def test_compile_bare_combo():
    a = mitl_to_tba(parse("p & !q", alphabet={"p", "q"}))
    assert accepts(a, lasso([{"p"}], [1], 0))
    assert not accepts(a, lasso([{"p", "q"}], [1], 0))
    assert not accepts(a, lasso([set()], [1], 0))


def test_compile_conjunction_uses_intersection():
    f = parse("F[0,2] p & G[0,inf] (!q)", alphabet={"p", "q"})
    a = mitl_to_tba(f)
    assert accepts(a, lasso([{"p"}], [1], 0))
    # q anywhere breaks the safety half
    assert not accepts(a, lasso([{"p", "q"}], [1], 0))
    # first p too late breaks the reach half
    assert not accepts(a, lasso([set(), {"p"}], [3, 1], 1))


def test_compile_rejects_nested_temporal():
    with pytest.raises(UnsupportedFragment):
        mitl_to_tba(parse("F[0,1] (G[0,1] p)"))
    with pytest.raises(UnsupportedFragment):
        mitl_to_tba(parse("!(F[0,1] p)"))


def test_degenerate_low_bound_window():
    a = mitl_to_tba(parse("F[0,inf] p"))
    assert accepts(a, lasso([set(), {"p"}], [10, 1], 1))
    assert not accepts(a, lasso([set()], [1], 0))


def test_intersect_language():
    ap = frozenset({"p"})
    a = mitl_to_tba(parse("F[0,2] p"), alphabet=ap)
    b = mitl_to_tba(parse("G[3,inf] (!p)"), alphabet=ap)
    both = intersect(a, b)
    yes = lasso([{"p"}, set()], [1, 1], 1)  # p at 0 then silence
    assert accepts(both, yes)
    no1 = lasso([set(), {"p"}], [4, 1], 1)  # p only after 3
    assert not accepts(both, no1)
    assert accepts(a, no1) is False  # fails the first conjunct already
    no2 = lasso([{"p"}], [1], 0)  # p forever violates the second
    assert not accepts(both, no2)


def test_intersect_against_separate_checks():
    rng = np.random.default_rng(17)
    ap = ("p", "q")
    hits = 0
    for _ in range(120):
        fa = rand_fragment(rng, ap, depth=2)
        fb = rand_fragment(rng, ap, depth=2)
        try:
            a = mitl_to_tba(fa, alphabet=frozenset(ap))
            b = mitl_to_tba(fb, alphabet=frozenset(ap))
        except UnsupportedFragment:
            continue
        both = intersect(a, b)
        w = rand_word(rng, ap, max_len=4)
        want = accepts(a, w) and accepts(b, w)
        assert accepts(both, w) == want, (str(fa), str(fb), w)
        hits += 1
    assert hits > 60
