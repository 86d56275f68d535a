from fractions import Fraction

import numpy as np
import pytest

from timedplan.errors import (
    AlphabetMismatch,
    GuardFailed,
    InvariantViolated,
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
    dump,
    eval_guard,
    gand,
    gor,
    intersect,
    mitl_to_tba,
    step,
    universal_tba,
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


def test_step_hit_and_miss():
    a = visit_window_tba()
    hit = next(e for e in a.edges if e.dst == "q1")
    state = ("q0", a.valuation())
    q, nu = step(a, state, Fraction(3), hit)
    assert q == "q1" and nu["c"] == 0
    # zero delay over a trivial self-loop leaves the valuation alone
    stay = next(e for e in a.edges if e.src == "q1")
    q2, nu2 = step(a, ("q1", {"c": Fraction(0)}), Fraction(0), stay)
    assert q2 == "q1" and nu2["c"] == 0
    with pytest.raises(GuardFailed):
        step(a, state, Fraction(1), hit)  # too early for the window
    with pytest.raises(ValueError):
        step(a, ("q1", a.valuation()), Fraction(1), hit)  # edge leaves q0


def test_step_respects_invariants():
    a = TBA(
        locations=("u",),
        initial=("u",),
        clocks=("c",),
        edges=(Edge("u", TOP, frozenset(), "u"),),
        accepting=("u",),
        labels={"u": frozenset()},
        ap=frozenset(),
        invariants={"u": Atom("c", "<=", 2)},
    )
    with pytest.raises(InvariantViolated):
        step(a, ("u", a.valuation()), Fraction(3), a.edges[0])


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


def test_universal_and_empty():
    from timedplan.tba import empty_tba

    ap = frozenset({"p"})
    w = lasso([{"p"}, set()], [1, 1], 0)
    assert accepts(universal_tba(ap), w)
    assert not accepts(empty_tba(ap), w)


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


def test_dump_is_deterministic():
    a = visit_window_tba()
    assert dump(a) == dump(visit_window_tba())
    assert "q0" in dump(a)
