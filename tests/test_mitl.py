from fractions import Fraction

import numpy as np
import pytest

from timedplan.errors import EmptyInterval, MitlSyntaxError
from timedplan.mitl import (
    Always,
    And,
    Eventually,
    Interval,
    Not,
    Prop,
    Until,
    parse,
    props,
    sat,
)
from timedplan.rational import INF
from timedplan.wts import TimedRun, TimedWord, timed_word

from helpers import naive_sat, rand_fragment, rand_word


LABELS = {"s0": {"green"}, "s1": set(), "s2": set()}


def word_short():
    """Observation of the two-state loop: green at 0, 3, 6, ..."""
    run = TimedRun(("s0", "s1"), (Fraction(1), Fraction(2)), 0)
    return timed_word(run, LABELS)


def word_long():
    """Observation of the four-state loop: green at 0, 5, 10, ..."""
    run = TimedRun(
        ("s0", "s1", "s2", "s1"),
        (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(2)),
        0,
    )
    return timed_word(run, LABELS)


def test_interval_validation():
    with pytest.raises(EmptyInterval):
        Interval(2, 2)
    with pytest.raises(EmptyInterval):
        Interval(-1, 3)
    i = Interval(Fraction(1, 2), INF)
    assert i.contains(Fraction(1000)) and not i.contains(Fraction(1, 4))


def test_parse_round_trip():
    f = parse("F[2,5] green")
    assert f == Eventually(Interval(2, 5), Prop("green"))
    g = parse("G[0,5] green & F[1,inf] (!green)")
    assert isinstance(g, And)
    assert props(g) == {"green"}
    with pytest.raises(MitlSyntaxError):
        parse("F[2,5")
    with pytest.raises(MitlSyntaxError):
        parse("green &")
    with pytest.raises(MitlSyntaxError):
        parse("H[1,2] green")


def test_parse_alphabet_guard():
    with pytest.raises(MitlSyntaxError):
        parse("F[0,1] blue", alphabet={"green"})


def test_parse_precedence():
    # implication binds looser than conjunction
    f = parse("a & b -> c", alphabet={"a", "b", "c"})
    assert str(f) == str(parse("(a & b) -> c", alphabet={"a", "b", "c"}))


def test_reference_verdicts():
    """The headline pair: the short loop meets the bounded-visit goal, the
    long loop fails the safety envelope."""
    w1 = word_short()
    w2 = word_long()
    assert sat(w1, 0, parse("F[2,5] green")) is True
    assert sat(w2, 0, parse("G[0,5] green")) is False
    # and crossed over:
    assert sat(w2, 0, parse("F[2,5] green")) is True
    assert sat(w1, 0, parse("G[0,5] green")) is False


def test_bounded_always_on_all_green_word():
    w = TimedWord((frozenset({"g"}),), (Fraction(1),), 0)
    assert sat(w, 0, parse("G[0,100] g"))
    assert sat(w, 0, parse("G[0,inf] g"))


def test_until_hand_cases():
    # p holds until q arrives inside the window
    w = TimedWord(
        (frozenset({"p"}), frozenset({"p"}), frozenset({"q"})),
        (Fraction(1), Fraction(1), Fraction(1)),
        2,
    )
    assert sat(w, 0, parse("p U[1,3] q"))
    assert not sat(w, 0, parse("p U[0,1] q"))  # q too late
    # left side broken before the witness
    w2 = TimedWord(
        (frozenset({"p"}), frozenset(), frozenset({"q"})),
        (Fraction(1), Fraction(1), Fraction(1)),
        2,
    )
    assert not sat(w2, 0, parse("p U[1,3] q"))
    # witness at position 0 needs lo = 0
    w3 = TimedWord((frozenset({"q"}),), (Fraction(1),), 0)
    assert sat(w3, 0, parse("p U[0,1] q"))
    assert not sat(w3, 0, parse("p U[1,2] q"))


def test_next_is_strict_successor():
    w = word_short()  # stamps 0,1,3,4,6...
    assert sat(w, 0, parse("X[1/2,3/2] (!green)"))
    assert not sat(w, 0, parse("X[2,5] green"))
    assert sat(w, 1, parse("X[3/2,5/2] green"))


def test_sat_at_later_positions():
    w = word_long()  # green at stamps 0,5,10...
    f = parse("F[0,2] green")
    assert sat(w, 0, f)
    assert not sat(w, 1, f)  # from stamp 1, next green at 5
    assert sat(w, 3, f)  # from stamp 3, green at 5


def test_negation_and_implication():
    w = word_short()
    assert sat(w, 0, parse("green -> F[2,5] green"))
    assert sat(w, 0, parse("!green | green"))


def test_residue_invariance():
    """Verdicts at lasso-equivalent positions agree (same state, same
    residue into the cycle)."""
    w = word_long()
    f = parse("F[0,3] green")
    for j in range(4):
        assert sat(w, j, f) == sat(w, j + w.cycle_len, f)


def test_sat_agrees_with_bruteforce():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(400):
        w = rand_word(rng, ("p", "q"))
        f = rand_fragment(rng, ("p", "q"))
        assert sat(w, 0, f) == naive_sat(w, f), (w, str(f))
        checked += 1
    assert checked == 400


def test_general_nesting_agrees_with_bruteforce():
    """sat handles arbitrary nesting, not only the compilable fragment."""
    rng = np.random.default_rng(9)
    for _ in range(150):
        w = rand_word(rng, ("p", "q"))
        f = Eventually(
            Interval(0, 4), And(Prop("p"), Always(Interval(0, 2), Not(Prop("q"))))
        )
        assert sat(w, 0, f) == naive_sat(w, f)
        g = Until(Interval(0, 3), Eventually(Interval(0, 1), Prop("q")), Prop("p"))
        assert sat(w, 0, g) == naive_sat(w, g)
