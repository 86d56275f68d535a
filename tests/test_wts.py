from fractions import Fraction

import pytest

from timedplan.errors import LengthMismatch, UnknownState
from timedplan.graphs import build_graph
from timedplan.wts import (
    SimulationReport,
    StepReport,
    TimedRun,
    TimedWord,
    check_consistent,
    format_steps,
    product,
    timed_word,
)

from helpers import WTS, TableAgentWTS


def reference_wts():
    """Four-transition loop system used across the logic tests."""
    return WTS(
        ["s0", "s1", "s2"],
        ["s0"],
        {
            "s0": [("s1", Fraction(1))],
            "s1": [("s2", Fraction(3, 2)), ("s0", Fraction(2))],
            "s2": [("s1", Fraction(1, 2))],
        },
        {"s0": {"green"}, "s1": set(), "s2": set()},
    )


def run_short():
    # s0 -> s1 -> s0 -> ... all cycle
    return TimedRun(("s0", "s1"), (Fraction(1), Fraction(2)), 0)


def run_long():
    return TimedRun(
        ("s0", "s1", "s2", "s1"),
        (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(2)),
        0,
    )


def test_lasso_indexing_and_times():
    r = run_long()
    assert r.state(0) == "s0" and r.state(4) == "s0" and r.state(5) == "s1"
    assert r.time(0) == 0
    assert r.time(3) == 3
    assert r.time(4) == 5  # full cycle lasts 5
    assert r.time(8) == 10
    assert r.time(9) == 11
    assert r.cycle_len == 4


def test_lasso_with_stem():
    r = TimedRun(("a", "b", "c"), (Fraction(1), Fraction(1), Fraction(2)), 1)
    # cycle is b,c,b,c...
    assert [r.state(j) for j in range(6)] == ["a", "b", "c", "b", "c", "b"]
    assert r.time(3) == 2 + 2
    assert r.canon(5) == 1


def test_lasso_validation():
    with pytest.raises(LengthMismatch):
        TimedRun(("a",), (Fraction(1), Fraction(1)), 0)
    with pytest.raises(LengthMismatch):
        TimedRun(("a", "b"), (Fraction(1), Fraction(1)), 2)
    with pytest.raises(ValueError):
        TimedRun(("a", "b"), (Fraction(1), Fraction(0)), 0)


def test_timed_word_projection():
    w = timed_word(run_long(), {"s0": {"green"}, "s1": set(), "s2": set()})
    assert w.label(0) == {"green"}
    assert w.label(1) == frozenset()
    assert w.time(4) == 5
    with pytest.raises(UnknownState):
        timed_word(run_long(), {"s0": {"green"}})


def test_word_stamps_strictly_increase():
    w = TimedWord(
        (frozenset(), frozenset({"p"})), (Fraction(1, 2), Fraction(1, 2)), 0
    )
    stamps = [w.time(j) for j in range(8)]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_format_steps_marks_cycle():
    out = format_steps(("a", "b"), (Fraction(1), Fraction(2)), 1)
    lines = out.splitlines()
    assert lines[0] == "0; 0/1; a"
    assert "--- cycle ---" in lines
    assert lines[-1] == "1; 1/1; b"


def test_wts_protocol():
    w = reference_wts()
    assert w.initial == {"s0"}
    assert w.label("s0") == {"green"}
    assert dict(w.succ_weighted("s1")) == {"s2": Fraction(3, 2), "s0": Fraction(2)}
    with pytest.raises(UnknownState):
        w.label("nope")
    with pytest.raises(UnknownState):
        w.succ_weighted("nope")


# -- hand-specified two-agent product ------------------------------------------


def two_table_agents(dt=Fraction(1, 4)):
    """Agents on a single shared edge with 2 cells each.

    Agent 1 may move freely; agent 2 may only leave cell 1 when agent 1
    sits in cell 2 (exercises neighbor-dependent enabling).
    """
    t1 = {
        (1, (1, 1)): {1, 2},
        (1, (1, 2)): {1, 2},
        (2, (2, 1)): {1, 2},
        (2, (2, 2)): {1, 2},
    }
    t2 = {
        (1, (1, 1)): {1},
        (1, (1, 2)): {1, 2},
        (2, (2, 1)): {2},
        (2, (2, 2)): {1, 2},
    }
    a1 = TableAgentWTS(1, (2,), dt, t1, labels={2: {"p1"}}, initial=[1])
    a2 = TableAgentWTS(2, (1,), dt, t2, labels={2: {"p2"}}, initial=[1])
    return a1, a2


def test_table_agent_post():
    a1, a2 = two_table_agents()
    assert a2.post((1, 1)) == {1}
    assert a2.post((1, 2)) == {1, 2}
    assert a2.post_any(1) == {1, 2}
    assert a2.label(2) == {"p2"}
    assert dict(a2.succ_weighted(1)) == {1: Fraction(1, 4), 2: Fraction(1, 4)}


def test_product_moves_respect_neighbor_enabling():
    a1, a2 = two_table_agents()
    p = product([a1, a2])
    assert p.initial == {(1, 1)}
    assert p.pr(2 - 1, (1, 2)) == (2, 1)
    succ = set(p.successors((1, 1)))
    # agent 2 cannot step to 2 while agent 1 sits in cell 1
    assert succ == {(1, 1), (2, 1)}
    assert p.has_transition((1, 1), (2, 1))
    assert not p.has_transition((1, 1), (1, 2))
    assert p.label((2, 2)) == {"p1", "p2"}


def test_product_successors_are_lexicographic_and_pick_any_degree():
    """Joint successors come agent 1 outermost over each agent's sorted
    post; a component without neighbors acts on its own cell alone."""
    dt = Fraction(1, 4)
    free = {(c, (c, n)): {3, 1, 2} for c in (1, 2, 3) for n in (1, 2, 3)}
    a1 = TableAgentWTS(1, (2,), dt, free, initial=[2])
    a2 = TableAgentWTS(2, (1, 3), dt, {(2, (2, 2, 1)): {2, 3, 1}}, initial=[2])
    a3 = TableAgentWTS(3, (), dt, {(1, (1,)): {1, 3}}, initial=[1, 3])
    p = product([a1, a2, a3])
    assert p.initial == {(2, 2, 1), (2, 2, 3)}
    assert p.pr(2, (2, 2, 1)) == (1,)
    assert p.pr(1, (2, 2, 1)) == (2, 2, 1)
    got = p.successors((2, 2, 1))
    assert got == tuple(
        (x, y, z) for x in (1, 2, 3) for y in (1, 2, 3) for z in (1, 3)
    )
    assert p.successors((2, 2, 3)) == ()  # agents 2 and 3 have no move


def test_product_requires_matching_quanta():
    a1, _ = two_table_agents()
    _, b2 = two_table_agents(dt=Fraction(1, 5))
    with pytest.raises(Exception):
        product([a1, b2])


def test_check_consistent_accepts_product_run():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    r1 = TimedRun((1, 2, 2), (Fraction(1, 4),) * 3, 1)
    r2 = TimedRun((1, 1, 2), (Fraction(1, 4),) * 3, 1)
    assert check_consistent([r1, r2], g, [a1, a2])


def test_check_consistent_rejects_illegal_joint_step():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    # agent 2 stepping out while agent 1 still in cell 1 is not enabled
    r1 = TimedRun((1, 1), (Fraction(1, 4),) * 2, 0)
    r2 = TimedRun((1, 2), (Fraction(1, 4),) * 2, 0)
    assert not check_consistent([r1, r2], g, [a1, a2])


def test_check_consistent_validates_alignment():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    r1 = TimedRun((1, 2), (Fraction(1, 4),) * 2, 0)
    bad = TimedRun((1, 1), (Fraction(1, 2),) * 2, 0)
    with pytest.raises(LengthMismatch):
        check_consistent([r1, bad], g, [a1, a2])
    with pytest.raises(LengthMismatch):
        check_consistent([r1], g, [a1, a2])


def test_certificate_needs_a_sampled_landing():
    assert SimulationReport((StepReport(0, 3, 0, 0.0),)).ok
    assert not SimulationReport((StepReport(0, 3, 1, 0.1),)).ok
    assert not SimulationReport((StepReport(0, 0, 0, 0.0),) * 7).ok
    assert not SimulationReport(()).ok
