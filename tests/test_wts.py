import types
from fractions import Fraction

import pytest

from timedplan.errors import LengthMismatch, MismatchedTimeStep, UnknownState
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

from helpers import WTS, JointWTS, TableAgentWTS


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
    for bad in (-1, "-1/3", -0.5, 0):
        with pytest.raises(ValueError, match="^durations must be positive"):
            TimedRun(("a", "b"), (Fraction(1), bad), 0)
    r = TimedRun(("a", "b", "c"), (1, "1/3", 0.25), 0)
    assert r.durations == (Fraction(1), Fraction(1, 3), Fraction(1, 4))
    assert all(type(d) is Fraction for d in r.durations)


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


def induced_actions(p, joint) -> list:
    """The action ``joint`` induces for each agent of ``p``, read through
    ``posts`` of the same product with each agent's post echoing the action
    it is given."""
    echoes = [
        types.SimpleNamespace(
            agent=c.agent, neighbors=c.neighbors, dt=c.dt, initial=c.initial, post=tuple
        )
        for c in p.components
    ]
    return product(echoes).posts(joint)


def test_product_moves_respect_neighbor_enabling():
    a1, a2 = two_table_agents()
    p = product([a1, a2])
    assert p.initial == {(1, 1)}
    assert induced_actions(p, (1, 2))[2 - 1] == (2, 1)
    succ = set(p.successors((1, 1)))
    # agent 2 cannot step to 2 while agent 1 sits in cell 1
    assert succ == {(1, 1), (2, 1)}
    assert p.has_transition((1, 1), (2, 1))
    assert not p.has_transition((1, 1), (1, 2))
    assert JointWTS(p).label((2, 2)) == {"p1", "p2"}
    assert JointWTS(p).alphabet == {"p1", "p2"}


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
    assert induced_actions(p, (2, 2, 1))[2] == (1,)
    assert induced_actions(p, (2, 2, 1))[1] == (2, 2, 1)
    got = p.successors((2, 2, 1))
    assert got == tuple(
        (x, y, z) for x in (1, 2, 3) for y in (1, 2, 3) for z in (1, 3)
    )
    assert p.successors((2, 2, 3)) == ()  # agents 2 and 3 have no move


def test_product_successors_cut_each_post_before_the_product():
    """With ``within``, each agent's post is cut to its cells first: the
    joint moves are the full ones whose every cell lies in its agent's
    container, in the same order."""
    dt = Fraction(1, 4)
    free = {(c, (c, n)): {3, 1, 2} for c in (1, 2, 3) for n in (1, 2, 3)}
    a1 = TableAgentWTS(1, (2,), dt, free, initial=[2])
    a2 = TableAgentWTS(2, (1,), dt, free, initial=[2])
    p = product([a1, a2])
    for within in ([{3, 1}, {2, 7}], [{1: "x"}, {1, 2, 3}], [set(), {1}]):
        full = p.successors((2, 2))
        got = p.successors((2, 2), within)
        assert got == tuple(m for m in full if all(x in w for x, w in zip(m, within)))
    assert p.successors((2, 2), [{3, 1}, {2}]) == ((1, 2), (3, 2))


def test_product_requires_matching_quanta():
    a1, _ = two_table_agents()
    _, b2 = two_table_agents(dt=Fraction(1, 5))
    with pytest.raises(Exception):
        product([a1, b2])


def lasso(states, stem=0, dt=Fraction(1, 4)):
    return TimedRun(states, (dt,) * len(states), stem)


def test_check_consistent_accepts_product_run():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    assert check_consistent(lasso(((1, 1), (2, 1), (2, 2)), 1), g, [a1, a2])


def test_check_consistent_rejects_illegal_joint_step():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    # agent 2 stepping out while agent 1 still in cell 1 is not enabled
    assert not check_consistent(lasso(((1, 1), (1, 2))), g, [a1, a2])


def test_check_consistent_checks_the_closing_move():
    """The last position steps back to the cycle's first, not the run's:
    agent 2 may not leave cell 2 while agent 1 sits in cell 1."""
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    for stem, want in ((1, False), (0, True)):
        joint = lasso(((2, 2), (2, 1), (1, 2)), stem)
        assert check_consistent(joint, g, [a1, a2]) is want


def test_check_consistent_needs_the_product_quantum():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    with pytest.raises(LengthMismatch, match="quantum"):
        check_consistent(lasso(((1, 1), (2, 1)), dt=Fraction(1, 2)), g, [a1, a2])


def test_check_consistent_needs_one_cell_per_agent():
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    for joint in (lasso(((1,), (2,))), lasso(((1, 1), (2, 1, 1)))):
        with pytest.raises(LengthMismatch, match="one cell per agent"):
            check_consistent(joint, g, [a1, a2])


def test_check_consistent_needs_the_graph_neighbors():
    a1, a2 = two_table_agents()
    loner = TableAgentWTS(2, (), a2.dt, {}, initial=[1])
    g = build_graph(2, [(1, 2)])
    with pytest.raises(LengthMismatch, match="system 2 neighbor list"):
        check_consistent(lasso(((1, 1), (2, 1))), g, [a1, loner])
    with pytest.raises(MismatchedTimeStep):  # ProductWTS wants agent order
        check_consistent(lasso(((1, 1), (2, 1))), g, [a2, a1])


def test_check_consistent_takes_the_systems_or_their_product():
    """One product serves every check of a synthesis; its verdicts and its
    graph checks are the systems' own."""
    a1, a2 = two_table_agents()
    g = build_graph(2, [(1, 2)])
    p = product([a1, a2])
    for joint in (lasso(((1, 1), (2, 1), (2, 2)), 1), lasso(((1, 1), (1, 2))),
                  lasso(((2, 2), (2, 1), (1, 2)), 1), lasso(((2, 2), (2, 1), (1, 2)))):
        assert check_consistent(joint, g, p) is check_consistent(joint, g, [a1, a2])
    loner = TableAgentWTS(2, (), a2.dt, {}, initial=[1])
    with pytest.raises(LengthMismatch, match="system 2 neighbor list"):
        check_consistent(lasso(((1, 1), (2, 1))), g, product([a1, loner]))


def test_certificate_needs_a_sampled_landing():
    assert SimulationReport((StepReport(0, 3, 0, 0.0),)).ok
    assert not SimulationReport((StepReport(0, 3, 1, 0.1),)).ok
    assert not SimulationReport((StepReport(0, 0, 0, 0.0),) * 7).ok
    assert not SimulationReport(()).ok
