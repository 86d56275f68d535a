"""Top-level acceptance gate, one test per criterion.

Each test prints one ``ACCEPTANCE k ...: PASS`` line (visible with -rA or on
failure) and enforces its stated tolerance and runtime budget.  Random
checks are seeded so reruns see the same samples.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from timedplan.abstraction import dmax_range, dt_range
from timedplan.buchi import BuchiWTS, find_accepting, project_run
from timedplan.dynamics import ConditionConstants, integrate_closed, relative_norm
from timedplan.graphs import build_graph, theorem1_constants
from timedplan.mitl import parse, sat
from timedplan.scenario import build, load_scenario
from timedplan.synthesis import make_controller, reachable_layers, synthesize
from timedplan.tba import TBA, Atom, Edge, TOP, accepts, gand, gor, mitl_to_tba
from timedplan.wts import (
    TimedRun,
    TimedWord,
    check_consistent,
    product,
    simulation_check,
    timed_word,
)

from helpers import (
    accepting_cycle_exists,
    locations,
    rand_fraction,
    rand_fragment,
    rand_tba,
    rand_word,
    rand_wts,
    rand_wts_lasso,
)


def announce(k: int, text: str):
    print(f"ACCEPTANCE {k} {text}: PASS")


# -- 1: logic/automata equivalence ---------------------------------------------


def test_criterion_1_mitl_tba_equivalence():
    """1000 random (lasso word, fragment formula) pairs, |stem|+|period| <= 6,
    depth <= 3, denominators <= 4: compiled acceptance == direct satisfaction,
    100% agreement, under 60 s."""
    rng = np.random.default_rng(2026)
    ap = ("p", "q")
    alphabet = frozenset(ap)
    t0 = time.perf_counter()
    agree = 0
    for i in range(1000):
        w = rand_word(rng, ap, max_len=6)
        f = rand_fragment(rng, ap, depth=3)
        got = accepts(mitl_to_tba(f, alphabet=alphabet), w)
        want = sat(w, 0, f)
        assert got == want, f"pair {i}: automaton={got} formula={want} f={f} w={w}"
        agree += 1
    elapsed = time.perf_counter() - t0
    assert agree == 1000
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    announce(1, f"automaton/semantics agreement 1000/1000 in {elapsed:.1f}s")


# -- 2: the two reference verdicts ---------------------------------------------


def test_criterion_2_reference_run_verdicts():
    labels = {"s0": {"green"}, "s1": set(), "s2": set()}
    r1 = TimedRun(("s0", "s1"), (Fraction(1), Fraction(2)), 0)
    r2 = TimedRun(
        ("s0", "s1", "s2", "s1"),
        (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(2)),
        0,
    )
    w1 = timed_word(r1, labels)
    w2 = timed_word(r2, labels)
    assert sat(w1, 0, parse("F[2,5] green")) is True
    assert sat(w2, 0, parse("G[0,5] green")) is False
    announce(2, "short loop meets the visit goal, long loop fails the envelope")


# -- 3: the window-visit acceptor ----------------------------------------------


def window_tba(c1: Fraction, c2: Fraction) -> TBA:
    edges = (
        Edge("q0", Atom("c", "<=", c2), frozenset(), "q0"),
        Edge("q0", gor(Atom("c", "<", c1), Atom("c", ">", c2)), frozenset({"c"}), "q2"),
        Edge("q0", gand(Atom("c", ">=", c1), Atom("c", "<=", c2)), frozenset({"c"}), "q1"),
        Edge("q1", TOP, frozenset({"c"}), "q1"),
        Edge("q2", TOP, frozenset({"c"}), "q2"),
    )
    return TBA(
        ("q0", "q1", "q2"),
        ("q0",),
        ("c",),
        edges,
        ("q1",),
        {"q0": frozenset(), "q1": frozenset({"green"}), "q2": frozenset()},
        frozenset({"green"}),
    )


def visit_at(alpha: Fraction) -> TimedWord:
    return TimedWord((frozenset(), frozenset({"green"})), (alpha, Fraction(1)), 1)


def test_criterion_3_window_acceptor():
    """On-time visit accepted, early visit rejected: (2,5) plus 20 random
    window pairs."""
    a = window_tba(Fraction(2), Fraction(5))
    assert accepts(a, visit_at(Fraction(3)))
    assert not accepts(a, visit_at(Fraction(1)))
    rng = np.random.default_rng(7)
    for trial in range(20):
        c1 = rand_fraction(rng)
        c2 = c1 + rand_fraction(rng)
        b = window_tba(c1, c2)
        inside = c1 + (c2 - c1) * Fraction(int(rng.integers(0, 5)), 4)
        early = c1 * Fraction(int(rng.integers(1, 4)), 4)
        assert accepts(b, visit_at(inside)), (trial, c1, c2, inside)
        assert not accepts(b, visit_at(early)), (trial, c1, c2, early)
    announce(3, "window visits accepted/rejected for (2,5) and 20 random windows")


# -- 4: invariant-set containment under random admissible inputs -----------------


def test_criterion_4_invariant_set_desk_scale():
    """Path-3 graph, unit speed bound, fixed starts, 100 random admissible
    input signals over horizon 30: the relative state enters the ball of
    radius 1.05*K2*v_max and never leaves, checked at every grid point."""
    g = build_graph(3, [(1, 2), (2, 3)])
    v_max = 1.0
    bp = theorem1_constants(g, v_max)
    assert bp.k2 == pytest.approx(12.0, abs=1e-9)
    r_bar = bp.r_bar  # 12.6
    x0 = np.array([[-4.0, 4.0], [0.0, 6.0], [7.0, 0.0]])
    dt_sim = Fraction(1, 20)
    horizon = 30
    steps = int(horizon / dt_sim)
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    violations = 0
    entered_all = True
    for run in range(100):
        mags = rng.uniform(0.0, v_max, size=(steps + 1, 3))
        dirs = rng.normal(size=(steps + 1, 3, 2))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        table = dirs * mags[:, :, None]

        def control(t, _x, table=table):
            return table[int(round(t * 20))]

        traj = integrate_closed(g, x0, control, dt_sim, horizon, v_max)
        entered = False
        for k in range(len(traj.times)):
            inside = relative_norm(g, traj.states[k]) <= r_bar
            if inside:
                entered = True
            elif entered:
                violations += 1
        entered_all = entered_all and entered
    elapsed = time.perf_counter() - t0
    assert entered_all, "some trajectory never reached the invariant ball"
    assert violations == 0, f"{violations} grid points left the ball after entry"
    assert elapsed < 120.0, f"runs took {elapsed:.1f}s"
    announce(4, f"100/100 trajectories stay in the {r_bar:.6g}-ball ({elapsed:.1f}s)")


# -- 5: feasibility window algebra ----------------------------------------------


def test_criterion_5_feasibility_quadratic():
    """lambda in {0.14, 0.21}, 200 random (M, L, v_max): each sampled
    diameter gives a nonempty quantum window whose endpoints sit on the
    defining quadratic to 1e-12, and shrinking the diameter widens the
    window (containment)."""
    rng = np.random.default_rng(14)
    checked = 0
    for lam in (0.14, 0.21):
        for _ in range(200):
            v = float(rng.uniform(0.1, 10.0))
            m = v * float(rng.uniform(1.01, 3.0))
            l_comb = float(rng.uniform(0.5, 20.0))
            c = ConditionConstants(m_bound=m, l1=1.0, l2=1.0, l_combined=l_comb)
            _, d_hi = dmax_range(c, lam, v)
            assert d_hi > 0
            for u in (0.05, float(rng.uniform(0.1, 0.9)), 0.99):
                d = d_hi * u
                lo, hi = dt_range(d, c, lam, v)
                assert 0 < lo <= hi
                a = m * l_comb
                b = (1.0 - lam) * v
                for t in (lo, hi):
                    assert abs(a * t * t - b * t + d) <= 1e-12, (lam, m, l_comb, v, d, t)
                lo2, hi2 = dt_range(d * float(rng.uniform(0.1, 0.99)), c, lam, v)
                assert lo2 <= lo and hi2 >= hi, "refinement must widen the window"
                checked += 1
    assert checked == 2 * 200 * 3
    announce(5, f"{checked} windows nonempty, on-quadratic to 1e-12, refinement-monotone")


# -- 6 and 7: emptiness vs brute force, and the round trip ------------------------


def _instance_stream(seed=23):
    rng = np.random.default_rng(seed)
    while True:
        props = ("p",) if rng.random() < 0.4 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 8)))
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 5)))
        yield w, a


def _random_instances(seed=23, count=50):
    import itertools

    return list(itertools.islice(_instance_stream(seed), count))


def test_criterion_6_emptiness_vs_bruteforce():
    instances = _random_instances()
    agree = 0
    found = 0
    for w, a in instances:
        b = BuchiWTS(w, a)
        run = find_accepting(b)
        assert b.n_explored <= 10_000
        oracle_side = BuchiWTS(w, a)
        want = accepting_cycle_exists(
            oracle_side.initial, oracle_side.succ, oracle_side.accepting
        )
        assert (run is not None) == want
        agree += 1
        found += run is not None
    assert agree == 50
    announce(6, f"nested-DFS verdict == exhaustive cycle verdict on 50/50 ({found} nonempty)")


def test_criterion_7_round_trip():
    """Forward: every accepting product lasso projects to a system run whose
    word the automaton accepts.  Converse: 50 independently found satisfying
    system runs each force a nonempty product."""
    # Same stream as criterion 6 (its 50 instances are the prefix), extended
    # until enough nonempty products have been projected and re-checked.
    forward = 0
    for idx, (w, a) in enumerate(_instance_stream()):
        if idx >= 600 or (idx >= 50 and forward >= 20):
            break
        b = BuchiWTS(w, a)
        run = find_accepting(b)
        if run is None:
            continue
        sys_run = project_run(run)
        # genuine run of the system
        assert sys_run.states[0] in w.initial
        for j in range(len(sys_run)):
            outs = set(w.succ_weighted(sys_run.state(j)))
            step = (sys_run.state(j + 1), sys_run.durations[sys_run.canon(j)])
            assert step in outs, f"projected step {step} is not a transition"
        assert any(q in a.accepting for q in locations(run))
        word = timed_word(sys_run, w.label)
        assert accepts(a, word), "projected word must be accepted"
        forward += 1
    assert forward >= 20, f"only {forward} nonempty instances; widen the generator"

    rng = np.random.default_rng(77)
    converse = 0
    attempts = 0
    while converse < 50 and attempts < 4000:
        attempts += 1
        props = ("p",) if rng.random() < 0.4 else ("p", "q")
        w = rand_wts(rng, props, n_states=int(rng.integers(2, 6)))
        a = rand_tba(rng, props, n_locs=int(rng.integers(2, 4)))
        run = rand_wts_lasso(rng, w)
        if run is None:
            continue
        word = timed_word(run, w.label)
        if not accepts(a, word):
            continue
        assert find_accepting(BuchiWTS(w, a)) is not None, (
            "word accepted but product empty"
        )
        converse += 1
    assert converse == 50, f"collected only {converse} satisfying runs"
    announce(7, f"{forward} projected lassos accepted; 50/50 satisfying runs force nonempty products")


# -- 8: end-to-end on the two-agent scenario --------------------------------------


def test_criterion_8_end_to_end_two_agents():
    t0 = time.perf_counter()
    b = build(load_scenario("scenarios/two_agent_services.cfg"))
    plan = synthesize(
        b.graph,
        b.wts_list,
        b.formulas,
        r_selec=b.scenario.r_selec,
        max_states=b.scenario.max_states,
    )
    assert plan, f"expected a plan, got {plan!r}"
    # certificate part 1: each agent's own word satisfies its goal
    for run, comp, f in zip(plan.runs, b.wts_list, b.formulas):
        assert sat(timed_word(run, comp.label), 0, f) is True
    # certificate part 2: the runs zip into one run of the joint system
    assert check_consistent(plan.runs, b.graph, b.wts_list) is True
    # certificate part 3: sampled closed-loop landings, zero misses
    report = simulation_check(
        product(b.wts_list),
        b.disc,
        b.graph,
        plan.steps(),
        make_controller(b.disc, b.graph),
        n_samples=25,
        seed=b.scenario.seed,
    )
    assert report.ok and report.total_misses == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"end-to-end took {elapsed:.1f}s"
    announce(8, f"plan + all-true certificate + 0/{sum(s.samples for s in report.steps)} misses ({elapsed:.1f}s)")


# -- 9: reachable-layer growth trend ----------------------------------------------


def test_criterion_9_layer_growth_and_contraction_dominance():
    """Per-step joint reachable counts grow monotonically over 10 steps, and
    the looser contraction factor dominates the tighter one pointwise.
    Absolute counts are geometry-specific on purpose."""
    import dataclasses

    s14 = load_scenario("scenarios/path_three_fast.cfg")
    assert s14.lam == 0.14
    s21 = dataclasses.replace(s14, lam=0.21)
    counts = {}
    for s in (s14, s21):
        built = build(s)
        p = product(built.wts_list)
        counts[s.lam] = reachable_layers(p, 10).counts
    for lam, seq in counts.items():
        assert len(seq) == 11
        assert all(b >= a for a, b in zip(seq, seq[1:])), (lam, seq)
    assert all(
        big >= small for small, big in zip(counts[0.14], counts[0.21])
    ), counts
    assert any(
        big > small for small, big in zip(counts[0.14], counts[0.21])
    ), "dominance should be strict somewhere"
    announce(9, f"monotone layers; 0.21 dominates 0.14 pointwise {counts[0.14]} vs {counts[0.21]}")
