import functools
import gc
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from timedplan import synthesis
from timedplan.buchi import BuchiWTS, SyncProduct, find_accepting, project_run
from timedplan.errors import AlphabetMismatch, BudgetExceeded, LengthMismatch
from timedplan.graphs import CommGraph, build_graph
from timedplan.mitl import parse, sat
from timedplan.synthesis import (
    Infeasible,
    Plan,
    make_controller,
    reachable_layers,
    saturate,
    synthesize,
    zip_runs,
)
from timedplan.tba import intersect, mitl_to_tba
from timedplan.wts import (
    ProductWTS,
    TimedRun,
    check_consistent,
    product,
    timed_word,
)

from helpers import (
    JointWTS,
    TableAgentWTS,
    eager_synthesize,
    expand_layers,
    oracle_plan_exists,
    padded,
    rand_capped_graph,
    rand_table_product,
    reference_controller,
    same_ticks,
    windows_met,
)


def free_agents(dt=Fraction(1, 4), n_cells=3, services=("p1", "p2")):
    """Two agents, one edge, every move always enabled."""
    g = build_graph(2, [(1, 2)])
    cells = range(1, n_cells + 1)
    systems = []
    for agent, service in zip((1, 2), services):
        table = {}
        for own in cells:
            for nb in cells:
                # moves: stay or shift by one
                targets = {c for c in (own - 1, own, own + 1) if 1 <= c <= n_cells}
                table[(own, (own, nb))] = targets
        systems.append(
            TableAgentWTS(
                agent,
                (2,) if agent == 1 else (1,),
                dt,
                table,
                labels={n_cells: {service}},
                initial=[1],
            )
        )
    return g, systems


def test_saturate():
    v = np.array([3.0, 4.0])
    out = saturate(v, 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0)
    small = np.array([0.1, 0.0])
    assert np.allclose(saturate(small, 1.0), small)


def test_saturate_batch_rounds_as_single_vectors():
    """Each row is scaled by v_max / np.linalg.norm(row), bit for bit."""
    vs = np.random.default_rng(8).normal(size=(6, 500, 2))
    got = saturate(vs, 1.0)
    for v, row in zip(vs.reshape(-1, 2), got.reshape(-1, 2)):
        nrm = float(np.linalg.norm(v))
        want = v * (1.0 / nrm) if nrm > 1.0 else v
        assert np.array_equal(row, want)


def test_zip_runs_unrolls_each_combination_to_one_joint_lasso():
    """Lassos with stems 0-4 and cycles 1-4 zip into one lasso that holds
    each run's state and stamp at every unrolled position; runs whose
    sojourns differ somewhere do not zip."""
    rng = random.Random(24)
    dt = Fraction(1, 4)
    cases = [[TimedRun((1, 2), (dt,) * 2, 1), TimedRun((5, 6), (dt,) * 2, 0)]]
    for _ in range(200):
        runs = []
        for _ in range(rng.randint(1, 3)):
            stem, cycle = rng.randint(0, 4), rng.randint(1, 4)
            cells = [rng.randint(1, 9) for _ in range(stem + cycle)]
            runs.append(TimedRun(cells, (dt,) * len(cells), stem))
        cases.append(runs)
    for runs in cases:
        joint = zip_runs(runs)
        assert joint.stem_len == max(r.stem_len for r in runs)
        for j in range(3 * len(joint)):
            assert joint.state(j) == tuple(r.state(j) for r in runs)
            assert all(joint.time(j) == r.time(j) for r in runs)
        if len(runs) > 1:  # one run slower at one of its positions
            i = rng.randrange(len(runs))
            r = runs[i]
            durations = list(r.durations)
            durations[rng.randrange(len(r))] = 2 * dt
            runs[i] = TimedRun(r.states, durations, r.stem_len)
            with pytest.raises(LengthMismatch, match="sojourns differently"):
                zip_runs(runs)


def _as_product_lasso(run):
    """``run`` as the agents' products give their accepting lassos: each
    node a system state followed by automaton bookkeeping."""
    return TimedRun(tuple((s, "q", 0) for s in run.states), run.durations, run.stem_len)


def _outcome(step, *args):
    """What ``step(*args)`` returns, or its ``LengthMismatch`` message."""
    try:
        return step(*args)
    except LengthMismatch as e:
        return f"LengthMismatch: {e}"


def _zip_and_check(lassos, g, p):
    joint = zip_runs([project_run(r) for r in lassos])
    return joint if check_consistent(joint, g, p) else None


def _first_clash(joint, runs, p) -> str:
    """Which move of ``joint``, the zip of ``runs``, is the first that ``p``
    lacks: ``past the first lap`` when unrolling every run only to the
    longest stem plus the longest cycle would not reach it."""
    states, stem = joint.states, joint.stem_len
    moves = list(zip(states, states[1:] + states[stem:stem + 1]))
    bad = [j for j, move in enumerate(moves) if not p.has_transition(*move)]
    if not bad:
        return "none"
    if bad[0] == len(moves) - 1:
        return "closing"
    if bad[0] >= stem + max(r.cycle_len for r in runs) - 1:
        return "past the first lap"
    return "first" if bad[0] == 0 else "later"


def test_clash_walk_agrees_with_zipping_and_checking():
    """On random lassos (stems 0-4, cycles 1-4) of 1-3 agents over random
    table products, ``_clashes`` finds a clash exactly when the zipped joint
    lasso is no run of the product, and ``_joint_run`` returns what zipping
    and checking return, the same ``LengthMismatch`` when a sojourn is
    off.  The first clash falls on the first move, on a later one, on the
    closing move, and past the first lap of the longest cycle, where only
    the lcm unroll reaches."""
    rng = random.Random(35)
    seen = Counter()
    for k in range(600):
        g = rand_capped_graph(rng, 1 + k % 3, 2)
        p = rand_table_product(rng, g)
        verdicts = {}
        for _ in range(8):
            runs = []
            for _ in range(g.n_agents):
                stem, cycle = rng.randint(0, 4), rng.randint(1, 4)
                cells = [rng.randint(1, 3) for _ in range(stem + cycle)]
                runs.append(TimedRun(cells, (p.dt,) * len(cells), stem))
            lassos = [_as_product_lasso(r) for r in runs]
            want = _zip_and_check(lassos, g, p)
            assert synthesis._clashes(lassos, p, verdicts) is (want is None)
            assert synthesis._joint_run(lassos, g, p, verdicts) == want
            seen[_first_clash(zip_runs(runs), runs, p)] += 1
            # one sojourn off, or every sojourn off the quantum
            i = rng.randrange(len(runs))
            durations = list(runs[i].durations)
            durations[rng.randrange(len(durations))] = 2 * p.dt
            slow = [*runs[:i], TimedRun(runs[i].states, durations, runs[i].stem_len), *runs[i + 1:]]
            for off in (slow, [TimedRun(r.states, (2 * p.dt,) * len(r), r.stem_len) for r in runs]):
                lassos = [_as_product_lasso(r) for r in off]
                want = _outcome(_zip_and_check, lassos, g, p)
                assert want.startswith("LengthMismatch: ")
                assert _outcome(synthesis._joint_run, lassos, g, p, verdicts) == want
                seen[want] += 1
    assert min(seen[kind] for kind in ("none", "first", "later", "closing")) >= 100
    assert seen["past the first lap"] >= 40
    assert seen["LengthMismatch: run 2 sojourns differently from run 1"] >= 100
    assert seen["LengthMismatch: joint sojourns are not the product's step quantum"] >= 100


def test_synthesize_independent_route():
    g, systems = free_agents()
    formulas = [parse("F[0,2] p1"), parse("F[0,2] p2")]
    plan = synthesize(g, systems, formulas)
    assert plan
    assert plan.route == "independent"
    assert plan.n_agents == 2
    # certificate: per-agent words satisfy, and the runs zip consistently
    for i, (r, c, f) in enumerate(zip(plan.runs, systems, formulas)):
        assert sat(timed_word(r, c.label), 0, f)
    assert check_consistent(plan.joint, g, systems)
    # the joint run starts at the initial cells
    assert plan.joint.state(0) == (1, 1)


def test_synthesize_respects_formula_count():
    g, systems = free_agents()
    with pytest.raises(LengthMismatch):
        synthesize(g, systems, [parse("F[0,1] p1")])


def test_synthesize_infeasible_window():
    """Service cell is two moves away but the deadline allows one step."""
    g, systems = free_agents()
    formulas = [parse("F[0,1/4] p1"), parse("F[0,2] p2")]
    verdict = synthesize(g, systems, formulas)
    assert isinstance(verdict, Infeasible)
    assert not verdict
    assert verdict.agent == 1


def test_zero_lasso_budget_never_reads_as_infeasible():
    """Emptiness comes from the product's cycles, not from how many lassos
    ``r_selec`` lets the per-agent route enumerate."""
    from timedplan.scenario import build, load_scenario

    b = build(load_scenario("scenarios/two_agent_services.cfg"))
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=0)
    assert isinstance(plan, Plan)
    assert plan.route == "joint-product"
    g, systems = free_agents()
    verdict = synthesize(
        g, systems, [parse("F[0,1/4] p1"), parse("F[0,2] p2")], r_selec=0
    )
    assert isinstance(verdict, Infeasible) and verdict.agent == 1


def _rand_team(rng, n_agents):
    """Agents on a path over three cells, each action's successors random
    (staying put more often than not), one service per agent and a random
    ``F`` or ``G`` window over it."""
    g = build_graph(n_agents, [(k, k + 1) for k in range(1, n_agents)])
    cells = (1, 2, 3)
    systems, formulas = [], []
    for agent in range(1, n_agents + 1):
        nbs = g.neighbors(agent)
        table = {
            (action[0], action): {int(c) for c in rng.choice(cells, int(rng.integers(1, 3)))}
            | ({action[0]} if rng.random() < 0.6 else set())
            for action in itertools.product(cells, repeat=1 + len(nbs))
        }
        service = f"p{agent}"
        labels = {c: {service} for c in cells if rng.random() < 0.5}
        start = [int(rng.integers(1, 4))]
        systems.append(
            TableAgentWTS(agent, nbs, Fraction(1, 4), table, labels, start, {service})
        )
        lo, width = (Fraction(int(x), 4) for x in rng.integers(0, 3, 2))
        op = "G" if rng.random() < 0.3 else "F"
        formulas.append(parse(f"{op}[{lo}, {lo + width + Fraction(1, 4)}] {service}"))
    return g, systems, formulas


@pytest.mark.parametrize("r_selec", [0, 1, 2, 100])
def test_lazy_route_matches_the_eager_one_on_random_teams(r_selec):
    """Building only the lassos a combination zips changes nothing: the
    verdict, the joint lasso, the route and ``combos_checked`` are those of
    the route that builds and projects every lasso first."""
    rng = np.random.default_rng(6)
    kinds = set()
    for k in range(24):
        g, systems, formulas = _rand_team(rng, 2 if k % 3 else 3)
        got = synthesize(g, systems, formulas, r_selec=r_selec)
        want = eager_synthesize(g, systems, formulas, r_selec)
        assert type(got) is type(want)
        assert got == want
        if isinstance(got, Plan):
            kinds.add((got.route, got.combos_checked > 1))
        else:
            kinds.add(("infeasible", got.agent is None))
    assert {("infeasible", True), ("infeasible", False), ("joint-product", r_selec > 1)} <= kinds
    if r_selec:
        assert ("independent", False) in kinds
    if r_selec == 100:
        assert ("independent", True) in kinds


def test_joint_route_matches_the_unpruned_product_on_random_teams():
    """At ``r_selec=0`` a team that no agent alone rules out takes the
    joint route, whose plan is the synchronized product's lasso.  That
    product gives the unpruned joint product's verdict, and its lasso
    wherever every agent counts the joint ticks up to the joint cap: on the
    teams as drawn, and with their automata padded to one tick and cap.  A
    window from 0 makes a labelled start initial at two locations, so the
    initial joint nodes must sort as the unpruned product's do."""
    seen = Counter()
    rng = np.random.default_rng(1)
    for k in range(60):
        g, systems, formulas = _rand_team(rng, 2 if k % 3 else 3)
        plan = synthesize(g, systems, formulas, r_selec=0)
        if not plan and plan.agent is not None:
            continue
        tbas = [mitl_to_tba(f, alphabet=c.alphabet) for f, c in zip(formulas, systems)]
        for team in (tbas, padded(systems[0].dt, tbas)):
            agents = [BuchiWTS(c, a) for c, a in zip(systems, team)]
            p, folded = product(systems), intersect(*team)
            plain = BuchiWTS(JointWTS(p), folded)
            run, ref = find_accepting(SyncProduct(p, folded, agents)), find_accepting(plain)
            assert (run is None) == (ref is None)
            if team is tbas:
                assert (plan.joint if plan else None) == (run and project_run(run))
            same = same_ticks(plain, agents)
            if same and ref:
                assert run.states == ref.states and run.stem_len == ref.stem_len
            seen[len(systems), ref is not None, same] += 1
    # (agents, feasible, same ticks) -> teams
    assert seen[2, True, True] >= 10 and seen[3, True, True] >= 5
    assert seen[2, False, True] >= 5 and seen[2, True, False] >= 10


def test_overlapping_alphabets_are_rejected_before_any_product(monkeypatch):
    """Pooled labels are a disjoint union; a shared service would let one
    agent's visit meet another agent's task."""

    def unreachable(*args, **kw):
        raise AssertionError("a product was built")

    monkeypatch.setattr(synthesis, "BuchiWTS", unreachable)
    monkeypatch.setattr(synthesis, "product", unreachable)
    g, systems = free_agents(services=("p1", "p1"))
    with pytest.raises(AlphabetMismatch, match=r"^agents 1 and 2 both provide services \['p1'\]$"):
        synthesize(g, systems, [parse("F[0,2] p1"), parse("F[0,2] p1")])


def test_a_task_over_a_service_its_agent_lacks_is_rejected(monkeypatch):
    def unreachable(*args, **kw):
        raise AssertionError("a product was built")

    monkeypatch.setattr(synthesis, "BuchiWTS", unreachable)
    g, systems = free_agents()
    with pytest.raises(
        AlphabetMismatch, match=r"^task 2 uses services \['p1'\] the agent never provides$"
    ):
        synthesize(g, systems, [parse("F[0,2] p1"), parse("F[0,2] p1")])


def test_synthesize_budget():
    g, systems = free_agents(n_cells=3)
    formulas = [parse("F[0,2] p1"), parse("F[0,2] p2")]
    with pytest.raises(BudgetExceeded):
        synthesize(g, systems, formulas, max_states=1)


def test_joint_product_plan_on_shipped_scenario_is_pinned():
    """The joint-product route's plan on ``two_agent_services``: the
    breadth-first stem to the node nested DFS names, then the shortest cycle
    through it.  The search stops at the first back edge that closes an
    accepting cycle."""
    from timedplan.scenario import build, load_scenario

    b = build(load_scenario("scenarios/two_agent_services.cfg"))
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=0)
    assert plan.route == "joint-product"
    assert (plan.joint.stem_len, plan.joint.cycle_len) == (1, 2)
    assert plan.joint.states[plan.joint.stem_len:] == ((14, 22), (14, 22))
    digest = hashlib.sha256(repr(plan.joint.states).encode()).hexdigest()
    assert digest.startswith("753b236b2d42c4c4")


def test_generate_and_check_budget_counts_joint_states():
    """All 16 joint states of two free agents on 4 cells are explored."""
    g, systems = free_agents(n_cells=4)
    formulas = [parse("F[0,2] (p1 & X[0,1] p1)"), parse("F[0,2] p2")]
    assert synthesize(g, systems, formulas, max_states=16).route == "generate-and-check"
    with pytest.raises(BudgetExceeded, match="^joint exploration passed 15 states$") as e:
        synthesize(g, systems, formulas, max_states=15)
    assert e.value.count == 16


def test_generate_and_check_route_on_nested_formula():
    """Outside the compilable fragment the planner degrades to checking
    joint candidates directly against the semantics."""
    g, systems = free_agents()
    formulas = [parse("F[0,2] (p1 & X[0,1] p1)"), parse("F[0,2] p2")]
    plan = synthesize(g, systems, formulas)
    assert plan
    assert plan.route == "generate-and-check"
    for r, c, f in zip(plan.runs, systems, formulas):
        assert sat(timed_word(r, c.label), 0, f)
    assert check_consistent(plan.joint, g, systems)


def test_generate_and_check_gives_no_verdict_past_r_selec():
    """The first joint lasso, both agents holding cell 1, misses ``p1``;
    with ``r_selec = 1`` that is all the route may check, and a task it
    cannot compile is never refuted, so it runs out of budget.  With a task
    no lasso satisfies it checks every one of the 9 cyclic joint states."""
    g, systems = free_agents()
    formulas = [parse("F[0,2] (p1 & X[0,1] p1)"), parse("F[0,2] p2")]
    assert synthesize(g, systems, formulas).route == "generate-and-check"
    with pytest.raises(BudgetExceeded, match=r"^no verdict after checking 1 joint lassos ") as e:
        synthesize(g, systems, formulas, r_selec=1)
    assert e.value.count == 1
    never = [parse("F[0,2] (p1 & !p1 & X[0,1] p1)"), parse("F[0,2] p2")]
    with pytest.raises(BudgetExceeded, match=r"^no verdict after checking 9 joint lassos ") as e:
        synthesize(g, systems, never)
    assert e.value.count == 9


def test_generate_and_check_skips_joint_states_on_no_cycle():
    """Both agents leave cell 1 for good, so the initial joint state lies on
    no cycle: it is skipped, not probed, and the first lasso checked is the
    one through (2, 2), with (1, 1) as its stem."""
    g = build_graph(2, [(1, 2)])
    moves = {1: {2}, 2: {2, 3}, 3: {2, 3}}
    systems = [
        TableAgentWTS(
            agent, (3 - agent,), Fraction(1, 4),
            {(own, (own, nb)): moves[own] for own in moves for nb in moves},
            labels={2: {f"p{agent}"}}, initial=[1],
        )
        for agent in (1, 2)
    ]
    formulas = [parse("F[0,2] (p1 & X[0,1] p1)"), parse("F[0,2] p2")]
    plan = synthesize(g, systems, formulas)
    assert plan.route == "generate-and-check" and plan.combos_checked == 1
    assert plan.joint.states == ((1, 1), (2, 2)) and plan.joint.stem_len == 1
    for r, c, f in zip(plan.runs, systems, formulas):
        assert sat(timed_word(r, c.label), 0, f)


def test_plan_steps_cover_cycle():
    g, systems = free_agents()
    plan = synthesize(g, systems, [parse("F[0,2] p1"), parse("F[0,2] p2")])
    steps = plan.steps()
    assert len(steps) == len(plan.joint)
    assert steps[0][0] == plan.joint.state(0)
    # last step wraps back into the cycle
    assert steps[-1][1] == plan.joint.state(plan.joint.stem_len)


def test_make_controller_drives_to_target_cell():
    """Closed-loop sanity on the real geometry: one quantum reaches the
    planned cell from the cell center."""
    from timedplan.scenario import build, load_scenario

    b = build(load_scenario("scenarios/two_agent_services.cfg"))
    ctrl = make_controller(b.disc, b.graph)
    dec = b.disc.dec
    # agents hold their start cells
    starts = (15, 21)
    law = ctrl(starts)
    x = np.array([dec.cell(c).center for c in starts])
    from timedplan.dynamics import integrate_closed

    traj = integrate_closed(
        b.graph, x, law, b.disc.dt / 20, b.disc.dt, b.scenario.v_max
    )
    from timedplan.workspace import locate

    for i, c in enumerate(starts):
        assert locate(dec, tuple(traj.final()[i])) == c


def test_controller_targets_broadcast_over_a_sample_axis():
    """Targets of shape (J, 1, N) steer a (J, S, N, n) batch exactly as
    the same targets repeated once per sample."""
    from timedplan.scenario import build, load_scenario

    b = build(load_scenario("scenarios/two_agent_services.cfg"))
    ctrl = make_controller(b.disc, b.graph)
    cells = np.array([[15, 21], [16, 22], [9, 15]])
    x = np.random.default_rng(8).uniform(0.0, 0.072, size=(3, 5, 2, 2))
    for t in (0.0, 0.02):
        want = ctrl(np.repeat(cells[:, None], 5, axis=1))(t, x)
        assert np.array_equal(ctrl(cells[:, None])(t, x), want)


@pytest.mark.parametrize(
    "path", ["scenarios/two_agent_services.cfg", "scenarios/path_three_fast.cfg"]
)
def test_controller_equals_the_agent_by_agent_law(path):
    """For a batch of agent sets, near their targets and far from them, the
    one-pass law gives each set the reference law's inputs bit for bit,
    under the speed cap and saturated at it, until and past the quantum."""
    from timedplan.scenario import build, load_scenario

    b = build(load_scenario(path))
    dec, v_max = b.disc.dec, b.disc.v_max
    n_agents = b.graph.n_agents
    rng = np.random.default_rng(9)
    cells = rng.integers(1, dec.n_cells + 1, size=(40, n_agents))
    lo, hi = dec.corners(cells)
    near = 0.5 * (lo + hi) + rng.normal(size=lo.shape) * 1e-5
    far = rng.uniform(dec.corners([1])[0][0], dec.corners([dec.n_cells])[1][0], size=lo.shape)
    law, ref = make_controller(b.disc, b.graph), reference_controller(b.disc, b.graph)
    capped = set()
    for x in (near, far):
        for t in (0.0, 0.013, float(b.disc.dt)):
            got = law(cells)(t, x)
            for k in range(len(cells)):
                assert np.array_equal(got[k], ref(cells[k])(t, x[k]))
            capped.update(np.isclose(np.linalg.norm(got, axis=-1), v_max).ravel().tolist())
    assert capped == {False, True}


def test_reachable_layers_monotone():
    g, systems = free_agents()
    p = product(systems)
    stats = reachable_layers(p, 5)
    assert len(stats.counts) == 6
    assert stats.counts[0] == 1
    assert all(b >= a for a, b in zip(stats.counts, stats.counts[1:]))
    assert "step,reachable" in stats.csv()


def test_reachable_layers_budget():
    g, systems = free_agents(n_cells=3)
    p = product(systems)
    with pytest.raises(BudgetExceeded):
        reachable_layers(p, 5, max_states=2)


def random_path_product(seed, n_cells=4):
    """Three agents on a path whose actions lead to random, rarely empty,
    successor sets: seeds 0 and 4 die out, 7 cycles with period 2, and 9
    repeats a count (53) before its fixed point (55)."""
    rng = np.random.default_rng(seed)
    cells = range(1, n_cells + 1)
    neighbors = {1: (2,), 2: (1, 3), 3: (2,)}
    systems = []
    for agent, nbs in neighbors.items():
        table = {}
        for action in itertools.product(cells, repeat=1 + len(nbs)):
            k = 0 if rng.random() < 0.05 else int(rng.integers(1, 3))
            table[(action[0], action)] = {int(c) for c in rng.choice(cells, k)}
        systems.append(TableAgentWTS(agent, nbs, Fraction(1, 4), table, initial=[1]))
    return product(systems)


def shipped(name):
    from timedplan.scenario import build, load_scenario

    return build(load_scenario(f"scenarios/{name}.cfg"))


def shipped_product(name):
    return product(shipped(name).wts_list)


LAYER_CASES = ["path_three_fast", "two_agent_services"] + [f"random-{s}" for s in range(12)]


def layer_product(case):
    if case.startswith("random-"):
        return random_path_product(int(case.split("-")[1]))
    return shipped_product(case)


@pytest.mark.parametrize("case", LAYER_CASES)
def test_reachable_layers_match_full_expansion(case):
    p = layer_product(case)
    want = [len(layer) for layer in expand_layers(p, 40)]
    for steps in (0, 1, 10, 40):
        assert reachable_layers(p, steps).counts == tuple(want[: steps + 1])


@pytest.mark.parametrize("case", ["two_agent_services", "random-1", "random-9"])
def test_reachable_layers_expand_nothing_past_the_fixed_point(case, monkeypatch):
    """Layers 0 .. fixed are imaged once each, and nothing after."""
    layers = expand_layers(layer_product(case), 40)
    fixed = next(k for k in range(40) if layers[k + 1] == layers[k])
    calls = []
    image = synthesis._image
    monkeypatch.setattr(synthesis, "_image", lambda *a: calls.append(a) or image(*a))
    reachable_layers(layer_product(case), 40)
    assert len(calls) == fixed + 1


def one_agent_product(moves):
    """A single agent without neighbors moving by ``moves`` (cell ->
    successors), from cell 1."""
    table = {(c, (c,)): targets for c, targets in moves.items()}
    return product([TableAgentWTS(1, (), Fraction(1, 4), table, initial=[1])])


FRONTIER_CASES = {
    # layers {1}, {1,2}, {1,2,3}, {1,2,3,4}, then fixed: each holds the one
    # before, so only its new state is imaged
    "growing": ({1: {1, 2}, 2: {2, 3}, 3: {3, 4}, 4: {4}}, [1, 1, 1, 1]),
    # layers {1}, {2}, {1,3}, {2,3}, {1,3}, ...: none holds the one before
    "cycling": ({1: {2}, 2: {1, 3}, 3: {3}}, [1, 1, 2, 2, 2, 2]),
}


@pytest.mark.parametrize("coded", [True, False], ids=["coded", "sets"])
@pytest.mark.parametrize("case", sorted(FRONTIER_CASES))
def test_layers_image_only_new_states_when_they_hold_the_last(case, coded, monkeypatch):
    moves, imaged = FRONTIER_CASES[case]
    p = one_agent_product(moves)
    want = [len(layer) for layer in expand_layers(p, len(imaged))]
    sizes = []
    if coded:
        image = synthesis._image
        monkeypatch.setattr(
            synthesis, "_image", lambda *a: sizes.append(int(a[-1].sum())) or image(*a)
        )
    else:
        monkeypatch.setattr(synthesis, "_BITMAP_CAP", 0)
        successors = p.successors
        monkeypatch.setattr(p, "successors", lambda joint: sizes.append(1) or successors(joint))
    assert reachable_layers(p, len(imaged)).counts == tuple(want)
    assert sizes == imaged if coded else len(sizes) == sum(imaged)


def test_coded_layers_call_no_successors(monkeypatch):
    """Layers read the agents' posts as batched rows, never one action at
    a time."""
    from timedplan import abstraction

    calls = []
    successors = abstraction.successors
    monkeypatch.setattr(abstraction, "successors", lambda *a: calls.append(a) or successors(*a))
    p = shipped_product("path_three_fast")
    calls.clear()
    assert reachable_layers(p, 10).counts[-1] == 15625
    assert calls == []


WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def benchmark_specs():
    """The benchmark's generated scenarios, from its source text, so that
    nothing is written beside it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), module.__dict__)
    specs = [module.grid_growth_spec(side) for side in (6, 10, 16)]
    return {spec.name: spec.text for spec in specs + list(module.joint_route_specs())}


def test_per_agent_route_builds_only_the_lassos_it_zips(monkeypatch):
    """The first combination is a run of the product on the per-agent
    scenarios, so each agent builds one lasso: 3 probes on path-three where
    building every enumerated lasso took 75, 2 on each grid-growth
    scenario."""
    from timedplan import buchi
    from timedplan.scenario import build, load_scenario, parse_scenario

    calls = []
    real = buchi.shortest_cycle
    monkeypatch.setattr(buchi, "shortest_cycle", lambda *a: calls.append(a) or real(*a))
    cases = [(load_scenario("scenarios/path_three_fast.cfg"), 3)] + [
        (parse_scenario(benchmark_specs()[f"grid-growth-{side}"]), 2) for side in (6, 10, 16)
    ]
    for s, probes in cases:
        b = build(s)
        calls.clear()
        plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=s.r_selec)
        assert plan.route == "independent" and plan.combos_checked == 1
        assert len(calls) == probes


@pytest.mark.parametrize("name", sorted(benchmark_specs()))
def test_coded_layers_match_full_expansion_on_generated_scenarios(name):
    from timedplan.scenario import build, parse_scenario

    p = product(build(parse_scenario(benchmark_specs()[name])).wts_list)
    want = [len(layer) for layer in expand_layers(p, 40)]
    for steps in (0, 1, 40):
        got = reachable_layers(p, steps).counts
        assert got == tuple(want[: steps + 1])
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("case", ["path_three_fast", "random-9"])
def test_set_fallback_above_the_bitmap_cap(case, monkeypatch):
    coded = reachable_layers(layer_product(case), 10).counts
    monkeypatch.setattr(synthesis, "_BITMAP_CAP", 0)
    monkeypatch.setattr(synthesis, "_image", None)  # the coded path would fail
    got = reachable_layers(layer_product(case), 10).counts
    assert got == coded
    assert all(type(c) is int for c in got)


def test_coded_layers_budget_on_path_three():
    p = shipped_product("path_three_fast")
    assert reachable_layers(p, 10, max_states=15625).counts[-1] == 15625
    with pytest.raises(BudgetExceeded, match="^reachable layer passed 15624 states$") as e:
        reachable_layers(p, 10, max_states=15624)
    assert e.value.count == 15625


def test_coded_layers_leave_numpy_ma_unimported():
    """``np.unique`` imports ``numpy.ma``, which costs peak memory."""
    script = (
        "import sys\n"
        "from timedplan.scenario import build, load_scenario\n"
        "from timedplan.synthesis import reachable_layers\n"
        "from timedplan.wts import product\n"
        "b = build(load_scenario('scenarios/two_agent_services.cfg'))\n"
        "reachable_layers(product(b.wts_list), 40)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.split() == ["False"]


def joint_route(name):
    from timedplan.scenario import build, parse_scenario

    return build(parse_scenario(benchmark_specs()[name]))


@pytest.mark.parametrize("name", ["joint-route-feasible", "joint-route-infeasible"])
def test_kept_joint_search_matches_the_full_one_on_joint_route(name):
    """The search over joint nodes that every agent can still accept from,
    synchronized from the agents' own products, finds the full search's
    lasso node for node, and its verdict, while expanding fewer nodes."""
    b = joint_route(name)
    tbas = [mitl_to_tba(f, alphabet=c.alphabet) for f, c in zip(b.formulas, b.wts_list)]
    agents = [BuchiWTS(c, a) for c, a in zip(b.wts_list, tbas)]
    for a in agents:
        a.anchors()
    p, folded = product(b.wts_list), intersect(*tbas)
    full, kept = BuchiWTS(JointWTS(p), folded), SyncProduct(p, folded, agents)
    want, got = find_accepting(full), find_accepting(kept)
    assert (want is None) == (name == "joint-route-infeasible")
    # every agent counts the joint ticks up to the joint cap here, so the
    # synchronized nodes read back as the unpruned product's
    assert same_ticks(full, agents)
    assert (got and (got.states, got.durations, got.stem_len)) == (
        want and (want.states, want.durations, want.stem_len)
    )
    assert len(kept._memo) < len(full._memo) / 4
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=b.scenario.r_selec)
    assert bool(plan) == (want is not None)
    if plan:
        assert plan.route == "joint-product" and len(plan.joint) == len(want) == 13
        assert plan.joint.states == tuple(n[0] for n in want.states)


def test_budget_counts_live_joint_nodes_on_joint_route():
    """joint-route-infeasible's joint product has 1,326 nodes, of which 306
    are live; each agent's product has 173.  A budget of 306 proves the
    verdict, where one that counted every joint node ran out."""
    b = joint_route("joint-route-infeasible")
    verdict = synthesize(b.graph, b.wts_list, b.formulas, max_states=306)
    assert isinstance(verdict, Infeasible) and verdict.agent is None
    with pytest.raises(BudgetExceeded, match="^acceptance product passed 305 states$"):
        synthesize(b.graph, b.wts_list, b.formulas, max_states=305)


def test_joint_route_builds_no_ticks_copy_of_the_joint_automaton(monkeypatch):
    """The synchronized product steps each agent's automaton in its own
    product, so ``in_ticks`` rewrites each agent's automaton once and never
    the intersection."""
    from timedplan.tba import TBA

    folded, ticked = [], []
    real_in_ticks, real_intersect = TBA.in_ticks, synthesis.intersect
    monkeypatch.setattr(TBA, "in_ticks", lambda a, unit: (ticked.append(a), real_in_ticks(a, unit))[1])
    monkeypatch.setattr(
        synthesis, "intersect", lambda *tbas: (folded.append(real_intersect(*tbas)), folded[-1])[1]
    )
    b = joint_route("joint-route-feasible")
    assert synthesize(b.graph, b.wts_list, b.formulas).route == "joint-product"
    assert len(folded) == 1 and len(ticked) == len(b.wts_list) == 2
    assert [a.ap for a in ticked] == [c.alphabet for c in b.wts_list]
    assert all(a is not folded[0] for a in ticked)


def test_joint_route_expands_through_the_traced_bindings(monkeypatch):
    """The benchmark times the joint search by wrapping ``BuchiWTS.succ``
    and ``ProductWTS.successors`` on their classes, so the synchronized
    product reaches both through those bindings: every joint node it
    expands lists its joint moves with one ``successors`` call."""
    calls = Counter()
    for owner, attr in ((BuchiWTS, "succ"), (ProductWTS, "successors")):
        real = owner.__dict__[attr]

        def wrapped(self, *args, real=real, attr=attr):
            calls[attr, type(self).__name__] += 1
            return real(self, *args)

        monkeypatch.setattr(owner, attr, wrapped)
    b = joint_route("joint-route-feasible")
    assert synthesize(b.graph, b.wts_list, b.formulas).route == "joint-product"
    assert calls["successors", "ProductWTS"] == 420
    assert calls["succ", "SyncProduct"] > 420 and calls["succ", "BuchiWTS"] > 0


@pytest.mark.parametrize("case, r_selec, expands", [
    ("joint-route-feasible", 100, range(420, 421)),
    ("two_agent_services", 0, range(7, 8)),
    ("path_three_fast", 0, range(1, 51)),
])
def test_joint_search_stops_at_the_first_accepting_back_edge(monkeypatch, case, r_selec, expands):
    """Nested DFS returns at the first back edge that closes an accepting
    cycle, so the kept joint product expands only a few nodes: before that
    stop it expanded 1,625, 610 and 31,175 (about 5 s) here."""
    expanded = []
    real = synthesis.find_accepting
    monkeypatch.setattr(
        synthesis, "find_accepting", lambda b: (real(b), expanded.append(len(b._memo)))[0]
    )
    b = joint_route(case) if case.startswith("joint-route") else shipped(case)
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=r_selec)
    assert plan.route == "joint-product"
    assert len(expanded) == 1 and expanded[0] in expands
    for r, c, f in zip(plan.runs, b.wts_list, b.formulas):
        assert sat(timed_word(r, c.label), 0, f)
    assert check_consistent(plan.joint, b.graph, b.wts_list)


def _probed(n, k, log):
    """Agent ``k``'s runs as ``synthesize`` hands them to ``_combinations``:
    ``n`` of them, run ``i`` being ``i``, each logged when it is built and
    kept; a read past the last is logged every time and raises."""

    @functools.cache
    def run(i):
        log.append((k, i))
        if i >= n:
            raise IndexError(i)
        return i

    return run


def test_lazy_combination_walk_is_itertools_product():
    """``_combinations`` yields ``itertools.product`` of the runs, building
    run ``k + 1`` of an agent only right after a combination whose later
    agents are all at their last run, that is, where the walk would wrap
    them; before the first combination it builds run 0 of each.  So run
    ``k`` is read only once ``k`` combinations are out, and cut at ``r``
    combinations, as ``synthesize`` cuts it at ``r_selec``, the walk reads
    no run ``r`` or later.  It may assume that every agent has run 0, so
    for a shape with an agent without runs this checks only that nothing
    is yielded."""
    rng = random.Random(11)
    shapes = set()
    for _ in range(300):
        lengths = [rng.choice((0, 1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 4))]
        log = []
        runs = [_probed(n, k, log) for k, n in enumerate(lengths)]
        got = []
        for combo in synthesis._combinations(runs):
            if not got:
                assert log == [(k, 0) for k in range(len(lengths))]
            log.append(("yield", combo))
            got.append(combo)
        assert got == list(itertools.product(*(range(n) for n in lengths)))
        shapes.add((0 in lengths, 1 in lengths))
        if not got:
            continue
        last = None
        for k, i in log[len(lengths):]:
            if k == "yield":
                last = i
                continue
            assert i == last[k] + 1
            assert all(last[m] == lengths[m] - 1 for m in range(k + 1, len(lengths)))
        for r in range(len(got) + 2):
            log = []
            runs = [_probed(n, k, log) for k, n in enumerate(lengths)]
            assert list(itertools.islice(synthesis._combinations(runs), r)) == got[:r]
            assert all(i < r for _, i in log)
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("case, r_selec, combos", [
    ("path_three_fast", 100, 1),
    ("two_agent_services", 100, 1),
    ("joint-route-feasible", 100, 100),
])
def test_combos_checked_is_pinned(case, r_selec, combos):
    b = joint_route(case) if case.startswith("joint-route") else shipped(case)
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=r_selec)
    assert plan.combos_checked == combos


@pytest.mark.parametrize("case, combos, zips", [
    ("joint-route-feasible", 100, 0),
    ("joint-route-infeasible", 100, 0),
    ("path_three_fast", 1, 1),
    ("two_agent_services", 1, 1),
])
def test_only_a_combination_without_a_clash_is_zipped(monkeypatch, case, combos, zips):
    """Every joint-route combination has a joint move the product lacks, so
    none of the 100 is zipped or checked; on the per-agent scenarios the first combination is the plan, zipped and
    checked once.  Outside ``check_consistent``, no joint move is asked of
    the product twice."""
    from timedplan import wts

    calls, asked, checking = Counter(), Counter(), []

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            checking.append(name == "check_consistent")
            try:
                return fn(*args)
            finally:
                checking.pop()
        return call

    for name in ("zip_runs", "check_consistent", "_joint_run"):
        monkeypatch.setattr(synthesis, name, counted(name, getattr(synthesis, name)))
    real = wts.ProductWTS.has_transition

    def has_transition(self, src, dst):
        if not any(checking):
            asked[src, dst] += 1
        return real(self, src, dst)

    monkeypatch.setattr(wts.ProductWTS, "has_transition", has_transition)
    b = joint_route(case) if case.startswith("joint-route") else shipped(case)
    got = synthesize(b.graph, b.wts_list, b.formulas)
    assert calls["_joint_run"] == combos
    assert calls["zip_runs"] == calls["check_consistent"] == zips
    assert bool(got) == (case != "joint-route-infeasible")
    if got:
        assert got.combos_checked == combos
        assert got.route == ("independent" if zips else "joint-product")
    assert max(asked.values()) == 1


def test_systems_off_the_graph_are_refused_as_before():
    """Systems whose neighbor lists are not the graph's are refused by
    ``check_consistent`` at the first combination, as
    ``helpers.eager_synthesize``, which zips every combination, refuses
    them; with no combination walked, the joint route runs as there."""
    _, systems = free_agents()
    formulas = [parse("F[0,2] p1"), parse("F[0,2] p2")]
    g = CommGraph(2, ())
    message = "^system 1 neighbor list disagrees with the graph$"
    with pytest.raises(LengthMismatch, match=message):
        eager_synthesize(g, systems, formulas, 100)
    with pytest.raises(LengthMismatch, match=message):
        synthesize(g, systems, formulas)
    assert synthesize(g, systems, formulas, r_selec=0) == eager_synthesize(g, systems, formulas, 0)


def _recorded_agents(monkeypatch):
    made = []

    class Recorded(BuchiWTS):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(synthesis, "BuchiWTS", Recorded)
    return made


@pytest.mark.parametrize("case, nodes, whole", [
    ("path_three_fast", [6, 6, 6], [1005, 1005, 1010]),
    ("two_agent_services", [18, 19], [209, 209]),
])
def test_per_agent_route_walks_each_product_only_to_its_first_anchor(monkeypatch, case, nodes, whole):
    """The first combination is the plan, so each agent's product is
    walked until its first anchor is decided, where the whole product was
    explored before."""
    made = _recorded_agents(monkeypatch)
    b = shipped(case)
    plan = synthesize(b.graph, b.wts_list, b.formulas)
    assert plan.route == "independent"
    assert [a.n_explored for a in made] == nodes
    for a in made:
        a.anchors()
    assert [a.n_explored for a in made] == whole


def test_budget_counts_only_what_the_walk_discovers():
    """path_three_fast's products have 1,005 to 1,010 nodes each, and the
    plan needs 6 of each: a budget of 6 now finds it, one of 5 runs out."""
    b = shipped("path_three_fast")
    plan = synthesize(b.graph, b.wts_list, b.formulas, max_states=6)
    assert isinstance(plan, Plan) and plan.route == "independent"
    with pytest.raises(BudgetExceeded, match="^acceptance product passed 5 states$") as e:
        synthesize(b.graph, b.wts_list, b.formulas, max_states=5)
    assert e.value.count == 6


def edited(stem, values):
    """The text of ``scenarios/<stem>.cfg`` with each key's value replaced."""
    text = (Path(__file__).parent.parent / "scenarios" / f"{stem}.cfg").read_text()
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", text)
        assert n == 1, key
    return text


def random_cells(rng, n_cells):
    lo = rng.randint(1, n_cells)
    hi = min(n_cells, lo + rng.randrange(n_cells // 3 + 1))
    return f"{lo}-{hi}" if hi > lo else str(lo)


def random_window(rng, service, steps, dt):
    """``F`` or ``G`` over a window of whole quanta within ``steps``."""
    a = rng.randrange(steps)
    return f"{rng.choice('FG')}[{a * dt}, {rng.randint(a + 1, steps) * dt}] {service}"


def two_agent_scenario(rng):
    """A scenario in the geometry of ``two_agent_services.cfg`` (sides 4 to
    6, windows within 6 quanta) with random service cell ranges."""
    side = rng.randint(4, 6)
    return edited("two_agent_services", {
        "bounds": f"0.0, 0.0 ; {0.012 * side:.3f}, {0.012 * side:.3f}",
        "1.p1": random_cells(rng, side * side),
        "2.p2": random_cells(rng, side * side),
        "phi.1": random_window(rng, "p1", 6, Fraction(1, 20)),
        "phi.2": random_window(rng, "p2", 6, Fraction(1, 20)),
    })


def oracle_scenarios():
    """40 ``two_agent_scenario``s, 4 three-agent ones in the geometry of
    ``path_three_fast.cfg`` (sides 4 and 5, windows within 6 quanta) with
    random service cell ranges, and one more two-agent one, drawn last so
    that the others keep their draws."""
    rng = random.Random(6)
    for _ in range(40):
        yield two_agent_scenario(rng)
    for _ in range(4):
        side = rng.randint(4, 5)
        yield edited("path_three_fast", {
            "bounds": f"0.0, 0.0 ; {0.006 * side:.3f}, {0.006 * side:.3f}",
            **{f"{i}.{q}": random_cells(rng, side * side) for i, q in enumerate("abc", 1)},
            **{f"phi.{i}": random_window(rng, q, 6, Fraction(1, 400))
               for i, q in enumerate("abc", 1)},
        })
    yield two_agent_scenario(rng)


def test_synthesize_agrees_with_the_automaton_free_oracle():
    """At ``r_selec`` 0, 1 and 100, ``synthesize`` finds a plan exactly
    when ``helpers.oracle_plan_exists`` does, which reads the windows on
    the joint product with no automaton; every plan meets every window and
    is a run of the product.  The scenarios meet each verdict and route."""
    from timedplan.scenario import build, parse_scenario

    seen = Counter()
    for text in oracle_scenarios():
        b = build(parse_scenario(text))
        want = oracle_plan_exists(product(b.wts_list), b.formulas)
        for r_selec in (0, 1, 100):
            got = synthesize(b.graph, b.wts_list, b.formulas, r_selec=r_selec)
            assert bool(got) == want, (text, r_selec, got)
            if want:
                assert all(windows_met(got.joint, b.wts_list, b.formulas)), (text, r_selec)
                assert check_consistent(got.joint, b.graph, b.wts_list)
                seen[len(b.wts_list), got.route] += 1
            else:
                seen[len(b.wts_list), "alone" if got.agent else "together"] += 1
    # runs (scenarios x r_selec values) per agent count and outcome: a
    # route, or infeasible for one agent alone or only for the team
    assert seen[2, "independent"] >= 9 and seen[2, "joint-product"] >= 75
    assert seen[2, "alone"] >= 21 and seen[2, "together"] >= 15
    assert seen[3, "independent"] >= 4 and seen[3, "joint-product"] >= 2
    assert seen[3, "alone"] >= 6


@pytest.mark.parametrize("name", ["grid-growth-6", "joint-route-feasible", "joint-route-infeasible"])
def test_products_are_freed_when_synthesize_returns(monkeypatch, name):
    """Each product's anchor walk holds the product weakly, so a product
    whose walk stopped early is freed by reference counting too."""
    import weakref

    alive = []
    for attr in ("BuchiWTS", "SyncProduct"):
        real = getattr(synthesis, attr)

        class Tracked(real):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(synthesis, attr, Tracked)
    b = joint_route(name)
    gc.collect()
    gc.disable()
    try:
        synthesize(b.graph, b.wts_list, b.formulas)
        assert len(alive) == (2 if name.startswith("grid") else 3)
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


def test_joint_route_leaves_no_reference_cycles():
    """The products synthesis builds are freed by reference counting when
    it returns, not at some later full collection, which would let peak
    memory grow with every plan."""
    b = joint_route("joint-route-feasible")
    gc.collect()
    gc.disable()
    try:
        assert synthesize(b.graph, b.wts_list, b.formulas).route == "joint-product"
        assert gc.collect() == 0
    finally:
        gc.enable()
