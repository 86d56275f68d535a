import itertools
from fractions import Fraction

import numpy as np
import pytest

from timedplan.errors import BudgetExceeded, LengthMismatch
from timedplan.graphs import build_graph
from timedplan.mitl import parse, sat
from timedplan.synthesis import (
    Infeasible,
    Plan,
    align_runs,
    make_controller,
    reachable_layers,
    saturate,
    synthesize,
    zip_runs,
)
from timedplan.wts import (
    TimedRun,
    check_consistent,
    product,
    timed_word,
)

from helpers import TableAgentWTS, expand_layers


def free_agents(dt=Fraction(1, 4), n_cells=3):
    """Two agents, one edge, every move always enabled."""
    g = build_graph(2, [(1, 2)])
    cells = range(1, n_cells + 1)
    systems = []
    for agent, service in ((1, "p1"), (2, "p2")):
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


def test_align_runs_unrolls_to_common_shape():
    r1 = TimedRun((1, 2), (Fraction(1, 4),) * 2, 1)  # stem 1, cycle 1
    r2 = TimedRun((5, 6), (Fraction(1, 4),) * 2, 0)  # cycle 2
    a1, a2 = align_runs([r1, r2])
    assert a1.stem_len == a2.stem_len
    assert len(a1) == len(a2)
    assert a1.cycle_len == a2.cycle_len
    # unrolled runs visit the same states at the same stamps
    for j in range(10):
        assert a1.state(j) == r1.state(j)
        assert a2.state(j) == r2.state(j)
        assert a1.time(j) == r1.time(j)


def test_zip_runs():
    r1 = TimedRun((1, 2), (Fraction(1, 4),) * 2, 0)
    r2 = TimedRun((7, 8), (Fraction(1, 4),) * 2, 0)
    j = zip_runs([r1, r2])
    assert j.states == ((1, 7), (2, 8))


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
    assert check_consistent(plan.runs, g, systems)
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


def test_synthesize_budget():
    g, systems = free_agents(n_cells=3)
    formulas = [parse("F[0,2] p1"), parse("F[0,2] p2")]
    with pytest.raises(BudgetExceeded):
        synthesize(g, systems, formulas, max_states=1)


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
    assert check_consistent(plan.runs, g, systems)


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
    x = np.array([dec.center(c) for c in starts])
    from timedplan.dynamics import integrate_closed

    traj = integrate_closed(
        b.graph, x, law, b.disc.dt / 20, b.disc.dt, b.scenario.v_max
    )
    from timedplan.workspace import locate

    for i, c in enumerate(starts):
        assert locate(dec, tuple(traj.final()[i])) == c


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


def shipped_product(name):
    from timedplan.scenario import build, load_scenario

    return product(build(load_scenario(f"scenarios/{name}.cfg")).wts_list)


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
def test_reachable_layers_expand_nothing_past_the_fixed_point(case):
    layers = expand_layers(layer_product(case), 40)
    fixed = next(k for k in range(40) if layers[k + 1] == layers[k])
    p = layer_product(case)
    calls = []
    successors = p.successors
    p.successors = lambda joint: calls.append(joint) or successors(joint)
    reachable_layers(p, 40)
    assert len(calls) == sum(len(layer) for layer in layers[: fixed + 1])
