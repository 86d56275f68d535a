"""The sampled landing certificate against a sample-at-a-time oracle."""

import math
from functools import lru_cache

import numpy as np
import pytest

from timedplan import dynamics, wts
from timedplan.errors import InputBoundViolated, UnknownState
from timedplan.scenario import build, load_scenario, parse_scenario
from timedplan.synthesis import make_controller, synthesize
from timedplan.wts import product, simulation_check

from helpers import per_sample_certificate, reference_controller

SHIPPED = ("scenarios/two_agent_services.cfg", "scenarios/path_three_fast.cfg")


def two_agent_cfg(name, p1, p2, window, samples):
    """Two agents on the edge 1-2 over a 6 x 6 grid of 0.012 cells, in the
    geometry of two_agent_services.cfg; agent i must visit cell ``pi``
    within ``window``."""
    return f"""\
[scenario]
version = 1
name = {name}

[graph]
agents = 2
edges = 1-2

[dynamics]
v_max = 1.0
margin = 1.05
start.1 = 0.030, 0.030
start.2 = 0.042, 0.030

[workspace]
bounds = 0.0, 0.0 ; 0.072, 0.072
cell_size = 0.012

[abstraction]
lambda = 0.14
dt = 1/20

[labels]
1.p1 = {p1}
2.p2 = {p2}

[formulas]
phi.1 = F{window} p1
phi.2 = F{window} p2

[synthesis]
r_selec = 100
samples = {samples}
seed = 0
"""


GENERATED = {
    # a 7-position plan with 60 samples a step, as the smallest grid of
    # the grid-growth benchmark runs it
    "grid-6": two_agent_cfg("grid-6", 14, 22, "[1/20, 1/4]", 60),
    # p1 and p2 five rows apart, which only the joint product settles,
    # with a plan of 13 positions
    "joint-route": two_agent_cfg("joint-route", 13, 18, "[0, 1/2]", 3),
}
CASES = SHIPPED + tuple(GENERATED)


@lru_cache(maxsize=None)
def planned(case):
    if case in GENERATED:
        b = build(parse_scenario(GENERATED[case]))
    else:
        b = build(load_scenario(case))
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=b.scenario.r_selec)
    assert plan
    return b, plan.steps()


def aimed_at_cell_1(controller):
    """The same law steered at cell 1 for every agent of every step."""
    return lambda dst: controller(np.ones_like(np.asarray(dst, dtype=int)))


def mirrored(controller, n_cells):
    """The same law steered at cell ``n_cells + 1 - c`` for each target
    cell c: wrong targets that still differ from step to step."""
    return lambda dst: controller(n_cells + 1 - np.asarray(dst, dtype=int))


def certificate(b, steps, controller, n_samples):
    return simulation_check(
        product(b.wts_list), b.disc, b.graph, steps, controller,
        n_samples=n_samples, seed=b.scenario.seed,
    )


def oracle(b, steps, controller, n_samples):
    return per_sample_certificate(
        product(b.wts_list), b.disc, b.graph, steps, controller, n_samples,
        b.scenario.seed,
    )


@pytest.mark.parametrize("case", CASES)
def test_batched_landings_equal_per_sample_landings(case, monkeypatch):
    """The plan's law with the scenario's samples, whose landings all hit,
    and a mirrored law with four samples, whose landings mostly miss."""
    b, steps = planned(case)
    runs = (
        (b.scenario.samples, lambda law: law, True),
        (4, lambda law: mirrored(law, b.dec.n_cells), False),
    )
    calls = []
    integrate = dynamics.integrate_closed

    def counted(*args):
        calls.append(1)
        return integrate(*args)

    monkeypatch.setattr(dynamics, "integrate_closed", counted)
    for n, wrap, ok in runs:
        want = oracle(b, steps, wrap(reference_controller(b.disc, b.graph)), n)
        assert want.ok is ok and len(want.steps) == len(steps)
        # a call per landing, calls that split a step's samples or hold
        # whole steps with some over, and the default
        for cap in (1, n - 1, n, n + 1, 512):
            monkeypatch.setattr(wts, "_BATCH_LANDINGS", cap)
            calls.clear()
            got = certificate(b, steps, wrap(make_controller(b.disc, b.graph)), n)
            # dataclass equality compares worst_distance with ==
            assert got.steps == want.steps, (n, cap)
            assert len(calls) == math.ceil(len(steps) * n / cap), (n, cap)


@pytest.mark.parametrize("path", SHIPPED)
def test_mis_aimed_landings_equal_per_sample_landings(path, monkeypatch):
    monkeypatch.setattr(wts, "_BATCH_LANDINGS", 16)
    b, steps = planned(path)
    got = certificate(b, steps, aimed_at_cell_1(make_controller(b.disc, b.graph)), 4)
    want = oracle(b, steps, aimed_at_cell_1(reference_controller(b.disc, b.graph)), 4)
    assert got.total_misses > 0 and not got.ok
    assert any(r.worst_distance > 0 for r in got.steps)
    assert got.steps == want.steps


def test_non_transition_step_raises_unknown_state():
    b, steps = planned(SHIPPED[0])
    corner = (1,) * len(steps[0][0])
    far = (b.dec.n_cells,) * len(steps[0][0])
    bad = list(steps) + [(corner, far)]
    with pytest.raises(UnknownState, match=f"step {len(steps)}"):
        simulation_check(
            product(b.wts_list), b.disc, b.graph, bad,
            make_controller(b.disc, b.graph), n_samples=2,
        )


def test_empty_steps_are_not_ok():
    b, _ = planned(SHIPPED[0])
    report = simulation_check(
        product(b.wts_list), b.disc, b.graph, [],
        make_controller(b.disc, b.graph), n_samples=3,
    )
    assert report.steps == () and not report.ok


def test_zero_samples_report_zero_landings_and_are_not_ok():
    b, steps = planned(SHIPPED[0])
    report = certificate(b, steps, make_controller(b.disc, b.graph), 0)
    assert [(r.step, r.samples, r.misses) for r in report.steps] == [
        (j, 0, 0) for j in range(len(steps))
    ]
    assert report.total_misses == 0 and not report.ok


def test_law_over_the_speed_bound_names_the_agent():
    b, steps = planned(SHIPPED[0])
    v_max = b.disc.v_max

    def loud(dst):
        def law(t, x):
            v = np.zeros_like(x)
            v[..., 1, 0] = 2.0 * v_max  # agent 2 only
            return v

        return law

    with pytest.raises(InputBoundViolated, match="agent 2 "):
        simulation_check(
            product(b.wts_list), b.disc, b.graph, steps, loud, n_samples=2
        )
