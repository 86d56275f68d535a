"""The sampled landing certificate against a sample-at-a-time oracle."""

from functools import lru_cache

import numpy as np
import pytest

from timedplan import wts
from timedplan.errors import InputBoundViolated, UnknownState
from timedplan.scenario import build, load_scenario
from timedplan.synthesis import make_controller, synthesize
from timedplan.wts import product, simulation_check

from helpers import per_sample_certificate, reference_controller

SHIPPED = ("scenarios/two_agent_services.cfg", "scenarios/path_three_fast.cfg")


@lru_cache(maxsize=None)
def planned(path):
    b = build(load_scenario(path))
    plan = synthesize(b.graph, b.wts_list, b.formulas, r_selec=b.scenario.r_selec)
    assert plan
    return b, plan.steps()


def aimed_at_cell_1(controller):
    """The same law steered at cell 1 for every agent of every step."""
    return lambda dst: controller(np.ones_like(np.asarray(dst, dtype=int)))


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


@pytest.mark.parametrize("path", SHIPPED)
def test_batched_landings_equal_per_sample_landings(path, monkeypatch):
    b, steps = planned(path)
    n = b.scenario.samples
    want = oracle(b, steps, reference_controller(b.disc, b.graph), n)
    assert want.ok
    for batch in (512, 5):  # one batch per sample index, and several
        monkeypatch.setattr(wts, "_BATCH_STEPS", batch)
        got = certificate(b, steps, make_controller(b.disc, b.graph), n)
        # dataclass equality compares worst_distance with ==
        assert got.steps == want.steps, batch


@pytest.mark.parametrize("path", SHIPPED)
def test_mis_aimed_landings_equal_per_sample_landings(path, monkeypatch):
    monkeypatch.setattr(wts, "_BATCH_STEPS", 16)
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
