"""Self-test of the benchmark: repeatable tracing and checks that bite.

    python3 -m pytest perfbench -q

The traced scenarios are small (grid-growth side 6 and the infeasible
joint-route scenario, 5 stats steps) but together enter every span.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
from workloads import Workload, grid_growth_spec, joint_route_specs, two_agent

HERE = Path(__file__).resolve().parent
SMALL = Workload("small", (grid_growth_spec(6), joint_route_specs()[1]), 5)


def traced_counters() -> dict:
    """Counters of one traced round of SMALL, plus which spans were entered."""
    prog = run.Program()
    scens = [
        dataclasses.replace(prog.scenario.parse_scenario(s.text), seed=3)
        for s in SMALL.specs
    ]
    geos = [checks.Geometry(s.text) for s in SMALL.specs]
    tracer = spans.Tracer()
    tally = run.Tally()
    run.run_round(prog, SMALL, scens, geos, None, tally, tracer)
    counts = {n: get(tracer) for n, unit, get in run.PER_LAYER if unit != "s"}
    entered = sorted(n for n in spans.SPAN_NAMES if tracer.calls(n))
    return {"counts": counts, "entered": entered, "tally": [tally.attempted, tally.failed]}


def _traced_in_fresh_process(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True,
        timeout=300, check=True, cwd=HERE, env=env,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_counters_repeat_and_every_span_is_entered():
    first = _traced_in_fresh_process("1")
    second = _traced_in_fresh_process("2")
    assert first == second
    assert first["tally"] == [2 * (4 + 3), 0]
    assert first["entered"] == sorted(spans.SPAN_NAMES)
    assert all(v > 0 for v in first["counts"].values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(n, u) for n, u, _ in run.PER_LAYER] + list(run.OVERHEAD)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


@pytest.fixture(scope="module")
def grid6():
    _, prog, wl, scens, builds = run.set_up("grid-growth", 0)
    b = builds[0]
    plan = prog.synthesis.synthesize(b.graph, b.wts_list, b.formulas)
    return checks.Geometry(wl.specs[0].text), plan


def test_plan_check_accepts_the_program_plan(grid6):
    geo, plan = grid6
    j = plan.joint
    checks.check_plan(geo, j.states, j.stem_len, j.durations)


def test_plan_check_rejects_a_non_transition(grid6):
    geo, plan = grid6
    j = plan.joint
    states = list(j.states)
    far = geo.n_cells if states[1][0] < geo.n_cells // 2 else 1
    states[1] = (far,) + states[1][1:]
    with pytest.raises(checks.CheckFailed, match="not a transition"):
        checks.check_plan(geo, states, j.stem_len, j.durations)


def test_plan_check_rejects_a_wrong_start(grid6):
    geo, plan = grid6
    j = plan.joint
    states = [tuple(c + 1 for c in s) for s in j.states]
    with pytest.raises(checks.CheckFailed, match="starts"):
        checks.check_plan(geo, states, j.stem_len, j.durations)


def test_plan_check_rejects_a_missed_window(grid6):
    geo, _ = grid6
    # staying put is a transition from the start cells, and never serves
    assert geo.is_step(geo.starts, geo.starts)
    with pytest.raises(checks.CheckFailed, match="window"):
        checks.check_plan(geo, [geo.starts], 0, [geo.dt])


def test_window_evaluator():
    from fractions import Fraction as Q

    dt = Q(1, 20)
    seq = [1, 1, 2, 1]  # cell 2 at position 2 (t = 1/10), cycle is [1]
    assert checks.window_met("F", Q(0), Q(1, 10), {2}, seq, 3, dt)
    assert not checks.window_met("F", Q(3, 20), Q(1, 2), {2}, seq, 3, dt)
    assert checks.window_met("G", Q(3, 20), Q(1), {1}, seq, 3, dt)
    assert not checks.window_met("G", Q(1, 20), Q(1), {1}, seq, 3, dt)
    # the cycle repeats: a visit in the cycle recurs every lap
    assert checks.window_met("F", Q(1), Q(21, 20), {2}, [1, 2], 0, dt)


def test_verdict_check_rejects_wrong_verdicts():
    feasible, infeasible = (checks.Geometry(s.text) for s in joint_route_specs())
    checks.check_verdict(feasible, "plan", True)
    checks.check_verdict(infeasible, "infeasible", False)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(feasible, "plan", False)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(infeasible, "infeasible", True)
    # adjacent columns are reachable together, so "infeasible" is unproved
    near = checks.Geometry(two_agent(
        "near", 6, "13-18", "19-24", "G[1/4, 1/2] p1", "G[1/4, 1/2] p2",
    ))
    with pytest.raises(checks.CheckFailed, match="unproved"):
        checks.check_verdict(near, "infeasible", False)


def test_layer_check_rejects_wrong_counts():
    geo = checks.Geometry(grid_growth_spec(6).text)
    counts = geo.layer_counts(3)
    assert counts[:2] == (1, 25)
    checks.check_layers(geo, counts, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_layers(geo, counts[:-1] + (counts[-1] + 1,), 3)


def test_certificate_check_rejects_misses_and_zero_samples():
    from types import SimpleNamespace as NS

    geo = checks.Geometry(grid_growth_spec(6).text)
    good = NS(steps=[NS(samples=geo.samples)] * 7, total_misses=0)
    checks.check_certificate(geo, good, 7)
    with pytest.raises(checks.CheckFailed, match="missed"):
        checks.check_certificate(geo, NS(steps=good.steps, total_misses=1), 7)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(geo, NS(steps=[NS(samples=0)] * 7, total_misses=0), 7)


if __name__ == "__main__":
    print(json.dumps(traced_counters()))
