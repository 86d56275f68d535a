import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import timedplan
from timedplan.cli import main


SCENARIO = "scenarios/two_agent_services.cfg"


def test_validate_ok(capsys):
    assert main(["validate", SCENARIO]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "start cell 15" in out and "start cell 21" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "nope.cfg"]) == 1
    assert "invalid" in capsys.readouterr().out


def test_validate_names_failed_property(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        Path(SCENARIO).read_text().replace("dt = 1/20", "dt = 3"), encoding="utf-8"
    )
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "TimeStepOutOfRange" in out


def test_validate_rejects_a_single_agent(tmp_path, capsys):
    """A well-formed one-agent scenario is refused by name, not by a
    traceback from the graph builder: the communication graph needs an edge."""
    lines = Path(SCENARIO).read_text().splitlines()
    kept = [
        "agents = 1" if l == "agents = 2" else l
        for l in lines
        if not l.startswith(("start.2", "2.", "phi.2"))
    ]
    one = tmp_path / "one.cfg"
    one.write_text("\n".join(kept) + "\n", encoding="utf-8")
    assert main(["validate", str(one)]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "agents" in out


def test_synthesize_writes_run_dir(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "plan found" in printed
    for name in ("manifest.json", "plan.json", "plan.txt", "certificate.json"):
        assert (out / name).exists(), name
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["ok"] is True and cert["total_misses"] == 0
    assert cert["tasks_sat"] == [True, True] and cert["consistent"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["route"] in ("independent", "joint-product")
    assert manifest["seed"] == 0
    txt = (out / "plan.txt").read_text()
    assert "--- agent 1 ---" in txt and "--- cycle ---" in txt


def test_synthesize_infeasible_exits_2(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text(
        Path(SCENARIO)
        .read_text()
        .replace("phi.1 = F[1/20, 1/4] p1", "phi.1 = F[0, 1/100] p1"),
        encoding="utf-8",
    )
    assert main(["synthesize", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_synthesize_budget_exits_3(tmp_path, capsys):
    assert (
        main(
            [
                "synthesize",
                SCENARIO,
                "--out",
                str(tmp_path / "r"),
                "--max-states",
                "2",
            ]
        )
        == 3
    )
    assert "budget" in capsys.readouterr().out


def test_synthesize_exits_3_when_generate_and_check_runs_out(tmp_path, capsys):
    """A task outside the compilable fragment is never refuted: past
    ``r_selec`` joint lassos the verdict is a spent budget."""
    cfg = tmp_path / "nested.cfg"
    cfg.write_text(
        Path(SCENARIO)
        .read_text()
        .replace("phi.1 = F[1/20, 1/4] p1", "phi.1 = F[1/20, 1/4] (p1 & X[0, 1/20] !p1)"),
        encoding="utf-8",
    )
    out = tmp_path / "r"
    assert main(["synthesize", str(cfg), "--out", str(out), "--r-selec", "1"]) == 3
    assert capsys.readouterr().out == (
        "budget exhausted: no verdict after checking 1 joint lassos "
        "(tasks outside the compilable fragment cannot be refuted)\n"
    )
    assert not out.exists()


def test_zero_lasso_budget_override_rejected(tmp_path, capsys):
    args = ["synthesize", SCENARIO, "--out", str(tmp_path / "r"), "--r-selec", "0"]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "ScenarioError" in out and "r_selec" in out
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flag,value,key", [("--seed", "-1", "seed"), ("--max-states", "0", "max_states")]
)
def test_out_of_range_overrides_rejected(tmp_path, capsys, flag, value, key):
    args = ["synthesize", SCENARIO, "--out", str(tmp_path / "r"), flag, value]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "ScenarioError" in out and key in out
    assert not (tmp_path / "r").exists()


def test_manifest_records_overrides(tmp_path):
    out = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(out), "--seed", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3 and "threads" not in manifest


@pytest.mark.parametrize(
    "command,flag",
    [
        ("simulate", "--seed"),
        ("simulate", "--r-selec"),
        ("simulate", "--max-states"),
        ("stats", "--seed"),
        ("stats", "--r-selec"),
    ],
)
def test_overrides_only_where_read(capsys, command, flag):
    args = [command, SCENARIO, flag, "3"]
    if command == "simulate":
        args += ["--plan", "plan.json"]
    assert main(args) == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,flag",
    [
        (["simulate", SCENARIO, "--plan", "plan.json", "--substeps", "0"], "--substeps"),
        (["simulate", SCENARIO, "--plan", "plan.json", "--quanta", "-4"], "--quanta"),
        (["stats", SCENARIO, "--steps", "-3"], "--steps"),
    ],
)
def test_integer_arguments_below_their_minimum_rejected(capsys, args, flag):
    assert main(args) == 1
    assert f"argument {flag}: must be >=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [["synthesize", SCENARIO, "--seed", "x"], ["stats", SCENARIO, "--bogus"]]
)
def test_usage_errors_exit_1(capsys, args):
    # exit 2 is reserved for a negative verdict
    assert main(args) == 1
    assert "usage:" in capsys.readouterr().err


def test_simulate_round_trip(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(run)]) == 0
    sim = tmp_path / "sim"
    code = main(
        [
            "simulate",
            SCENARIO,
            "--plan",
            str(run / "plan.json"),
            "--out",
            str(sim),
            "--substeps",
            "8",
        ]
    )
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "all" in printed and "landings" in printed
    for name in ("trajectory.csv", "lyapunov.csv", "reachable_cells.csv"):
        assert (sim / name).exists(), name
    rows = (sim / "reachable_cells.csv").read_text().strip().splitlines()
    assert rows[0] == "quantum,agent,planned_cell,landed_cell,ok"
    assert all(r.endswith("yes") for r in rows[1:])


def test_simulate_counts_a_landing_on_a_shared_face_as_a_hit(tmp_path, capsys, monkeypatch):
    """Agent 1 lands on the upper face its planned cell shares with the next
    cell, inside the closed box: a hit, as in the certificate, although the
    half-open ``locate`` puts the point in the neighbor."""
    import timedplan.cli
    from timedplan.dynamics import Trajectory
    from timedplan.scenario import build, load_scenario
    from timedplan.workspace import locate

    dec = build(load_scenario(SCENARIO)).dec
    real = timedplan.cli.integrate_closed

    def on_the_face(*args, **kwargs):
        traj = real(*args, **kwargs)
        states = traj.states.copy()
        box = dec.cell(locate(dec, states[-1, 0]))
        assert box.hi[0] < dec.bounds.hi[0]  # a face shared with a neighbor
        states[-1, 0, 0] = box.hi[0]
        return Trajectory(traj.times, states)

    run = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(run)]) == 0
    monkeypatch.setattr(timedplan.cli, "integrate_closed", on_the_face)
    sim = tmp_path / "sim"
    code = main(["simulate", SCENARIO, "--plan", str(run / "plan.json"), "--out", str(sim)])
    printed = capsys.readouterr().out
    assert code == 0, printed
    rows = [r.split(",") for r in (sim / "reachable_cells.csv").read_text().split()[1:]]
    assert rows and all(r[4] == "yes" for r in rows)
    assert all(r[2] != r[3] for r in rows if r[1] == "1")


def test_simulate_exits_2_when_landings_miss(tmp_path, capsys, monkeypatch):
    """The plan replayed under a law steered at cell ``n_cells + 1 - c`` for
    each planned cell ``c``: the landings that miss are counted, marked in
    ``reachable_cells.csv`` and make the verdict negative."""
    import timedplan.cli

    run = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(run)]) == 0
    real = timedplan.cli.make_controller

    def mirrored(disc, g):
        law = real(disc, g)
        return lambda dst: law(disc.dec.n_cells + 1 - np.asarray(dst, dtype=int))

    monkeypatch.setattr(timedplan.cli, "make_controller", mirrored)
    capsys.readouterr()
    sim = tmp_path / "sim"
    code = main(["simulate", SCENARIO, "--plan", str(run / "plan.json"), "--out", str(sim)])
    printed = capsys.readouterr().out
    assert code == 2, printed
    missed = re.match(r"membership: (\d+) landings missed their planned cell\n", printed)
    assert missed, printed
    rows = (sim / "reachable_cells.csv").read_text().strip().splitlines()[1:]
    assert int(missed.group(1)) == sum(r.endswith(",NO") for r in rows) > 0


def test_simulate_rejects_foreign_plan(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(run)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(
        Path(SCENARIO).read_text().replace("seed = 0", "seed = 7"), encoding="utf-8"
    )
    code = main(
        [
            "simulate",
            str(other),
            "--plan",
            str(run / "plan.json"),
            "--out",
            str(tmp_path / "s"),
        ]
    )
    assert code == 1
    assert "PlanMismatch" in capsys.readouterr().out


def test_stats_prints_layers(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["stats", SCENARIO, "--steps", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "layers: 1," in printed
    assert (out / "stats.csv").read_text().startswith("step,reachable")
    assert (out / "stats.txt").exists()


@pytest.mark.parametrize("name", ["path_three_fast", "two_agent_services"])
def test_stats_csv_is_the_full_expansion(tmp_path, capsys, name):
    """``stats.csv`` byte for byte against layers expanded one by one."""
    from timedplan.scenario import build, load_scenario
    from timedplan.wts import product

    from helpers import expand_layers

    scenario = f"scenarios/{name}.cfg"
    layers = expand_layers(product(build(load_scenario(scenario)).wts_list), 40)
    for steps in (0, 1, 10, 40):
        out = tmp_path / f"steps-{steps}"
        assert main(["stats", scenario, "--steps", str(steps), "--out", str(out)]) == 0
        rows = "".join(f"{k},{len(layer)}\n" for k, layer in enumerate(layers[: steps + 1]))
        assert (out / "stats.csv").read_bytes() == f"step,reachable\n{rows}".encode()


LINE = """\
# Two coupled agents on a line of 6 cells, each owing one timed service visit.

[scenario]
version = 1
name = two-agents-on-a-line

[graph]
agents = 2
edges = 1-2

[dynamics]
v_max = 1.0
start.1 = 0.030
start.2 = 0.042

[workspace]
bounds = 0.0 ; 0.072
cell_size = 0.012

[abstraction]
lambda = 0.14
dt = 1/20

[labels]
1.p1 = 2
2.p2 = 5

[formulas]
phi.1 = F[1/20, 1/4] p1
phi.2 = F[1/20, 1/4] p2
"""


def test_one_dimensional_workspace_end_to_end(tmp_path, capsys):
    """A workspace with one axis is validated, planned, certified and
    profiled like a planar one."""
    from timedplan.scenario import build, load_scenario
    from timedplan.wts import product

    from helpers import expand_layers

    cfg = tmp_path / "line.cfg"
    cfg.write_text(LINE, encoding="utf-8")
    assert main(["validate", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "cells: 6 (diameter 0.012)" in printed
    assert "start cell 3" in printed and "start cell 4" in printed
    run = tmp_path / "run"
    assert main(["synthesize", str(cfg), "--out", str(run)]) == 0
    assert "all landings hit" in capsys.readouterr().out
    plan = json.loads((run / "plan.json").read_text())
    assert plan["joint"] == [[3, 4], [2, 5]] and plan["stem_len"] == 1
    cert = json.loads((run / "certificate.json").read_text())
    assert cert["ok"] and cert["tasks_sat"] == [True, True] and cert["consistent"]
    out = tmp_path / "st"
    assert main(["stats", str(cfg), "--steps", "6", "--out", str(out)]) == 0
    layers = expand_layers(product(build(load_scenario(cfg)).wts_list), 6)
    rows = "".join(f"{k},{len(layer)}\n" for k, layer in enumerate(layers))
    assert (out / "stats.csv").read_text() == f"step,reachable\n{rows}"


def _child_env():
    """The child finds the package where this process found it, installed
    or not."""
    src = str(Path(timedplan.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_closed_stdout_exits_1_without_traceback():
    # the reader is gone before the first line is written, so the child's
    # output meets a broken pipe however the writes are timed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = subprocess.run(
            [sys.executable, "-m", "timedplan.cli", "stats", SCENARIO, "--steps", "4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert (got.returncode, got.stderr) == (1, "")


def test_console_script_version():
    got = subprocess.run(
        [sys.executable, "-m", "timedplan.cli", "--version"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert got.returncode == 0
    assert "timedplan" in got.stdout


def _forged(states_1, states_2):
    """A plan for the shipped scenario whose agents follow the given cycles."""
    from fractions import Fraction

    from timedplan.synthesis import Plan, zip_runs
    from timedplan.wts import TimedRun

    dt = Fraction(1, 20)
    runs = tuple(TimedRun(s, (dt,) * len(s), 0) for s in (states_1, states_2))
    return Plan(zip_runs(runs), route="independent")


@pytest.mark.parametrize(
    "plan, named",
    [
        # both agents hold their start cells: agent 1 never reaches p1 (cell 14)
        (lambda: _forged((15,), (21,)), "agent 1's run does not satisfy"),
        # both tasks hold, but agent 1 jumps across the grid in one quantum
        (lambda: _forged((14, 36), (22, 22)), "check_consistent"),
    ],
)
def test_plan_failing_its_self_check_is_not_written(tmp_path, capsys, monkeypatch, plan, named):
    import timedplan.cli

    monkeypatch.setattr(timedplan.cli, "synthesize", lambda *a, **k: plan())
    out = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "self-check" in printed and named in printed
    assert not (out / "plan.json").exists()
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "joint",
    [[], [[15, 21], [15, 21], [15], [15, 21]]],
    ids=["empty", "ragged"],
)
def test_simulate_rejects_malformed_joint(tmp_path, capsys, joint):
    run = tmp_path / "run"
    assert main(["synthesize", SCENARIO, "--out", str(run)]) == 0
    raw = json.loads((run / "plan.json").read_text())
    raw["joint"] = joint
    raw["stem_len"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    code = main(["simulate", SCENARIO, "--plan", str(bad), "--out", str(tmp_path / "s")])
    printed = capsys.readouterr().out
    assert code == 1
    assert "PlanMismatch" in printed and "'joint'" in printed
