"""``simulate`` rejects a hand-edited plan file the scenario cannot replay
as a PlanMismatch naming the key, exit 1, before it writes anything."""

import json

import pytest

from timedplan.cli import main

SCENARIO = "scenarios/two_agent_services.cfg"


@pytest.fixture(scope="module")
def plan_json(tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    assert main(["synthesize", SCENARIO, "--out", str(run)]) == 0
    return json.loads((run / "plan.json").read_text())


def negative_dt(raw):
    raw["dt"] = "-1/20"


def other_dt(raw):
    raw["dt"] = "1/10"


def cell_off_the_grid(raw):
    raw["joint"][1] = [999, 999]


def stem_past_the_end(raw):
    raw["stem_len"] = 99


def negative_stem(raw):
    raw["stem_len"] = -1


@pytest.mark.parametrize(
    "edit, key",
    [
        (negative_dt, "'dt'"),
        (other_dt, "'dt'"),
        (cell_off_the_grid, "'joint'"),
        (stem_past_the_end, "'stem_len'"),
        (negative_stem, "'stem_len'"),
    ],
)
def test_simulate_rejects_unreplayable_plan(plan_json, tmp_path, capsys, edit, key):
    raw = json.loads(json.dumps(plan_json))
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "sim"
    code = main(["simulate", SCENARIO, "--plan", str(bad), "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1
    assert printed.startswith("invalid: PlanMismatch:") and key in printed
    assert not out.exists()
