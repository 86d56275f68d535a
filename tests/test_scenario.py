import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from timedplan.errors import PlanMismatch, ScenarioError, TimedplanError
from timedplan.scenario import (
    build,
    load_scenario,
    parse_scenario,
    plan_dumps,
    plan_loads,
)


GOOD = """\
[scenario]
version = 1
name = demo

[graph]
agents = 2
edges = 1-2

[dynamics]
v_max = 1.0
start.1 = 0.030, 0.030
start.2 = 0.042, 0.030

[workspace]
bounds = 0.0, 0.0 ; 0.072, 0.072
cell_size = 0.012

[abstraction]
lambda = 0.14
dt = 1/20

[labels]
1.p1 = 14
2.p2 = 22

[formulas]
phi.1 = F[1/20, 1/4] p1
phi.2 = F[1/20, 1/4] p2
"""


def test_parse_good_scenario():
    s = parse_scenario(GOOD)
    assert s.name == "demo"
    assert s.n_agents == 2
    assert s.edges == ((1, 2),)
    assert s.dt == Fraction(1, 20)
    assert s.margin == 1.05  # default
    assert s.labels == {1: {14: frozenset({"p1"})}, 2: {22: frozenset({"p2"})}}
    assert s.formula_text == ("F[1/20, 1/4] p1", "F[1/20, 1/4] p2")
    assert s.r_selec == 100 and s.samples == 25 and s.seed == 0
    assert len(s.fingerprint) == 64


def test_fingerprint_tracks_text():
    assert parse_scenario(GOOD).fingerprint != parse_scenario(
        GOOD.replace("0.012", "0.006")
    ).fingerprint


def mangle(old, new):
    assert old in GOOD
    return GOOD.replace(old, new)


@pytest.mark.parametrize(
    "text,hint",
    [
        (mangle("version = 1", "version = 2"), "version"),
        (mangle("[graph]", "[graf]"), "section"),
        (mangle("agents = 2", "agents = 1"), "agents"),
        (mangle("edges = 1-2", "edges = 1-3"), "edge"),
        (mangle("start.2 = 0.042, 0.030", ""), "start"),
        (mangle("phi.2 = F[1/20, 1/4] p2", ""), "phi"),
        (mangle("lambda = 0.14", "lambda = 1.2"), "lambda"),
        (mangle("dt = 1/20", "dt = 5"), "dt"),
        (mangle("1.p1 = 14", "1.p1 = 99"), "cell"),
        (GOOD + "\n[extra]\nk = v\n", "section"),
        (mangle("cell_size = 0.012", "cell_size = 0.012\nmystery = 3"), "key"),
        (mangle("phi.1 = F[1/20, 1/4] p1", "phi.1 = F[1/20, 1/4] p2"), "phi.1"),
    ],
)
def test_bad_scenarios_rejected(text, hint):
    with pytest.raises(TimedplanError, match=hint):
        s = parse_scenario(text)
        build(s)  # some properties only fall over at build time


@pytest.mark.parametrize(
    "text,message",
    [
        (mangle("agents = 2\n", ""), "[graph] needs an integer 'agents'"),
        (mangle("v_max = 1.0", "v_max = 1.0\nspeed = 2"), "unknown key 'speed' in [dynamics]"),
        (mangle("v_max = 1.0\n", ""), "[dynamics] needs v_max"),
        (mangle("1.p1 = 14", "p1 = 14"), "bad label key 'p1' (want '<agent>.<service>')"),
        (mangle("2.p2 = 22", "3.p2 = 22"), "label key '3.p2' names agent 3 of 2"),
        (mangle("phi.2 =", "psi.2 ="), "bad formula key 'psi.2' (want 'phi.<agent>')"),
    ],
)
def test_malformed_keys_are_named(text, message):
    with pytest.raises(ScenarioError) as e:
        parse_scenario(text)
    assert str(e.value) == message


@pytest.mark.parametrize("key", ["r_selec", "samples", "max_states"])
@pytest.mark.parametrize("value", ["0", "-2", "many", "1.5"])
def test_counts_must_be_positive_integers(key, value):
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(GOOD + f"\n[synthesis]\n{key} = {value}\n")


@pytest.mark.parametrize("value", ["-1", "abc", "nan"])
def test_seed_must_be_a_nonnegative_integer(value):
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(GOOD + f"\n[synthesis]\nseed = {value}\n")


def test_synthesis_numbers_read_back():
    s = parse_scenario(GOOD + "\n[synthesis]\nseed = 0\nmax_states = 1\n")
    assert s.seed == 0 and s.max_states == 1


# (text to replace, its bad replacement, key the error must name)
BAD_NUMBERS = [
    ("agents = 2", "agents = two", "agents"),
    ("agents = 2", "agents = 0", "agents"),
    ("v_max = 1.0", "v_max = fast", "v_max"),
    ("v_max = 1.0", "v_max = inf", "v_max"),
    ("v_max = 1.0", "v_max = 0", "v_max"),
    ("v_max = 1.0", "v_max = 1.0\nmargin = wide", "margin"),
    ("v_max = 1.0", "v_max = 1.0\nmargin = nan", "margin"),
    ("start.1 = 0.030, 0.030", "start.1 = 0.030, x", "start.1"),
    ("start.1 = 0.030, 0.030", "start.1 = 0.030, -inf", "start.1"),
    ("0.072, 0.072", "0.072, nan", "bounds"),
    ("0.072, 0.072", "0.072", "bounds"),
    ("bounds = 0.0, 0.0", "bounds = 0.0", "bounds"),
    ("start.1 = 0.030, 0.030", "start.1 = 0.030", "start.1"),
    ("start.2 = 0.042, 0.030", "start.2 = 0.042, 0.030, 0.0", "start.2"),
    ("cell_size = 0.012", "cell_size = nan", "cell_size"),
    ("cell_size = 0.012", "cell_size = small", "cell_size"),
    ("cell_size = 0.012", "cell_size = 0", "cell_size"),
    ("lambda = 0.14", "lambda = x", "lambda"),
    ("lambda = 0.14", "lambda = nan", "lambda"),
    ("dt = 1/20", "dt = 1/0", "dt"),
    ("dt = 1/20", "dt = soon", "dt"),
    ("dt = 1/20", "dt = inf", "dt"),
    ("dt = 1/20", "dt = -1/20", "dt"),
    ("dt = 1/20", "dt = 1e400", "dt"),
    ("dt = 1/20", "dt = 1/20\nradius_shrink = x", "radius_shrink"),
    ("dt = 1/20", "dt = 1/20\nradius_shrink = inf", "radius_shrink"),
    ("dt = 1/20", "dt = 1/20\nradius_shrink = -0.001", "radius_shrink"),
    # counts are compared with their limits before anything is expanded
    ("agents = 2", "agents = 2000000", "agents"),
    ("1.p1 = 14", "1.p1 = 1-3000000", "1.p1"),
    ("2.p2 = 22", "2.p2 = 22, 0", "2.p2"),
    ("bounds = 0.0, 0.0 ; 0.072", "bounds = -1e308, 0.0 ; 1e308", "bounds"),
]


@pytest.mark.parametrize(
    "old,new,key", BAD_NUMBERS, ids=[b[1].split("\n")[-1] for b in BAD_NUMBERS]
)
def test_bad_numbers_name_their_key(old, new, key):
    with pytest.raises(ScenarioError, match=key):
        parse_scenario(mangle(old, new))


def test_build_products():
    b = build(parse_scenario(GOOD))
    assert b.graph.n_agents == 2
    assert b.dec.n_cells == 36
    assert len(b.wts_list) == 2
    assert b.wts_list[0].agent == 1
    assert b.wts_list[0].initial == {15}
    assert b.wts_list[1].initial == {21}
    assert tuple(str(f) for f in b.formulas) == (
        "F[1/20,1/4] p1",
        "F[1/20,1/4] p2",
    )


def test_load_scenario_from_disk():
    s = load_scenario("scenarios/two_agent_services.cfg")
    assert s.name == "two-agent-services"
    b = build(s)
    assert b.disc.dt == Fraction(1, 20)


def test_plan_round_trip():
    from timedplan.synthesis import synthesize

    b = build(parse_scenario(GOOD))
    plan = synthesize(
        b.graph, b.wts_list, list(b.formulas), r_selec=b.scenario.r_selec
    )
    assert plan
    blob = plan_dumps(plan, b.scenario.fingerprint)
    back = plan_loads(blob, b)
    assert back.joint.states == plan.joint.states
    assert back.joint.durations == plan.joint.durations
    assert back.joint.stem_len == plan.joint.stem_len
    assert back.route == plan.route
    assert [r.states for r in back.runs] == [r.states for r in plan.runs]
    other = dataclasses.replace(b.scenario, fingerprint="0" * 64)
    with pytest.raises(PlanMismatch):
        plan_loads(blob, dataclasses.replace(b, scenario=other))
    with pytest.raises(PlanMismatch):
        plan_loads("not json", b)


# -- fuzzing: every input ends in a Scenario or a TimedplanError ---------------

SHIPPED = Path(__file__).parent.parent / "scenarios" / "two_agent_services.cfg"
SHIPPED_LINES = SHIPPED.read_text(encoding="utf-8").splitlines()

# values a mutated line may take, large counts included
VALUE_LIST = [
    "2000000", "1-3000000", "3000000-3000001", "99999999999999999999",
    "", "0", "1", "2", "3", "-1", "-0", "0.5", "1.5", "1/20", "1/0", "-1/20",
    "1e400", "-1e400", "1e-400", "nan", "inf", "-inf", "abc", "0.030",
    "0.030, 0.030", "0.030, 0.030, 0.030", "0.0, 0.0 ; 0.072", "0.072 ; 0.0",
    "0.0, 0.0 ; 0.072, 0.072 ; 1", "1-2", "1-1", "2-1", "1-3", "14", "3-1",
    "F[1/20, 1/4] p1", "F[0, 1e400] p1", "G[1/4, 1/20] p2", "p1 U[0,1] p2",
    "X[1/20, 1/10] !p1", "F[1/20, 1/4] (p1", "F[a, b] p1", "p9", "[x]",
]
VALUES = st.sampled_from(VALUE_LIST)
# free text without decimal digits, so that it cannot spell a tiny cell size,
# whose grid is valid and would be built in full
NOISE = st.text(
    alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=16
)


@st.composite
def mutated_scenarios(draw):
    """The shipped scenario with one to three of its lines dropped, doubled,
    given another value or replaced by noise."""
    lines = list(SHIPPED_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["value", "value", "drop", "noise", "twice"]))
        if edit == "value" and "=" in lines[i]:
            lines[i] = f"{lines[i].split('=', 1)[0].strip()} = {draw(VALUES)}"
        elif edit == "drop":
            del lines[i]
        elif edit == "noise":
            lines[i] = draw(NOISE) if draw(st.booleans()) else lines[i] + draw(NOISE)
        elif edit == "twice":
            lines.insert(i, lines[i])
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _parses_and_builds_or_raises_a_typed_error(text):
    try:
        build(parse_scenario(text))
    except TimedplanError:
        pass


def test_every_value_of_the_shipped_scenario_swapped():
    for i, line in enumerate(SHIPPED_LINES):
        if "=" not in line or line.startswith("#"):
            continue
        key = line.split("=", 1)[0].strip()
        for value in VALUE_LIST:
            lines = list(SHIPPED_LINES)
            lines[i] = f"{key} = {value}"
            _parses_and_builds_or_raises_a_typed_error("\n".join(lines))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.one_of(mutated_scenarios(), st.text(max_size=200)))
def test_any_text_parses_and_builds_or_raises_a_typed_error(text):
    _parses_and_builds_or_raises_a_typed_error(text)
