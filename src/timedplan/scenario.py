"""Scenario files (INI dialect) and plan persistence.

A scenario bundles everything one planning problem needs: the communication
graph, continuous-motion limits, the workspace box and its grid, per-agent
service labels, the abstraction knobs, one task formula per agent, and the
search budgets.  Parsing is strict — unknown sections or keys are errors,
since a typo that silently drops a constraint is the worst possible outcome
for a tool whose point is guarantees.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .abstraction import Discretization, build_wts
from .dynamics import condition_constants
from .errors import PlanMismatch, ScenarioError, TimedplanError
from .graphs import build_graph, theorem1_constants
from .mitl import parse
from .rational import as_fraction, frac_str
from .synthesis import Plan
from .workspace import Box, ServiceLabeling, grid, grid_shape, locate
from .wts import TimedRun, check_consistent

_KNOWN_SECTIONS = (
    "scenario", "graph", "dynamics", "workspace",
    "abstraction", "labels", "formulas", "synthesis",
)
_FIXED_KEYS = {
    "scenario": {"version", "name"},
    "graph": {"agents", "edges"},
    "workspace": {"bounds", "cell_size"},
    "abstraction": {"lambda", "dt"},
    "synthesis": {"r_selec", "max_states", "samples", "seed"},
}
_START_RE = re.compile(r"^start\.(\d+)$")
_LABEL_RE = re.compile(r"^(\d+)\.([a-z][a-z0-9_]*)$")
_PHI_RE = re.compile(r"^phi\.(\d+)$")
# smallest accepted value of each integer knob: a zero lasso budget disables
# the independent route, zero samples certify nothing, a zero state budget
# stops every search before it starts, and random seeds are nonnegative
MINIMUM = {"agents": 1, "r_selec": 1, "samples": 1, "max_states": 1, "seed": 0}


def _fail(msg):
    raise ScenarioError(msg)


def check_minimum(key: str, n: int):
    """Reject an integer knob below its ``MINIMUM``."""
    if n < MINIMUM[key]:
        _fail(f"{key} must be >= {MINIMUM[key]}, got {n}")


def _integer(key: str, raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        _fail(f"{key} must be an integer, got {raw!r}")
    check_minimum(key, n)
    return n


def _real(key: str, raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        _fail(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(x):
        _fail(f"{key} must be finite, got {raw!r}")
    return x


def _positive(key: str, raw: str) -> float:
    x = _real(key, raw)
    if not x > 0:
        _fail(f"{key} must be positive, got {raw!r}")
    return x


def _point(key: str, text: str) -> tuple[float, ...]:
    return tuple(_real(key, t) for t in text.split(","))


def _parse_edges(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"(\d+)\s*-\s*(\d+)", part)
        if not m:
            _fail(f"bad edge {part!r} (want 'i-j')")
        out.append((int(m.group(1)), int(m.group(2))))
    if not out:
        _fail("no edges given")
    return out


def _parse_cells(key: str, text: str, n_cells: int):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"(\d+)(?:\s*-\s*(\d+))?", part)
        if not m:
            _fail(f"bad cell list entry {part!r}")
        a = int(m.group(1))
        b = int(m.group(2)) if m.group(2) else a
        if b < a:
            _fail(f"reversed cell range {part!r}")
        # checked before the range is expanded, so its size is bounded
        if not 1 <= a <= b <= n_cells:
            _fail(f"{key} labels cell {a if a < 1 else b}, grid has {n_cells}")
        out.extend(range(a, b + 1))
    return out


@dataclass(frozen=True)
class Scenario:
    name: str
    n_agents: int
    edges: tuple[tuple[int, int], ...]
    v_max: float
    margin: float
    starts: tuple[tuple[float, ...], ...]
    bounds_lo: tuple[float, ...]
    bounds_hi: tuple[float, ...]
    cell_size: float
    lam: float
    dt: Fraction
    labels: dict
    formula_text: tuple[str, ...]
    r_selec: int
    max_states: int | None
    samples: int
    seed: int
    fingerprint: str


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text)


def parse_scenario(text: str) -> Scenario:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        _fail(f"unparseable scenario file: {e}")

    for sec in cp.sections():
        if sec not in _KNOWN_SECTIONS:
            _fail(f"unknown section [{sec}]")
    for sec in ("scenario", "graph", "dynamics", "workspace", "abstraction", "formulas"):
        if sec not in cp:
            _fail(f"missing section [{sec}]")
    for sec, allowed in _FIXED_KEYS.items():
        if sec not in cp:
            continue
        for key in cp[sec]:
            if key not in allowed:
                _fail(f"unknown key {key!r} in [{sec}]")

    if cp["scenario"].get("version", "") != "1":
        _fail("scenario version missing or unsupported (expected version = 1)")
    name = cp["scenario"].get("name", "unnamed")

    if "agents" not in cp["graph"]:
        _fail("[graph] needs an integer 'agents'")
    n_agents = _integer("agents", cp["graph"]["agents"])
    edges = _parse_edges(cp["graph"].get("edges", ""))

    dyn = cp["dynamics"]
    starts: dict[int, tuple[float, ...]] = {}
    v_max = margin = None
    for key, val in dyn.items():
        if key == "v_max":
            v_max = _positive(key, val)
        elif key == "margin":
            margin = _real(key, val)
        else:
            m = _START_RE.fullmatch(key)
            if not m:
                _fail(f"unknown key {key!r} in [dynamics]")
            starts[int(m.group(1))] = _point(key, val)
    if v_max is None:
        _fail("[dynamics] needs v_max")
    if margin is None:
        margin = 1.05
    # the count first, so that a huge ``agents`` builds no list
    if len(starts) != n_agents or sorted(starts) != list(range(1, n_agents + 1)):
        _fail(f"agents = {n_agents} needs start.1 .. start.{n_agents} in [dynamics]")

    ws = cp["workspace"]
    if "bounds" not in ws or "cell_size" not in ws:
        _fail("[workspace] needs bounds and cell_size")
    halves = ws["bounds"].split(";")
    if len(halves) != 2:
        _fail("bounds must be 'lo_point ; hi_point'")
    lo, hi = _point("bounds", halves[0]), _point("bounds", halves[1])
    if len(lo) != len(hi):
        _fail(f"bounds corners have {len(lo)} and {len(hi)} coordinates")
    for i in range(1, n_agents + 1):
        if len(starts[i]) != len(lo):
            _fail(
                f"start.{i} has {len(starts[i])} coordinates, "
                f"the workspace has {len(lo)}"
            )
    cell_size = _positive("cell_size", ws["cell_size"])
    try:
        n_cells = math.prod(grid_shape(lo, hi, cell_size))
    except OverflowError:
        _fail(f"bounds span too many cells of cell_size {cell_size} to count")

    ab = cp["abstraction"]
    if "lambda" not in ab or "dt" not in ab:
        _fail("[abstraction] needs lambda and dt")
    lam = _real("lambda", ab["lambda"])
    try:
        dt = as_fraction(ab["dt"])
    except (ValueError, ZeroDivisionError):
        _fail(f"dt must be a decimal or a ratio like 1/20, got {ab['dt']!r}")
    if not dt > 0:
        _fail(f"dt must be positive, got {ab['dt']!r}")
    try:
        float(dt)
    except OverflowError:
        _fail(f"dt must be finite as a float, got {ab['dt']!r}")

    labels: dict[int, dict[int, set]] = {i: {} for i in range(1, n_agents + 1)}
    if "labels" in cp:
        for key, val in cp["labels"].items():
            m = _LABEL_RE.fullmatch(key)
            if not m:
                _fail(f"bad label key {key!r} (want '<agent>.<service>')")
            agent, service = int(m.group(1)), m.group(2)
            if not 1 <= agent <= n_agents:
                _fail(f"label key {key!r} names agent {agent} of {n_agents}")
            for cell in _parse_cells(key, val, n_cells):
                labels[agent].setdefault(cell, set()).add(service)

    phis: dict[int, str] = {}
    for key, val in cp["formulas"].items():
        m = _PHI_RE.fullmatch(key)
        if not m:
            _fail(f"bad formula key {key!r} (want 'phi.<agent>')")
        phis[int(m.group(1))] = val.strip()
    if sorted(phis) != list(range(1, n_agents + 1)):
        _fail(f"agents = {n_agents} needs phi.1 .. phi.{n_agents} in [formulas]")

    syn = cp["synthesis"] if "synthesis" in cp else {}
    r_selec = _integer("r_selec", syn.get("r_selec", "100"))
    max_states = syn.get("max_states")
    max_states = _integer("max_states", max_states) if max_states is not None else None
    samples = _integer("samples", syn.get("samples", "25"))
    seed = _integer("seed", syn.get("seed", "0"))

    return Scenario(
        name=name,
        n_agents=n_agents,
        edges=tuple(edges),
        v_max=v_max,
        margin=margin,
        starts=tuple(starts[i] for i in range(1, n_agents + 1)),
        bounds_lo=lo,
        bounds_hi=hi,
        cell_size=cell_size,
        lam=lam,
        dt=dt,
        labels={a: {c: frozenset(s) for c, s in per.items()} for a, per in labels.items()},
        formula_text=tuple(phis[i] for i in range(1, n_agents + 1)),
        r_selec=r_selec,
        max_states=max_states,
        samples=samples,
        seed=seed,
        fingerprint=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


@dataclass(frozen=True)
class Built:
    """Everything geometric/symbolic derived from one scenario."""

    scenario: Scenario
    graph: object
    dec: object
    disc: Discretization
    wts_list: tuple
    formulas: tuple


def build(s: Scenario) -> Built:
    """Construct and cross-validate every derived artifact.

    Raises the underlying validation error (graph shape, feasibility window,
    out-of-range cells, formula syntax, ...) so callers can report exactly
    which property failed.
    """
    g = build_graph(s.n_agents, s.edges)
    consts = condition_constants(g, theorem1_constants(g, s.v_max, s.margin))
    box = Box(s.bounds_lo, s.bounds_hi)
    dec = grid(box, s.cell_size)
    labeling = ServiceLabeling(s.labels)
    disc = Discretization(dec, s.dt, s.lam, consts, s.v_max)
    wts_list = tuple(
        build_wts(disc, g, i, s.starts[i - 1], labeling)
        for i in range(1, s.n_agents + 1)
    )
    formulas = []
    for i, txt in enumerate(s.formula_text, start=1):
        try:
            formulas.append(parse(txt, alphabet=labeling.alphabet(i)))
        except TimedplanError as e:
            raise type(e)(f"phi.{i}: {e}") from None
    return Built(
        scenario=s, graph=g, dec=dec, disc=disc, wts_list=wts_list,
        formulas=tuple(formulas),
    )


# -- plan persistence ----------------------------------------------------------


def plan_dumps(plan: Plan, fingerprint: str) -> str:
    raw = {
        "scenario_sha256": fingerprint,
        "route": plan.route,
        "dt": frac_str(plan.dt),
        "stem_len": plan.stem_len,
        "combos_checked": plan.combos_checked,
        "joint": [list(s) for s in plan.joint.states],
    }
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _json_int(key: str, value) -> int:
    """A plan's cell, stem length or combo count: a JSON int, not a float or bool."""
    if type(value) is not int:
        raise PlanMismatch(f"plan key {key!r} must hold integers, got {value!r}")
    return value


def plan_loads(text: str, b: Built) -> Plan:
    """The plan in ``text`` if it is a joint lasso of ``b``'s product from
    its start cells, every step (the closing one too) a transition, as the
    self-check's ``check_consistent`` has it; else a ``PlanMismatch``
    naming the plan key at fault."""
    s = b.scenario
    try:
        raw = json.loads(text)
        route = raw["route"]
        dt = as_fraction(raw["dt"])
        stem = _json_int("stem_len", raw["stem_len"])
        joint_states = tuple(
            tuple(_json_int("joint", c) for c in state) for state in raw["joint"]
        )
        combos = _json_int("combos_checked", raw.get("combos_checked", 0))
        sha = raw["scenario_sha256"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise PlanMismatch(f"unreadable plan file: {e}") from None
    if sha != s.fingerprint:
        raise PlanMismatch(
            "plan was synthesized for a different scenario file "
            f"(expected {s.fingerprint[:12]}..., got {str(sha)[:12]}...)"
        )
    if dt != s.dt:
        raise PlanMismatch(
            f"plan key 'dt' is {frac_str(dt)}, the scenario's quantum is {frac_str(s.dt)}"
        )
    widths = sorted({len(state) for state in joint_states})
    if widths != [s.n_agents]:
        raise PlanMismatch(
            f"plan key 'joint' must list at least one state, each with one cell "
            f"per agent ({s.n_agents}); got state lengths {widths}"
        )
    n = b.dec.n_cells
    off = [c for state in joint_states for c in state if not 1 <= c <= n]
    if off:
        raise PlanMismatch(f"plan key 'joint' names cell {off[0]}, the grid has 1..{n}")
    if not 0 <= stem < len(joint_states):
        raise PlanMismatch(
            f"plan key 'stem_len' must be in 0..{len(joint_states) - 1}, got {stem}"
        )
    start_cells = tuple(locate(b.dec, p) for p in s.starts)
    if start_cells != joint_states[0]:
        raise PlanMismatch(
            f"plan starts at {joint_states[0]}, scenario starts occupy {start_cells}"
        )
    plan = Plan(TimedRun(joint_states, (dt,) * len(joint_states), stem), route, combos)
    if not check_consistent(plan.runs, b.graph, b.wts_list):
        raise PlanMismatch(
            "plan key 'joint' takes a step that is not a transition of the "
            "scenario's product (check_consistent)"
        )
    return plan
