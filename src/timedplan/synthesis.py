"""Run synthesis: from per-agent tasks to one executable joint plan.

The cheap route works per agent — compile each task to an automaton, search
the agent's own abstraction (with its moves pooled over every neighbor
configuration, an over-approximation), and test combinations of the found
lassos for joint consistency.  When no combination zips, the exact route
builds the synchronized product against the intersection automaton and
projects its accepting lasso back to the agents.  Tasks outside the
compilable fragment fall back to bounded generate-and-check, which can find
plans but can never prove their absence.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .buchi import BuchiWTS, enumerate_accepting, find_accepting, project_run
from .dynamics import coupling
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    LengthMismatch,
    UnsupportedFragment,
)
from .mitl import props, sat
from .search import bfs_order, on_cycle, shortest_cycle, tree_path
from .tba import intersect, mitl_to_tba
from .wts import ProductWTS, TimedRun, check_consistent, product, timed_word


@dataclass(frozen=True)
class Infeasible:
    """Definitive negative verdict (only the exact routes can produce it)."""

    reason: str
    agent: int | None = None

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Plan:
    """Aligned per-agent lassos plus their zip as one joint lasso."""

    runs: tuple[TimedRun, ...]
    joint: TimedRun
    dt: Fraction
    route: str
    combos_checked: int = 0

    def __bool__(self):
        return True

    @property
    def n_agents(self) -> int:
        return len(self.runs)

    @property
    def stem_len(self) -> int:
        return self.joint.stem_len

    @property
    def cycle_len(self) -> int:
        return self.joint.cycle_len

    def steps(self):
        """(source, target) joint moves along stem plus one full cycle."""
        out = []
        for j in range(len(self.joint)):
            out.append((self.joint.state(j), self.joint.state(j + 1)))
        return out


def align_runs(runs) -> list[TimedRun]:
    """Unroll lassos to a shared stem and a common cycle length."""
    runs = list(runs)
    stem = max(r.stem_len for r in runs)
    cyc = 1
    for r in runs:
        cyc = math.lcm(cyc, r.cycle_len)
    out = []
    for r in runs:
        m = stem + cyc
        states = tuple(r.state(j) for j in range(m))
        durations = tuple(r.durations[r.canon(j)] for j in range(m))
        out.append(TimedRun(states, durations, stem))
    return out


def zip_runs(runs) -> TimedRun:
    """Positionwise product of already-aligned runs."""
    first = runs[0]
    for r in runs:
        if len(r) != len(first) or r.stem_len != first.stem_len:
            raise LengthMismatch("runs are not aligned")
    states = tuple(tuple(r.state(j) for r in runs) for j in range(len(first)))
    return TimedRun(states, first.durations, first.stem_len)


def synthesize(g, wts_list, formulas, r_selec: int = 100, max_states=None):
    """Find a joint plan whose projections satisfy every agent's task.

    Returns a Plan, or Infeasible when provably no joint run works.  Raises
    BudgetExceeded when a state or candidate budget ran out first.
    """
    comps = list(wts_list)
    formulas = list(formulas)
    if len(comps) != g.n_agents or len(formulas) != g.n_agents:
        raise LengthMismatch(
            f"{len(formulas)} tasks / {len(comps)} systems for {g.n_agents} agents"
        )
    for i, (f, c) in enumerate(zip(formulas, comps), start=1):
        extra = props(f) - c.alphabet
        if extra:
            raise AlphabetMismatch(
                f"task {i} uses services {sorted(extra)} the agent never provides"
            )

    try:
        tbas = [mitl_to_tba(f, alphabet=c.alphabet) for f, c in zip(formulas, comps)]
    except UnsupportedFragment:
        return _generate_and_check(g, comps, formulas, r_selec, max_states)

    per_agent = []
    for i, (c, a) in enumerate(zip(comps, tbas), start=1):
        b = BuchiWTS(c, a, max_states)
        found = enumerate_accepting(b, r_selec)
        if not b.anchors()[0]:
            # the pooled-moves view over-approximates the agent's behaviour
            # in any joint run, so emptiness here is conclusive; ``found`` is
            # cut at r_selec and cannot show emptiness
            return Infeasible(
                f"agent {i} has no run satisfying its task even in isolation",
                agent=i,
            )
        per_agent.append([project_run(r) for r in found])

    combos = 0
    for pick in itertools.product(*per_agent):
        if combos >= r_selec:
            break
        combos += 1
        aligned = align_runs(pick)
        if check_consistent(aligned, g, comps):
            return Plan(
                runs=tuple(aligned),
                joint=zip_runs(aligned),
                dt=comps[0].dt,
                route="independent",
                combos_checked=combos,
            )

    folded = tbas[0]
    for a in tbas[1:]:
        folded = intersect(folded, a)
    p = product(comps)
    b = BuchiWTS(p, folded, max_states)
    run = find_accepting(b)
    if run is None:
        return Infeasible("no joint run satisfies every task together")
    joint = project_run(run)
    runs = split_joint(joint, g.n_agents)
    return Plan(
        runs=runs, joint=joint, dt=comps[0].dt, route="joint-product",
        combos_checked=combos,
    )


def split_joint(joint: TimedRun, n_agents: int) -> tuple[TimedRun, ...]:
    """Each agent's run: its coordinate of every joint state."""
    return tuple(
        TimedRun(
            tuple(s[i] for s in joint.states), joint.durations, joint.stem_len
        )
        for i in range(n_agents)
    )


def _generate_and_check(g, comps, formulas, r_selec, max_states):
    """Bounded search over joint lassos, each verified against every task
    by direct semantic evaluation.  Exhaustion is a budget failure, not an
    infeasibility proof.
    """
    p = product(comps)
    seen: set = set()

    def succ(joint):
        out = p.successors(joint)
        for s in out:
            if s not in seen:
                seen.add(s)
                if max_states is not None and len(seen) > max_states:
                    raise BudgetExceeded(
                        f"joint exploration passed {max_states} states",
                        count=len(seen),
                    )
        return out

    initial = sorted(p.initial)
    seen.update(initial)
    order, parent = bfs_order(initial, succ)
    cyclic = on_cycle(order, succ)
    examined = 0
    for node in order:
        if examined >= r_selec:
            break
        if node not in cyclic:
            continue
        cyc = shortest_cycle(node, succ)
        examined += 1
        path = tree_path(parent, node)
        states = tuple(path[:-1]) + tuple(cyc)
        joint = TimedRun(states, (p.dt,) * len(states), len(path) - 1)
        runs = split_joint(joint, g.n_agents)
        if all(
            sat(timed_word(r, c.label), 0, f)
            for r, c, f in zip(runs, comps, formulas)
        ):
            return Plan(
                runs=runs, joint=joint, dt=p.dt, route="generate-and-check",
                combos_checked=examined,
            )
    raise BudgetExceeded(
        f"no verdict after checking {examined} joint lassos "
        f"(tasks outside the compilable fragment cannot be refuted)",
        count=examined,
    )


# -- realization ---------------------------------------------------------------


def saturate(v: np.ndarray, v_max: float) -> np.ndarray:
    """Scale each vector of ``v`` (last axis) down to norm ``v_max``.

    The norm is ``sqrt(v . v)`` by ``matmul``, which rounds as
    ``np.linalg.norm`` does on a single vector.
    """
    nrm = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    over = (nrm > v_max) & (nrm > 0)
    return v * np.divide(v_max, nrm, out=np.ones_like(nrm), where=over)


def make_controller(disc, g):
    """Feedback law factory for executing joint steps.

    ``controller(dst)`` returns ``law(t, x)``: steer straight at the target
    cell centers at the speed that lands on time, cancel the coupling drift,
    and saturate at the speed cap.  ``dst`` is one joint target state for
    positions ``x`` of shape ``(N, n)``, or a sequence of J of them for a
    batch ``x`` of shape ``(J, N, n)``.  Works under sample-and-hold, so the
    remaining time in the denominator never reaches zero.
    """
    dt = disc.dt
    v_max = disc.v_max
    centers = disc.dec

    def controller(dst):
        cells = np.asarray(dst, dtype=int)
        targets = np.array([centers.center(c) for c in cells.ravel()], dtype=float)
        targets = targets.reshape(cells.shape + (-1,))

        def law(t, x):
            remain = float(dt - t)
            if remain <= 0.0:
                remain = float(dt) * 1e-6
            v = np.empty_like(x)
            for i in range(x.shape[-2]):
                drive = (targets[..., i, :] - x[..., i, :]) / remain
                v[..., i, :] = saturate(drive - coupling(g, x, i + 1), v_max)
            return v

        return law

    return controller


# -- reachability profiling ----------------------------------------------------


@dataclass(frozen=True)
class LayerStats:
    """Forward-image layer sizes of the joint abstraction."""

    counts: tuple[int, ...]
    seconds: float = field(compare=False, default=0.0)

    def csv(self) -> str:
        lines = ["step,reachable"]
        for k, c in enumerate(self.counts):
            lines.append(f"{k},{c}")
        return "\n".join(lines) + "\n"


def reachable_layers(p: ProductWTS, steps: int, max_states=None) -> LayerStats:
    """Sizes of successive forward images, starting from the initial set.

    A layer equal to the one before it is a fixed point of the image, so
    its count repeats for every step left.
    """
    t0 = time.perf_counter()
    layer = set(p.initial)
    counts = [len(layer)]
    for k in range(steps):
        nxt = set(itertools.chain.from_iterable(map(p.successors, layer)))
        counts.append(len(nxt))
        if max_states is not None and len(nxt) > max_states:
            raise BudgetExceeded(
                f"reachable layer passed {max_states} states", count=len(nxt)
            )
        if nxt == layer:
            counts.extend([len(nxt)] * (steps - 1 - k))
            break
        layer = nxt
    return LayerStats(tuple(counts), time.perf_counter() - t0)
