"""Timed runs and words in lasso form, the synchronized product of agent
systems, and the sampled landing certificate.

Infinite runs are finite lassos: ``states[0:stem_len]`` is the transient,
``states[stem_len:]`` the cycle, and ``durations[j]`` the sojourn of the
edge leaving position j (the last duration closes the cycle).  Stamps start
at 0 and are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LengthMismatch, MismatchedTimeStep, UnknownState
from .rational import as_fraction, frac_str


def _prefix_times(durations):
    out = [Fraction(0)]
    for d in durations[:-1]:
        out.append(out[-1] + d)
    return tuple(out)


class _Lasso:
    """Shared unrolling arithmetic for runs and words."""

    def __init__(self, items, durations, stem_len):
        items = tuple(items)
        durations = tuple(as_fraction(d) for d in durations)
        stem_len = int(stem_len)
        if len(items) != len(durations):
            raise LengthMismatch(
                f"{len(items)} positions but {len(durations)} durations"
            )
        if not items:
            raise LengthMismatch("a lasso needs at least one position")
        if not 0 <= stem_len < len(items):
            raise LengthMismatch(
                f"stem length {stem_len} incompatible with {len(items)} positions"
            )
        for d in durations:
            if d <= 0:
                raise ValueError(f"durations must be positive, got {d}")
        self.items = items
        self.durations = durations
        self.stem_len = stem_len
        self._times = _prefix_times(durations)
        self.cycle_len = len(items) - stem_len
        self.cycle_duration = sum(durations[stem_len:], Fraction(0))

    def __len__(self):
        return len(self.items)

    def canon(self, j: int) -> int:
        if j < len(self.items):
            return j
        return self.stem_len + (j - self.stem_len) % self.cycle_len

    def at(self, j: int):
        return self.items[self.canon(j)]

    def time(self, j: int) -> Fraction:
        if j < len(self.items):
            return self._times[j]
        laps, off = divmod(j - self.stem_len, self.cycle_len)
        return self._times[self.stem_len + off] + laps * self.cycle_duration

    def gap(self, j: int) -> Fraction:
        return self.durations[self.canon(j)]


@dataclass(frozen=True)
class TimedRun:
    """Lasso run: visited states with strictly increasing rational stamps."""

    states: tuple
    durations: tuple[Fraction, ...]
    stem_len: int = 0

    def __post_init__(self):
        core = _Lasso(self.states, self.durations, self.stem_len)
        object.__setattr__(self, "states", core.items)
        object.__setattr__(self, "durations", core.durations)
        object.__setattr__(self, "_core", core)

    def state(self, j: int):
        return self._core.at(j)

    def time(self, j: int) -> Fraction:
        return self._core.time(j)

    def canon(self, j: int) -> int:
        return self._core.canon(j)

    @property
    def cycle_len(self) -> int:
        return self._core.cycle_len

    def __len__(self):
        return len(self.states)


@dataclass(frozen=True)
class TimedWord:
    """Lasso word: label sets with strictly increasing rational stamps."""

    labels: tuple[frozenset[str], ...]
    durations: tuple[Fraction, ...]
    stem_len: int = 0

    def __post_init__(self):
        core = _Lasso(
            tuple(frozenset(l) for l in self.labels), self.durations, self.stem_len
        )
        object.__setattr__(self, "labels", core.items)
        object.__setattr__(self, "durations", core.durations)
        object.__setattr__(self, "_core", core)

    def label(self, j: int) -> frozenset[str]:
        return self._core.at(j)

    def time(self, j: int) -> Fraction:
        return self._core.time(j)

    def gap(self, j: int) -> Fraction:
        return self._core.gap(j)

    def canon(self, j: int) -> int:
        return self._core.canon(j)

    @property
    def cycle_len(self) -> int:
        return self._core.cycle_len

    def __len__(self):
        return len(self.labels)

    def alphabet(self) -> frozenset[str]:
        out = set()
        for l in self.labels:
            out |= l
        return frozenset(out)


def format_steps(items, durations, stem_len) -> str:
    """One position per line: ``j; num/den; item`` with a cycle marker."""
    times = _prefix_times(durations)
    lines = []
    for j, (item, t) in enumerate(zip(items, times)):
        if j == stem_len:
            lines.append("--- cycle ---")
        if isinstance(item, frozenset):
            shown = "{" + ",".join(sorted(item)) + "}"
        else:
            shown = str(item)
        lines.append(f"{j}; {frac_str(t)}; {shown}")
    return "\n".join(lines)


def timed_word(run: TimedRun, labels) -> TimedWord:
    """Observation word of a run; ``labels`` maps state -> label set."""
    out = []
    getter = labels if callable(labels) else labels.get
    for s in run.states:
        l = getter(s)
        if l is None:
            raise UnknownState(f"state {s!r} has no label entry")
        out.append(frozenset(l))
    return TimedWord(tuple(out), run.durations, run.stem_len)


class ProductWTS:
    """Synchronized product: joint moves where every agent's step is enabled
    under the action formed by its own and its neighbors' current cells.

    Components must be ordered by agent number 1..N and share the step
    quantum.  Joint labels are the (disjoint) union of component labels.
    """

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise MismatchedTimeStep("empty component list")
        for idx, c in enumerate(comps):
            if c.agent != idx + 1:
                raise MismatchedTimeStep(
                    f"component {idx} is agent {c.agent}, expected {idx + 1}"
                )
        quanta = {c.dt for c in comps}
        if len(quanta) != 1:
            raise MismatchedTimeStep(f"components disagree on the step quantum: {quanta}")
        self.components = comps
        self.dt = comps[0].dt
        self.n_agents = len(comps)
        self.initial = frozenset(
            tuple(pick) for pick in _cartesian([sorted(c.initial) for c in comps])
        )
        alphabet = set()
        for c in comps:
            alphabet |= c.alphabet
        self.alphabet = frozenset(alphabet)
        self._succ: dict[tuple, tuple] = {}

    def pr(self, idx: int, joint: tuple) -> tuple:
        """Action of component ``idx`` induced by the joint configuration."""
        comp = self.components[idx]
        return (joint[idx],) + tuple(joint[j - 1] for j in comp.neighbors)

    def label(self, joint: tuple) -> frozenset[str]:
        out = set()
        for idx, comp in enumerate(self.components):
            out |= comp.label(joint[idx])
        return frozenset(out)

    def successors(self, joint: tuple) -> tuple:
        joint = tuple(joint)
        got = self._succ.get(joint)
        if got is None:
            per_agent = []
            for idx in range(self.n_agents):
                post = self.components[idx].post(self.pr(idx, joint))
                if not post:
                    per_agent = None
                    break
                per_agent.append(sorted(post))
            if per_agent is None:
                got = ()
            else:
                got = tuple(tuple(pick) for pick in _cartesian(per_agent))
            self._succ[joint] = got
        return got

    def has_transition(self, src: tuple, dst: tuple) -> bool:
        return tuple(dst) in self.successors(src)

    def succ_weighted(self, joint):
        for nxt in self.successors(joint):
            yield nxt, self.dt


def _cartesian(pools):
    out = [()]
    for pool in pools:
        out = [prev + (item,) for prev in out for item in pool]
    return out


def product(wts_list) -> ProductWTS:
    return ProductWTS(wts_list)


def check_consistent(runs, g, wts_list) -> bool:
    """Whether per-agent lasso runs zip into one run of the product.

    Runs must already be aligned: identical stem lengths, identical total
    lengths, every duration equal to the shared quantum (stamps j*dt).
    """
    comps = list(wts_list)
    runs = list(runs)
    if len(runs) != len(comps) or len(runs) != g.n_agents:
        raise LengthMismatch(
            f"{len(runs)} runs for {g.n_agents} agents / {len(comps)} systems"
        )
    first = runs[0]
    dt = comps[0].dt
    for r in runs:
        if len(r) != len(first) or r.stem_len != first.stem_len:
            raise LengthMismatch("runs are not aligned to a common stem and cycle")
        if any(d != dt for d in r.durations):
            raise LengthMismatch("run stamps do not sit on the shared step quantum")
    for idx, comp in enumerate(comps):
        if comp.agent != idx + 1:
            raise LengthMismatch("systems must be ordered by agent number")
        if tuple(comp.neighbors) != tuple(g.neighbors(idx + 1)):
            raise LengthMismatch(
                f"system {idx + 1} neighbor list disagrees with the graph"
            )
    m = len(first)
    for j in range(m):
        joint = tuple(r.state(j) for r in runs)
        nxt = tuple(r.state(j + 1) for r in runs)
        for idx, comp in enumerate(comps):
            action = (joint[idx],) + tuple(joint[k - 1] for k in comp.neighbors)
            if nxt[idx] not in comp.post(action):
                return False
    return True


@dataclass(frozen=True)
class StepReport:
    step: int
    samples: int
    misses: int
    worst_distance: float


@dataclass(frozen=True)
class SimulationReport:
    steps: tuple[StepReport, ...]

    @property
    def ok(self) -> bool:
        """Every landing hit, over at least one sampled landing."""
        return sum(s.samples for s in self.steps) > 0 and self.total_misses == 0

    @property
    def total_misses(self) -> int:
        return sum(s.misses for s in self.steps)


def simulation_check(
    p: ProductWTS,
    disc,
    g,
    steps,
    controller,
    n_samples: int = 25,
    seed: int = 0,
    dt_sim=None,
    eps: float = 1e-9,
) -> SimulationReport:
    """Sampled landing certificate for realized joint steps.

    For each (source, target) product transition, draw ``n_samples`` joint
    starts uniformly from the source cells, integrate the realized law for
    one quantum, and count agents that miss their target cell (membership
    inflated by ``eps``).  ``controller(source, target)`` returns the joint
    feedback law for that step.
    """
    from .dynamics import integrate_closed  # local to avoid import cycles at load

    rng = np.random.default_rng(seed)
    dec = disc.dec
    if dt_sim is None:
        dt_sim = disc.dt / 20
    dt_sim = as_fraction(dt_sim)
    reports = []
    for j, (src, dst) in enumerate(steps):
        src, dst = tuple(src), tuple(dst)
        if not p.has_transition(src, dst):
            raise UnknownState(f"step {j}: {src} -> {dst} is not a product transition")
        misses = 0
        worst = 0.0
        for _ in range(n_samples):
            x0 = np.array([dec.cell(c).sample(rng) for c in src])
            law = controller(src, dst)
            traj = integrate_closed(g, x0, law, dt_sim, disc.dt, disc.v_max)
            landed = traj.final()
            for idx, c in enumerate(dst):
                box = dec.cell(c)
                dist = box.distance(landed[idx])
                worst = max(worst, dist)
                if not box.contains(landed[idx], eps=eps):
                    misses += 1
        reports.append(StepReport(j, n_samples, misses, worst))
    return SimulationReport(tuple(reports))
