"""Timed runs and words in lasso form, the synchronized product of agent
systems, and the sampled landing certificate.

Infinite runs are finite lassos: ``states[0:stem_len]`` is the transient,
``states[stem_len:]`` the cycle, and ``durations[j]`` the sojourn of the
edge leaving position j (the last duration closes the cycle).  Stamps start
at 0 and are exact rationals throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter

import numpy as np

from . import dynamics  # integrate_closed is read off the module at each call
from .errors import LengthMismatch, MismatchedTimeStep, UnknownState
from .rational import as_fraction, frac_str
from .workspace import EPS_GEO, boxes_contain, boxes_distance


def _prefix_times(durations):
    out = [Fraction(0)]
    for d in durations[:-1]:
        out.append(out[-1] + d)
    return tuple(out)


@dataclass(frozen=True)
class TimedRun:
    """Lasso run: visited states with strictly increasing rational stamps."""

    states: tuple
    durations: tuple[Fraction, ...]
    stem_len: int = 0

    def __post_init__(self):
        states = tuple(self.states)
        durations = tuple(as_fraction(d) for d in self.durations)
        stem_len = int(self.stem_len)
        if len(states) != len(durations):
            raise LengthMismatch(
                f"{len(states)} positions but {len(durations)} durations"
            )
        if not states:
            raise LengthMismatch("a lasso needs at least one position")
        if not 0 <= stem_len < len(states):
            raise LengthMismatch(
                f"stem length {stem_len} incompatible with {len(states)} positions"
            )
        for d in durations:
            if d <= 0:
                raise ValueError(f"durations must be positive, got {d}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "stem_len", stem_len)
        object.__setattr__(self, "cycle_len", len(states) - stem_len)

    @cached_property  # stamped on first use: most runs are never timed
    def _times(self):
        return _prefix_times(self.durations)

    @cached_property
    def _cycle_duration(self):
        return sum(self.durations[self.stem_len:], Fraction(0))

    def __len__(self):
        return len(self.states)

    def canon(self, j: int) -> int:
        """Index in ``states`` of unrolled position j."""
        if j < len(self.states):
            return j
        return self.stem_len + (j - self.stem_len) % self.cycle_len

    def state(self, j: int):
        return self.states[self.canon(j)]

    def time(self, j: int) -> Fraction:
        if j < len(self.states):
            return self._times[j]
        laps, off = divmod(j - self.stem_len, self.cycle_len)
        return self._times[self.stem_len + off] + laps * self._cycle_duration

    def gap(self, j: int) -> Fraction:
        """Sojourn at unrolled position j."""
        return self.durations[self.canon(j)]


class TimedWord(TimedRun):
    """Lasso word: a run whose positions are label sets."""

    def __init__(self, labels, durations, stem_len=0):
        super().__init__(tuple(frozenset(l) for l in labels), durations, stem_len)

    @property
    def labels(self) -> tuple[frozenset[str], ...]:
        return self.states

    label = TimedRun.state


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
        self.initial = frozenset(itertools.product(*(sorted(c.initial) for c in comps)))
        self._picks = tuple(_picker(idx, comp.neighbors) for idx, comp in enumerate(comps))
        alphabet = set()
        for c in comps:
            alphabet |= c.alphabet
        self.alphabet = frozenset(alphabet)

    def pr(self, idx: int, joint: tuple) -> tuple:
        """Action of component ``idx`` induced by the joint configuration."""
        return self._picks[idx](joint)

    def label(self, joint: tuple) -> frozenset[str]:
        out = set()
        for idx, comp in enumerate(self.components):
            out |= comp.label(joint[idx])
        return frozenset(out)

    def successors(self, joint: tuple) -> tuple:
        joint = tuple(joint)
        posts = []
        for comp, pick in zip(self.components, self._picks):
            post = comp.post(pick(joint))
            if not post:
                return ()
            posts.append(sorted(post))
        # lexicographic over the sorted posts, agent 1 outermost
        return tuple(itertools.product(*posts))

    def has_transition(self, src: tuple, dst: tuple) -> bool:
        """Whether each agent's step to ``dst`` is enabled under the action
        ``src`` induces for it."""
        return len(dst) == self.n_agents and all(
            dst[idx] in comp.post(self.pr(idx, src))
            for idx, comp in enumerate(self.components)
        )

    def succ_weighted(self, joint):
        for nxt in self.successors(joint):
            yield nxt, self.dt


def _picker(idx: int, neighbors):
    """``joint -> (joint[idx], neighbors' cells...)``, always a tuple."""
    if not neighbors:
        return lambda joint: (joint[idx],)
    return itemgetter(idx, *(j - 1 for j in neighbors))


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
    p = ProductWTS(comps)
    for j in range(len(first)):
        src = tuple(r.state(j) for r in runs)
        dst = tuple(r.state(j + 1) for r in runs)
        if not p.has_transition(src, dst):
            return False
    return True


_BATCH_LANDINGS = 512  # (step, sample) landings per integrate_closed call
SUBSTEPS = 20  # RK4 steps per quantum when a landing is integrated


def lands_in(lo, hi, x) -> np.ndarray:
    """The landing rule: whether each position of ``x`` lies in its target
    cell's closed box, corners ``lo`` and ``hi``, inflated by ``EPS_GEO``;
    so a landing on a face the cell shares with a neighbor is a hit."""
    return boxes_contain(lo, hi, x, eps=EPS_GEO)


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
) -> SimulationReport:
    """Sampled landing certificate for realized joint steps.

    For each (source, target) product transition, draw ``n_samples`` joint
    starts uniformly from the source cells, integrate the realized law for
    one quantum in ``SUBSTEPS`` RK4 steps, and count agents that miss their
    target cell by ``lands_in``.
    ``controller(targets)`` returns the joint feedback law for an array of
    target cells, one row of N cells per landing.

    Landings run in (step, sample) order, ``_BATCH_LANDINGS`` to one
    integrate_closed call, which bounds the memory held at once whatever
    the plan's length and sample count.  A call's starts are drawn
    together, landing by landing, which is the order a sample at a time
    draws them; a step whose samples straddle two calls sums both.
    """
    steps = [(tuple(src), tuple(dst)) for src, dst in steps]
    for j, (src, dst) in enumerate(steps):
        if not p.has_transition(src, dst):
            raise UnknownState(f"step {j}: {src} -> {dst} is not a product transition")
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    rng = np.random.default_rng(seed)
    src_lo, src_hi = disc.dec.corners([src for src, _ in steps])
    src_side = src_hi - src_lo
    dst_cells = np.array([dst for _, dst in steps], dtype=int)
    dst_lo, dst_hi = disc.dec.corners(dst_cells)
    misses = np.zeros(len(steps), dtype=int)
    worst = np.zeros(len(steps))
    landings = len(steps) * n_samples
    for first in range(0, landings, _BATCH_LANDINGS):
        rows = np.arange(first, min(first + _BATCH_LANDINGS, landings)) // n_samples
        u = rng.random(rows.shape + src_lo.shape[1:])
        starts = src_lo[rows] + u * src_side[rows]
        law = controller(dst_cells[rows])
        landed = dynamics.integrate_closed(
            g, starts, law, disc.dt / SUBSTEPS, disc.dt, disc.v_max
        ).final()
        lo, hi = dst_lo[rows], dst_hi[rows]
        np.add.at(misses, rows, np.count_nonzero(~lands_in(lo, hi, landed), axis=-1))
        # fmax skips NaN as max(worst, nan) does, and in any order
        np.fmax.at(worst, rows, np.fmax.reduce(boxes_distance(lo, hi, landed), axis=-1))
    return SimulationReport(
        tuple(
            StepReport(j, n_samples, int(m), float(w))
            for j, (m, w) in enumerate(zip(misses, worst))
        )
    )
