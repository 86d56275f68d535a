"""Output checks made apart from the program.

Nothing here imports ``timedplan``: the scenario text is read with
``configparser``, the grid and the successor relation are re-derived from
the geometry, and task windows are evaluated directly on the plan's cell
sequence.  The checks raise ``CheckFailed`` on the first disagreement.

The successor relation: agent i under the action (own cell, neighbour cells
in ascending agent order) may land in every cell whose closed box meets the
closed ball of radius lambda * v_max * dt around the nominal endpoint
``centre(own) + dt * sum(centre(nb) - centre(own))``.  Distances are
compared with a 1e-9 tolerance, the precision the scenario floats carry.
"""

from __future__ import annotations

import configparser
import math
import re
from fractions import Fraction

import numpy as np

TOL = 1e-9
_TASK = re.compile(r"^([FG])\[\s*([^,\]]+)\s*,\s*([^\]]+)\s*\]\s*([a-z][a-z0-9_]*)$")


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def _fail(msg):
    raise CheckFailed(msg)


def _cells(text: str) -> set[int]:
    out = set()
    for part in text.split(","):
        a, _, b = part.strip().partition("-")
        out.update(range(int(a), int(b or a) + 1))
    return out


class Geometry:
    """Grid, start cells, successor relation and tasks of one scenario."""

    def __init__(self, text: str):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        self.n_agents = int(cp["graph"]["agents"])
        nbrs = {i: set() for i in range(1, self.n_agents + 1)}
        for part in cp["graph"]["edges"].split(","):
            a, b = (int(t) for t in part.split("-"))
            nbrs[a].add(b)
            nbrs[b].add(a)
        self.neighbors = {i: tuple(sorted(s)) for i, s in nbrs.items()}
        dyn = cp["dynamics"]
        v_max = float(dyn["v_max"])
        starts = [
            tuple(float(t) for t in dyn[f"start.{i}"].split(","))
            for i in range(1, self.n_agents + 1)
        ]
        lo_txt, hi_txt = cp["workspace"]["bounds"].split(";")
        lo = [float(t) for t in lo_txt.split(",")]
        hi = [float(t) for t in hi_txt.split(",")]
        size = float(cp["workspace"]["cell_size"])
        self.dt = Fraction(cp["abstraction"]["dt"])
        lam = float(cp["abstraction"]["lambda"])
        self.radius = lam * v_max * float(self.dt)
        self.samples = int(cp["synthesis"]["samples"])

        # cut points per axis; the last cell of an axis absorbs the remainder
        axes = []
        for a, b in zip(lo, hi):
            count = max(1, math.ceil((b - a) / size - TOL))
            axes.append([a + k * size for k in range(count)] + [b])
        self.shape = tuple(len(ax) - 1 for ax in axes)
        mesh = np.meshgrid(*[np.arange(s) for s in self.shape], indexing="ij")
        idx = [m.ravel() for m in mesh]  # x-major order, cell k+1 is row k
        self.box_lo = np.stack([np.asarray(ax)[i] for ax, i in zip(axes, idx)], 1)
        self.box_hi = np.stack([np.asarray(ax)[i + 1] for ax, i in zip(axes, idx)], 1)
        self.centres = 0.5 * (self.box_lo + self.box_hi)
        self.n_cells = len(self.centres)

        def locate(p):
            k = 0
            for x, ax, n in zip(p, axes, self.shape):
                j = min(int(np.searchsorted(ax, x, side="right")) - 1, n - 1)
                k = k * n + j
            return k + 1

        self.starts = tuple(locate(p) for p in starts)

        labels = {}
        for key, val in (cp["labels"].items() if "labels" in cp else ()):
            agent, prop = key.split(".")
            labels[prop] = (int(agent), frozenset(_cells(val)))
        self.tasks = []
        for i in range(1, self.n_agents + 1):
            m = _TASK.match(cp["formulas"][f"phi.{i}"].strip())
            if not m:
                _fail(f"task of agent {i} is not a single F or G window")
            op, a, b, prop = m.groups()
            owner, cells = labels[prop]
            if owner != i:
                _fail(f"service {prop} belongs to agent {owner}, not {i}")
            self.tasks.append((op, Fraction(a), Fraction(b), cells))
        self._post: list[dict] = [{} for _ in range(self.n_agents)]
        self._layers: dict[int, tuple[int, ...]] = {}

    # -- successor relation ----------------------------------------------------

    def post(self, agent: int, action: tuple[int, ...]) -> np.ndarray:
        """Boolean row over cells (index k is cell k+1) for one action."""
        memo = self._post[agent - 1]
        got = memo.get(action)
        if got is None:
            own = self.centres[action[0] - 1]
            drift = sum(
                (self.centres[c - 1] - own for c in action[1:]), np.zeros_like(own)
            )
            x = own + float(self.dt) * drift
            gap = np.maximum(np.maximum(self.box_lo - x, x - self.box_hi), 0.0)
            got = np.sqrt((gap * gap).sum(1)) <= self.radius + TOL
            got.setflags(write=False)
            memo[action] = got
        return got

    def action(self, agent: int, joint: tuple[int, ...]) -> tuple[int, ...]:
        return (joint[agent - 1],) + tuple(joint[j - 1] for j in self.neighbors[agent])

    def is_step(self, src, dst) -> bool:
        return all(
            self.post(i, self.action(i, src))[dst[i - 1] - 1]
            for i in range(1, self.n_agents + 1)
        )

    def image(self, layer: np.ndarray) -> np.ndarray:
        """Joint cells one step from any joint cell marked in ``layer``.

        ``layer`` is a boolean array with one axis of n_cells per agent.
        """
        n = self.n_cells
        states = np.argwhere(layer) + 1
        out = np.zeros(n ** self.n_agents, dtype=bool)
        for lo in range(0, len(states), 2048):
            chunk = [tuple(int(c) for c in s) for s in states[lo:lo + 2048]]
            rows = [
                np.array([self.post(i, self.action(i, s)) for s in chunk], dtype=np.float32)
                for i in range(1, self.n_agents + 1)
            ]
            lead = rows[0]
            for r in rows[1:-1]:
                lead = (lead[:, :, None] * r[:, None, :]).reshape(len(chunk), -1)
            out |= (lead.T @ rows[-1]).ravel() > 0
        return out.reshape((n,) * self.n_agents)

    def start_layer(self) -> np.ndarray:
        layer = np.zeros((self.n_cells,) * self.n_agents, dtype=bool)
        layer[tuple(c - 1 for c in self.starts)] = True
        return layer

    def layer_counts(self, steps: int) -> tuple[int, ...]:
        got = self._layers.get(steps)
        if got is None:
            layer = self.start_layer()
            counts = [int(layer.sum())]
            for _ in range(steps):
                layer = self.image(layer)
                counts.append(int(layer.sum()))
            got = self._layers[steps] = tuple(counts)
        return got

    def reachable(self) -> np.ndarray:
        seen = self.start_layer()
        frontier = seen
        while frontier.any():
            nxt = self.image(frontier)
            frontier = nxt & ~seen
            seen |= nxt
        return seen


# -- checks --------------------------------------------------------------------


def window_met(op, a, b, cells, seq, stem, dt) -> bool:
    """Point-wise F[a,b]/G[a,b] at position 0 of a lasso of cells spaced dt."""
    hits = []
    j = 0
    while j * dt <= b:
        k = j if j < len(seq) else stem + (j - stem) % (len(seq) - stem)
        if j * dt >= a:
            hits.append(seq[k] in cells)
        j += 1
    return any(hits) if op == "F" else all(hits)


def check_build(geo: Geometry, built) -> None:
    if built.dec.n_cells != geo.n_cells:
        _fail(f"grid has {built.dec.n_cells} cells, expected {geo.n_cells}")
    got = tuple(min(w.initial) for w in built.wts_list)
    if got != geo.starts:
        _fail(f"start cells {got}, expected {geo.starts}")


def check_plan(geo: Geometry, states, stem: int, durations) -> None:
    """Start cells, every joint step (the closing one too), every window."""
    states = [tuple(s) for s in states]
    if not 0 <= stem < len(states):
        _fail(f"stem {stem} outside a lasso of {len(states)} positions")
    if states[0] != geo.starts:
        _fail(f"plan starts at {states[0]}, scenario starts in {geo.starts}")
    if any(Fraction(d) != geo.dt for d in durations) or len(durations) != len(states):
        _fail("plan durations are not one quantum per position")
    for j, src in enumerate(states):
        dst = states[j + 1] if j + 1 < len(states) else states[stem]
        if not geo.is_step(src, dst):
            _fail(f"step {j}: {src} -> {dst} is not a transition")
    for i, task in enumerate(geo.tasks, start=1):
        seq = [s[i - 1] for s in states]
        if not window_met(*task, seq, stem, geo.dt):
            _fail(f"agent {i} misses its {task[0]}[{task[1]},{task[2]}] window")


def check_verdict(geo: Geometry, expect: str, is_plan: bool) -> None:
    """A plan where one is expected; an infeasible verdict only with a proof.

    The proof for G tasks: at a position j with j * dt inside every window,
    all agents would have to sit in their service cells at once, so no run
    exists when no reachable joint cell puts them there together.
    """
    if expect == "plan":
        if not is_plan:
            _fail("infeasible verdict on a scenario with a plan")
        return
    if is_plan:
        _fail("plan returned for a scenario without one")
    if any(op != "G" for op, *_ in geo.tasks):
        _fail("no independent proof for an infeasible verdict on F tasks")
    last = min(b for _, _, b, _ in geo.tasks)
    if not any(
        all(a <= j * geo.dt <= b for _, a, b, _ in geo.tasks)
        for j in range(int(last / geo.dt) + 1)
    ):
        _fail("the G windows share no position: no independent proof")
    reach = geo.reachable()
    inside = np.ones_like(reach)
    for i, (_, _, _, cells) in enumerate(geo.tasks):
        mask = np.zeros(geo.n_cells, dtype=bool)
        mask[[c - 1 for c in cells]] = True
        shape = [1] * geo.n_agents
        shape[i] = geo.n_cells
        inside &= mask.reshape(shape)
    if (reach & inside).any():
        _fail("a reachable joint cell meets every G task: infeasible unproved")


def check_certificate(geo: Geometry, report, n_steps: int) -> None:
    if len(report.steps) != n_steps or n_steps == 0:
        _fail(f"certificate covers {len(report.steps)} of {n_steps} steps")
    landings = sum(s.samples for s in report.steps)
    if landings != n_steps * geo.samples or landings == 0:
        _fail(f"certificate drew {landings} samples, expected {n_steps * geo.samples}")
    if report.total_misses:
        _fail(f"certificate records {report.total_misses} missed landings")


def check_layers(geo: Geometry, counts, steps: int) -> None:
    want = geo.layer_counts(steps)
    if tuple(counts) != want:
        _fail(f"layer counts {tuple(counts)}, expected {want}")
