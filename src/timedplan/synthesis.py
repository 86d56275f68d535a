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

import ctypes
import itertools
import math
import operator
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


def _fix_mmap_threshold() -> None:
    """Keep glibc's mmap threshold at its default of 128 KiB.

    glibc raises the threshold to the size of each mapped block that is
    freed, so after the first multi-megabyte array is freed the next ones
    go to the heap, where smaller blocks can split a freed one's hole and
    the heap then grows by another block in some processes and not in
    others: one run's peak RSS differed by 4 MB from process to process.
    A fixed threshold maps every such array and unmaps it when freed.  Does
    nothing where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


_fix_mmap_threshold()


@dataclass(frozen=True)
class Infeasible:
    """Definitive negative verdict (only the exact routes can produce it)."""

    reason: str
    agent: int | None = None

    def __bool__(self):
        return False


@dataclass(frozen=True)
class Plan:
    """A joint lasso of the product: one cell per agent at each position,
    one quantum per step.  Each agent's run is its coordinate of the joint
    states, and the quantum is the lasso's step."""

    joint: TimedRun
    route: str
    combos_checked: int = 0

    @property
    def n_agents(self) -> int:
        return len(self.joint.states[0])

    @property
    def runs(self) -> tuple[TimedRun, ...]:
        """Each agent's run: its coordinate of every joint state."""
        j = self.joint
        return tuple(
            TimedRun(tuple(s[i] for s in j.states), j.durations, j.stem_len)
            for i in range(self.n_agents)
        )

    @property
    def dt(self) -> Fraction:
        return self.joint.durations[0]

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
        return _generate_and_check(comps, formulas, r_selec, max_states)

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
            return Plan(zip_runs(aligned), "independent", combos)

    folded = tbas[0]
    for a in tbas[1:]:
        folded = intersect(folded, a)
    p = product(comps)
    b = BuchiWTS(p, folded, max_states)
    run = find_accepting(b)
    if run is None:
        return Infeasible("no joint run satisfies every task together")
    return Plan(project_run(run), "joint-product", combos)


def _generate_and_check(comps, formulas, r_selec, max_states):
    """Bounded search over joint lassos, each verified against every task
    by direct semantic evaluation.  Exhaustion is a budget failure, not an
    infeasibility proof.
    """
    p = product(comps)
    seen: set = set()
    memo: dict[tuple, tuple] = {}

    def succ(joint):
        out = memo.get(joint)
        if out is None:
            out = memo[joint] = p.successors(joint)
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
        plan = Plan(
            TimedRun(states, (p.dt,) * len(states), len(path) - 1),
            "generate-and-check",
            examined,
        )
        if all(
            sat(timed_word(r, c.label), 0, f)
            for r, c, f in zip(plan.runs, comps, formulas)
        ):
            return plan
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

    A joint state is coded as one integer, one digit per agent in radix
    (largest cell + 1), agent 1 most significant, and a layer is the sorted
    array of its codes.  When there are more codes than ``_BITMAP_CAP``,
    layers are sets of joint tuples instead.  A layer equal to the one
    before it is a fixed point of the image, so its count repeats for every
    step left.
    """
    t0 = time.perf_counter()
    n = p.n_agents
    radix = 1 + max(max(itertools.chain(c.states, c.initial)) for c in p.components)
    if radix ** n > _BITMAP_CAP:
        layer = set(p.initial)
        same = operator.eq

        def image(layer):
            return set(itertools.chain.from_iterable(map(p.successors, layer)))
    else:
        place = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
        agents = [_AgentRows(c, idx, radix, place) for idx, c in enumerate(p.components)]
        initial = np.array(sorted(p.initial), dtype=np.int64).reshape(-1, n)
        layer = np.sort(initial @ place)
        same = np.array_equal
        scratch = [np.empty(0, dtype=np.int64)] * 2

        def image(layer):
            return _image(agents, radix ** n, layer, scratch)
    counts = [len(layer)]
    for k in range(steps):
        nxt = image(layer)
        counts.append(len(nxt))
        if max_states is not None and len(nxt) > max_states:
            raise BudgetExceeded(
                f"reachable layer passed {max_states} states", count=len(nxt)
            )
        if same(nxt, layer):
            counts.extend([len(nxt)] * (steps - 1 - k))
            break
        layer = nxt
    return LayerStats(tuple(counts), time.perf_counter() - t0)


# most joint codes whose layers are coded as arrays; below 2**31, so an
# action code's row index fits ``_AgentRows.slot``
_BITMAP_CAP = 1 << 26
_CHUNK = 1 << 18  # about this many summed successor codes at once


class _AgentRows:
    """One agent's posts as rows of cells scaled by its place in the joint
    code, looked up by the code of the agent's action (own cell, then its
    neighbors' in agent order, own cell most significant).

    Rows are filled from ``comp.post`` the first time a layer meets their
    action.  ``slot`` maps an action code to its row plus one, 0 while not
    yet filled, so rows take memory only for actions met.  A row shorter
    than the widest repeats its first cell, which leaves a union as it is;
    ``empty`` marks the actions without a move.
    """

    def __init__(self, comp, idx: int, radix: int, place: np.ndarray):
        cols = [idx] + [j - 1 for j in comp.neighbors]
        self.comp = comp
        self.radix = radix
        self.place = place[idx]
        self.cols_place = place[cols]
        self.action_place = place[len(place) - len(cols):]  # radix ** (k-1 .. 0)
        self.slot = np.zeros(radix ** len(cols), dtype=np.int32)
        self.rows = np.zeros((0, 1), dtype=np.int64)
        self.empty = np.zeros(0, dtype=bool)

    def lookup(self, layer: np.ndarray) -> np.ndarray:
        """Row of the agent's action in each joint state coded in ``layer``."""
        codes = (layer[:, None] // self.cols_place % self.radix) @ self.action_place
        slot = self.slot[codes]
        new = np.sort(codes[slot == 0])
        if len(new):
            self._fill(new[np.r_[True, new[1:] != new[:-1]]])
            slot = self.slot[codes]
        return slot - 1

    def _fill(self, codes: np.ndarray):
        """Append the rows of the distinct action codes ``codes``."""
        actions = codes[:, None] // self.action_place % self.radix
        posts = list(map(self.comp.post, map(tuple, actions.tolist())))
        lens = np.fromiter(map(len, posts), dtype=np.intp, count=len(posts))
        # a trailing cell for an empty post at the end, which is never read
        flat = np.fromiter(itertools.chain(*posts, (0,)), dtype=np.int64)
        width = max(self.rows.shape[1], int(lens.max()))
        if width > self.rows.shape[1]:
            pad = np.repeat(self.rows[:, :1], width - self.rows.shape[1], axis=1)
            self.rows = np.hstack([self.rows, pad])
        col = np.arange(width)
        at = (np.cumsum(lens) - lens)[:, None] + np.where(col < lens[:, None], col, 0)
        self.rows = np.vstack([self.rows, flat[at] * self.place])
        self.empty = np.concatenate([self.empty, lens == 0])
        first = len(self.empty) - len(posts) + 1
        self.slot[codes] = np.arange(first, first + len(posts))


def _image(agents, size: int, layer: np.ndarray, scratch: list) -> np.ndarray:
    """Sorted codes, below ``size``, of every successor of the joint states
    coded in ``layer``.

    A joint state's successors are every combination of the agents' posts,
    so their codes are the sums of one row cell per agent; they are marked
    in a bitmap of every code, ``_CHUNK`` sums at a time.  The partial sums
    go into the two buffers of ``scratch`` in turn, so a chunk allocates no
    array of its size.
    """
    slots = [agent.lookup(layer) for agent in agents]
    stuck = np.zeros(len(layer), dtype=bool)
    for agent, slot in zip(agents, slots):
        stuck |= agent.empty[slot]
    slots = [slot[~stuck] for slot in slots]
    widths = [agent.rows.shape[1] for agent in agents]
    chunk = max(1, _CHUNK // math.prod(widths))
    seen = np.zeros(size, dtype=bool)
    for lo in range(0, len(slots[0]), chunk):
        total = 0  # broadcast to (chunk, width of agent 1, ..., of agent N)
        for i, (agent, slot) in enumerate(zip(agents, slots)):
            shape = [-1] + [1] * len(agents)
            shape[1 + i] = widths[i]
            term = agent.rows[slot[lo:lo + chunk]].reshape(shape)
            total = _add_into(scratch, i % 2, total, term)
        seen[total] = True
    return np.flatnonzero(seen)


def _add_into(scratch: list, k: int, a, b: np.ndarray) -> np.ndarray:
    """``a + b`` written into a view of ``scratch[k]``, grown to fit."""
    shape = np.broadcast_shapes(np.shape(a), b.shape)
    n = math.prod(shape)
    if len(scratch[k]) < n:
        scratch[k] = np.empty(max(n, _CHUNK), dtype=np.int64)
    return np.add(a, b, out=scratch[k][:n].reshape(shape))
