"""Run synthesis: from per-agent tasks to one executable joint plan.

The cheap route works per agent — compile each task to an automaton, search
the agent's own abstraction (with its moves pooled over every neighbor
configuration, an over-approximation), and keep the first combination of
the found lassos whose joint lasso is a run of the product.  Each
combination's joint positions are walked in order and it is dropped at its
first move that is not a product transition, each distinct move asked of
the product once per call; only a combination with no such move is
projected and zipped into one joint lasso and checked in full.
Combinations are walked lazily, so only the lassos some combination reads
are built, and each agent's product is explored only until the anchors of
those lassos are met.  An agent's emptiness is read off its product, never
off the lassos ``r_selec`` lets it enumerate.  When no combination is a
run, the exact route searches the joint product against the intersection
automaton and projects its accepting lasso back to the agents.  Every joint
accepting lasso projects to an accepting lasso of each agent's own product,
so the exact route explores those completely and synchronizes the joint
product from them, kept to joint nodes from which every agent can still
reach an accepting cycle; that keeps its verdict, and its budget counts
kept nodes only.  Agents must provide disjoint services, so that a joint
move is one move of each agent's product.  Tasks outside the compilable
fragment fall back to bounded generate-and-check, which can find plans but
can never prove their absence.
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

from .buchi import BuchiWTS, SyncProduct, enumerate_accepting, find_accepting, project_run
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

    def steps(self):
        """(source, target) joint moves along stem plus one full cycle."""
        out = []
        for j in range(len(self.joint)):
            out.append((self.joint.state(j), self.joint.state(j + 1)))
        return out


def zip_runs(runs) -> TimedRun:
    """The joint lasso of per-agent lassos.

    Each run is unrolled to the longest stem and to the lcm of the cycle
    lengths, and the runs are zipped position by position.  Raises
    ``LengthMismatch`` when two runs sojourn differently at some position.
    """
    stem = max(r.stem_len for r in runs)
    span = range(stem + math.lcm(*(r.cycle_len for r in runs)))
    at = [list(map(r.canon, span)) for r in runs]  # each run's index per position
    durations = [runs[0].durations[k] for k in at[0]]
    for i, (r, ks) in enumerate(zip(runs[1:], at[1:]), start=2):
        if [r.durations[k] for k in ks] != durations:
            raise LengthMismatch(f"run {i} sojourns differently from run 1")
    states = zip(*([r.states[k] for k in ks] for r, ks in zip(runs, at)))
    return TimedRun(tuple(states), tuple(durations), stem)


def synthesize(g, wts_list, formulas, r_selec: int = 100, max_states=None):
    """Find a joint plan whose projections satisfy every agent's task.

    The per-agent route reads one accepting lasso per agent at a time, up
    to ``r_selec`` combinations, and returns the first combination that is
    a run of the product (``_joint_run``); the joint route runs only when
    none is.  Returns a Plan, or Infeasible when provably no joint run
    works.  Raises BudgetExceeded when a state or candidate budget ran out
    first.
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
    for (i, a), (j, b) in itertools.combinations(enumerate(comps, start=1), 2):
        if a.alphabet & b.alphabet:
            raise AlphabetMismatch(
                f"agents {i} and {j} both provide services "
                f"{sorted(a.alphabet & b.alphabet)}"
            )

    try:
        tbas = [mitl_to_tba(f, alphabet=c.alphabet) for f, c in zip(formulas, comps)]
    except UnsupportedFragment:
        return _generate_and_check(comps, formulas, r_selec, max_states)

    agents, lassos = [], []
    for i, (c, a) in enumerate(zip(comps, tbas), start=1):
        b = BuchiWTS(c, a, max_states)
        agents.append(b)
        lassos.append(enumerate_accepting(b))
        if b.anchor(0) is None:
            # the pooled-moves view over-approximates the agent's behaviour
            # in any joint run, so emptiness here is conclusive; it is read
            # off the walk, which ran to the end without an anchor, not off
            # ``lasso(0)``, which would build a lasso r_selec = 0 never reads
            return Infeasible(
                f"agent {i} has no run satisfying its task even in isolation",
                agent=i,
            )

    p = product(comps)
    # systems off the graph's neighbor lists make check_consistent raise,
    # so their combinations skip the walk and go to it as they are
    agree = all(
        tuple(c.neighbors) == tuple(g.neighbors(i)) for i, c in enumerate(comps, start=1)
    )
    verdicts = {} if agree else None
    combos = 0
    for runs in itertools.islice(_combinations(lassos), r_selec):
        combos += 1
        joint = _joint_run(runs, g, p, verdicts)
        if joint is not None:
            return Plan(joint, "independent", combos)

    # every joint accepting lasso projects to one of each agent's product,
    # so the joint product is synchronized from those, each explored
    # completely by ``live``, kept to nodes every agent can still accept from
    b = SyncProduct(p, intersect(*tbas), agents, max_states)
    run = find_accepting(b)
    if run is None:
        return Infeasible("no joint run satisfies every task together")
    return Plan(project_run(run), "joint-product", combos)


def _joint_run(lassos, g, p: ProductWTS, verdicts):
    """The joint lasso of the agents' accepting lassos ``lassos`` when it is
    a run of the product ``p``, else None, as ``zip_runs`` of their
    projections and ``check_consistent`` against ``g`` and ``p`` decide it,
    and raising what they raise.

    When the sojourns are all ``p``'s quantum and ``verdicts`` is a dict,
    neither can raise, so the joint moves are walked first by
    ``_clashes``, which keeps each move's verdict in ``verdicts``, and a
    combination with a clashing move is dropped unzipped.  ``verdicts`` is
    None where the systems' neighbor lists are not ``g``'s.
    """
    if (
        verdicts is not None
        and all(r.durations.count(p.dt) == len(r.durations) for r in lassos)
        and _clashes(lassos, p, verdicts)
    ):
        return None
    joint = zip_runs([project_run(r) for r in lassos])
    return joint if check_consistent(joint, g, p) else None


def _clashes(lassos, p: ProductWTS, verdicts: dict) -> bool:
    """Whether some move of the joint lasso that ``zip_runs`` makes of the
    system runs of ``lassos`` (a node's system state is ``node[0]``) is not
    a transition of ``p``, the closing move too.  Positions are walked in
    order, to the longest stem plus the lcm of the cycle lengths, and the
    walk stops at the first clash; a move's verdict is read from
    ``verdicts`` when it is there and kept there when it is not.
    """
    stem = max(r.stem_len for r in lassos)
    end = stem + math.lcm(*(r.cycle_len for r in lassos))
    src = tuple([r.states[0][0] for r in lassos])
    # unrolled position ``end`` is position ``stem`` of every run: the closing move
    for j in range(1, end + 1):
        dst = tuple([r.states[r.canon(j)][0] for r in lassos])
        ok = verdicts.get((src, dst))
        if ok is None:
            ok = verdicts[src, dst] = p.has_transition(src, dst)
        if not ok:
            return True
        src = dst
    return False


def _combinations(runs):
    """Tuples of one run per agent, in ``itertools.product`` order:
    ``runs[a](k)`` is agent ``a``'s run ``k``, and ``IndexError`` past its
    last.  Run ``k`` of an agent is read only when the walk reaches it, so
    each product is walked only as far as the anchors of the runs some
    tuple holds; ``runs`` keeps what it reads, since the walk reads a later
    agent's runs again for each of an earlier agent's.  Assumes that every
    agent has run 0, as ``synthesize`` returns ``Infeasible`` first: an
    agent without runs still gives no tuple, but only once every run of
    the agents before it was read.
    """
    if not runs:
        yield ()
        return
    for k in itertools.count():
        try:
            run = runs[0](k)
        except IndexError:
            return
        for rest in _combinations(runs[1:]):
            yield (run, *rest)


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
    parent = dict(bfs_order(initial, succ))
    order = list(parent)
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
    and saturate at the speed cap, every agent at once through one
    ``coupling`` call.  ``dst`` is an array of target cells, one per agent
    along its last axis: one joint state for positions ``x`` of shape
    ``(N, n)``, or any leading shape that broadcasts against a batch ``x``
    of shape ``(..., N, n)``.  Works under sample-and-hold, so the
    remaining time in the denominator never reaches zero.
    """
    dt = disc.dt
    v_max = disc.v_max

    def controller(dst):
        lo, hi = disc.dec.corners(dst)
        targets = 0.5 * (lo + hi)  # Box.center's arithmetic, cell by cell

        def law(t, x):
            remain = float(dt - t)
            if remain <= 0.0:
                remain = float(dt) * 1e-6
            return saturate((targets - x) / remain - coupling(g, x), v_max)

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
    (largest cell + 1), agent 1 most significant, and a layer is the bitmap
    of its codes.  When there are more codes than ``_BITMAP_CAP``, layers
    are sets of joint tuples instead.  A layer that holds the one before it
    adds to itself only the image of its new states.  A layer equal to the
    one before it is a fixed point of the image, so its count repeats for
    every step left.
    """
    t0 = time.perf_counter()
    n = p.n_agents
    radix = 1 + max(max(itertools.chain(c.states, c.initial)) for c in p.components)
    if radix ** n > _BITMAP_CAP:
        layer = set(p.initial)
        count, holds, minus, same = len, operator.le, operator.sub, operator.eq

        def image(layer):
            return set(itertools.chain.from_iterable(map(p.successors, layer)))
    else:
        place = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
        layer = np.zeros(radix ** n, dtype=bool)
        layer[np.array(sorted(p.initial), dtype=np.int64).reshape(-1, n) @ place] = True
        same = np.array_equal

        def count(a):
            return int(np.count_nonzero(a))

        def minus(a, b):
            return a & ~b

        def holds(a, b):
            return not minus(a, b).any()

        def image(layer):
            return _image(p.components, radix, place, layer)
    counts = [count(layer)]
    prev = None
    for k in range(steps):
        # layer = image(prev), so prev <= layer gives
        # image(layer) = layer | image(layer - prev)
        if prev is not None and holds(prev, layer):
            nxt = layer | image(minus(layer, prev))
        else:
            nxt = image(layer)
        counts.append(count(nxt))
        if max_states is not None and counts[-1] > max_states:
            raise BudgetExceeded(
                f"reachable layer passed {max_states} states", count=counts[-1]
            )
        if same(nxt, layer):
            counts.extend([counts[-1]] * (steps - 1 - k))
            break
        prev, layer = layer, nxt
    return LayerStats(tuple(counts), time.perf_counter() - t0)


_BITMAP_CAP = 1 << 26  # most joint codes whose layers are coded as bitmaps
_CHUNK = 1 << 18  # about this many summed successor codes at once
# joint states whose posts are built at once: a row of 9 cells keeps their
# arrays below the 128 KiB mmap threshold, so the heap reuses them
_ROWS = 1 << 10


def _image(comps, radix: int, place: np.ndarray, layer: np.ndarray) -> np.ndarray:
    """Bitmap of every successor of the joint states marked in ``layer``.

    A joint state's successors are every combination of the agents' posts,
    so their codes are the sums of one cell per agent's ``post_rows`` row,
    scaled by the agent's place; the rows repeat a cell to one width, which
    leaves the sums' set as it is.  Rows are built for ``_ROWS`` states at
    a time and cached nowhere; their sums are marked ``_CHUNK`` at a time.
    """
    cols = [[i] + [j - 1 for j in c.neighbors] for i, c in enumerate(comps)]
    codes = np.flatnonzero(layer)
    seen = np.zeros_like(layer)
    for lo in range(0, len(codes), _ROWS):
        cells = codes[lo:lo + _ROWS, None] // place % radix
        rows = [c.post_rows(cells[:, col]) for c, col in zip(comps, cols)]
        moves = np.logical_and.reduce([r[:, 0] >= 0 for r in rows])
        # one line per row cell, states last: the sums run along the states
        rows = [(r[moves] * at).T.copy() for r, at in zip(rows, place)]
        step = max(1, _CHUNK // math.prod(map(len, rows)))
        for a in range(0, rows[0].shape[1], step):
            total = 0  # broadcast to (width of agent 1, ..., of agent N, states)
            for i, r in enumerate(rows):
                shape = [1] * len(rows) + [-1]
                shape[i] = len(r)
                total = total + r[:, a:a + step].reshape(shape)
            seen[total] = True
    return seen
