"""Discrete abstraction of the coupled dynamics over a cell decomposition.

The feasibility pair: a cell diameter is admissible when
    m_bound * l_combined * dt^2 - (1-lam) * v_max * dt + d_max <= 0
has real roots, i.e. d_max <= (1-lam)^2 v_max^2 / (4*M*L); the admissible
step quanta are exactly the closed interval between those roots.

A transition of agent i under an action (own cell, neighbor cells) leads to
every cell meeting the closed ball of radius lam*v_max*dt around the
nominal endpoint:  center(own) + dt * coupling(centers).  The candidate
cells come from an index range over the grid's cuts on each axis; the
closed-ball test then decides each candidate exactly as a scan would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dynamics import ConditionConstants
from .errors import (
    BallOutsideWorkspace,
    C1Violated,
    InfeasibleDiameter,
    LambdaOutOfRange,
    OutOfBounds,
    TimeStepOutOfRange,
)
from .graphs import CommGraph
from .rational import as_fraction
from .workspace import EPS_GEO, CellDecomposition, ServiceLabeling, locate

_FEAS_SLACK = 1e-12
# relative widening of a successor ball's per-axis index window; it dwarfs
# the rounding of the distance test, so no cell that passes it is missed
_WINDOW_SLACK = 1e-9


def _check_lambda(lam: float):
    if not 0.0 < lam < 1.0:
        raise LambdaOutOfRange(f"lambda must lie strictly inside (0,1), got {lam}")


def dmax_range(c: ConditionConstants, lam: float, v_max: float) -> tuple[float, float]:
    """Admissible cell diameters (0, d_hi]; d_hi = (1-lam)^2 v^2 / (4 M L)."""
    _check_lambda(lam)
    if not v_max < c.m_bound:
        raise C1Violated(f"needs v_max < m_bound, got {v_max} >= {c.m_bound}")
    d_hi = ((1.0 - lam) * v_max) ** 2 / (4.0 * c.m_bound * c.l_combined)
    return (0.0, d_hi)


def dt_range(
    d_max: float, c: ConditionConstants, lam: float, v_max: float
) -> tuple[float, float]:
    """Closed interval of feasible step quanta for cell diameter d_max.

    Roots of M*L*dt^2 - (1-lam)*v*dt + d_max, computed in the
    cancellation-free order (large root by formula, small root via the
    product identity) so containment under shrinking d_max is exact.
    """
    _check_lambda(lam)
    if d_max <= 0:
        raise ValueError(f"cell diameter must be positive, got {d_max}")
    a = c.m_bound * c.l_combined
    b = (1.0 - lam) * v_max
    disc = b * b - 4.0 * a * d_max
    if disc < 0:
        _, d_hi = dmax_range(c, lam, v_max)
        raise InfeasibleDiameter(
            f"diameter {d_max} exceeds the feasibility limit {d_hi}"
        )
    hi = (b + math.sqrt(disc)) / (2.0 * a)
    lo = d_max / (a * hi)
    return (lo, hi)


@dataclass(frozen=True)
class Discretization:
    """A validated (decomposition, step quantum, contraction factor) triple."""

    dec: CellDecomposition
    dt: Fraction
    lam: float
    constants: ConditionConstants
    v_max: float
    radius_shrink: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dt", as_fraction(self.dt))
        _check_lambda(self.lam)
        if self.radius_shrink < 0:
            raise ValueError("radius_shrink must be nonnegative")
        _, d_hi = dmax_range(self.constants, self.lam, self.v_max)
        if self.dec.diameter > d_hi + _FEAS_SLACK:
            raise InfeasibleDiameter(
                f"cell diameter {self.dec.diameter} exceeds the limit {d_hi}"
            )
        lo, hi = dt_range(self.dec.diameter, self.constants, self.lam, self.v_max)
        if not (lo - _FEAS_SLACK <= float(self.dt) <= hi + _FEAS_SLACK):
            raise TimeStepOutOfRange(
                f"time step dt = {float(self.dt)} outside the feasible range "
                f"[{lo}, {hi}] for cell diameter {self.dec.diameter}"
            )

    @property
    def radius(self) -> float:
        return max(self.lam * self.v_max * float(self.dt) - self.radius_shrink, 0.0)

    @cached_property
    def table(self) -> StepTable:
        """Per-cell constants the successor computation reads on every call."""
        return StepTable(
            centers=(None,) + tuple(c.center for c in self.dec.cells),
            h=float(self.dt),
            reach=self.radius + EPS_GEO,
        )


@dataclass(frozen=True)
class StepTable:
    """Cell centers (1-based, slot 0 unused), the float quantum, and the
    closed-ball threshold ``radius + EPS_GEO`` of one discretization."""

    centers: tuple
    h: float
    reach: float


def nominal_endpoint(disc: Discretization, action: tuple[int, ...]) -> tuple[float, ...]:
    """Euler endpoint from the own-cell center under center-valued coupling."""
    table = disc.table
    centers = table.centers
    n_cells = len(centers) - 1
    for c in action:
        if not 1 <= c <= n_cells:
            raise OutOfBounds(f"cell index {c} not in 1..{n_cells}")
    own = centers[action[0]]
    dim = len(own)
    drift = [0.0] * dim
    for nb in action[1:]:
        nc = centers[nb]
        for k in range(dim):
            drift[k] += nc[k] - own[k]
    h = table.h
    return tuple(own[k] + h * drift[k] for k in range(dim))


def successors(disc: Discretization, g: CommGraph, action: tuple[int, ...]) -> frozenset[int]:
    """Cells meeting the closed successor ball for ``action``.

    Nonempty whenever the ball overlaps the workspace (it always contains
    the cell owning the nominal endpoint when that point is in bounds);
    raises BallOutsideWorkspace otherwise.
    """
    dec = disc.dec
    x_hat = nominal_endpoint(disc, action)
    reach = disc.table.reach
    if dec.bounds.distance(x_hat) > reach:
        raise BallOutsideWorkspace(
            f"successor ball around {x_hat} misses the workspace"
        )
    cells = dec.cells
    # a cell meeting the ball overlaps the ball's extent on every axis;
    # flat indices grow in the lexicographic order ``locate`` uses
    candidates = [0]
    for x, cuts in zip(x_hat, dec.cuts):
        side = len(cuts) - 1
        pad = reach + _WINDOW_SLACK * (abs(x) + reach)
        first = max(bisect_left(cuts, x - pad) - 1, 0)
        stop = min(bisect_right(cuts, x + pad), side)
        candidates = [i * side + j for i in candidates for j in range(first, stop)]
    return frozenset(i + 1 for i in candidates if cells[i].distance(x_hat) <= reach)


class AgentWTS:
    """Weighted transition system of one agent over the cell decomposition.

    States are all cell indices; every transition takes exactly ``dt``.
    Actions are (own cell, neighbor cells in ascending agent order) and the
    transition relation is materialized lazily: ``post`` computes and caches
    one action's successor set, ``post_any`` the union over every neighbor
    configuration (used when the neighbors' moves are not yet committed).
    """

    def __init__(
        self,
        agent: int,
        disc: Discretization,
        g: CommGraph,
        labeling: ServiceLabeling,
        initial_cell: int,
    ):
        self.agent = agent
        self.disc = disc
        self.graph = g
        self.neighbors = g.neighbors(agent)
        self.dt = disc.dt
        self.n_states = disc.dec.n_cells
        self.initial = frozenset({initial_cell})
        self.alphabet = labeling.alphabet(agent)
        self._labels = {
            c: labeling.label(agent, c) for c in range(1, self.n_states + 1)
        }
        self._post: dict[tuple[int, ...], frozenset[int]] = {}
        self._post_any: dict[int, frozenset[int]] = {}
        # one shared object per distinct successor set: the
        # n_cells ** (1 + degree) actions have far fewer distinct sets
        self._sets: dict[frozenset[int], frozenset[int]] = {}

    @property
    def states(self) -> range:
        return range(1, self.n_states + 1)

    def label(self, cell: int) -> frozenset[str]:
        return self._labels[cell]

    def post(self, action: tuple[int, ...]) -> frozenset[int]:
        action = tuple(action)
        if len(action) != 1 + len(self.neighbors):
            raise ValueError(
                f"agent {self.agent} takes actions of arity {1 + len(self.neighbors)}"
            )
        got = self._post.get(action)
        if got is None:
            try:
                got = successors(self.disc, self.graph, action)
            except BallOutsideWorkspace:
                got = frozenset()  # exit attempts simply have no transition
            got = self._sets.setdefault(got, got)
            self._post[action] = got
        return got

    def post_any(self, cell: int) -> frozenset[int]:
        got = self._post_any.get(cell)
        if got is None:
            acc: set[int] = set()
            configs = [(cell,)]
            for _ in self.neighbors:
                configs = [c + (nb,) for c in configs for nb in self.states]
            for action in configs:
                acc |= self.post(action)
            got = frozenset(acc)
            self._post_any[cell] = got
        return got

    # protocol used by the acceptance-product builder
    def succ_weighted(self, cell: int):
        for nxt in sorted(self.post_any(cell)):
            yield nxt, self.dt


def build_wts(
    disc: Discretization,
    g: CommGraph,
    agent: int,
    initial_position,
    labeling: ServiceLabeling,
) -> AgentWTS:
    """Agent abstraction anchored at the cell owning ``initial_position``."""
    return AgentWTS(agent, disc, g, labeling, locate(disc.dec, initial_position))
