"""Discrete abstraction of the coupled dynamics over a cell decomposition.

The feasibility pair: a cell diameter is admissible when
    m_bound * l_combined * dt^2 - (1-lam) * v_max * dt + d_max <= 0
has real roots, i.e. d_max <= (1-lam)^2 v_max^2 / (4*M*L); the admissible
step quanta are exactly the closed interval between those roots.

A transition of agent i under an action (own cell, neighbor cells) leads to
every cell meeting the closed ball of radius lam*v_max*dt around the
nominal endpoint:  center(own) + dt * coupling(centers).  On a grid the
endpoint's coordinate on each axis depends only on that axis's cell indices,
so per-axis tables hold each coordinate with its squared gap to every
interval in reach, and a cell passes when its gaps, summed in axis order as
``Box.distance`` sums them, stay within the squared radius.  Float addition
is monotone, so the union over every neighbor configuration (``post_any``)
takes the least gap per axis in closed form.  One ``AxisTable`` per
discretization owns both, keyed by action and by (cell, degree).
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import ConditionConstants
from .errors import (
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

    def __post_init__(self):
        object.__setattr__(self, "dt", as_fraction(self.dt))
        _check_lambda(self.lam)
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
        return self.lam * self.v_max * float(self.dt)

    @property
    def axes(self) -> AxisTable:
        """The successor sets every agent of this discretization shares.
        The table refers back here, so this link is weak (no cycle) and the
        agents, which hold the table, keep it alive and shared."""
        ref = self.__dict__.get("_axes")
        table = ref and ref()
        if table is None:
            table = AxisTable(self)
            object.__setattr__(self, "_axes", weakref.ref(table))
        return table


def _square_limit(reach: float) -> float:
    """Largest double whose square root is at most ``reach``, so that
    ``sqrt(a) <= reach`` holds exactly when ``a <= lim``."""
    lim = reach * reach
    while math.sqrt(lim) > reach:
        lim = math.nextafter(lim, 0.0)
    while math.sqrt(math.nextafter(lim, math.inf)) <= reach:
        lim = math.nextafter(lim, math.inf)
    return lim


class _AxisRows(dict):
    """Row memo of one axis, filled on first lookup.  The key is the axis
    indices of an action's cells (own, neighbors...); the row pairs every
    interval within ``lim`` of the endpoint coordinate with the squared gap
    ``Box.distance`` adds for it.  An interval enters as its share
    ``j * stride`` of the cell index (plus 1 on the first axis, so that the
    shares add up to the 1-based index)."""

    def __init__(self, cuts, h, lim, stride, offset):
        super().__init__()
        self.cuts = cuts
        self.centers = tuple(0.5 * (a + b) for a, b in zip(cuts, cuts[1:]))
        self.h = h
        self.lim = lim
        self.stride = stride
        self.offset = offset

    def __missing__(self, key):
        centers = self.centers
        own = centers[key[0]]
        drift = 0.0
        for nb in key[1:]:
            drift += centers[nb] - own
        x = own + self.h * drift
        row = []
        for j, (a, b) in enumerate(zip(self.cuts, self.cuts[1:])):
            gap = (a - x) ** 2 if x < a else (x - b) ** 2 if x > b else 0.0
            if gap <= self.lim:
                row.append((self.offset + j * self.stride, gap))
        row = self[key] = tuple(row)
        return row


class AxisTable:
    """Successor geometry of one discretization, one axis at a time.

    On a grid a cell is one interval per axis, and the endpoint's axis-k
    coordinate depends only on the axis-k indices of the action's cells,
    so ``rows[k]`` memoizes it per tuple of those indices.  A cell's
    distance is its intervals' squared gaps summed in axis order, and
    ``sqrt(a) <= reach`` is ``a <= lim``.  ``post`` caches successor sets
    by action and gives equal sets one shared object; ``post_any`` caches
    its closed form by cell and degree.
    """

    def __init__(self, disc: Discretization):
        self.disc = disc
        dec = disc.dec
        self.lim = _square_limit(disc.radius + EPS_GEO)
        self.sides = tuple(len(cuts) - 1 for cuts in dec.cuts)
        # cell indices are lexicographic in the axis indices, last axis fastest
        strides = [math.prod(self.sides[k + 1:]) for k in range(dec.dim)]
        self.rows = tuple(
            _AxisRows(cuts, float(disc.dt), self.lim, stride, int(k == 0))
            for k, (cuts, stride) in enumerate(zip(dec.cuts, strides))
        )
        self.index = dict(
            zip(range(1, dec.n_cells + 1), itertools.product(*map(range, self.sides)))
        )
        self._post: dict[tuple[int, ...], frozenset[int]] = {}
        self._sets: dict[frozenset[int], frozenset[int]] = {}
        self._post_any: dict[tuple[int, int], frozenset[int]] = {}

    def indices(self, action) -> list[tuple[int, ...]]:
        """Axis indices of each of the action's cells."""
        try:
            return [self.index[c] for c in action]
        except KeyError:
            bad = next(c for c in action if c not in self.index)
            raise OutOfBounds(f"cell index {bad} not in 1..{len(self.index)}") from None

    def within(self, per_axis) -> frozenset[int]:
        """Cells whose squared gaps, ``per_axis[k]`` holding axis k's
        (share, gap) pairs, sum to at most ``lim`` in axis order."""
        lim = self.lim
        acc = per_axis[0]
        if len(per_axis) == 1:
            return frozenset([b for b, _ in acc])
        for pairs in per_axis[1:-1]:
            acc = [(b + c, d + e) for b, d in acc for c, e in pairs if d + e <= lim]
        return frozenset([b + c for b, d in acc for c, e in per_axis[-1] if d + e <= lim])

    def post(self, action: tuple[int, ...]) -> frozenset[int]:
        """``successors`` of ``action``, cached and interned."""
        got = self._post.get(action)
        if got is None:
            got = successors(self.disc, action)
            got = self._post[action] = self._sets.setdefault(got, got)
        return got

    def post_any(self, cell: int, degree: int) -> frozenset[int]:
        """Union of ``post`` over every configuration of ``degree`` neighbors.

        Float addition is monotone, so the least summed gap of a cell over
        all configurations is the sum of each axis's least gap over that
        axis's ``side ** degree`` endpoint values.
        """
        got = self._post_any.get((cell, degree))
        if got is None:
            per_axis = []
            (own,) = self.indices((cell,))
            for rows, o, side in zip(self.rows, own, self.sides):
                least: dict[int, float] = {}
                for nbs in itertools.product(range(side), repeat=degree):
                    for b, gap in rows[(o,) + nbs]:
                        if gap < least.get(b, math.inf):
                            least[b] = gap
                per_axis.append(sorted(least.items()))
            got = self._post_any[(cell, degree)] = self.within(per_axis)
        return got


def successors(disc: Discretization, action: tuple[int, ...]) -> frozenset[int]:
    """Cells meeting the closed successor ball for ``action``.

    The cuts span the workspace bounds, so on each axis the nearest
    interval is exactly as far as the bounds are: the set is empty exactly
    when the ball misses the workspace (an exit attempt has no transition).
    """
    axes = disc.axes
    keys = zip(*axes.indices(action))
    return axes.within([rows[key] for rows, key in zip(axes.rows, keys)])


class AgentWTS:
    """Weighted transition system of one agent over the cell decomposition.

    States are all cell indices; every transition takes exactly ``dt``.
    Actions are (own cell, neighbor cells in ascending agent order).  The
    transition relation is the discretization's ``AxisTable``: ``post``
    looks one action's successor set up there, ``post_any`` the union over
    every neighbor configuration (used when the neighbors' moves are not
    yet committed).
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
        self.neighbors = g.neighbors(agent)
        self.dt = disc.dt
        self.n_states = disc.dec.n_cells
        self.initial = frozenset({initial_cell})
        self.alphabet = labeling.alphabet(agent)
        self._labels = {
            c: labeling.label(agent, c) for c in range(1, self.n_states + 1)
        }
        self._arity = 1 + len(self.neighbors)
        self._table = disc.axes

    @property
    def states(self) -> range:
        return range(1, self.n_states + 1)

    def label(self, cell: int) -> frozenset[str]:
        return self._labels[cell]

    def post(self, action: tuple[int, ...]) -> frozenset[int]:
        action = tuple(action)
        # before the lookup: the table also holds other agents' arities
        if len(action) != self._arity:
            raise ValueError(f"agent {self.agent} takes actions of arity {self._arity}")
        return self._table.post(action)

    def post_any(self, cell: int) -> frozenset[int]:
        """Union of ``post`` over every neighbor configuration."""
        return self._table.post_any(cell, self._arity - 1)

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
