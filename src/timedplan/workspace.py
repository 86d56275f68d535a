"""Workspace geometry: box cells, grid decompositions, point location, and
per-agent service labelings.

Cells are axis-aligned boxes partitioning a bounding box.  Membership uses
half-open faces [lo, hi) with the global upper face closed, so every point
of the workspace lands in exactly one cell.  Cell indices are 1-based and
follow the construction order (grids: lexicographic by grid coordinate).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import BoundsMismatch, CellSizeTooLarge, OutOfBounds

EPS_GEO = 1e-9


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise BoundsMismatch("lo/hi dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if not b > a:
                raise BoundsMismatch(f"degenerate box extent [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    @property
    def diameter(self) -> float:
        return math.sqrt(sum((b - a) ** 2 for a, b in zip(self.lo, self.hi)))

    def contains(self, p, eps: float = 0.0) -> bool:
        """Closed-box membership with optional inflation."""
        return all(a - eps <= x <= b + eps for x, a, b in zip(p, self.lo, self.hi))

    def distance(self, p) -> float:
        """Euclidean distance from p to the closed box (0 inside)."""
        acc = 0.0
        for x, a, b in zip(p, self.lo, self.hi):
            if x < a:
                acc += (a - x) ** 2
            elif x > b:
                acc += (x - b) ** 2
        return math.sqrt(acc)


def boxes_contain(lo, hi, p, eps: float = 0.0) -> np.ndarray:
    """``Box.contains`` over arrays whose last axis holds coordinates: one
    verdict per point, against its own box's corners ``lo`` and ``hi``."""
    return np.all((lo - eps <= p) & (p <= hi + eps), axis=-1)


def boxes_distance(lo, hi, p) -> np.ndarray:
    """``Box.distance`` over arrays whose last axis holds coordinates, with
    the same per-axis squared gaps summed in axis order.

    ``float_power`` squares through libm's ``pow`` as Python's ``** 2``
    does; numpy's ``** 2`` multiplies, which rounds differently.
    """
    gap = np.where(p < lo, lo - p, np.where(p > hi, p - hi, 0.0))
    acc = np.zeros(gap.shape[:-1])
    for k in range(gap.shape[-1]):
        acc += np.float_power(gap[..., k], 2)
    return np.sqrt(acc)


@dataclass(frozen=True)
class CellDecomposition:
    """A grid partition of a bounding box; ``cuts`` holds each axis's cut
    points, lower face first, and gives O(log) location."""

    bounds: Box
    cells: tuple[Box, ...]
    cuts: tuple[tuple[float, ...], ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def dim(self) -> int:
        return self.bounds.dim

    @property
    def diameter(self) -> float:
        return max(c.diameter for c in self.cells)

    def cell(self, index: int) -> Box:
        if not 1 <= index <= len(self.cells):
            raise OutOfBounds(f"cell index {index} not in 1..{len(self.cells)}")
        return self.cells[index - 1]

    def center(self, index: int) -> tuple[float, ...]:
        return self.cell(index).center


def grid_shape(lo, hi, cell_size: float) -> tuple[int, ...]:
    """Cells per axis of ``grid`` over the box [lo, hi]."""
    return tuple(max(1, math.ceil((b - a) / cell_size - EPS_GEO)) for a, b in zip(lo, hi))


def grid(bounds: Box, cell_size: float) -> CellDecomposition:
    """Uniform grid with ragged clipping at the upper faces.

    Each axis is cut every ``cell_size`` starting at the lower face; a final
    shorter cell absorbs the remainder.  Requires cell_size <= every side.
    """
    if cell_size <= 0:
        raise CellSizeTooLarge("cell size must be positive")
    for a, b in zip(bounds.lo, bounds.hi):
        if cell_size > (b - a) + EPS_GEO:
            raise CellSizeTooLarge(
                f"cell size {cell_size} exceeds workspace side {b - a}"
            )
    shape = grid_shape(bounds.lo, bounds.hi, cell_size)
    axes = [
        tuple([a + k * cell_size for k in range(count)] + [b])
        for a, b, count in zip(bounds.lo, bounds.hi, shape)
    ]
    # a cell picks one (lo, hi) interval per axis; the last axis runs fastest
    intervals = [tuple(zip(cuts, cuts[1:])) for cuts in axes]
    cells = tuple(Box(*zip(*cell)) for cell in itertools.product(*intervals))
    return CellDecomposition(bounds=bounds, cells=cells, cuts=tuple(axes))


def locate(dec: CellDecomposition, p) -> int:
    """Index (1-based) of the unique cell owning p under the half-open rule."""
    p = tuple(float(x) for x in p)
    if len(p) != dec.dim:
        raise BoundsMismatch(f"point dimension {len(p)} != workspace dimension {dec.dim}")
    if not dec.bounds.contains(p):
        raise OutOfBounds(f"point {p} outside workspace bounds")
    index = 0
    for x, cuts in zip(p, dec.cuts):
        j = bisect_right(cuts, x) - 1
        if j >= len(cuts) - 1:  # closed top face
            j = len(cuts) - 2
        index = index * (len(cuts) - 1) + j
    return index + 1


class ServiceLabeling:
    """Per-agent map from cell index to the service set offered there.

    Service alphabets must be disjoint across agents, which keeps joint
    labels unambiguous when unioned.
    """

    def __init__(self, assignments: dict[int, dict[int, frozenset[str]]]):
        self._by_agent = {
            int(agent): {int(c): frozenset(s) for c, s in cells.items() if s}
            for agent, cells in assignments.items()
        }
        seen: dict[str, int] = {}
        for agent in sorted(self._by_agent):
            for services in self._by_agent[agent].values():
                for s in services:
                    if s in seen and seen[s] != agent:
                        raise BoundsMismatch(
                            f"service {s!r} claimed by agents {seen[s]} and {agent}"
                        )
                    seen[s] = agent

    def label(self, agent: int, cell: int) -> frozenset[str]:
        return self._by_agent.get(agent, {}).get(cell, frozenset())

    def alphabet(self, agent: int) -> frozenset[str]:
        out = set()
        for services in self._by_agent.get(agent, {}).values():
            out |= services
        return frozenset(out)
