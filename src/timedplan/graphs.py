"""Communication graphs: spectra, incidence structure, and the constants
that size the relative-state invariant set.

Agents are numbered 1..N.  Edges are undirected, stored as sorted pairs in
a fixed total order, and orient the incidence matrix as +1 at the smaller
endpoint.  The graph Laplacian is built as D @ D.T so every spectral
quantity refers to the same operator the relative-state map uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    DuplicateEdge,
    IndexOutOfRange,
    MarginNotAboveOne,
    SelfLoop,
)

_EIG_RESIDUAL = 1e-8


@dataclass(frozen=True)
class CommGraph:
    n_agents: int
    edges: tuple[tuple[int, int], ...]

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = []
        for a, b in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return tuple(sorted(out))

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    @cached_property
    def neighbor_slots(self) -> tuple[tuple[slice | np.ndarray, np.ndarray], ...]:
        """Every agent's neighbors, slot by slot: pair ``s`` holds the
        0-based agents with more than ``s`` neighbors, a slice when they are
        consecutive, and an array of each one's ``s``-th neighbor (0-based)
        in ``neighbors`` order."""
        rows = [[j - 1 for j in self.neighbors(i)] for i in range(1, self.n_agents + 1)]
        slots = []
        for s in range(max(map(len, rows), default=0)):
            own = [i for i, row in enumerate(rows) if len(row) > s]
            nbr = np.array([rows[i][s] for i in own])
            consecutive = own[-1] - own[0] == len(own) - 1
            slots.append((slice(own[0], own[-1] + 1) if consecutive else np.array(own), nbr))
        return tuple(slots)

    def incidence(self) -> np.ndarray:
        """N x |E| incidence matrix, +1 at the smaller endpoint of each edge."""
        d = np.zeros((self.n_agents, len(self.edges)))
        for k, (a, b) in enumerate(self.edges):
            d[a - 1, k] = 1.0
            d[b - 1, k] = -1.0
        return d

    def laplacian(self) -> np.ndarray:
        d = self.incidence()
        return d @ d.T


@dataclass(frozen=True)
class SpectralData:
    lambda2: float
    lambda_max: float
    incidence_norm: float


@dataclass(frozen=True)
class BoundParams:
    v_max: float
    k1: float
    k2: float
    r_bar: float

    def __post_init__(self):
        if not self.r_bar > self.k2 * self.v_max:
            raise MarginNotAboveOne(
                f"invariant radius {self.r_bar} must strictly exceed "
                f"k2*v_max = {self.k2 * self.v_max}"
            )


@dataclass(frozen=True)
class Lemma2Report:
    component_slacks: tuple[float, ...]
    norm_slack: float
    tolerance: float = 1e-9

    @property
    def ok(self) -> bool:
        return self.norm_slack >= -self.tolerance and all(
            s >= -self.tolerance for s in self.component_slacks
        )


def build_graph(n_agents: int, edges) -> CommGraph:
    """Validate and freeze an undirected communication graph.

    Requires n_agents >= 2, endpoints in 1..N, no self-loops, no duplicate
    edges (in either orientation), and connectivity.
    """
    if n_agents < 2:
        raise ValueError(f"need at least 2 agents, got {n_agents}")
    seen = set()
    norm_edges = []
    for e in edges:
        a, b = int(e[0]), int(e[1])
        if not (1 <= a <= n_agents and 1 <= b <= n_agents):
            raise IndexOutOfRange(f"edge ({a},{b}) references an unknown agent")
        if a == b:
            raise SelfLoop(f"agent {a} cannot neighbor itself")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed more than once")
        seen.add(key)
        norm_edges.append(key)
    norm_edges.sort()
    g = CommGraph(n_agents, tuple(norm_edges))
    _check_connected(g)
    return g


def _check_connected(g: CommGraph):
    reached = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for i in frontier:
            for j in g.neighbors(i):
                if j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(reached) != g.n_agents:
        missing = sorted(set(range(1, g.n_agents + 1)) - reached)
        raise DisconnectedGraph(
            f"communication graph must be connected; unreachable agents {missing}"
        )


def spectral(g: CommGraph) -> SpectralData:
    """Laplacian spectrum summary: algebraic connectivity, top eigenvalue,
    and the incidence-transpose operator norm (= sqrt of the top eigenvalue).

    Eigenpairs are residual-checked to 1e-8 so downstream constants never
    ride on a silently failed solve.
    """
    lap = g.laplacian()
    evals, evecs = np.linalg.eigh(lap)
    for k in range(len(evals)):
        res = np.linalg.norm(lap @ evecs[:, k] - evals[k] * evecs[:, k])
        if res > _EIG_RESIDUAL:
            raise ArithmeticError(f"eigensolver residual {res} above {_EIG_RESIDUAL}")
    lam2 = float(evals[1])
    lam_max = float(evals[-1])
    if lam2 <= 1e-12:
        raise DisconnectedGraph("algebraic connectivity is zero")
    return SpectralData(lambda2=lam2, lambda_max=lam_max, incidence_norm=math.sqrt(lam_max))


def theorem1_constants(g: CommGraph, v_max: float, margin: float = 1.05) -> BoundParams:
    """Decay/drift constants and the invariant-set radius.

    k1 scales the quadratic decay of the disagreement energy, k2 the input
    drift; any radius strictly above k2*v_max is forward invariant, and the
    explicit ``margin`` (> 1) picks one.
    """
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    if not margin > 1.0:
        raise MarginNotAboveOne(f"margin must exceed 1, got {margin}")
    sp = spectral(g)
    n = g.n_agents
    k1 = sp.lambda2**2 / (2.0 * (n - 1))
    k2 = 2.0 * math.sqrt(n) * (n - 1) * sp.incidence_norm / sp.lambda2**2
    return BoundParams(v_max=v_max, k1=k1, k2=k2, r_bar=margin * k2 * v_max)


def _split(g: CommGraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    n_agents = g.n_agents
    if x.size == 0 or x.size % n_agents != 0:
        raise DimensionMismatch(
            f"state of length {x.size} is not a stack of {n_agents} equal blocks"
        )
    return x.reshape(n_agents, -1)


def lemma2_check(g: CommGraph, x) -> Lemma2Report:
    """Slack report for the two relative-state lower bounds.

    Per component k: ||L c(x,k)|| - lambda2 * ||c(x_perp,k)||, where x_perp
    removes the per-component mean.  Plus the aggregate slack
    ||x_perp|| - ||x_tilde|| / sqrt(2(N-1)).
    """
    pts = _split(g, x)
    n_agents = g.n_agents
    lap = g.laplacian()
    lam2 = spectral(g).lambda2
    perp = pts - pts.mean(axis=0, keepdims=True)
    comp_slacks = []
    for k in range(pts.shape[1]):
        col = pts[:, k]
        comp_slacks.append(
            float(np.linalg.norm(lap @ col) - lam2 * np.linalg.norm(perp[:, k]))
        )
    dt_kron = g.incidence().T
    xt = (dt_kron @ pts).reshape(-1)
    norm_slack = float(
        np.linalg.norm(perp) - np.linalg.norm(xt) / math.sqrt(2.0 * (n_agents - 1))
    )
    return Lemma2Report(tuple(comp_slacks), norm_slack)
