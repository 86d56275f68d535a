"""Consensus-coupled single-integrator dynamics.

Each agent obeys  xdot_i = -sum_{j in N(i)} (x_i - x_j) + v_i  with
||v_i|| <= v_max.  Integration is classical fixed-step RK4 with inputs
sampled and held at the step resolution, so the step quantum stays an
exact rational and trajectory stamps never drift.

Positions are ``(N, n)`` arrays, one row per agent.  ``coupling`` and
``integrate_closed`` also take a batch ``(..., N, n)`` of independent
agent sets and treat each one exactly as they would alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import C1Violated, DimensionMismatch, IndexOutOfRange, InputBoundViolated
from .graphs import BoundParams, CommGraph
from .rational import as_fraction

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ConditionConstants:
    """Geometry-independent constants for sizing the abstraction.

    m_bound dominates the coupling norm on the invariant set, l1/l2 are the
    max sqrt-degree and max degree, l_combined the Lipschitz-style constant
    3*l2 + 4*l1*sqrt(N_i) maximized over agents.
    """

    m_bound: float
    l1: float
    l2: float
    l_combined: float


def _positions(g: CommGraph, x, batched: bool = True) -> np.ndarray:
    """``x`` as a float array of agent rows, ``(..., N, n)`` when batched."""
    pts = np.asarray(x, dtype=float)
    ok = pts.ndim >= 2 if batched else pts.ndim == 2
    if not ok or pts.shape[-2] != g.n_agents:
        lead = "..., " if batched else ""
        raise DimensionMismatch(
            f"expected an ({lead}{g.n_agents}, n) position array, got shape {pts.shape}"
        )
    return pts


def coupling(g: CommGraph, x, i: int) -> np.ndarray:
    """Drift term of agent i: -sum over neighbors of (x_i - x_j), one per
    agent set of the batch, summed in neighbor order."""
    pts = _positions(g, x)
    if not 1 <= i <= g.n_agents:
        raise IndexOutOfRange(f"agent {i} not in 1..{g.n_agents}")
    out = np.zeros(pts.shape[:-2] + pts.shape[-1:])
    for j in g.neighbors(i):
        out += pts[..., j - 1, :] - pts[..., i - 1, :]
    return out


def relative_norm(g: CommGraph, x) -> float:
    """Norm of the stacked edge differences (x_i - x_j over the edge order)."""
    pts = _positions(g, x, batched=False)
    acc = 0.0
    for a, b in g.edges:
        diff = pts[a - 1] - pts[b - 1]
        acc += float(diff @ diff)
    return math.sqrt(acc)


def lyapunov(g: CommGraph, x) -> float:
    """Disagreement energy; equals relative_norm squared."""
    return relative_norm(g, x) ** 2


def condition_constants(g: CommGraph, bounds: BoundParams) -> ConditionConstants:
    degrees = [g.degree(i) for i in range(1, g.n_agents + 1)]
    l1 = math.sqrt(max(degrees))
    l2 = float(max(degrees))
    l_comb = max(3.0 * l2 + 4.0 * l1 * math.sqrt(d) for d in degrees)
    m_bound = bounds.r_bar
    if not m_bound > bounds.v_max:
        raise C1Violated(
            f"coupling bound {m_bound} must strictly exceed v_max {bounds.v_max}"
        )
    return ConditionConstants(m_bound=m_bound, l1=l1, l2=l2, l_combined=l_comb)


@dataclass(frozen=True)
class Trajectory:
    times: tuple[Fraction, ...]
    states: np.ndarray  # (T+1, ..., N, n)

    def final(self) -> np.ndarray:
        return self.states[-1]


def _check_inputs(v: np.ndarray, v_max: float, t: float):
    norms = np.linalg.norm(v, axis=-1)
    worst = np.unravel_index(np.argmax(norms), norms.shape)
    if norms[worst] > v_max + _BOUND_SLACK:
        raise InputBoundViolated(
            f"agent {worst[-1] + 1} input norm {norms[worst]:.6g} exceeds {v_max} at t={t:.6g}"
        )


def _rk4_step(lap: np.ndarray, x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    def f(y):
        return -(lap @ y) + v

    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_count(horizon: Fraction, dt_sim: Fraction) -> int:
    ratio = as_fraction(horizon) / as_fraction(dt_sim)
    if ratio.denominator != 1 or ratio <= 0:
        raise ValueError(f"horizon {horizon} is not a positive multiple of dt_sim {dt_sim}")
    return int(ratio)


def integrate_closed(g, x0, control, dt_sim, horizon, v_max) -> Trajectory:
    """Fixed-step RK4 under a joint feedback law ``control(t, x)``.

    ``x0`` is one agent set ``(N, n)`` or a batch ``(..., N, n)``; the law
    returns inputs of the same shape, and the trajectory's states are
    ``(T+1,) + x0.shape``.  The law is sampled and held per step, matching
    how a digital controller would run against the continuous plant.
    """
    pts = _positions(g, x0).copy()
    dt_sim = as_fraction(dt_sim)
    horizon = as_fraction(horizon)
    steps = _step_count(horizon, dt_sim)
    lap = g.laplacian()
    h = float(dt_sim)

    times = [Fraction(0)]
    states = np.empty((steps + 1,) + pts.shape)
    states[0] = pts
    x = pts
    for k in range(steps):
        t = k * dt_sim
        v = np.asarray(control(float(t), x), dtype=float)
        if v.shape != pts.shape:
            raise DimensionMismatch(f"control returned shape {v.shape}, expected {pts.shape}")
        _check_inputs(v, v_max, float(t))
        x = _rk4_step(lap, x, v, h)
        states[k + 1] = x
        times.append(t + dt_sim)
    states.setflags(write=False)
    return Trajectory(tuple(times), states)
