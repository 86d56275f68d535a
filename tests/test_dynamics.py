import math
from fractions import Fraction

import numpy as np
import pytest

from timedplan.dynamics import (
    condition_constants,
    coupling,
    integrate_closed,
    lyapunov,
    relative_norm,
)
from timedplan.errors import C1Violated, DimensionMismatch, InputBoundViolated
from timedplan.graphs import build_graph, theorem1_constants


def path3():
    return build_graph(3, [(1, 2), (2, 3)])


def expm_consensus(g, x0, t):
    """Closed-form zero-input solution via the Laplacian eigenbasis."""
    lap = g.laplacian()
    evals, evecs = np.linalg.eigh(lap)
    coef = evecs.T @ x0
    return evecs @ (np.exp(-evals * t)[:, None] * coef)


def zero_law(t, x):
    return np.zeros_like(x)


def test_coupling_is_neighbor_sum():
    g = path3()
    x = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    # agent 2 is pulled toward both neighbors: sum of (x_j - x_2)
    expect = (x[0] - x[1]) + (x[2] - x[1])
    assert np.allclose(coupling(g, x, 2), expect)
    assert np.allclose(coupling(g, x, 1), x[1] - x[0])
    # consistency with the integrator's vector field -Lx
    flat = -(g.laplacian() @ x)
    for i in (1, 2, 3):
        assert np.allclose(coupling(g, x, i), flat[i - 1])


def test_relative_norm_hand_value():
    g = path3()
    x = np.array([[-4.0, 4.0], [0.0, 6.0], [7.0, 0.0]])
    # edge differences (-4,-2) and (-7,6): 16+4+49+36 = 105
    assert relative_norm(g, x) ** 2 == pytest.approx(105.0, abs=1e-9)
    assert lyapunov(g, x) == pytest.approx(105.0, abs=1e-9)


def test_zero_input_matches_matrix_exponential():
    g = path3()
    x0 = np.array([[-4.0, 4.0], [0.0, 6.0], [7.0, 0.0]])
    traj = integrate_closed(g, x0, zero_law, Fraction(1, 100), 2, v_max=1.0)
    want = expm_consensus(g, x0, 2.0)
    assert np.allclose(traj.final(), want, atol=1e-8)
    assert traj.times[0] == 0 and traj.times[-1] == 2
    assert len(traj.times) == 201


def test_rk4_order():
    """Halving the step should shrink the endpoint error ~16x."""
    g = path3()
    x0 = np.array([[1.0], [0.0], [-2.0]])
    want = expm_consensus(g, x0, 1.0)
    errs = []
    for dt in (Fraction(1, 10), Fraction(1, 20)):
        traj = integrate_closed(g, x0, zero_law, dt, 1, v_max=1.0)
        errs.append(np.linalg.norm(traj.final() - want))
    assert errs[1] < errs[0] / 12.0


def test_input_bound_enforced():
    g = path3()
    x0 = np.zeros((3, 2))

    def bad(t, x):
        return np.tile([2.0, 0.0], (3, 1))

    with pytest.raises(InputBoundViolated):
        integrate_closed(g, x0, bad, Fraction(1, 10), 1, v_max=1.0)


def test_control_shape_checked():
    g = path3()
    with pytest.raises(DimensionMismatch):
        integrate_closed(
            g, np.zeros((3, 2)), lambda t, x: np.zeros((2, 2)), Fraction(1, 10), 1, 1.0
        )


def test_bad_horizon_rejected():
    g = path3()
    with pytest.raises(ValueError):
        integrate_closed(g, np.zeros((3, 1)), zero_law, Fraction(2, 7), 1, 1.0)


def test_condition_constants_path3():
    g = path3()
    bp = theorem1_constants(g, 1.0)
    c = condition_constants(g, bp)
    assert c.l1 == pytest.approx(math.sqrt(2.0))
    assert c.l2 == pytest.approx(2.0)
    # 3*2 + 4*sqrt(2)*sqrt(2) = 14
    assert c.l_combined == pytest.approx(14.0, abs=1e-9)
    assert c.m_bound == pytest.approx(12.6, abs=1e-9)


def test_condition_constants_single_edge():
    g = build_graph(2, [(1, 2)])
    c = condition_constants(g, theorem1_constants(g, 1.0))
    # 3*1 + 4*1*1 = 7
    assert c.l_combined == pytest.approx(7.0, abs=1e-9)


def test_c1_requires_speed_below_coupling_bound():
    g = build_graph(2, [(1, 2)])
    from timedplan.graphs import BoundParams

    # legal bound params (r_bar > k2*v_max) whose radius still sits below v_max
    with pytest.raises(C1Violated):
        condition_constants(g, BoundParams(v_max=2.0, k1=1.0, k2=0.4, r_bar=1.5))


def test_disagreement_decays_without_input():
    g = path3()
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(3, 2)) * 4.0
    traj = integrate_closed(g, x0, zero_law, Fraction(1, 50), 3, v_max=1.0)
    vals = [lyapunov(g, traj.states[k]) for k in range(0, len(traj.times), 25)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_batched_coupling_equals_single_calls():
    g = path3()
    xs = np.random.default_rng(3).normal(size=(7, 3, 2))
    for i in (1, 2, 3):
        got = coupling(g, xs, i)
        assert got.shape == (7, 2)
        assert np.array_equal(got, np.stack([coupling(g, x, i) for x in xs]))


def test_batched_integration_equals_single_runs():
    g = path3()
    xs = np.random.default_rng(4).normal(size=(5, 3, 2))

    def law(t, x):  # state-dependent, held per step, inside the bound
        return 0.5 * np.tanh(x + t) / np.sqrt(2.0)

    batch = integrate_closed(g, xs, law, Fraction(1, 20), 1, v_max=1.0)
    assert batch.states.shape == (21, 5, 3, 2)
    for k, x in enumerate(xs):
        one = integrate_closed(g, x, law, Fraction(1, 20), 1, v_max=1.0)
        assert one.times == batch.times
        assert np.array_equal(batch.states[:, k], one.states)


@pytest.mark.parametrize("shape", [(4, 2, 2), (3, 4, 2), (2,), (4, 3)])
def test_wrong_agent_axis_rejected(shape):
    g = path3()
    with pytest.raises(DimensionMismatch):
        coupling(g, np.zeros(shape), 1)
    with pytest.raises(DimensionMismatch):
        integrate_closed(g, np.zeros(shape), zero_law, Fraction(1, 10), 1, 1.0)


def test_batched_input_bound_names_the_agent():
    g = path3()

    def bad(t, x):
        v = np.zeros_like(x)
        v[2, 1, 0] = 2.0  # agent 2 of the third set
        return v

    with pytest.raises(InputBoundViolated, match="agent 2 "):
        integrate_closed(g, np.zeros((4, 3, 2)), bad, Fraction(1, 10), 1, v_max=1.0)
