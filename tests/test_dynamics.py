import math
from fractions import Fraction

import numpy as np
import pytest

from timedplan import dynamics
from timedplan.dynamics import (
    condition_constants,
    coupling,
    integrate_closed,
    lyapunov,
    relative_norm,
)
from timedplan.errors import C1Violated, DimensionMismatch, InputBoundViolated
from timedplan.graphs import CommGraph, build_graph, theorem1_constants

from helpers import rand_capped_graph, rand_connected_graph, reference_coupling, rk4_step


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
    assert np.allclose(coupling(g, x)[..., 1, :], expect)
    assert np.allclose(coupling(g, x)[..., 0, :], x[1] - x[0])
    # consistency with the integrator's vector field -Lx
    flat = -(g.laplacian() @ x)
    for i in (1, 2, 3):
        assert np.allclose(coupling(g, x)[..., i - 1, :], flat[i - 1])


def test_coupling_sums_each_agents_neighbors_in_order():
    """On random graphs of 1-5 agents with degrees 0-3, every agent's drift
    is its own neighbor sum in neighbor order, bit for bit, for one agent
    set and for each set of a batch."""
    rng = np.random.default_rng(34)
    degrees, kinds = set(), set()
    for _ in range(600):
        g = rand_capped_graph(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)))
        degrees.update(g.degree(i) for i in range(1, g.n_agents + 1))
        kinds.update(type(own) for own, _ in g.neighbor_slots)
        lead = tuple(int(k) for k in rng.integers(0, 4, size=int(rng.integers(0, 3))))
        x = rng.normal(size=lead + (g.n_agents, int(rng.integers(1, 4))))
        x *= 10.0 ** float(rng.integers(-3, 3))
        got = coupling(g, x)
        assert got.shape == x.shape
        assert np.array_equal(got, reference_coupling(g, x))
        for k in np.ndindex(lead):
            assert np.array_equal(got[k], coupling(g, x[k]))
    assert degrees == {0, 1, 2, 3}
    # consecutive agents of a slot are read as a slice, the others by index
    assert kinds == {slice, np.ndarray}


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
        got = coupling(g, xs)[..., i - 1, :]
        assert got.shape == (7, 2)
        assert np.array_equal(got, np.stack([coupling(g, x)[..., i - 1, :] for x in xs]))


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


def rand_graph(rng, n):
    """A connected random graph of ``n`` agents; one agent alone when n is 1."""
    return rand_connected_graph(rng, n) if n > 1 else CommGraph(1, ())


def rand_lead(rng):
    """A batch shape: none, ``(k,)`` or ``(j, k)``."""
    return tuple(int(k) for k in rng.integers(1, 5, size=int(rng.integers(0, 3))))


def test_the_affine_step_is_rk4_to_rounding():
    """One step of ``integrate_closed`` under a held input against RK4's
    four stages (``helpers.rk4_step``) on random graphs of 1-6 agents,
    batches, dimensions 1-3 and steps from 1/4000 to 1/10: the two differ
    by a few roundings of the positions' scale, and batch shapes (), (k,)
    and (j, k) all occur."""
    rng = np.random.default_rng(36)
    leads = set()
    for _ in range(800):
        n = int(rng.integers(1, 7))
        g = rand_graph(rng, n)
        lead = rand_lead(rng)
        leads.add(len(lead))
        h = Fraction(1, int(rng.integers(10, 4001)))
        x = rng.normal(size=lead + (n, int(rng.integers(1, 4))))
        x *= 10.0 ** float(rng.integers(-3, 4))
        v = rng.normal(size=x.shape) * 10.0 ** float(rng.integers(-3, 4))
        got = integrate_closed(g, x, lambda t, y: v, h, h, v_max=np.inf).final()
        want = rk4_step(g.laplacian(), x, v, float(h))
        scale = np.abs(x).max() + float(h) * np.abs(v).max()
        assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * scale
    assert leads == {0, 1, 2}


def test_a_2d_batch_on_a_random_graph_integrates_as_each_set_alone():
    """A ``(j, k)`` batch of agent sets on random graphs under a
    state-dependent law gives each set's own run, bit for bit."""
    rng = np.random.default_rng(37)

    def law(t, x):
        return 0.5 * np.tanh(x - t) / np.sqrt(3.0)

    for _ in range(20):
        n = int(rng.integers(1, 7))
        g = rand_graph(rng, n)
        xs = rng.normal(size=(int(rng.integers(1, 4)), int(rng.integers(1, 5)), n, 3))
        batch = integrate_closed(g, xs, law, Fraction(1, 40), Fraction(1, 4), v_max=1.0)
        assert batch.states.shape == (11,) + xs.shape
        for jk in np.ndindex(xs.shape[:2]):
            one = integrate_closed(g, xs[jk], law, Fraction(1, 40), Fraction(1, 4), 1.0)
            assert np.array_equal(batch.states[(slice(None),) + jk], one.states)


def test_input_norms_equal_linalg_norm_bit_for_bit():
    """The bound's norms are ``np.linalg.norm``'s over the last axis, bit
    for bit, NaN and inf rows included, on random batches with zero rows."""
    rng = np.random.default_rng(76)
    for _ in range(300):
        v = rng.normal(size=rand_lead(rng) + (int(rng.integers(1, 7)), int(rng.integers(1, 4))))
        v *= 10.0 ** rng.integers(-150, 150, size=v.shape[:-1] + (1,))
        flat = v.reshape(-1, v.shape[-1])
        for bad in (0.0, np.nan, np.inf, -np.inf):
            flat[rng.random(len(flat)) < 0.2] = bad
        flat[rng.random(flat.shape) < 0.05] = np.nan
        assert np.array_equal(dynamics._norms(v), np.linalg.norm(v, axis=-1), equal_nan=True)


def test_integration_reads_the_laplacian_once_per_call(monkeypatch):
    """The step map is built once per call, however many steps it takes."""
    g = path3()
    reads = []
    laplacian = CommGraph.laplacian

    def counted(self):
        reads.append(1)
        return laplacian(self)

    monkeypatch.setattr(CommGraph, "laplacian", counted)
    for steps in (1, 7, 60):
        reads.clear()
        traj = integrate_closed(g, np.ones((2, 3, 2)), zero_law, Fraction(1, steps), 1, 1.0)
        assert len(traj.times) == steps + 1
        assert len(reads) == 1, steps


@pytest.mark.parametrize("shape", [(4, 2, 2), (3, 4, 2), (2,), (4, 3)])
def test_wrong_agent_axis_rejected(shape):
    g = path3()
    with pytest.raises(DimensionMismatch):
        coupling(g, np.zeros(shape))
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


@pytest.mark.parametrize("lead", [(), (3,)])
def test_a_nan_input_is_refused_naming_the_agent(lead):
    """A NaN norm fails the bound test, unbatched and batched, where a NaN
    beside an input over the bound is named first."""
    g = build_graph(2, [(1, 2)])
    x0 = np.zeros(lead + (2, 2))
    with pytest.raises(InputBoundViolated, match="agent 1 input norm nan is not a number"):
        integrate_closed(g, x0, lambda t, x: np.full_like(x, np.nan), Fraction(1, 20), 1, 1.0)

    def half_nan(t, x):
        v = np.zeros_like(x)
        v[..., 0, 0] = 5.0  # agent 1 of every set, over the bound
        v.reshape(-1, 2, 2)[-1, 1, 1] = np.nan  # agent 2 of the last set
        return v

    with pytest.raises(InputBoundViolated, match="agent 2 input norm nan"):
        integrate_closed(g, x0, half_nan, Fraction(1, 20), 1, 1.0)


def test_empty_batch_integrates_to_an_empty_trajectory():
    g = path3()
    empty = np.zeros((0, 3, 2))
    traj = integrate_closed(g, empty, zero_law, Fraction(1, 10), 1, v_max=1.0)
    assert traj.states.shape == (11, 0, 3, 2)
    assert traj.times == tuple(Fraction(k, 10) for k in range(11))
