import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from timedplan.abstraction import (
    AgentWTS,
    Discretization,
    _square_limit,
    build_wts,
    dmax_range,
    dt_range,
    successors,
)
from timedplan.dynamics import ConditionConstants, condition_constants
from timedplan.errors import (
    C1Violated,
    InfeasibleDiameter,
    LambdaOutOfRange,
    OutOfBounds,
    TimeStepOutOfRange,
)
from timedplan.graphs import build_graph, theorem1_constants
from timedplan.scenario import build, load_scenario
from timedplan.workspace import (
    EPS_GEO,
    Box,
    ServiceLabeling,
    grid,
    locate,
)

from helpers import enumerate_post_any, scan_successors


def consts(m=1.0, l_comb=14.0):
    return ConditionConstants(m_bound=m, l1=1.0, l2=1.0, l_combined=l_comb)


def quad(c, lam, v, dt, d):
    return c.m_bound * c.l_combined * dt * dt - (1.0 - lam) * v * dt + d


def test_dmax_formula():
    c = consts(m=2.0)
    lo, hi = dmax_range(c, 0.14, 1.0)
    assert lo == 0.0
    assert hi == pytest.approx(0.86**2 / (4 * 2 * 14), rel=1e-12)
    with pytest.raises(C1Violated):
        dmax_range(consts(m=1.0), 0.14, 1.0)  # v_max not strictly below M
    with pytest.raises(LambdaOutOfRange):
        dmax_range(c, 0.0, 0.5)
    with pytest.raises(LambdaOutOfRange):
        dmax_range(c, 1.0, 0.5)


def test_dt_range_reference_point():
    """Frozen endpoints for M=1, L=14, lam=0.14, v=1, d=0.01 (root
    cross-check: product = d/(M L), both endpoints kill the quadratic)."""
    c = consts()
    lo, hi = dt_range(0.01, c, 0.14, 1.0)
    assert lo == pytest.approx((0.86 - math.sqrt(0.1796)) / 28.0, rel=1e-13)
    assert hi == pytest.approx((0.86 + math.sqrt(0.1796)) / 28.0, rel=1e-13)
    assert lo == pytest.approx(0.01557886, abs=5e-8)
    assert hi == pytest.approx(0.04584972, abs=5e-8)
    assert abs(quad(c, 0.14, 1.0, lo, 0.01)) < 1e-12
    assert abs(quad(c, 0.14, 1.0, hi, 0.01)) < 1e-12
    assert lo * hi == pytest.approx(0.01 / 14.0, rel=1e-12)


def test_dt_range_interior_feasible():
    c = consts()
    lo, hi = dt_range(0.01, c, 0.14, 1.0)
    mid = 0.5 * (lo + hi)
    assert quad(c, 0.14, 1.0, mid, 0.01) < 0.0


def test_dt_range_rejects_oversized_diameter():
    c = consts(m=2.0)
    _, d_hi = dmax_range(c, 0.14, 1.0)
    with pytest.raises(InfeasibleDiameter):
        dt_range(d_hi * 1.01, c, 0.14, 1.0)
    with pytest.raises(ValueError):
        dt_range(0.0, c, 0.14, 1.0)


def test_refinement_widens_window():
    c = consts()
    lo1, hi1 = dt_range(0.01, c, 0.14, 1.0)
    lo2, hi2 = dt_range(0.004, c, 0.14, 1.0)
    assert lo2 <= lo1 and hi2 >= hi1


# -- geometric abstraction on a tiny workspace --------------------------------


def tiny_setup(lam=0.14):
    """Two agents on one edge, 3x3 grid sized inside the feasibility window."""
    g = build_graph(2, [(1, 2)])
    bp = theorem1_constants(g, v_max=1.0)
    c = condition_constants(g, bp)  # M=1.05, L=7
    _, d_hi = dmax_range(c, lam, 1.0)
    side = d_hi / math.sqrt(2.0) * 0.9
    bounds = Box((0.0, 0.0), (3 * side, 3 * side))
    dec = grid(bounds, side)
    lo, hi = dt_range(dec.diameter, c, lam, 1.0)
    disc = Discretization(dec, Fraction(0.5 * (lo + hi)).limit_denominator(10**6), lam, c, 1.0)
    return g, dec, disc


def test_discretization_validates_quantum():
    g, dec, disc = tiny_setup()
    lo, hi = dt_range(dec.diameter, disc.constants, disc.lam, 1.0)
    with pytest.raises(TimeStepOutOfRange):
        Discretization(dec, Fraction(hi * 1.5).limit_denominator(100), disc.lam, disc.constants, 1.0)
    with pytest.raises(TimeStepOutOfRange):
        Discretization(dec, Fraction(lo * 0.5).limit_denominator(100), disc.lam, disc.constants, 1.0)


def test_discretization_rejects_coarse_grid():
    g, dec, disc = tiny_setup()
    c = disc.constants
    _, d_hi = dmax_range(c, disc.lam, 1.0)
    big = grid(dec.bounds, d_hi)  # diagonal sqrt(2)*d_hi > d_hi
    with pytest.raises(InfeasibleDiameter):
        Discretization(big, disc.dt, disc.lam, c, 1.0)


def test_radius_formula():
    g, dec, disc = tiny_setup()
    assert disc.radius == pytest.approx(disc.lam * 1.0 * float(disc.dt))


def test_endpoint_stationary_when_neighbors_coincide():
    g, dec, disc = tiny_setup()
    # neighbor in the same cell: zero drift, endpoint = own center
    hit = successors(disc, (5, 5))
    assert locate(dec, dec.center(5)) in hit


def test_endpoint_drifts_toward_neighbor():
    disc = shipped_disc()
    dec = disc.dec
    own = np.array(dec.center(1))
    nb = np.array(dec.center(dec.n_cells))
    expect = own + float(disc.dt) * (nb - own)
    hit = successors(disc, (1, dec.n_cells))
    assert locate(dec, tuple(expect)) in hit
    reach = disc.radius + EPS_GEO
    assert hit == {i for i in range(1, dec.n_cells + 1) if dec.cell(i).distance(expect) <= reach}
    assert hit != successors(disc, (1, 1))  # the drift moved the ball


def test_successor_ball_is_distance_disk():
    g, dec, disc = tiny_setup()
    hit = successors(disc, (5, 5))
    x = np.array(dec.center(5))
    for i in range(1, dec.n_cells + 1):
        inside = dec.cell(i).distance(x) <= disc.radius + 1e-12
        assert (i in hit) == inside


def test_agent_wts_protocol():
    g, dec, disc = tiny_setup()
    lab = ServiceLabeling({1: {3: frozenset({"a"})}, 2: {}})
    w = build_wts(disc, g, 1, dec.center(5), lab)
    assert w.initial == {5}
    assert w.agent == 1 and w.neighbors == (2,)
    assert w.label(3) == {"a"} and w.label(5) == frozenset()
    assert w.alphabet == {"a"}
    with pytest.raises(ValueError):
        w.post((5,))  # arity: own cell plus one neighbor
    # post_any unions over all neighbor placements and covers post
    assert w.post((5, 9)) <= w.post_any(5)
    outs = dict(w.succ_weighted(5))
    assert set(outs) == set(w.post_any(5))
    assert all(v == disc.dt for v in outs.values())


def test_build_wts_rejects_outside_start():
    g, dec, disc = tiny_setup()
    lab = ServiceLabeling({1: {}, 2: {}})
    with pytest.raises(OutOfBounds):
        build_wts(disc, g, 1, (-1.0, 0.0), lab)


# -- successor balls from the axis tables, against a full scan -----------------


def loose_disc(dec, dt):
    """Discretization under small coupling constants, whose feasible quanta
    reach far enough (up to about 4.7 for 0.012 cells) that an extrapolated
    endpoint can leave the workspace."""
    c = ConditionConstants(m_bound=2.0, l1=1.0, l2=1.0, l_combined=0.1)
    return Discretization(dec, dt, 0.05, c, 1.0)


def shipped_disc():
    return build(load_scenario("scenarios/two_agent_services.cfg")).disc


DECOMPOSITIONS = {
    "uniform": lambda: grid(Box((0.0, 0.0), (0.072, 0.072)), 0.012),
    "ragged-wide": lambda: grid(Box((0.0, 0.0), (0.077, 0.0655)), 0.012),
    "ragged-tall": lambda: grid(Box((0.0, 0.0), (0.0605, 0.09)), 0.012),
    "ragged-offset": lambda: grid(Box((-0.031, 0.0125), (0.0305, 0.0707)), 0.012),
    "ragged-3d": lambda: grid(Box((0.0, -0.01, 0.0), (0.0365, 0.026, 0.03)), 0.012),
}


class Star:
    """Graph stand-in: agent 1 neighbors agents 2..1+degree, so an agent of
    any arity, degree 0 included, can be built on one decomposition."""

    def __init__(self, degree):
        self.degree = degree

    def neighbors(self, agent):
        return tuple(range(2, 2 + self.degree))


def agent_of_arity(disc, arity):
    return AgentWTS(1, disc, Star(arity - 1), ServiceLabeling({}), 1)


def agree(disc, action, agents):
    """``successors`` and ``post`` against the full scan; whether the ball
    met the workspace."""
    expect = scan_successors(disc, action)
    got = successors(disc, action)
    assert got == expect, (action, sorted(got), sorted(expect))
    assert agents[len(action)].post(action) == expect
    return "inside" if expect else "outside"


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_successors_match_full_scan(name):
    dec = DECOMPOSITIONS[name]()
    rng = np.random.default_rng(11)
    seen = set()
    for dt in (Fraction(1, 20), Fraction(1, 2), Fraction(2)):
        disc = loose_disc(dec, dt)
        agents = {arity: agent_of_arity(disc, arity) for arity in (1, 2, 3)}
        for _ in range(600):
            arity = int(rng.integers(1, 4))
            action = tuple(int(c) for c in rng.integers(1, dec.n_cells + 1, arity))
            seen.add(agree(disc, action, agents))
    assert seen == {"inside", "outside"}


def test_successors_match_full_scan_on_shipped_grid():
    disc = shipped_disc()
    agents = {arity: agent_of_arity(disc, arity) for arity in (1, 2, 3)}
    n = disc.dec.n_cells
    for own in range(1, n + 1):
        agree(disc, (own,), agents)
        for nb in range(1, n + 1):
            agree(disc, (own, nb), agents)
    rng = np.random.default_rng(5)
    for _ in range(500):
        agree(disc, tuple(int(c) for c in rng.integers(1, n + 1, 3)), agents)


def test_unknown_cells_raise_out_of_bounds():
    disc = shipped_disc()
    pair = agent_of_arity(disc, 2)
    for action in ((0,), (1, 37), (-1, 2)):
        with pytest.raises(OutOfBounds):
            successors(disc, action)
    for action in ((0, 1), (1, 37), (-1, 2)):
        with pytest.raises(OutOfBounds):
            pair.post(action)
    for cell in (0, 37, -1):
        with pytest.raises(OutOfBounds):
            pair.post_any(cell)


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_post_any_is_union_of_scans(name):
    """The closed form against one full scan per neighbor configuration:
    every cell at degrees 0 and 1, a few cells at degree 2."""
    dec = DECOMPOSITIONS[name]()
    n = dec.n_cells
    for dt in (Fraction(1, 20), Fraction(1, 2)):
        disc = loose_disc(dec, dt)
        scan = functools.partial(scan_successors, disc)
        for degree in (0, 1):
            w = agent_of_arity(disc, 1 + degree)
            for cell in range(1, n + 1):
                assert w.post_any(cell) == enumerate_post_any(scan, cell, n, degree)
    middle = agent_of_arity(disc, 3)
    for cell in (1, n // 2, n):
        assert middle.post_any(cell) == enumerate_post_any(scan, cell, n, 2)


def test_post_any_at_degree_three_reaches_outside():
    """Endpoints pushed out of the workspace add nothing to the union."""
    g, dec, disc = tiny_setup()
    disc = loose_disc(dec, Fraction(2))
    n = dec.n_cells
    scan = functools.partial(scan_successors, disc)
    assert scan((1, 9, 9, 9)) == frozenset()  # an exit configuration
    w = agent_of_arity(disc, 4)
    for cell in range(1, n + 1):
        assert w.post_any(cell) == enumerate_post_any(scan, cell, n, 3)


def grid_growth_disc(side):
    """The benchmark's grid-growth geometry: the shipped scenario's
    abstraction over a side x side grid of 0.012 cells."""
    base = shipped_disc()
    dec = grid(Box((0.0, 0.0), (0.012 * side, 0.012 * side)), 0.012)
    return Discretization(dec, base.dt, base.lam, base.constants, base.v_max)


@pytest.mark.parametrize("side", [6, 10, 16])
def test_post_any_matches_enumeration_on_grid_growth(side):
    disc = grid_growth_disc(side)
    n = disc.dec.n_cells
    pair = agent_of_arity(disc, 2)
    for cell in range(1, n + 1):
        assert pair.post_any(cell) == enumerate_post_any(pair.post, cell, n, 1)


@pytest.mark.parametrize("side", [6, 10, 16])
def test_post_matches_scan_on_grid_growth(side):
    disc = grid_growth_disc(side)
    n = disc.dec.n_cells
    pair = agent_of_arity(disc, 2)
    if side < 16:
        actions = [(own, nb) for own in range(1, n + 1) for nb in range(1, n + 1)]
    else:
        rng = random.Random(side)
        actions = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3000)]
    for action in actions:
        assert pair.post(action) == scan_successors(disc, action), action


def test_post_checks_arity_before_the_shared_cache():
    g, dec, disc = tiny_setup()
    path = build_graph(3, [(1, 2), (2, 3)])
    lab = ServiceLabeling({})
    pair = AgentWTS(1, disc, path, lab, 1)  # one neighbor
    middle = AgentWTS(2, disc, path, lab, 1)  # two neighbors
    assert pair.post((5, 9)) == scan_successors(disc, (5, 9))
    with pytest.raises(ValueError):
        middle.post((5, 9))
    assert middle.post((5, 9, 1)) == scan_successors(disc, (5, 9, 1))
    with pytest.raises(ValueError):
        pair.post((5, 9, 1))
    assert pair.post((5, 9)) is AgentWTS(1, disc, path, lab, 2).post((5, 9))


@pytest.mark.parametrize("reach", [1e-9, 0.007000001, 0.5, 1.0, 3.0, 12345.678])
def test_square_limit_brackets_reach(reach):
    rng = random.Random(reach)
    for r in (reach, reach * (1 + rng.random() * 1e-6), shipped_disc().radius + EPS_GEO):
        lim = _square_limit(r)
        assert math.sqrt(lim) <= r < math.sqrt(math.nextafter(lim, math.inf))
    disc = shipped_disc()
    assert disc.axes.lim == _square_limit(disc.radius + EPS_GEO)


def test_post_shares_equal_successor_sets():
    disc = shipped_disc()
    g = build_graph(2, [(1, 2)])
    w = AgentWTS(1, disc, g, ServiceLabeling({1: {}, 2: {}}), 1)
    n = disc.dec.n_cells
    by_set = {}
    for own in range(1, n + 1):
        for nb in range(1, n + 1):
            by_set.setdefault(scan_successors(disc, (own, nb)), []).append((own, nb))
    a, b = next(acts for acts in by_set.values() if len(acts) > 1)[:2]
    assert w.post(a) is w.post(b)
    assert len({id(w.post(acts[0])) for acts in by_set.values()}) == len(by_set)


def test_post_any_is_shared_by_agents_of_equal_degree():
    """The table keys the closed form by cell and degree: the two ends of
    a path share one set, the middle agent gets its own."""
    g, dec, disc = tiny_setup()
    n = dec.n_cells
    path = build_graph(3, [(1, 2), (2, 3)])
    lab = ServiceLabeling({})
    end1, middle, end3 = (AgentWTS(i, disc, path, lab, 1) for i in (1, 2, 3))
    for cell in range(1, n + 1):
        assert end3.post_any(cell) is end1.post_any(cell)
        assert end1.post_any(cell) == enumerate_post_any(end1.post, cell, n, 1)
        assert middle.post_any(cell) == enumerate_post_any(middle.post, cell, n, 2)
    assert any(middle.post_any(c) != end1.post_any(c) for c in range(1, n + 1))
