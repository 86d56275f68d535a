import math

import numpy as np
import pytest

from timedplan.errors import (
    BoundsMismatch,
    CellSizeTooLarge,
    OutOfBounds,
)
from timedplan.workspace import (
    EPS_GEO,
    Box,
    ServiceLabeling,
    boxes_contain,
    boxes_distance,
    grid,
    locate,
)


def unit_square():
    return Box((0.0, 0.0), (1.0, 1.0))


def test_box_basics():
    b = Box((0.0, -1.0), (2.0, 1.0))
    assert b.dim == 2
    assert b.center == (1.0, 0.0)
    assert b.diameter == pytest.approx(math.sqrt(4 + 4))
    assert b.contains((0.0, -1.0)) and b.contains((2.0, 1.0))
    assert not b.contains((2.0001, 0.0))
    assert b.contains((2.0001, 0.0), eps=1e-3)
    assert b.distance((3.0, 0.0)) == pytest.approx(1.0)
    assert b.distance((1.0, 0.0)) == 0.0


def test_box_arrays_match_box_methods():
    """Membership and distance over arrays equal the scalar methods exactly,
    on points inside, outside and within EPS_GEO of the faces."""
    d = grid(Box((0.0, 0.0), (0.072, 0.06)), 0.012)
    rng = np.random.default_rng(6)
    cells = rng.integers(1, d.n_cells + 1, size=(4000, 2))
    lo = np.array([[d.cell(c).lo for c in row] for row in cells])
    hi = np.array([[d.cell(c).hi for c in row] for row in cells])
    pts = lo + rng.uniform(-0.5, 1.5, size=lo.shape) * (hi - lo)
    pts[::7] = hi[::7] + EPS_GEO / 2
    inside = boxes_contain(lo, hi, pts, eps=EPS_GEO)
    dist = boxes_distance(lo, hi, pts)
    assert inside.shape == dist.shape == (4000, 2)
    for j, row in enumerate(cells):
        for i, c in enumerate(row):
            p = tuple(pts[j, i])
            assert inside[j, i] == d.cell(c).contains(p, eps=EPS_GEO)
            assert dist[j, i] == d.cell(c).distance(p)
    assert inside.any() and not inside.all()


def test_box_distance_array_rounds_as_the_scalar_method():
    """Squares of the gaps round as Python's ``** 2`` does; numpy's own
    squaring differs in the last bit of about one distance in 6,000."""
    box = Box((0.0, 0.0), (0.012, 0.012))
    pts = np.random.default_rng(9).uniform(-0.012, 0.024, size=(100_000, 2))
    got = boxes_distance(np.array(box.lo), np.array(box.hi), pts)
    assert got.tolist() == [box.distance(tuple(q)) for q in pts.tolist()]


def test_box_rejects_inverted():
    with pytest.raises(Exception):
        Box((1.0,), (0.0,))


def test_grid_counts_and_clipping():
    d = grid(unit_square(), 0.5)
    assert d.n_cells == 4
    # ragged remainder: 0.4 splits 1.0 into 0.4,0.4,0.2 per axis
    d2 = grid(unit_square(), 0.4)
    assert d2.n_cells == 9
    sides = sorted(round(c.hi[0] - c.lo[0], 9) for c in d2.cells)
    assert sides[0] == pytest.approx(0.2)
    with pytest.raises(CellSizeTooLarge):
        grid(unit_square(), 1.5)
    with pytest.raises(CellSizeTooLarge):
        grid(unit_square(), 0.0)


def test_grid_diameter_is_max_cell_diagonal():
    d = grid(unit_square(), 0.5)
    assert d.diameter == pytest.approx(math.sqrt(0.5))


def test_locate_half_open_rule():
    d = grid(unit_square(), 0.5)
    # interior of first cell
    c00 = locate(d, (0.1, 0.1))
    # a shared face belongs to the higher cell except at the top boundary
    assert locate(d, (0.5, 0.1)) != c00
    assert locate(d, (1.0, 1.0)) == d.n_cells
    with pytest.raises(OutOfBounds):
        locate(d, (1.1, 0.0))


def test_locate_agrees_with_cell_membership():
    rng = np.random.default_rng(5)
    for hi in ((1.0, 0.7), (1.0, 0.7, 0.5)):
        d = grid(Box((0.0,) * len(hi), hi), 0.3)
        for _ in range(200):
            p = tuple(float(rng.uniform(0, h)) for h in hi)
            i = locate(d, p)
            assert d.cell(i).contains(p, eps=1e-12)


def test_cell_index_is_one_based():
    d = grid(unit_square(), 0.5)
    with pytest.raises(Exception):
        d.cell(0)
    assert d.cell(1).lo == (0.0, 0.0)
    assert d.cell(d.n_cells).center == (0.75, 0.75)


def test_corner_arrays_match_cell_boxes():
    for hi in ((1.0, 0.7), (1.0, 0.7, 0.5)):
        d = grid(Box((0.0,) * len(hi), hi), 0.3)
        cells = np.arange(1, d.n_cells + 1).reshape(-1, 1)
        lo, up = d.corners(cells)
        assert lo.shape == up.shape == (d.n_cells, 1, len(hi))
        for c, a, b in zip(cells[:, 0], lo[:, 0], up[:, 0]):
            assert tuple(a) == d.cell(c).lo and tuple(b) == d.cell(c).hi
            # the controller's targets: Box.center's arithmetic, bit for bit
            assert tuple(0.5 * (a + b)) == d.cell(c).center


@pytest.mark.parametrize("bad", [0, -1, 10])
def test_corner_arrays_reject_indices_outside_the_grid(bad):
    d = grid(unit_square(), 0.4)  # 9 cells
    with pytest.raises(OutOfBounds, match=f"cell index {bad} not in 1..9"):
        d.corners([[1, 2], [bad, 3]])
    with pytest.raises(OutOfBounds, match=f"cell index {bad} not in 1..9"):
        d.cell(bad)


def test_service_labeling_disjointness():
    lab = ServiceLabeling({1: {3: frozenset({"a"})}, 2: {5: frozenset({"b"})}})
    assert lab.label(1, 3) == {"a"}
    assert lab.label(1, 4) == frozenset()
    assert lab.alphabet(2) == {"b"}
    with pytest.raises(BoundsMismatch):
        ServiceLabeling({1: {3: frozenset({"a"})}, 2: {5: frozenset({"a"})}})
