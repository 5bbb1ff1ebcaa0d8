import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossim.mobility import AreaRect
from gossim.radio import MAX_SLOTS, RadioParams, SpatialGrid, delivery_probability

from oracles import sample_receivers

DEFAULT = RadioParams(r=3.0, R=5.0, p_min=0.3)


class TestDeliveryProbability:
    def test_certain_inside_small_radius(self):
        assert delivery_probability(0.0, DEFAULT) == 1.0
        assert delivery_probability(2.999, DEFAULT) == 1.0

    def test_zero_beyond_max_radius(self):
        assert delivery_probability(5.001, DEFAULT) == 0.0
        assert delivery_probability(100.0, DEFAULT) == 0.0

    def test_boundaries_are_continuous(self):
        assert delivery_probability(3.0, DEFAULT) == pytest.approx(1.0, abs=1e-12)
        assert delivery_probability(5.0, DEFAULT) == pytest.approx(0.3, abs=1e-12)

    def test_midband_value(self):
        # frozen oracle: p_min - sqrt(0.5)*(0.5 - 5)*(1 - p_min)/4 at d = 4
        assert delivery_probability(4.0, DEFAULT) == pytest.approx(
            0.8568465901844062, abs=1e-12
        )

    def test_negative_distance_is_a_bug(self):
        with pytest.raises(AssertionError):
            delivery_probability(-0.1, DEFAULT)

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_monotone_nonincreasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert delivery_probability(lo, DEFAULT) >= delivery_probability(hi, DEFAULT) - 1e-12

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_range(self, d):
        p = delivery_probability(d, DEFAULT)
        assert 0.0 <= p <= 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        RadioParams(r=5.0, R=3.0, p_min=0.3)
    with pytest.raises(ValueError):
        RadioParams(r=1.0, R=2.0, p_min=0.0)
    with pytest.raises(ValueError):
        RadioParams(r=0.0, R=2.0, p_min=0.3)


@pytest.mark.parametrize(
    "r, R, p_min",
    [
        (3.0, math.inf, 0.3),  # else delivery_probability is NaN between r and R
        (-math.inf, 5.0, 0.3),
        (math.nan, 5.0, 0.3),
        (3.0, math.nan, 0.3),
        (3.0, 5.0, math.nan),
    ],
)
def test_params_must_be_finite(r, R, p_min):
    with pytest.raises(ValueError, match=r"^r, R and p_min must be finite$"):
        RadioParams(r=r, R=R, p_min=p_min)


def test_empirical_frequency_matches_probability():
    d = 4.3
    p = delivery_probability(d, DEFAULT)
    assert 0.0 < p < 1.0
    rng = random.Random(7)
    n = 100_000
    positions = {0: (0.0, 0.0), 1: (d, 0.0)}
    hits = sum(1 in sample_receivers(0, positions, DEFAULT, rng) for _ in range(n))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_sample_receivers_skips_draws_at_extremes():
    rng = random.Random(1)
    positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (50.0, 0.0)}
    before = rng.getstate()
    got = sample_receivers(0, positions, DEFAULT, rng)
    assert got == {1}
    # both neighbours sit at probability 1 and 0: no randomness consumed
    assert rng.getstate() == before


@st.composite
def _fields(draw):
    """A cell size, one to three areas (negative origins, walls on cell
    boundaries, gaps between them), nodes placed in them and query points
    in them.  A coordinate is uniform, on a cell boundary or on a wall:
    the walk never leaves its area, which the fold tests in
    test_mobility.py check."""
    cell = draw(st.floats(1.0, 20.0))
    origin = st.one_of(st.floats(-200.0, 200.0), st.integers(-40, 40).map(lambda k: k * cell))
    side = st.one_of(st.floats(0.5, 60.0), st.integers(1, 6).map(lambda k: k * cell))
    areas = []
    for _ in range(draw(st.integers(1, 3))):
        x0 = draw(origin)
        y0 = draw(origin)
        w = draw(side)
        h = draw(side)
        areas.append(AreaRect(x0, y0, x0 + w, y0 + h))

    def coord(lo, hi):
        how = draw(st.sampled_from(["uniform", "wall", "boundary"]))
        if how == "wall":
            return draw(st.sampled_from([lo, hi]))
        first, last = math.ceil(lo / cell), math.floor(hi / cell)
        if how == "boundary" and first <= last:
            k = draw(st.integers(first, last))
            if lo <= k * cell <= hi:
                return k * cell
        return draw(st.floats(lo, hi))

    def point():
        a = draw(st.sampled_from(areas))
        return coord(a.x_min, a.x_max), coord(a.y_min, a.y_max)

    nodes = [point() for _ in range(draw(st.integers(1, 40)))]
    queries = [point() for _ in range(draw(st.integers(1, 10)))]
    return cell, areas, nodes, queries


@st.composite
def _moved(draw, cell, areas, point):
    """Where a node at `point` is at the next rebuild: the same cell, one
    to six cells over along each axis within its area, on a wall of any
    area, or anywhere in any area."""
    x, y = point
    home = next(a for a in areas if a.x_min <= x <= a.x_max and a.y_min <= y <= a.y_max)
    how = draw(st.sampled_from(["stay", "shift", "wall", "anywhere"]))
    if how == "stay":
        cx, cy = x // cell * cell, y // cell * cell
        return (
            draw(st.floats(max(cx, home.x_min), min(cx + cell, home.x_max))),
            draw(st.floats(max(cy, home.y_min), min(cy + cell, home.y_max))),
        )
    if how == "shift":
        k = draw(st.integers(1, 6))
        dx, dy = draw(st.integers(-k, k)), draw(st.integers(-k, k))
        return (
            min(max(x + dx * cell, home.x_min), home.x_max),
            min(max(y + dy * cell, home.y_min), home.y_max),
        )
    a = draw(st.sampled_from(areas))
    if how == "wall":
        return draw(st.sampled_from([a.x_min, a.x_max])), draw(st.sampled_from([a.y_min, a.y_max]))
    return draw(st.floats(a.x_min, a.x_max)), draw(st.floats(a.y_min, a.y_max))


def _in_3x3(cell, nodes, qx, qy):
    """Brute force: the nodes at most one cell from (qx, qy) on each axis."""
    cx, cy = qx // cell, qy // cell
    return [
        node for node, (x, y) in enumerate(nodes)
        if abs(x // cell - cx) <= 1 and abs(y // cell - cy) <= 1
    ]


class TestSpatialGrid:
    def test_never_misses_within_radius(self):
        rng = random.Random(3)
        pts = [(rng.uniform(-40, 40), rng.uniform(-40, 40)) for _ in range(300)]
        grid = SpatialGrid(DEFAULT.R, [AreaRect(-40.0, -40.0, 40.0, 40.0)])
        grid.rebuild(pts)
        for qx, qy in pts[:50]:
            cand = set(grid.candidates(qx, qy))
            for node, (x, y) in enumerate(pts):
                if math.hypot(x - qx, y - qy) <= DEFAULT.R:
                    assert node in cand

    @given(_fields())
    @settings(max_examples=200, deadline=None)
    def test_candidates_are_the_3x3_cells(self, field):
        """Exactly the nodes whose cell is at most one cell away on each
        axis, each once: the set that radio.candidates_examined counts."""
        cell, areas, nodes, queries = field
        grid = SpatialGrid(cell, areas)
        assert grid.cell == cell  # small boxes keep the cell size
        # the areas' cell box plus the one ring that the probe reads
        cols = max(a.x_max for a in areas) // cell - min(a.x_min for a in areas) // cell + 3
        rows = max(a.y_max for a in areas) // cell - min(a.y_min for a in areas) // cell + 3
        assert len(grid.slots) == cols * rows
        # a rebuild forgets the nodes of the one before
        grid.rebuild(list(reversed(nodes)))
        grid.rebuild(nodes)
        for qx, qy in queries:
            assert grid.candidates(qx, qy) == _in_3x3(cell, nodes, qx, qy)

    @given(_fields(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_candidates_follow_moving_nodes(self, field, data):
        """One grid over 2 to 6 rebuilds of the same nodes, each node
        staying in its cell, crossing one or more cells or landing on a
        wall between them.  After every rebuild the same points are asked
        twice, so cached unions are reused, and each answer is exactly the
        3x3 nodes.  A rebuild with another node count starts the grid over:
        it forgets every node of the rebuild before."""
        cell, areas, nodes, queries = field
        grid = SpatialGrid(cell, areas)
        layouts = [nodes]
        for _ in range(data.draw(st.integers(1, 5))):
            layouts.append([data.draw(_moved(cell, areas, p)) for p in layouts[-1]])
        layouts += [nodes + nodes[:3], nodes[1:]]  # more nodes, then fewer
        for layout in layouts:
            grid.rebuild(layout)
            for qx, qy in queries + queries:
                assert grid.candidates(qx, qy) == _in_3x3(cell, layout, qx, qy)

    def test_slot_list_is_bounded(self):
        """A field of 10^6 m per side widens the cells rather than ask for
        3.7e10 slots; wider cells still never miss a node within R."""
        field = AreaRect(0.0, 0.0, 1e6, 1e6)
        grid = SpatialGrid(DEFAULT.R, [field])
        assert len(grid.slots) <= MAX_SLOTS
        assert grid.cell >= DEFAULT.R
        pts = [(0.0, 0.0), (DEFAULT.R, 0.0), (1e6, 1e6), (1e6 - 3.0, 1e6 - 4.0)]
        grid.rebuild(pts)
        assert {0, 1} <= set(grid.candidates(0.0, 0.0))
        assert {2, 3} <= set(grid.candidates(1e6, 1e6))

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_grid_sampling_equals_brute_force(self, seed, n):
        """Grid-filtered sampling must match sample_receivers draw for draw."""
        place = random.Random(seed)
        positions = {
            i: (place.uniform(-30.0, 30.0), place.uniform(-30.0, 30.0))
            for i in range(n)
        }
        expected = sample_receivers(0, positions, DEFAULT, random.Random(99))

        grid = SpatialGrid(DEFAULT.R, [AreaRect(-30.0, -30.0, 30.0, 30.0)])
        grid.rebuild([positions[i] for i in range(n)])
        rng = random.Random(99)
        sx, sy = positions[0]
        got = set()
        for node in sorted(grid.candidates(sx, sy)):
            if node == 0:
                continue
            x, y = positions[node]
            prob = delivery_probability(math.hypot(x - sx, y - sy), DEFAULT)
            if prob >= 1.0 or (prob > 0.0 and rng.random() < prob):
                got.add(node)
        assert got == expected
