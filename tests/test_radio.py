import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossim.radio import RadioParams, SpatialGrid, delivery_probability

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


class TestSpatialGrid:
    def test_never_misses_within_radius(self):
        rng = random.Random(3)
        pts = [(i, rng.uniform(-40, 40), rng.uniform(-40, 40)) for i in range(300)]
        grid = SpatialGrid(DEFAULT.R)
        grid.rebuild(pts)
        for qi, qx, qy in pts[:50]:
            cand = set(grid.candidates(qx, qy))
            for node, x, y in pts:
                if math.hypot(x - qx, y - qy) <= DEFAULT.R:
                    assert node in cand

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

        grid = SpatialGrid(DEFAULT.R)
        grid.rebuild((i, x, y) for i, (x, y) in positions.items())
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
