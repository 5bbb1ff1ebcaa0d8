import math
import random
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gossim.mobility import (
    AreaRect,
    ContactTrace,
    MobilityParams,
    NodeMotion,
    TRACE_HEADER,
    load_trace,
)

from oracles import contacts_at, fold, walk

AREA = AreaRect(0.0, 0.0, 10.0, 10.0)

# (t_start, length, a, b offset) rows for contacts among nodes 0-4
_CONTACT_ROWS = st.lists(
    st.tuples(st.integers(0, 50), st.integers(1, 30), st.integers(0, 4), st.integers(1, 4)),
    min_size=1,
    max_size=25,
)


def _contacts(rows):
    """Contact rows (t_start, t_end, a, b) among nodes 0-4 from _CONTACT_ROWS."""
    return [(t0, t0 + length, a, (a + b) % 5) for t0, length, a, b in rows]


class TestFold:
    def test_inside_unchanged(self):
        assert fold(4.2, 0.0, 10.0) == 4.2

    def test_single_reflection(self):
        assert fold(11.0, 0.0, 10.0) == pytest.approx(9.0)
        assert fold(-2.0, 0.0, 10.0) == pytest.approx(2.0)

    def test_many_reflections(self):
        assert fold(47.0, 0.0, 10.0) == pytest.approx(7.0)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_always_in_bounds(self, u):
        assert 0.0 <= fold(u, 0.0, 10.0) <= 10.0

    @given(st.floats(min_value=0.0, max_value=200.0), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_tick_reflection(self, dt, v):
        """Analytic fold equals integrating the leg in tiny steps and
        mirroring each wall overshoot."""
        x, vel = 5.0, v
        steps = 400
        h = dt / steps
        for _ in range(steps):
            x += vel * h
            if x > 10.0:
                x, vel = 20.0 - x, -vel
            elif x < 0.0:
                x, vel = -x, -vel
        assert fold(5.0 + v * dt, 0.0, 10.0) == pytest.approx(x, abs=1e-6)


class TestParams:
    @pytest.mark.parametrize("bounds", [(0, 0, 0, 1), (0, 0, 1, 0), (2, 0, 1, 1), (0, 2, 1, 1)])
    def test_degenerate_area_rejected(self, bounds):
        with pytest.raises(ValueError, match="^degenerate area rectangle$"):
            AreaRect(*map(float, bounds))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("pause_max", -1.0, "pause_max must be >= 0"),
            ("leg_duration_min", 0.0, "leg duration range invalid"),
            ("leg_duration_min", 600.0, "leg duration range invalid"),  # above the max
            ("speed_min", 0.0, "speed range invalid"),
            ("speed_min", 3.0, "speed range invalid"),  # above the max
        ],
    )
    def test_mobility_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MobilityParams(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in fields(MobilityParams)])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_mobility_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="^mobility parameters must be finite$"):
            MobilityParams(**{field: value})


def _leg_end(area, start, velocity, dt):
    """Where a leg from `start` at `velocity` (per ms) is after `dt` ms:
    a NodeMotion with its leg state set directly."""
    m = NodeMotion(start, area, MobilityParams(), random.Random(0))
    m.vx, m.vy = velocity
    m.seg_start, m.seg_end, m.paused = 0.0, dt + 1.0, False
    return m.position_at(dt)


@st.composite
def _walls(draw):
    """(lo, hi) with negative, zero-straddling or non-representable bounds."""
    if draw(st.booleans()):
        lo, hi = -draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    else:
        lo, hi = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)))
        assume(lo < hi)
    return lo, hi


@st.composite
def _near_reflection(draw, lo, hi):
    """An unconstrained coordinate a few ulps from lo + k (hi - lo)."""
    u = lo + draw(st.integers(-3, 3)) * (hi - lo)
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        u = math.nextafter(u, math.copysign(math.inf, steps))
    return u


class TestNodeMotion:
    @pytest.mark.parametrize(
        "area, start, velocity, dt",
        [
            # x ends a few ulps below x_min; the fold returned -10.09781612246013
            (AreaRect(-10.097816122460074, 0.0, 328.1086877522648, 1.0),
             (0.0, 0.5), (-10.097816122460081, 0.0), 1.0),
            # x reaches x_max of an area straddling 0, where x_min + (x_max -
            # x_min) rounds past x_max; the fold returned 0.5442292252959646
            (AreaRect(-237.96462709189137, 0.0, 0.5442292252959519, 1.0),
             (-100.0, 0.5), ((0.5442292252959519 + 100.0) / 100.0, 0.0), 100.0),
        ],
        ids=["below-x-min", "past-x-max"],
    )
    def test_fold_at_a_wall_stays_in_area(self, area, start, velocity, dt):
        assert area.contains(*_leg_end(area, start, velocity, dt))

    @given(_walls(), _walls(), st.floats(0.0, 1.0), st.floats(1.0, 500.0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_fold_near_reflection_points_stays_in_area(self, xs, ys, f, dt, data):
        """A leg whose unconstrained end lies within a few ulps of a
        reflection point on each axis ends inside the area."""
        area = AreaRect(xs[0], ys[0], xs[1], ys[1])
        start = (min(xs[0] + f * (xs[1] - xs[0]), xs[1]), min(ys[0] + f * (ys[1] - ys[0]), ys[1]))
        ux = data.draw(_near_reflection(*xs))
        uy = data.draw(_near_reflection(*ys))
        velocity = ((ux - start[0]) / dt, (uy - start[1]) / dt)
        assert area.contains(*_leg_end(area, start, velocity, dt))

    @given(
        st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
        st.floats(0.01, 3.0), st.floats(0.01, 3.0),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.integers(0, 2**32),
        # each query is a step after the last one, or the end of the
        # segment that the last one fell in (a leg's or a pause's last instant)
        st.lists(st.tuples(st.integers(0, 3000), st.booleans()), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_walk(self, x0, y0, w, h, fx, fy, seed, steps):
        """position_at equals a segment-by-segment replay of the same
        draws, folded with the reference fold, bit for bit; areas of a
        few metres make legs cross the walls again and again."""
        area = AreaRect(x0, y0, x0 + w, y0 + h)
        start = (x0 + fx * w, y0 + fy * h)
        m = NodeMotion(start, area, MobilityParams(), random.Random(seed))
        times, got = [], []
        t = 0
        for step, at_end in steps:
            t = m.seg_end if at_end else t + step
            times.append(t)
            got.append(m.position_at(t))
        assert got == walk(start, area, MobilityParams(), random.Random(seed), times)

    @given(
        st.integers(0, 2**32),
        # whole-ms legs and no pauses put every seg_end on an int instant
        st.one_of(st.none(), st.integers(50, 500)),
        # each query: a short step, a long gap, a repeat of the last instant,
        # or the first int instant at or after the current segment's end
        st.lists(
            st.one_of(
                st.integers(1, 50), st.integers(1_000, 100_000), st.just(0), st.just("end")
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_query_times_match_int_ones(self, seed, leg_ms, steps):
        """Two walks from the same seed, one asked at int ms and one at
        the same instants as floats, give equal positions; a float one
        ulp before the last int instant is still a backwards query."""
        params = (
            MobilityParams() if leg_ms is None
            else MobilityParams(pause_max=0.0, leg_duration_min=leg_ms, leg_duration_max=leg_ms)
        )
        at_int = NodeMotion((5.0, 5.0), AREA, params, random.Random(seed))
        at_float = NodeMotion((5.0, 5.0), AREA, params, random.Random(seed))
        t = 0
        for step in steps:
            t = math.ceil(at_int.seg_end) if step == "end" else t + step
            assert at_int.position_at(t) == at_float.position_at(float(t))
        with pytest.raises(AssertionError, match="queried backwards"):
            at_int.position_at(math.nextafter(float(t), -math.inf))

    def test_stays_in_area(self):
        """A 1 m square crossed again and again over 60 s: every position
        is inside, and the node comes near both walls on each axis."""
        box = AreaRect(0.0, 0.0, 1.0, 1.0)
        m = NodeMotion((0.5, 0.5), box, MobilityParams(), random.Random(2))
        xs, ys = [], []
        for t in range(0, 60_000, 37):
            x, y = m.position_at(t)
            assert box.contains(x, y)
            xs.append(x)
            ys.append(y)
        assert min(xs) < 0.05 and max(xs) > 0.95
        assert min(ys) < 0.05 and max(ys) > 0.95

    def test_backwards_query_is_a_bug(self):
        m = NodeMotion((5.0, 5.0), AREA, MobilityParams(), random.Random(2))
        m.position_at(500)
        with pytest.raises(AssertionError):
            m.position_at(499)

    def test_repeat_query_is_stable(self):
        m = NodeMotion((5.0, 5.0), AREA, MobilityParams(), random.Random(5))
        assert m.position_at(1234) == m.position_at(1234)

    def test_initial_position_outside_rejected(self):
        with pytest.raises(ValueError):
            NodeMotion((11.0, 5.0), AREA, MobilityParams(), random.Random(0))

    def test_per_ms_displacement_bounded_by_speed(self):
        # huge area so folding never shortens a step
        big = AreaRect(-1e6, -1e6, 1e6, 1e6)
        params = MobilityParams()
        m = NodeMotion((0.0, 0.0), big, params, random.Random(9))
        prev = m.position_at(0)
        moved = 0.0
        for t in range(1, 20_000):
            cur = m.position_at(t)
            step = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            assert step <= params.speed_max / 1000.0 + 1e-9
            moved += step
            prev = cur
        # average speed over legs and pauses lands between the extremes
        mean_speed = moved / 20.0  # metres over 20 s
        assert params.speed_min * 0.5 < mean_speed < params.speed_max

    def test_pauses_happen(self):
        big = AreaRect(-1e6, -1e6, 1e6, 1e6)
        m = NodeMotion((0.0, 0.0), big, MobilityParams(), random.Random(4))
        prev = m.position_at(0)
        still = 0
        for t in range(1, 10_000):
            cur = m.position_at(t)
            if cur == prev:
                still += 1
            prev = cur
        assert still > 0


class TestContactTrace:
    def _trace(self):
        return ContactTrace([(10, 20, 0, 1), (15, 30, 1, 2)])

    def test_intervals_are_half_open(self):
        tr = self._trace()
        assert tr.partners(0, 10) == [1]
        assert tr.partners(0, 19.999) == [1]
        assert tr.partners(0, 20) == []
        assert tr.partners(0, 9.999) == []

    def test_partners_symmetric(self):
        tr = self._trace()
        assert tr.partners(1, 16) == [0, 2]
        assert tr.partners(2, 16) == [1]

    def test_contacts_at(self):
        tr = self._trace()
        assert contacts_at(tr, 16) == {(0, 1), (1, 2)}
        assert contacts_at(tr, 25) == {(1, 2)}

    @given(
        _CONTACT_ROWS,
        st.integers(0, 4),
        st.integers(0, 90),
    )
    @settings(max_examples=200, deadline=None)
    def test_partners_match_contacts_at(self, rows, node, t):
        # unsorted, overlapping and repeated contacts: partners() stops
        # scanning at the first interval that starts after t
        tr = ContactTrace(_contacts(rows))
        expected = sorted(
            b if a == node else a for a, b in contacts_at(tr, t) if node in (a, b)
        )
        assert tr.partners(node, t) == expected

    @given(
        _CONTACT_ROWS,
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.one_of(
                    st.integers(0, 90),
                    st.floats(0, 90, allow_nan=False),
                    st.integers(0, 90).map(float),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_memo_matches_contacts_at_for_any_query_order(self, rows, queries, data):
        # one trace queried many times: rising, repeated and backwards t,
        # int and float, and exactly on every interval boundary
        tr = ContactTrace(_contacts(rows))
        edges = sorted({t for t0, t1, _, _ in tr.intervals for t in (t0, t1)})
        rising = [(node, t) for t in edges for node in range(5)]
        mixed = data.draw(st.permutations(queries + rising))
        handed_out = []
        for node, t in mixed + rising + rising[::-1]:
            expected = sorted(
                b if a == node else a for a, b in contacts_at(tr, t) if node in (a, b)
            )
            got = tr.partners(node, t)
            assert got == expected, (node, t)
            # the cursor's own list: the same query within its piece gets it again
            assert tr.partners(node, t) is got, (node, t)
            handed_out.append((got, expected))
        # moving a cursor builds a new list and leaves the old ones as they were
        for got, expected in handed_out:
            assert got == expected

    def test_node_count(self):
        assert self._trace().node_count == 3

    def test_interval_validation(self):
        # a bad row fails wherever it sits among good ones
        for row, message in [
            ((10, 10, 0, 1), "malformed contact interval [10, 10)"),
            ((5, 10, 3, 3), "contact interval needs two distinct nodes"),
            ((10, 5, 0, 1), "malformed contact interval [10, 5)"),
            ((-1, 5, 0, 1), "malformed contact interval [-1, 5)"),
            ((0, 5, 0, -1), "negative node id"),
        ]:
            with pytest.raises(ValueError) as err:
                ContactTrace([(0, 5, 0, 1), row, (1, 2, 2, 3)])
            assert str(err.value) == message


class TestLoadTrace:
    def _write(self, tmp_path, rows):
        p = tmp_path / "trace.csv"
        p.write_text("\n".join([",".join(TRACE_HEADER)] + rows) + "\n")
        return p

    def test_round_trip(self, tmp_path):
        p = self._write(tmp_path, ["0,100,0,1", "50,200,1,2"])
        tr = load_trace(p)
        assert len(tr.intervals) == 2
        assert tr.node_count == 3

    def test_bad_header(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("start,end,a,b\n0,1,0,1\n")
        with pytest.raises(ValueError, match="header") as err:
            load_trace(p)
        # named like a bad row, by file and line
        assert str(err.value).startswith(f"{p}:1: bad trace header ['start', 'end', 'a', 'b']")

    def test_empty_file_fails_on_the_header(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("")
        with pytest.raises(ValueError) as err:
            load_trace(p)
        assert str(err.value) == f"{p}:1: bad trace header None, want {TRACE_HEADER}"

    def test_error_carries_line_number(self, tmp_path):
        p = self._write(tmp_path, ["0,100,0,1", "7,abc,1,2"])
        with pytest.raises(ValueError, match=":3:"):
            load_trace(p)

    def test_empty_interval_rejected(self, tmp_path):
        p = self._write(tmp_path, ["100,100,0,1"])
        with pytest.raises(ValueError, match=":2:"):
            load_trace(p)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,100,1", "expected 4 fields"),
            ("7,abc,1,2", "invalid literal for int() with base 10: 'abc'"),
            ("0,100,-1,2", "negative node id"),
            ("100,100,0,1", "malformed contact interval [100, 100)"),
            ("200,100,0,1", "malformed contact interval [200, 100)"),
            ("-5,100,0,1", "malformed contact interval [-5, 100)"),
            ("0,100,3,3", "contact interval needs two distinct nodes"),
        ],
    )
    def test_rejected_row(self, tmp_path, row, message):
        # the blank line counts; the first bad row in the file is named,
        # not the malformed one after it
        p = self._write(tmp_path, ["0,100,0,1", "", row, "1,2,3"])
        with pytest.raises(ValueError) as err:
            load_trace(p)
        assert str(err.value) == f"{p}:4: {message}"

    @given(_CONTACT_ROWS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_load_matches_construction(self, rows, data):
        # shuffled, overlapping and repeated rows with blank lines between
        contacts = _contacts(rows)
        contacts += data.draw(st.lists(st.sampled_from(contacts), max_size=5))
        contacts = data.draw(st.permutations(contacts))
        lines = [",".join(map(str, c)) for c in contacts]
        for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=4)):
            lines.insert(at, "")
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_trace(self._write(Path(tmp), lines))
        direct = ContactTrace(contacts)
        assert loaded.intervals == direct.intervals == sorted(contacts)
        assert loaded.node_count == direct.node_count
        edges = sorted({t for t0, t1, _, _ in contacts for t in (t0, t1)})
        for t in edges:
            for node in range(5):
                assert loaded.partners(node, t) == direct.partners(node, t), (node, t)

    def test_empty_trace_rejected(self, tmp_path):
        p = self._write(tmp_path, [])
        with pytest.raises(ValueError, match="empty"):
            load_trace(p)
