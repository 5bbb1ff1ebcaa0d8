"""Node movement: leg-based random-waypoint walk and contact-trace replay."""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

from .core import NodeId

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AreaRect:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate area rectangle")

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class MobilityParams:
    pause_max: float = 100.0  # ms
    leg_duration_min: float = 100.0  # ms
    leg_duration_max: float = 500.0  # ms
    speed_min: float = 0.8  # m/s
    speed_max: float = 2.0  # m/s

    def __post_init__(self):
        if self.pause_max < 0:
            raise ValueError("pause_max must be >= 0")
        if not 0 < self.leg_duration_min <= self.leg_duration_max:
            raise ValueError("leg duration range invalid")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("speed range invalid")


def _fold(u: float, lo: float, hi: float) -> float:
    """Reflect an unconstrained coordinate back into [lo, hi].

    Equivalent to integrating the straight leg tick by tick and
    mirroring the overshoot at each wall (billiard unfolding).
    """
    span = hi - lo
    y = (u - lo) % (2.0 * span)
    return lo + y if y <= span else lo + 2.0 * span - y


class NodeMotion:
    """Alternating leg / pause walk, evaluated lazily and analytically.

    Positions are exact for any query time inside the current segment,
    so the engine only evaluates nodes when they transmit or may
    receive.  Query times must be non-decreasing per node.
    """

    __slots__ = (
        "area", "params", "rng",
        "seg_start", "seg_end", "paused",
        "ox", "oy", "vx", "vy", "last_t",
        "x_lo", "x_span", "y_lo", "y_span",
    )

    def __init__(
        self,
        position: tuple[float, float],
        area: AreaRect,
        params: MobilityParams,
        rng: random.Random,
        start: float = 0.0,
    ):
        if not area.contains(*position):
            raise ValueError("initial position outside area")
        self.area = area
        # _fold's bounds, kept for the inlined fold in position_at
        self.x_lo, self.x_span = area.x_min, area.x_max - area.x_min
        self.y_lo, self.y_span = area.y_min, area.y_max - area.y_min
        self.params = params
        self.rng = rng
        self.ox, self.oy = position
        self.last_t = start
        self.seg_start = start
        self.seg_end = start
        self.paused = True
        self.vx = self.vy = 0.0
        self._next_segment(leg=True)

    def _next_segment(self, leg: bool) -> None:
        # rng.uniform(a, b) is a + (b - a) * rng.random(); written out
        # (with a = 0.0 dropped, which is exact) it draws the same values
        rnd = self.rng.random
        p = self.params
        self.seg_start = self.seg_end
        if leg:
            angle = TWO_PI * rnd()
            duration = p.leg_duration_min + (p.leg_duration_max - p.leg_duration_min) * rnd()
            speed = p.speed_min + (p.speed_max - p.speed_min) * rnd()
            # speed is m/s, timestamps are ms
            self.vx = math.cos(angle) * speed / 1000.0
            self.vy = math.sin(angle) * speed / 1000.0
            self.paused = False
        else:
            duration = p.pause_max * rnd()
            self.vx = self.vy = 0.0
            self.paused = True
        self.seg_end = self.seg_start + duration

    def _position_in_segment(self, t: float) -> tuple[float, float]:
        if self.paused:
            return self.ox, self.oy
        dt = t - self.seg_start
        a = self.area
        return (
            _fold(self.ox + self.vx * dt, a.x_min, a.x_max),
            _fold(self.oy + self.vy * dt, a.y_min, a.y_max),
        )

    def position_at(self, t: float) -> tuple[float, float]:
        if t < self.last_t:
            raise AssertionError("mobility queried backwards in time")
        self.last_t = t
        while t >= self.seg_end:
            self.ox, self.oy = self._position_in_segment(self.seg_end)
            self._next_segment(leg=self.paused)
        if self.paused:
            return self.ox, self.oy
        # _position_in_segment with _fold inlined: the same float expressions
        dt = t - self.seg_start
        lo = self.x_lo
        span = self.x_span
        u = (self.ox + self.vx * dt - lo) % (2.0 * span)
        x = lo + u if u <= span else lo + 2.0 * span - u
        lo = self.y_lo
        span = self.y_span
        u = (self.oy + self.vy * dt - lo) % (2.0 * span)
        return x, (lo + u if u <= span else lo + 2.0 * span - u)


@dataclass(frozen=True)
class ContactInterval:
    t_start: int
    t_end: int
    a: NodeId
    b: NodeId

    def __post_init__(self):
        if self.t_start < 0 or self.t_end <= self.t_start:
            raise ValueError(
                f"malformed contact interval [{self.t_start}, {self.t_end})"
            )
        if self.a == self.b:
            raise ValueError("contact interval needs two distinct nodes")


@dataclass
class ContactTrace:
    intervals: list[ContactInterval]
    # node -> its (t_start, t_end, other node) contacts, sorted by start
    _by_node: dict[NodeId, list[tuple[int, int, NodeId]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    # node -> (lo, hi, partners) of the last piece `partners` scanned
    _memo: dict[NodeId, tuple[float, float, list[NodeId]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        self.intervals = sorted(
            self.intervals, key=lambda iv: (iv.t_start, iv.t_end, iv.a, iv.b)
        )
        for iv in self.intervals:
            self._by_node.setdefault(iv.a, []).append((iv.t_start, iv.t_end, iv.b))
            self._by_node.setdefault(iv.b, []).append((iv.t_start, iv.t_end, iv.a))

    @property
    def node_count(self) -> int:
        return 1 + max(max(iv.a, iv.b) for iv in self.intervals)

    def partners(self, node: NodeId, t: float) -> list[NodeId]:
        """Nodes in contact with `node` at time t (half-open intervals).

        Returns a new sorted list.  Each node remembers the piece
        [lo, hi) around its last scanned t: the stretch that holds no
        start or end of any of its intervals, so its partner set is
        constant there.  A query inside that piece copies the answer; any
        other query rescans and replaces the piece.  Queries may come in
        any order of t.
        """
        memo = self._memo.get(node)
        if memo is not None and memo[0] <= t < memo[1]:
            return memo[2][:]
        lo = -math.inf
        hi = math.inf
        out = set()
        for start, end, other in self._by_node.get(node, ()):
            if start > t:
                # each node's contacts are sorted by start
                if start < hi:
                    hi = start
                break
            if start > lo:
                lo = start
            if t < end:
                out.add(other)
                if end < hi:
                    hi = end
            elif end > lo:
                lo = end
        found = sorted(out)
        self._memo[node] = (lo, hi, found)
        return found[:]


TRACE_HEADER = ["t_start_ms", "t_end_ms", "node_a", "node_b"]


def load_trace(path) -> ContactTrace:
    """Read a contact trace CSV: t_start_ms,t_end_ms,node_a,node_b."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"bad trace header {header!r}, want {TRACE_HEADER}")
        intervals = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields")
            try:
                t0, t1, a, b = (int(v) for v in row)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if a < 0 or b < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            try:
                intervals.append(ContactInterval(t0, t1, a, b))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not intervals:
        raise ValueError(f"{path}: empty contact trace")
    return ContactTrace(intervals)
