"""Node movement: leg-based random-waypoint walk and contact-trace replay."""

from __future__ import annotations

import csv
import math
import random
from dataclasses import astuple, dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AreaRect:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("area bounds must be finite")
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
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("mobility parameters must be finite")
        if self.pause_max < 0:
            raise ValueError("pause_max must be >= 0")
        if not 0 < self.leg_duration_min <= self.leg_duration_max:
            raise ValueError("leg duration range invalid")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("speed range invalid")


def _span(lo: float, hi: float) -> float:
    """hi - lo, one ulp shorter where lo + (hi - lo) would round past hi."""
    span = hi - lo
    return span if lo + span <= hi else math.nextafter(span, 0.0)


class NodeMotion:
    """Alternating leg / pause walk, evaluated lazily and analytically.

    Positions are exact for any query time inside the current segment,
    so the engine only evaluates nodes when they transmit or may
    receive.  Query times must be non-decreasing per node.  Every
    position lies in [x_min, x_max] x [y_min, y_max] of its area.
    """

    __slots__ = (
        "params", "rng",
        "seg_start", "seg_end", "paused",
        "ox", "oy", "vx", "vy", "last_t",
        "x_lo", "x_span", "x_span2", "y_lo", "y_span", "y_span2",
    )

    def __init__(
        self,
        position: tuple[float, float],
        area: AreaRect,
        params: MobilityParams,
        rng: random.Random,
    ):
        if not area.contains(*position):
            raise ValueError("initial position outside area")
        # the walls that position_at folds a leg back between
        self.x_lo, self.x_span = area.x_min, _span(area.x_min, area.x_max)
        self.y_lo, self.y_span = area.y_min, _span(area.y_min, area.y_max)
        # the fold's period, stored: doubling is exact
        self.x_span2 = 2.0 * self.x_span
        self.y_span2 = 2.0 * self.y_span
        self.params = params
        self.rng = rng
        self.ox, self.oy = position
        self.last_t = self.seg_end = 0.0
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

    def position_at(self, t: float) -> tuple[float, float]:
        if t < self.last_t:
            raise AssertionError("mobility queried backwards in time")
        self.last_t = t
        while True:
            # the position at min(t, seg_end); past the end, it starts the next segment
            past = t >= self.seg_end
            if self.paused:
                if not past:
                    return self.ox, self.oy
            else:
                # a straight leg, reflected at each wall it crosses: fold the
                # unconstrained u into [lo, lo + span] (billiard unfolding);
                # for u > span, span2 - u is exact (Sterbenz), so x >= lo
                dt = (self.seg_end if past else t) - self.seg_start
                lo = self.x_lo
                u = (self.ox + self.vx * dt - lo) % self.x_span2
                x = lo + u if u <= self.x_span else lo + (self.x_span2 - u)
                lo = self.y_lo
                u = (self.oy + self.vy * dt - lo) % self.y_span2
                y = lo + u if u <= self.y_span else lo + (self.y_span2 - u)
                if not past:
                    return x, y
                self.ox = x
                self.oy = y
            self._next_segment(leg=self.paused)


# a contact: nodes a and b are in contact over [t_start, t_end) ms
ContactRow = tuple[int, int, int, int]
_FRESH = (math.inf, -math.inf, 0, [], [])  # a cursor over no time: scan from the start


def contact_row(row: ContactRow) -> ContactRow:
    """Return `row` as given; raise ValueError if it is no valid contact."""
    t0, t1, a, b = row
    if a < 0 or b < 0:
        raise ValueError("negative node id")
    if t0 < 0 or t1 <= t0:
        raise ValueError(f"malformed contact interval [{t0}, {t1})")
    if a == b:
        raise ValueError("contact interval needs two distinct nodes")
    return row


class ContactTrace:
    """A replayed contact trace; `partners` answers who is in contact when.

    Takes contact rows, checks each with `contact_row` in the order given
    and keeps them sorted in `intervals`.

    Each node keeps a forward cursor over its contacts (sorted by start):
    `(t, hi, nxt, live, found)`, where `t` is the last time it scanned,
    `nxt` the index of the first contact that had not started by `t`,
    `live` the contacts in progress at `t`, `found` their sorted partners
    and `hi` the first later time at which one of them ends or the next
    one starts.  Over `[t, hi)`, `partners` hands out `found` itself.
    """

    def __init__(self, rows):
        self.intervals = sorted(map(contact_row, rows))
        # node -> its (t_start, t_end, other node) contacts, sorted by start
        self._by_node: dict[int, list[tuple[int, int, int]]] = {}
        for t0, t1, a, b in self.intervals:
            self._by_node.setdefault(a, []).append((t0, t1, b))
            self._by_node.setdefault(b, []).append((t0, t1, a))
        # node -> its cursor (t, hi, nxt, live, found)
        self._memo: dict[int, tuple[float, float, int, list[tuple[int, int, int]], list[int]]] = {}

    @property
    def node_count(self) -> int:
        return 1 + max(self._by_node)

    def partners(self, node: int, t: float) -> list[int]:
        """Nodes in contact with `node` at time t (half-open intervals).

        Returns the cursor's own sorted list: callers must not modify it.
        A query inside the cursor's piece gets that same list; a later one
        moves the cursor forward, adding the contacts that have started and
        dropping those that have ended; an earlier one starts it again from
        the first contact, so queries may come in any order of t.
        """
        cursor = self._memo.get(node, _FRESH)
        if cursor[0] <= t < cursor[1]:
            return cursor[4]
        contacts = self._by_node.get(node, ())
        if t < cursor[0]:
            nxt = 0
            live = []
        else:
            nxt = cursor[2]
            live = [c for c in cursor[3] if c[1] > t]
        count = len(contacts)
        while nxt < count and contacts[nxt][0] <= t:
            if contacts[nxt][1] > t:
                live.append(contacts[nxt])
            nxt += 1
        hi = contacts[nxt][0] if nxt < count else math.inf
        for c in live:
            if c[1] < hi:
                hi = c[1]
        found = sorted({c[2] for c in live})
        self._memo[node] = (t, hi, nxt, live, found)
        return found


TRACE_HEADER = ["t_start_ms", "t_end_ms", "node_a", "node_b"]


def load_trace(path) -> ContactTrace:
    """Read a contact trace CSV: t_start_ms,t_end_ms,node_a,node_b.

    A malformed header or row fails with `path:line:` before the message,
    and a file that cannot be opened with `path:` before the reason.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read contact trace: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"{path}:1: bad trace header {header!r}, want {TRACE_HEADER}")
        try:
            # rows are parsed as ContactTrace checks them, so the reader
            # is still on the line of the row that fails
            trace = ContactTrace(_parse_rows(reader))
        except ValueError as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not trace.intervals:
        raise ValueError(f"{path}: empty contact trace")
    return trace


def _parse_rows(reader):
    """Yield the CSV rows as int tuples, skipping blank lines."""
    for row in reader:
        if row:
            if len(row) != 4:
                raise ValueError("expected 4 fields")
            t0, t1, a, b = row
            yield int(t0), int(t1), int(a), int(b)
