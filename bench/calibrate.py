"""A fixed yardstick for the host's current speed.

The measuring host is shared: for seconds to minutes at a time it runs
every process slower, by up to about 40%, and a state that outlasts one
invocation moves that invocation's median however many runs it holds.
``calibrate`` does a fixed amount of work of the kind gossim does (an
event heap of beacons from moving nodes, a spatial grid, dict updates)
without calling gossim, so its time changes only with the host.  The
benchmark runs it before the first workload run and after every run,
and multiplies each run's time by ``REFERENCE_S`` over the mean
yardstick time around that run: the times it reports are seconds on the
host in its reference state.  Never change this file without
re-measuring REFERENCE_S and the baseline: every scaled time depends on
both.
"""

from __future__ import annotations

import heapq
import random

# median calibrate() wall time on the baseline machine (see
# baseline.json), which makes the scaled times read in seconds
REFERENCE_S = 0.21

NODES = 2000
BEACONS = 8000
CELL = 50.0
RANGE2 = CELL * CELL


class _Node:
    __slots__ = ("i", "x", "y", "vx", "vy")

    def __init__(self, i, rng):
        self.i = i
        self.x = rng.random() * 1000.0
        self.y = rng.random() * 1000.0
        self.vx = rng.random() - 0.5
        self.vy = rng.random() - 0.5

    def position_at(self, t):
        return self.x + self.vx * t, self.y + self.vy * t


def calibrate() -> int:
    """Run the fixed yardstick once; returns its receptions (a constant)."""
    rng = random.Random(20070725)
    nodes = [_Node(i, rng) for i in range(NODES)]
    grid: dict[tuple[int, int], list] = {}
    for node in nodes:
        x, y = node.position_at(0.0)
        grid.setdefault((int(x // CELL), int(y // CELL)), []).append(node)
    events = [(rng.random() * 100.0, i) for i in range(NODES)]
    heapq.heapify(events)
    heard_from: dict[int, int] = {}  # receiver -> last sender, bounded by NODES
    received = 0
    for _ in range(BEACONS):
        t, i = heapq.heappop(events)
        sender = nodes[i]
        x, y = sender.position_at(t)
        cx, cy = int(x // CELL), int(y // CELL)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in grid.get((cx + dx, cy + dy), ()):
                    ox, oy = other.position_at(t)
                    if other is not sender and (ox - x) ** 2 + (oy - y) ** 2 < RANGE2:
                        received += 1
                        heard_from[other.i] = i
        heapq.heappush(events, (t + 100.0, i))
    return received
