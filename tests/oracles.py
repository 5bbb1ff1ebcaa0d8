"""Brute-force oracles for the simulator's accelerated paths.

Each one answers the same question as a fast path in the package by
looking at every node or every contact, so tests can compare the two.
"""

from __future__ import annotations

import math
import random

from gossim.core import NodeId
from gossim.mobility import ContactTrace
from gossim.radio import RadioParams, delivery_probability


def sample_receivers(
    sender: NodeId,
    positions: dict[NodeId, tuple[float, float]],
    p: RadioParams,
    rng: random.Random,
) -> set[NodeId]:
    """Independently sample which other nodes hear one transmission.

    A receiver with probability exactly 1 is included without drawing,
    and one with probability 0 is skipped without drawing; this keeps
    the rng consumption identical to the grid-accelerated sampler.
    """
    sx, sy = positions[sender]
    received = set()
    for node in sorted(positions):
        if node == sender:
            continue
        x, y = positions[node]
        prob = delivery_probability(math.hypot(x - sx, y - sy), p)
        if prob >= 1.0 or (prob > 0.0 and rng.random() < prob):
            received.add(node)
    return received


def contacts_at(trace: ContactTrace, t: float) -> set[tuple[NodeId, NodeId]]:
    """All unordered pairs in contact at time t."""
    return {
        (min(iv.a, iv.b), max(iv.a, iv.b))
        for iv in trace.intervals
        if iv.t_start <= t < iv.t_end
    }
