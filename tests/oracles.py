"""Brute-force oracles for the simulator's accelerated paths.

Each one answers the same question as a fast path in the package by
looking at every node, pair or contact, by walking a node one whole
segment at a time, or by queueing every periodic beacon as an event, so
tests can compare the two.  LoggedSimulation adds the action log that
those comparisons also check.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

from gossim import engine
from gossim.mobility import AreaRect, ContactTrace, MobilityParams
from gossim.protocols import UpdateLocal, on_beacon, on_software
from gossim.radio import RadioParams, delivery_probability


def sample_receivers(
    sender: int,
    positions: dict[int, tuple[float, float]],
    p: RadioParams,
    rng: random.Random,
) -> set[int]:
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


def contacts_at(trace: ContactTrace, t: float) -> set[tuple[int, int]]:
    """All unordered pairs in contact at time t."""
    return {(min(a, b), max(a, b)) for t0, t1, a, b in trace.intervals if t0 <= t < t1}


def contacts_of(spec) -> list[tuple[int, int, int, int]]:
    """The contacts of a geometric run, as trace rows (t_start, t_end, a, b).

    Takes the trajectories of the engine's own set-up for `spec`, checks
    every pair at every integer ms of the run, and puts a pair in contact
    over each maximal run of ms where they are at most R apart.  One more
    contact after the run joins the two highest node ids, so that the
    replay has the same node count, and with it the same injection draw.
    """
    motions = engine.Simulation(spec).motions
    n, R, duration = len(motions), spec.radio.R, spec.engine.duration
    rows = []
    start = {}  # pair -> first ms of its contact in progress
    for t in range(duration + 1):
        pos = [m.position_at(t) for m in motions]
        for i, j in itertools.combinations(range(n), 2):
            if math.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1]) <= R:
                start.setdefault((i, j), t)
            elif (i, j) in start:
                rows.append((start.pop((i, j)), t, i, j))
    rows += [(t0, duration + 1, i, j) for (i, j), t0 in start.items()]
    rows.append((duration + 1, duration + 2, n - 2, n - 1))
    return rows


def fold(u: float, lo: float, hi: float) -> float:
    """Reflect an unconstrained coordinate back into [lo, hi].

    Equivalent to integrating the straight leg tick by tick and
    mirroring the overshoot at each wall (billiard unfolding).  The span
    is one ulp shorter where lo + (hi - lo) rounds past hi, and the
    reflected branch subtracts exactly, so the result never leaves
    [lo, hi].
    """
    span = hi - lo
    if lo + span > hi:
        span = math.nextafter(span, 0.0)
    y = (u - lo) % (2.0 * span)
    return lo + y if y <= span else lo + (2.0 * span - y)


def walk(
    position: tuple[float, float],
    area: AreaRect,
    params: MobilityParams,
    rng: random.Random,
    times: list[float],
) -> list[tuple[float, float]]:
    """Where a NodeMotion started at time 0 is at each of the rising `times`.

    Replays its draws (a leg's direction, duration and speed, then a
    pause's length, and so on) one whole segment at a time, and folds
    each leg into the area with `fold`.
    """
    x, y = position
    start = end = 0.0
    leg = False  # whether the segment [start, end) moves
    vx = vy = 0.0
    out = []
    for t in times:
        while t >= end:
            if leg:
                x = fold(x + vx * (end - start), area.x_min, area.x_max)
                y = fold(y + vy * (end - start), area.y_min, area.y_max)
            leg = not leg
            start = end
            if leg:
                angle = 2.0 * math.pi * rng.random()
                duration = rng.uniform(params.leg_duration_min, params.leg_duration_max)
                speed = rng.uniform(params.speed_min, params.speed_max)
                vx = math.cos(angle) * speed / 1000.0  # m/s over ms
                vy = math.sin(angle) * speed / 1000.0
            else:
                duration = rng.uniform(0.0, params.pause_max)
            end = start + duration
        if leg:
            dt = t - start
            out.append((fold(x + vx * dt, area.x_min, area.x_max),
                        fold(y + vy * dt, area.y_min, area.y_max)))
        else:
            out.append((x, y))
    return out


class LoggedSimulation(engine.Simulation):
    """The engine with every protocol action logged as (t, node, action).

    The injection's UpdateLocal is logged too; the record carries the log
    as its `action_log`.
    """

    def __init__(self, spec):
        super().__init__(spec)
        self.actions = []

    def _apply(self, node, t, act):
        self.actions.append((t, node, act))
        super()._apply(node, t, act)

    def _record(self, tx, rx):
        return dataclasses.replace(super()._record(tx, rx), action_log=self.actions)


_PERIODIC = 0  # a periodic beacon, as a queued event


class ReferenceSimulation(LoggedSimulation):
    """The engine with every periodic beacon a tuple event from `_push`.

    Each beacon is an event that queues the node's next one once its
    receivers have queued theirs; every ms runs its events in push order.
    This is the plain statement of the order that `Simulation.run` keeps
    with bare node ids in the same queue, and of the events that `seq`
    counts.  It logs its actions as LoggedSimulation does.
    """

    def run(self):
        ep = self.ep
        cfg = self.cfg
        self._push(ep.injection_time, engine._INJECT, 0, None)
        for node, phase in enumerate(self.phases):
            self._push(phase + ep.delivery_latency, _PERIODIC, node, None)
        receivers_of = self._radio_receivers if self.trace is None else self.trace.partners
        versions = self.versions
        tokens = self.tokens
        tx = rx = 0
        for now in range(ep.duration + 1):
            bucket = self.queue[now]
            if bucket is None:
                continue
            # events that a zero latency queues for this ms join its list
            for kind, node, payload in bucket:
                if kind == _PERIODIC or kind == engine._TX_BEACON:
                    if kind == _PERIODIC:
                        self.beacon_sends[node] = self.beacon_sends.get(node, 0) + 1
                        payload = versions[node] if cfg.piggyback else None
                    receivers = receivers_of(node, now)
                    tx += 1
                    rx += len(receivers)
                    for rcv in receivers:
                        tokens[rcv], act = on_beacon(cfg, versions[rcv], tokens[rcv], payload)
                        if act is not None:
                            self._apply(rcv, now, act)
                    if kind == _PERIODIC:
                        self._push(now + ep.beacon_period, _PERIODIC, node, None)
                elif kind == engine._TX_SOFTWARE:
                    for rcv in receivers_of(node, now):
                        ok = engine.verify_digest(
                            payload, engine.digest_for(payload),
                            self.rng_corruption, ep.corruption_probability,
                        )
                        versions[rcv], tokens[rcv], act = on_software(
                            cfg, versions[rcv], tokens[rcv], payload, ok
                        )
                        if act is not None:
                            self._apply(rcv, now, act)
                else:  # engine._INJECT
                    target = self.rng_inject.randrange(self.n)
                    versions[target] = ep.injected_version
                    tokens[target] = cfg.initial_tokens
                    self._apply(target, now, UpdateLocal(ep.injected_version))
            self.queue[now] = None
        return self._record(tx, rx)
