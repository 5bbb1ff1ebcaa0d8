"""Deterministic discrete-event loop driving one simulation run.

Same (scenario, seed) means byte-identical results: one logical thread,
FIFO per ms (events at equal timestamps run in the order they were
scheduled), and named random substreams so that one subsystem's draws
never perturb another's.

Every event goes through one calendar queue: a list of `duration + 1`
buckets, one per integer ms, each None or the ms's events in push order,
and each ms runs its bucket in that order.  The list costs 8 bytes per
simulated ms: about 400 KB for a 50 s run, and 28.8 MB for the longest,
MAX_DURATION_MS (one simulated hour).  A periodic beacon is queued as its
bare node id; once its receivers have acted, it queues the node's next
beacon one period later.  A node whose first beacon lands at
`first <= duration` sends `(duration - first) // period + 1` of them, so
the run adds that count to its tallies where it queues the first one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from . import mobility as mob
from .core import digest_for
from .metrics import RunRecord
from .protocols import SendBeacon, SendSoftware, UpdateLocal, on_beacon, on_software
from .radio import SpatialGrid, delivery_probability

# queued event kinds (a periodic beacon is a bare node id instead);
# events run in time order, FIFO within one ms
_TX_BEACON = 1  # pull beacon emitted by a protocol action
_TX_SOFTWARE = 2
_INJECT = 3

GRID_EPOCH_MS = 100

# the longest run allowed: one simulated hour
MAX_DURATION_MS = 3_600_000

# the [engine] scenario-file keys, each with the EngineParams field it
# sets and the converter that reads its value; a run's metadata records
# every field under its key
KEYS = (
    ("beacon_period_ms", "beacon_period", int),
    ("duration_ms", "duration", int),
    ("injection_time_ms", "injection_time", int),
    ("delivery_latency_ms", "delivery_latency", int),
    ("injected_version", "injected_version", int),
    ("corruption_probability", "corruption_probability", float),
)

# the model choices that every run records alike
_METADATA = {
    "tie_break": "fifo_insertion_seq",
    "beacon_phase": "uniform_int[0,beacon_period)",
    "pause_distribution": "uniform[0,pause_max]",
    "leg_model": "direction~U[0,2pi), duration~U[min,max], speed~U[min,max]",
    "border_rule": "specular_reflection",
    "digest": "md5/128bit",
    "rng_substreams": "placement,phases,injection,radio,corruption,mobility/<node>",
    "grid_epoch_ms": str(GRID_EPOCH_MS),
    "nominal_payload_bytes": "1024",
}


@dataclass(frozen=True)
class EngineParams:
    beacon_period: int = 100  # ms
    delivery_latency: int = 1  # ms
    duration: int = 50_000  # ms
    injection_time: int = 1_000  # ms
    injected_version: int = 1
    corruption_probability: float = 0.0

    def __post_init__(self):
        # the calendar queue has one bucket per integer ms
        for name in ("beacon_period", "delivery_latency", "duration", "injection_time"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int number of ms, got {value!r}")
        if self.beacon_period <= 0:
            raise ValueError("beacon_period must be positive")
        if self.delivery_latency < 0:
            raise ValueError("delivery_latency must be >= 0")
        if self.duration > MAX_DURATION_MS:
            raise ValueError(f"duration must be at most {MAX_DURATION_MS} ms, got {self.duration}")
        if not 0 <= self.injection_time < self.duration:
            raise ValueError("injection_time must fall inside the run")
        if self.injected_version <= 0:
            raise ValueError("injected version must be > 0")
        if not 0 <= self.corruption_probability < 1:
            raise ValueError("corruption_probability must be in [0, 1)")


def verify_digest(
    version: int, digest: str, rng: random.Random, corruption_probability: float
) -> bool:
    """Check a received software copy; corruption is injected fault load."""
    if rng.random() < corruption_probability:
        return False
    return digest == digest_for(version)


def _stream(seed: int, name: str) -> random.Random:
    # str seeding is hash-based (sha512) and stable across platforms
    return random.Random(f"{seed}/{name}")


class Simulation:
    def __init__(self, spec):
        self.spec = spec
        self.cfg = spec.protocol
        self.ep: EngineParams = spec.engine
        self.seed = spec.seed

        self.rng_radio = _stream(self.seed, "radio")
        self.rng_corruption = _stream(self.seed, "corruption")
        rng_place = _stream(self.seed, "placement")
        rng_phase = _stream(self.seed, "phases")
        self.rng_inject = _stream(self.seed, "injection")

        self.trace = None
        self.motions: list[mob.NodeMotion] = []
        if spec.trace is not None:
            self.trace = mob.load_trace(spec.trace)
            self.n = self.trace.node_count
        else:
            # node i walks on its own stream, mobility/i
            for count, area in spec.node_areas():
                for _ in range(count):
                    pos = (
                        rng_place.uniform(area.x_min, area.x_max),
                        rng_place.uniform(area.y_min, area.y_max),
                    )
                    rng = _stream(self.seed, f"mobility/{len(self.motions)}")
                    self.motions.append(mob.NodeMotion(pos, area, spec.mobility, rng))
            self.n = len(self.motions)
            margin = spec.mobility.speed_max * GRID_EPOCH_MS / 1000.0
            areas = [area for _, area in spec.node_areas()]
            self.grid = SpatialGrid(spec.radio.R + margin, areas)
            self.grid_valid_until = -1.0
            self.radio = spec.radio

        # a node's whole protocol state: its version and its tokens left
        self.versions = [0] * self.n
        self.tokens = [self.cfg.initial_tokens] * self.n
        self.phases = [rng_phase.randrange(self.ep.beacon_period) for _ in range(self.n)]

        # tallies
        self.update_events: list[tuple[int, int, int]] = []
        self.software_sends: dict[int, dict[int, int]] = {}
        self.beacon_sends: dict[int, int] = {}

        # calendar queue: bucket `ms` is None or that ms's events in push
        # order, each a periodic beacon's node id or a (kind, node, payload)
        # tuple; duration + 1 slots of 8 bytes each, and a bucket is freed
        # once its ms has run
        self.queue: list = [None] * (self.ep.duration + 1)
        self.seq = 0  # events scheduled, periodic beacons included

    # -- scheduling ---------------------------------------------------

    def _push(self, at: int, kind: int, a: int, b) -> None:
        if at > self.ep.duration:
            return
        bucket = self.queue[at]
        if bucket is None:
            self.queue[at] = [(kind, a, b)]
        else:
            bucket.append((kind, a, b))
        self.seq += 1

    # -- radio --------------------------------------------------------

    def _radio_receivers(self, sender: int, now: int) -> list[int]:
        """Sampled receivers of a geometric transmission at ms `now`."""
        motions = self.motions
        # the walk's segment bounds are floats; a float query time keeps each
        # position_at comparison and subtraction float against float, the
        # interpreter's fast path, and an int ms below 2**53 converts exactly
        t = float(now)
        if t > self.grid_valid_until:
            self.grid.rebuild([m.position_at(t) for m in motions])
            self.grid_valid_until = t + GRID_EPOCH_MS
        sender_pos = motions[sender].position_at(t)
        # sorted, and the grid's own list: read it, never modify it
        candidates = self.grid.candidates(*sender_pos)
        if len(candidates) == 1 and candidates[0] == sender:
            return []  # most beacons on sparse layouts: nobody to hear
        out = []
        draw = self.rng_radio.random
        radio = self.radio
        prob_at = delivery_probability
        dist = math.dist
        for node in candidates:
            if node == sender:
                continue
            prob = prob_at(dist(motions[node].position_at(t), sender_pos), radio)
            if prob >= 1.0 or (prob > 0.0 and draw() < prob):
                out.append(node)
        return out

    # -- protocol plumbing ---------------------------------------------

    def _apply(self, node: int, t: int, act) -> None:
        """Carry out one action of `node` at time t; the injection's update too."""
        if type(act) is SendSoftware:
            per = self.software_sends.setdefault(node, {})
            per[act.version] = per.get(act.version, 0) + 1
            self._push(t + self.ep.delivery_latency, _TX_SOFTWARE, node, act.version)
        elif type(act) is SendBeacon:
            self.beacon_sends[node] = self.beacon_sends.get(node, 0) + 1
            version = self.versions[node] if self.cfg.piggyback else None
            self._push(t + self.ep.delivery_latency, _TX_BEACON, node, version)
        else:  # UpdateLocal
            self.update_events.append((t, node, act.version))

    # -- main loop ------------------------------------------------------

    def run(self) -> RunRecord:
        # the injection is always queued, so seq > 0 once a run has started
        if self.seq:
            raise RuntimeError("a Simulation runs once; build a new one for another run")
        ep = self.ep
        cfg = self.cfg
        duration = ep.duration
        period = ep.beacon_period
        queue = self.queue
        self._push(ep.injection_time, _INJECT, 0, None)
        beacon_sends = self.beacon_sends
        tx = 0  # beacon transmissions: the periodic ones here, pull ones in the loop
        for node, phase in enumerate(self.phases):
            at = phase + ep.delivery_latency
            if at <= duration:
                bucket = queue[at]
                if bucket is None:
                    queue[at] = [node]
                else:
                    bucket.append(node)
                beacon_sends[node] = count = (duration - at) // period + 1
                tx += count
        self.seq += tx

        versions = self.versions
        tokens = self.tokens
        # the grid and the trace hand out lists they own: the run only reads them
        receivers_of = self._radio_receivers if self.trace is None else self.trace.partners
        beacon_step = on_beacon
        software_step = on_software
        verify = verify_digest
        rng_corruption = self.rng_corruption
        corruption = ep.corruption_probability
        apply = self._apply
        piggyback = cfg.piggyback
        rx = 0  # beacon receptions
        for now in range(duration + 1):
            todo = queue[now]
            if todo is None:
                continue
            # where a periodic beacon of this ms queues the node's next one,
            # unless that falls after the run
            later = now + period
            refire = later <= duration
            # that bucket, held from this ms's first such beacon on: a push
            # there appends to the same list
            later_bucket = None
            # events that a zero latency queues for this ms join the list
            for item in todo:
                if type(item) is int:
                    # a periodic beacon, fired at (now - latency) and counted
                    # above; it carries the sender's version at the delivery
                    # tick, where a pull beacon's payload is the version it
                    # was sent with
                    receivers = receivers_of(item, now)
                    if receivers:  # most periodic beacons on sparse layouts: none
                        rx += len(receivers)
                        payload = versions[item] if piggyback else None
                        for rcv in receivers:
                            tokens[rcv], act = beacon_step(
                                cfg, versions[rcv], tokens[rcv], payload
                            )
                            if act is not None:
                                apply(rcv, now, act)
                    if refire:
                        # behind what the receivers queued
                        if later_bucket is None:
                            later_bucket = queue[later]
                            if later_bucket is None:
                                later_bucket = queue[later] = []
                        later_bucket.append(item)
                    continue
                kind, node, payload = item
                if kind == _TX_BEACON:
                    receivers = receivers_of(node, now)
                    tx += 1
                    rx += len(receivers)
                    for rcv in receivers:
                        tokens[rcv], act = beacon_step(cfg, versions[rcv], tokens[rcv], payload)
                        if act is not None:
                            apply(rcv, now, act)
                elif kind == _TX_SOFTWARE:
                    for rcv in receivers_of(node, now):
                        # each delivered copy carries the image's digest
                        ok = verify(payload, digest_for(payload), rng_corruption, corruption)
                        versions[rcv], tokens[rcv], act = software_step(
                            cfg, versions[rcv], tokens[rcv], payload, ok
                        )
                        if act is not None:
                            apply(rcv, now, act)
                else:  # _INJECT
                    target = self.rng_inject.randrange(self.n)
                    versions[target] = ep.injected_version
                    tokens[target] = cfg.initial_tokens
                    apply(target, now, UpdateLocal(ep.injected_version))
            queue[now] = None
        return self._record(tx, rx)

    def _record(self, tx: int, rx: int) -> RunRecord:
        """The run's record; tx beacon transmissions were heard rx times."""
        ep = self.ep
        cfg = self.cfg
        spec = self.spec
        metadata = {
            **{key: repr(getattr(ep, field)) for key, field, _ in KEYS},
            **_METADATA,
            "trace_mode": str(self.trace is not None).lower(),
        }
        return RunRecord(
            n_nodes=self.n,
            duration_ms=ep.duration,
            seed=self.seed,
            protocol=cfg.name,
            tokens=cfg.initial_tokens if cfg.token_control else None,
            workload_fingerprint=spec.workload_fingerprint(),
            injected_version=ep.injected_version,
            update_events=self.update_events,
            software_sends=self.software_sends,
            beacon_sends=self.beacon_sends,
            # every receiver of a beacon transmission is one beacon reception
            beacon_receptions=rx,
            beacon_tx_count=tx,
            beacon_rx_sum=rx,
            metadata=metadata,
        )


def run(spec) -> RunRecord:
    """Execute one scenario and return its RunRecord."""
    return Simulation(spec).run()


def run_grid(spec, cells, seeds) -> dict[tuple, RunRecord]:
    """Matched-seed runs: `spec` with every seed and, per seed, every cell in order.

    The runs of one seed differ only in their protocol config, so they share
    a workload fingerprint and pair for `metrics.savings`.  Returns the
    records keyed by (config, seed), in run order.
    """
    return {(cfg, s): run(replace(spec, protocol=cfg, seed=s)) for s in seeds for cfg in cells}
