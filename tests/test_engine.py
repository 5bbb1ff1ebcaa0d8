import contextlib
import dataclasses
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossim import protocols, scenarios
from gossim.core import digest_for
from gossim.engine import (
    MAX_DURATION_MS, EngineParams, Simulation, run, run_grid, verify_digest,
)
from gossim.metrics import convergence_series
from gossim.mobility import AreaRect, ContactTrace, MobilityParams, TRACE_HEADER
from gossim.radio import MAX_SLOTS, RadioParams, SpatialGrid

from oracles import LoggedSimulation, ReferenceSimulation, contacts_of, sample_receivers


def tiny_spec(nodes=5, side=8.0, protocol=None, seed=0, duration=4000):
    return scenarios.ScenarioSpec(
        name="tiny",
        clusters=(scenarios.Cluster(nodes, AreaRect(0.0, 0.0, side, side)),),
        transmitters=None,
        mobility=MobilityParams(),
        radio=RadioParams(r=3.0, R=5.0, p_min=0.3),
        engine=EngineParams(duration=duration),
        protocol=protocol if protocol is not None else protocols.gcp(2),
        seed=seed,
    )


class TestEngineParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineParams(beacon_period=0)
        with pytest.raises(ValueError):
            EngineParams(injection_time=60_000, duration=50_000)
        with pytest.raises(ValueError):
            EngineParams(corruption_probability=1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("delivery_latency", -1, "delivery_latency must be >= 0"),
            ("injected_version", 0, "injected version must be > 0"),
            ("injected_version", -3, "injected version must be > 0"),
            ("duration", 3_600_001, "duration must be at most 3600000 ms, got 3600001"),
        ],
    )
    def test_rejected_value(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EngineParams(**{field: value})

    def test_duration_cap_is_one_simulated_hour(self):
        assert EngineParams(duration=MAX_DURATION_MS).duration == 3_600_000

    @pytest.mark.parametrize(
        "field", ["beacon_period", "delivery_latency", "duration", "injection_time"]
    )
    @pytest.mark.parametrize("value", [100.0, 1.5, True, "100"])
    def test_times_must_be_int_ms(self, field, value):
        # a float time cannot index the calendar queue's per-ms buckets
        with pytest.raises(ValueError, match=field):
            EngineParams(**{field: value})


class TestVerifyDigest:
    def test_valid_digest_accepted(self):
        assert verify_digest(3, digest_for(3), random.Random(0), 0.0)

    def test_wrong_digest_rejected(self):
        assert not verify_digest(3, digest_for(4), random.Random(0), 0.0)

    def test_corruption_rate(self):
        rng = random.Random(12)
        n = 10_000
        p = 0.3
        fails = sum(not verify_digest(1, digest_for(1), rng, p) for _ in range(n))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(fails / n - p) < 3 * se


class TestDeterminism:
    def test_identical_reruns(self):
        a = run(tiny_spec(seed=3))
        b = run(tiny_spec(seed=3))
        assert a.update_events == b.update_events
        assert a.software_sends == b.software_sends
        assert a.beacon_sends == b.beacon_sends
        assert a.beacon_receptions == b.beacon_receptions

    def test_seed_changes_outcome(self):
        a = run(tiny_spec(seed=3))
        b = run(tiny_spec(seed=4))
        assert (a.update_events, a.beacon_receptions) != (
            b.update_events,
            b.beacon_receptions,
        )

    def test_trajectories_independent_of_protocol(self):
        sims = [
            Simulation(tiny_spec(protocol=p, seed=6))
            for p in (protocols.fp(), protocols.gcp(2))
        ]
        for m_a, m_b in zip(sims[0].motions, sims[1].motions):
            assert m_a.position_at(2500) == m_b.position_at(2500)

    @pytest.mark.parametrize("mode", ["geometric", "trace"])
    def test_second_run_raises_before_touching_state(self, tmp_path, mode):
        if mode == "trace":
            path = tmp_path / "pair.csv"
            path.write_text(",".join(TRACE_HEADER) + "\n0,4000,0,1\n")
            spec = scenarios.trace_scenario(str(path), protocols.gcp(2), seed=3)
        else:
            spec = tiny_spec(seed=3)
        sim = Simulation(spec)
        first = sim.run()
        seq = sim.seq
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run()
        # the first record and the event count are what a fresh run gives
        assert sim.seq == seq
        assert first == run(spec)


@pytest.mark.parametrize(
    "protocol, tokens", [(protocols.fp(), 1), (protocols.gcp(3), 3)], ids=["fp", "gcp3"]
)
def test_nodes_start_at_version_0_with_full_budget(protocol, tokens):
    sim = Simulation(tiny_spec(protocol=protocol))
    assert sim.versions == [0] * 5
    assert sim.tokens == [tokens] * 5


class TestSingleNode:
    def test_injection_is_the_whole_story(self):
        spec = tiny_spec(nodes=1, duration=5000)
        rec = run(spec)
        assert convergence_series(rec, 1) == [(0, 0), (1000, 1), (5000, 1)]
        assert rec.total_software_sends() == 0


class TestTraceReplay:
    def _trace(self, tmp_path, rows):
        p = tmp_path / "pair.csv"
        p.write_text("\n".join([",".join(TRACE_HEADER)] + rows) + "\n")
        return str(p)

    def test_colocated_pair_gcp(self, tmp_path):
        path = self._trace(tmp_path, ["0,50000,0,1"])
        spec = scenarios.trace_scenario(path, protocols.gcp(1), seed=2)
        rec = run(spec)
        series = convergence_series(rec, 1)
        assert series[-1][1] == 2
        # one push moves the update; equal versions then stay silent
        assert rec.total_software_sends() == 1

    def test_colocated_pair_fp_keeps_sending(self, tmp_path):
        path = self._trace(tmp_path, ["0,50000,0,1"])
        spec = scenarios.trace_scenario(path, protocols.fp(), seed=2)
        rec = run(spec)
        assert convergence_series(rec, 1)[-1][1] == 2
        # flooding answers every beacon, converged or not
        assert rec.total_software_sends() == rec.beacon_receptions
        assert rec.total_software_sends() > 500

    def test_contact_gap_blocks_delivery(self, tmp_path):
        # contact ends before the update is injected
        path = self._trace(tmp_path, ["0,900,0,1", "30000,31000,1,2"])
        spec = scenarios.trace_scenario(path, protocols.fp(), seed=2)
        rec = run(spec)
        holders = {n for _, n, _ in rec.update_events}
        injected = rec.update_events[0][1]
        # node 0's only contact closes before the injection instant
        if injected == 0:
            assert holders == {0}
        else:
            assert 0 not in holders


class TestConservation:
    @pytest.mark.parametrize(
        "protocol",
        [protocols.fp(), protocols.fcp(2), protocols.pbp(), protocols.gcp(2)],
    )
    def test_update_events_unique_and_final(self, protocol):
        rec = run(tiny_spec(protocol=protocol, seed=8))
        nodes = [n for _, n, _ in rec.update_events]
        assert len(nodes) == len(set(nodes))
        assert all(v == 1 for _, _, v in rec.update_events)
        assert convergence_series(rec, 1)[-1][1] == len(nodes)

    def test_token_budget_respected(self):
        rec = run(tiny_spec(protocol=protocols.gcp(2), seed=8))
        for per in rec.software_sends.values():
            assert all(count <= 2 for count in per.values())


def _engine_params(draw, duration):
    """A protocol and engine timings for a run of `duration` ms."""
    name = draw(st.sampled_from(sorted(protocols.BY_NAME)))
    protocol = protocols.from_name(name, draw(st.integers(1, 3)))
    # fp answers every copy, corrupted or not, so corruption makes its
    # re-request traffic grow without bound (README, Known limitations)
    corruption = 0.0 if name == "fp" else draw(st.sampled_from([0.0, 0.25]))
    period = draw(st.integers(5, 200))
    # a latency equal to the period queues a beacon's receivers and its
    # next beacon in the same ms; above it, a node's beacons overlap in flight
    latency = draw(st.one_of(st.integers(0, 250), st.just(period), st.just(0)))
    engine = EngineParams(
        beacon_period=period,
        delivery_latency=latency,
        duration=duration,
        injection_time=draw(st.integers(0, duration - 1)),
        corruption_probability=corruption,
    )
    return protocol, engine


def _assert_invariants(rec, protocol, engine):
    if protocol.name == "fp":
        # flooding answers every beacon it hears with one copy
        assert rec.total_software_sends() == rec.beacon_receptions
    if protocol.token_control:
        # tokens refill only on upgrade: one budget per (node, version)
        for per in rec.software_sends.values():
            assert all(count <= protocol.initial_tokens for count in per.values())
    times = [t for t, _, _ in rec.update_events]
    assert times == sorted(times)
    assert times[0] == engine.injection_time


def _assert_matches_reference(spec):
    # queueing each beacon as a bare node id runs the same events in the
    # same order as the plain reference loop: same record, same actions,
    # same count
    sim = LoggedSimulation(spec)
    ref = ReferenceSimulation(spec)
    assert sim.run() == ref.run()
    assert sim.seq == ref.seq


@st.composite
def _trace_runs(draw):
    """A small random contact trace and how to replay it."""
    duration = draw(st.integers(min_value=200, max_value=4000))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, duration - 1),
                st.integers(1, duration),
                st.integers(0, 5),
                st.integers(1, 5),
            ),
            min_size=1,
            max_size=15,
        )
    )
    contacts = [(t0, t0 + length, a, (a + b) % 6) for t0, length, a, b in rows]
    protocol, engine = _engine_params(draw, duration)
    return contacts, protocol, engine, draw(st.integers(0, 2**16))


@contextlib.contextmanager
def _replayed(case):
    """The spec that replays a drawn trace, while its file exists."""
    contacts, protocol, engine, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(
            "\n".join([",".join(TRACE_HEADER)] + [",".join(map(str, c)) for c in contacts])
            + "\n"
        )
        yield dataclasses.replace(
            scenarios.trace_scenario(str(path), protocol, seed=seed), engine=engine
        )


class TestTraceProperties:
    @given(_trace_runs())
    @settings(max_examples=60, deadline=None)
    def test_engine_invariants(self, case):
        with _replayed(case) as spec:
            rec = run(spec)
        _assert_invariants(rec, spec.protocol, spec.engine)

    @given(_trace_runs())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_scheduler(self, case):
        with _replayed(case) as spec:
            _assert_matches_reference(spec)


class TestClosedFormBeaconCounts:
    # a period of 1 ms puts every phase at 0, so each node's first beacon
    # lands at the latency: at the run's last ms it is the only one, and
    # one ms later there is none
    @pytest.mark.parametrize("extra, sends", [(0, 1), (1, 0)], ids=["last-ms", "after-run"])
    def test_latency_at_the_run_edge(self, extra, sends):
        duration = 300
        engine = EngineParams(
            beacon_period=1, delivery_latency=duration + extra, duration=duration,
            injection_time=0,
        )
        # fp sends no pull beacon, so every beacon counted is periodic
        contacts = [(0, duration + 1, 0, 1), (5, 200, 1, 2)]
        with _replayed((contacts, protocols.fp(), engine, 3)) as spec:
            sim = LoggedSimulation(spec)
            rec = sim.run()
            ref = ReferenceSimulation(spec)
            assert rec == ref.run()
        assert rec.beacon_sends == {node: 1 for node in range(3) if sends}
        assert sim.seq == ref.seq == 1 + 3 * sends  # the injection and the beacons


@st.composite
def _geometric_runs(draw):
    """A small random cluster layout and a short run over it.

    The floors keep most layouts in radio contact; smaller ones are the
    explicit examples below.
    """
    duration = draw(st.integers(min_value=200, max_value=3000))
    protocol, engine = _engine_params(draw, duration)
    spec = tiny_spec(
        nodes=draw(st.integers(8, 12)),
        side=draw(st.floats(8.0, 25.0)),
        protocol=protocol,
        seed=draw(st.integers(0, 2**16)),
    )
    return dataclasses.replace(spec, engine=engine)


def _lone_and_pair(test):
    """Run `test` also on a lone node and on a pair always in range of each other."""
    engine = EngineParams(
        beacon_period=50, delivery_latency=10, duration=1000, injection_time=100
    )
    for nodes, protocol in ((1, protocols.fp()), (2, protocols.gcp(1))):
        spec = tiny_spec(nodes=nodes, side=2.0, protocol=protocol, seed=3)
        test = example(dataclasses.replace(spec, engine=engine))(test)
    return test


class TestGeometricProperties:
    @given(_geometric_runs())
    @_lone_and_pair
    @settings(max_examples=40, deadline=None)
    def test_engine_invariants(self, spec):
        _assert_invariants(run(spec), spec.protocol, spec.engine)

    @given(_geometric_runs())
    @_lone_and_pair
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_scheduler(self, spec):
        _assert_matches_reference(spec)

    @given(
        nodes=st.integers(1, 30),
        side=st.floats(2.0, 40.0),
        origin=st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)),
        # a second cluster, 0 to 30 m past the first one's right wall
        second=st.one_of(
            st.none(), st.tuples(st.integers(1, 10), st.floats(0.0, 30.0), st.floats(-20.0, 20.0))
        ),
        speed_max=st.sampled_from([2.0, 30.0]),
        seed=st.integers(0, 2**16),
        queries=st.lists(
            st.tuples(st.integers(0, 39), st.integers(0, 250)), min_size=1, max_size=20
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_radio_receivers_match_oracle(
        self, nodes, side, origin, second, speed_max, seed, queries
    ):
        # across grid epochs, the grid-filtered sampler picks the same
        # receivers as the all-pairs oracle and draws the same numbers;
        # fast nodes move metres within an epoch, so the grid's margin counts
        x0, y0 = origin
        clusters = [scenarios.Cluster(nodes, AreaRect(x0, y0, x0 + side, y0 + side))]
        if second is not None:
            count, gap, dy = second
            x1, y1 = x0 + side + gap, y0 + dy
            clusters.append(scenarios.Cluster(count, AreaRect(x1, y1, x1 + side, y1 + side)))
        spec = dataclasses.replace(
            tiny_spec(seed=seed),
            clusters=tuple(clusters),
            mobility=MobilityParams(speed_max=speed_max),
        )
        _assert_receivers_match_oracle(Simulation(spec), queries)

    def test_radio_receivers_match_oracle_on_a_huge_field(self):
        """Twenty nodes, five of them roaming a 10^6 m field: the grid
        widens its cells to stay within MAX_SLOTS slots, so every node of
        the 30 m cluster is a candidate of every other, and it still picks
        the same receivers with the same draws as the oracle."""
        spec = dataclasses.replace(
            tiny_spec(seed=4),
            clusters=(
                scenarios.Cluster(15, AreaRect(0.0, 0.0, 30.0, 30.0)),
                scenarios.Cluster(5, AreaRect(0.0, 0.0, 1e6, 1e6)),
            ),
        )
        sim = Simulation(spec)
        assert len(sim.grid.slots) <= MAX_SLOTS
        assert sim.grid.cell > 100.0  # widened from R + margin
        rng = random.Random(4)
        queries = [(rng.randrange(20), rng.randrange(250)) for _ in range(200)]
        _assert_receivers_match_oracle(sim, queries)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_radio_receivers_match_oracle_after_every_epoch(self, seed):
        """Forty nodes on a field 15 cells wide, every node sending once in
        every grid epoch for 10 s: a cached candidate list must not outlive
        a node entering the sender's 3x3 cells.  At 2 m/s a node stays
        about 26 epochs in the cell it enters, so a stale list would be
        read again and again; at 30 m/s the node's next crossing drops it
        within a few epochs and a stale list is seldom read."""
        spec = dataclasses.replace(
            tiny_spec(nodes=40, side=80.0, seed=seed),
            mobility=MobilityParams(speed_min=2.0, speed_max=2.0),
        )
        sim = Simulation(spec)
        assert sim.grid.cell == 5.2  # R + 2 m/s * 0.1 s
        # each query time, 101 ms after the last, starts a new epoch
        queries = [(node, 101 if node == 0 else 0) for _ in range(100) for node in range(40)]
        _assert_receivers_match_oracle(sim, queries)


def _assert_receivers_match_oracle(sim, queries):
    """At each (sender, time step) query, sim._radio_receivers equals
    sample_receivers on every node's position and leaves the radio
    stream in the same state."""
    t = 0
    for sender, dt in queries:
        t += dt
        sender %= sim.n
        positions = {i: m.position_at(t) for i, m in enumerate(sim.motions)}
        before = sim.rng_radio.getstate()
        got = sim._radio_receivers(sender, t)
        oracle_rng = random.Random()
        oracle_rng.setstate(before)
        expected = sample_receivers(sender, positions, sim.radio, oracle_rng)
        assert got == sorted(expected)
        assert oracle_rng.getstate() == sim.rng_radio.getstate()


@st.composite
def _certain_runs(draw):
    """A short geometric run where every node within R hears every transmission."""
    duration = draw(st.integers(min_value=500, max_value=1000))
    protocol, engine = _engine_params(draw, duration)
    spec = tiny_spec(
        nodes=draw(st.integers(8, 12)),
        side=draw(st.floats(8.0, 25.0)),
        protocol=protocol,
        seed=draw(st.integers(0, 2**16)),
    )
    return dataclasses.replace(
        spec,
        engine=engine,
        radio=RadioParams(r=3.0, R=5.0, p_min=1.0),
        mobility=MobilityParams(speed_max=draw(st.sampled_from([2.0, 30.0]))),
    )


class TestGeometricAgainstContacts:
    @given(_certain_runs())
    @settings(max_examples=60, deadline=None)
    def test_matches_replay_of_its_contacts(self, spec):
        # with p_min = 1 delivery is certain up to R and no radio draw is
        # made, so the geometric run (positions, grid and margin, candidate
        # sort) must hear exactly what the replay of its own contacts hears;
        # fast nodes move metres within a grid epoch, so the margin counts
        case = (contacts_of(spec), spec.protocol, spec.engine, spec.seed)
        with _replayed(case) as trace_spec:
            replayed = LoggedSimulation(trace_spec).run()
        geometric = LoggedSimulation(spec).run()
        # every field but the two that name the mode
        same_mode = dict(metadata=None, workload_fingerprint=None)
        assert dataclasses.replace(geometric, **same_mode) == dataclasses.replace(
            replayed, **same_mode
        )


def _spy_on_lists(monkeypatch, cls, name):
    """Record every list `cls.name` hands out, with a copy taken as it is
    handed out; returns the (list, copy) pairs."""
    real = getattr(cls, name)
    calls = []

    def spy(self, *args):
        got = real(self, *args)
        calls.append((got, got[:]))
        return got

    monkeypatch.setattr(cls, name, spy)
    return calls


def test_runs_never_modify_a_list_they_are_handed(monkeypatch):
    # the trace's partners and the grid's candidates are the source's own
    # lists, handed out again on later calls: a run may only read them
    partners = _spy_on_lists(monkeypatch, ContactTrace, "partners")
    candidates = _spy_on_lists(monkeypatch, SpatialGrid, "candidates")
    rng = random.Random(9)
    contacts = []
    for _ in range(60):
        t0 = rng.randrange(5000)
        a, b = rng.sample(range(12), 2)
        contacts.append((t0, t0 + rng.randrange(200, 2000), a, b))
    engine = EngineParams(duration=6000, injection_time=500)
    with _replayed((contacts, protocols.gcp(2), engine, 4)) as spec:
        run(spec)
    # forty nodes on a field about three grid cells wide
    run(tiny_spec(nodes=40, side=12.0, seed=1, duration=3000))
    for calls in (partners, candidates):
        # lists are handed out again, so a change to one would be read later
        assert len({id(got) for got, _ in calls}) < len(calls)
        assert any(got for got, _ in calls)
        for got, copy in calls:
            assert got == copy


class TestRunGrid:
    def test_seed_major_in_cell_order(self):
        spec = tiny_spec(duration=1500)
        cells = (protocols.gcp(2), protocols.fp(), protocols.pbp())
        grid = run_grid(spec, cells, (7, 3))
        assert list(grid) == [(cfg, seed) for seed in (7, 3) for cfg in cells]
        for (cfg, seed), rec in grid.items():
            assert rec == run(dataclasses.replace(spec, protocol=cfg, seed=seed))
        # one workload per seed, so each seed's records pair for savings
        fingerprint = {key: rec.workload_fingerprint for key, rec in grid.items()}
        assert fingerprint[(cells[0], 7)] == fingerprint[(cells[1], 7)]
        assert fingerprint[(cells[0], 7)] != fingerprint[(cells[0], 3)]


def test_corruption_triggers_rerequests():
    # token-capped protocol: re-request traffic stays bounded
    spec = tiny_spec(protocol=protocols.gcp(2), seed=5)
    noisy = dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, corruption_probability=0.5)
    )
    clean_rec = run(spec)
    noisy_rec = run(noisy)
    # corrupted copies are answered with pull beacons
    assert sum(noisy_rec.beacon_sends.values()) > sum(clean_rec.beacon_sends.values())
    assert convergence_series(noisy_rec, 1)[-1][1] >= 1


def test_metadata_is_text_only():
    rec = run(tiny_spec(seed=1, duration=1500))
    assert all(isinstance(v, str) for v in rec.metadata.values())
    assert rec.metadata["duration_ms"] == "1500"
