"""Golden digests: pinned RunRecords of small cells, byte for byte.

Criterion 8 proves that a rerun matches within one code version; these
pins prove that a refactor of the engine, mobility or radio changed
nothing at all: same events in the same order, same rng draws, same
record.  A digest covers every RunRecord field except the action log,
which only the cell that records actions adds (as its repr).

If a change is meant to alter results, re-pin with the printed digests
and say why in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import shutil

import pytest

from gossim import engine, protocols, scenarios
from gossim.mobility import AreaRect, MobilityParams
from gossim.radio import RadioParams

from oracles import LoggedSimulation


def dense_spec(protocol, duration=3000, **engine_params):
    """30 nodes on a 12 m square: the update reaches every node."""
    return scenarios.ScenarioSpec(
        name="golden",
        clusters=(scenarios.Cluster(30, AreaRect(0.0, 0.0, 12.0, 12.0)),),
        transmitters=None,
        mobility=MobilityParams(),
        radio=RadioParams(r=3.0, R=5.0, p_min=0.3),
        engine=engine.EngineParams(duration=duration, **engine_params),
        protocol=protocol,
        seed=11,
    )


def desk_spec():
    """Desk-scale c9-social: nine clusters plus roaming transmitters."""
    spec = scenarios.desk_scale(scenarios.builtin("c9-social", protocols.gcp(2), seed=5))
    return dataclasses.replace(spec, engine=dataclasses.replace(spec.engine, duration=3000))


def trace_spec():
    # a relative path keeps the checkout's location out of the digest
    return scenarios.trace_scenario("sample_trace.csv", protocols.gcp(2), seed=3)


CELLS = {
    "fp": (lambda: dense_spec(protocols.fp(), duration=2000), False),
    "fcp2": (lambda: dense_spec(protocols.fcp(2)), False),
    "pbp": (lambda: dense_spec(protocols.pbp()), False),
    "gcp2": (lambda: dense_spec(protocols.gcp(2)), False),
    "gcp2-desk-c9-social": (desk_spec, False),
    "gcp2-trace": (trace_spec, False),
    "gcp2-corrupt": (lambda: dense_spec(protocols.gcp(2), corruption_probability=0.25), False),
    # zero latency: deliveries land in the current ms, behind what is queued there
    "fp-latency0": (lambda: dense_spec(protocols.fp(), duration=2000, delivery_latency=0), False),
    # latency beyond the beacon period: a node's beacons overlap in flight
    "pbp-latency150": (lambda: dense_spec(protocols.pbp(), delivery_latency=150), False),
    # latency equal to the period: a beacon's receivers and its next beacon
    # are queued in the same ms, and each goes in the order it was scheduled
    "gcp2-latency100": (lambda: dense_spec(protocols.gcp(2), delivery_latency=100), False),
    # zero latency: the injection at 1038 ms runs before that ms's beacons,
    # so the injected node answers the beacons it hears there at once
    "gcp2-latency0-inject1038": (
        lambda: dense_spec(protocols.gcp(2), delivery_latency=0, injection_time=1038), False
    ),
    "fcp2-corrupt-actions": (
        lambda: dense_spec(protocols.fcp(2), corruption_probability=0.25), True
    ),
}

GOLDEN = {
    "fp": "be6138f967997007ad7ab6755784241cdf8a4dadd05ccdae75cbde1304ac7c1a",
    "fcp2": "93d623ab0ec3cb280f1288c3c6a1c7d7963c3710f190961ab6ff9bc91629a92f",
    "pbp": "2c55102447ca17b0d7d8f3fbe00403f62cd0f05ba0bb4d9fdddea2483b4a320e",
    "gcp2": "181e8afeda1d64cf7d9a633378bf28f1bd4aeccfbadd36f5059051a8ad8cdb81",
    "gcp2-desk-c9-social": "7afd533c95785d0d1bcfc4a71995482ec36ed9054d4c8b7d59b84bc826dc6f32",
    "gcp2-trace": "717f81e48d5c9f9877f390d6b296e0c1e6fc02feff96d3bc0c291e90db4b8ced",
    "gcp2-corrupt": "96c5df9ec62d8daaf15f95771246427bdf5daffcec18ac6adcd79a5c7b3baec4",
    "fp-latency0": "9a2b3b4d0e8eec258bf2bac3020ff33a33d677a152294bc7216303ee33dcba43",
    "pbp-latency150": "6a4cec99572b4ca8f13ea5045d2bacbad1b81c9ec8edd138e58e0570878fe1b3",
    "gcp2-latency100": "0ea64abf0ecc934619ac1c91c8f7da1527a7a6ad50fc05f9c27b9a3d41388ab4",
    "gcp2-latency0-inject1038": "8095cd49674479522aa125b9a805b05da368e31449ebfd2edec6b6e9cf997ae1",
    "fcp2-corrupt-actions": "f0b32c04c63dca3657776b6c575974083ead40eb2de9c1b560d2d5be1835e3f1",
}


def record_digest(rec) -> str:
    fields = dataclasses.asdict(rec)
    actions = fields.pop("action_log")
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    if actions is not None:
        text += repr(actions)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_digest(cell, tmp_path, monkeypatch):
    shutil.copy(scenarios.sample_trace_path(), tmp_path / "sample_trace.csv")
    monkeypatch.chdir(tmp_path)
    make_spec, logged = CELLS[cell]
    rec = (LoggedSimulation if logged else engine.Simulation)(make_spec()).run()
    assert record_digest(rec) == GOLDEN[cell], f"{cell}: {record_digest(rec)}"
