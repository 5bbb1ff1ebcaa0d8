"""Release acceptance gate: each criterion's own check, and the tests
that show it can fail.

The criteria are end-to-end statistical checks and together take a few
minutes.  Each prints its own pass/fail line (run pytest with -s or
check the failure output).  The `gossim validate` subcommand runs the
same suite.  The `catches` tests feed a criterion hand-built records, a
mutant or a stub, and assert its failing detail.
"""

import math
from pathlib import Path

import pytest

from gossim import acceptance, engine, metrics, protocols


def _check(result):
    print(result)
    assert result.passed, str(result)


def _record(cfg, seed, t=100, sends=1):
    """A hand-built run of `cfg`: all 10 nodes adopt the update at `t` ms
    and node 0 sends `sends` copies of it."""
    return metrics.RunRecord(
        n_nodes=10, duration_ms=1000, seed=seed, protocol=cfg.name,
        tokens=cfg.initial_tokens if cfg.token_control else None,
        workload_fingerprint=str(seed), injected_version=1,
        update_events=[(t, node, 1) for node in range(10)],
        software_sends={0: {1: sends}},
    )


def _fake_batch(monkeypatch, t90=None, sends=None):
    """Serve hand-built records as the desk batch of every scenario, so no
    simulation runs.  Each cell of the grid, on each desk seed, is
    `_record` with `t90[cfg]` and `sends[cfg]` (default 100 ms and 1
    copy).  Returns the batch to edit."""
    t90, sends = t90 or {}, sends or {}
    batch = {
        (cfg, s): _record(cfg, s, t90.get(cfg, 100), sends.get(cfg, 1))
        for s in acceptance.DESK_SEEDS for cfg in acceptance.CELLS
    }
    monkeypatch.setattr(acceptance, "_batch", lambda scenario: batch)
    return batch


def test_criterion_01_token_cap():
    _check(acceptance.criterion_1_token_cap())


def test_criterion_01_catches_copies_over_the_budget(monkeypatch):
    # gcp(2) nodes that send 3 copies of one version, on two seeds; both
    # scenarios get the same batch, so four (run, node) pairs break a cap
    batch = _fake_batch(monkeypatch)
    gcp2 = protocols.gcp(2)
    batch[(gcp2, 100)].software_sends[4] = {1: 3}
    batch[(gcp2, 101)].software_sends[2] = {1: 3}
    result = acceptance.criterion_1_token_cap()
    assert not result.passed
    assert result.detail == (
        "caps checked on 120 token-controlled runs :: "
        "4 (run, node) pairs over a cap, first c9 gcp(2) seed 100 node 4: {1: 3}"
    )


def test_criterion_02_radio_model():
    _check(acceptance.criterion_2_radio())


def test_criterion_02_catches_wrong_sign_in_middle_branch(monkeypatch):
    # the middle branch adds the drop to p_min instead of subtracting it,
    # so p falls below zero at 3 m and climbs back to p_min at 5 m
    def wrong_sign(d, p):
        if d < p.r:
            return 1.0
        if d > p.R:
            return 0.0
        x = (p.R - d) / (p.R - p.r)
        return p.p_min + math.sqrt(x) * (x - 5.0) * (1.0 - p.p_min) / 4.0

    monkeypatch.setattr(acceptance, "delivery_probability", wrong_sign)
    result = acceptance.criterion_2_radio()
    assert not result.passed
    assert result.detail == (
        "p(d) checked at d = 2, 3, 4, 5, 6 m and for monotony on a 1000-pt grid :: "
        "p(3.0) = -0.39999999999999997, want 1.0; "
        "p(4.0) = -0.2568465901844062, want 0.8568465901844062; "
        "p rises somewhere on a 1000-pt grid over [0, 6.0] m"
    )


def test_criterion_03_flag_square():
    _check(acceptance.criterion_3_flag_square())


def test_criterion_03_catches_unnormalized_budget(monkeypatch):
    # without the normalization, dropping token control from gcp(5) keeps
    # its budget of 5, so two derived corners differ from pbp and fp;
    # the check compares configs and runs nothing
    def no_run(self, spec):
        raise AssertionError("criterion 3 built a Simulation")

    monkeypatch.setattr(protocols.ProtocolConfig, "__post_init__", lambda self: None)
    monkeypatch.setattr(engine.Simulation, "__init__", no_run)
    result = acceptance.criterion_3_flag_square()
    assert not result.passed
    assert result.detail == (
        "flags of the four configs, and the corners derived from gcp(5), checked :: "
        "gcp minus tokens == pbp; gcp minus both == fp"
    )


def test_criterion_04_speed_ordering():
    _check(acceptance.criterion_4_speed_ordering())


def test_criterion_04_catches_slow_flooding(monkeypatch):
    _fake_batch(monkeypatch, t90={acceptance.FP: 800})
    result = acceptance.criterion_4_speed_ordering()
    assert not result.passed
    assert result.detail == (
        "mean t90 orderings checked (0/160 runs censored at duration) :: "
        "c9: fp 800 > pbp 100; c9-social: fp 800 > pbp 100"
    )


def test_criterion_05_savings():
    _check(acceptance.criterion_5_savings(scale="paper"))


def test_criterion_05_catches_small_savings_at_desk_scale(monkeypatch):
    # fcp(5) sends 30 copies where flooding sends 100: 70% saved
    _fake_batch(monkeypatch, sends={acceptance.FP: 100, acceptance.FCP5: 30})
    result = acceptance.criterion_5_savings(scale="desk")
    assert not result.passed
    assert result.detail == (
        "desk scale, mean over seeds 100-109: fcp(5)=70.00% gcp(5)=99.00% :: "
        "fcp(5) 70.00% not in [77, 98]"
    )


def test_criterion_05_catches_unknown_scale():
    with pytest.raises(ValueError, match="unknown scale 'Paper': expected 'paper' or 'desk'"):
        acceptance.criterion_5_savings("Paper")


def test_criterion_06_load_ordering():
    # Known red: pbp pushes only to a neighbour whose piggybacked version
    # is older, so each upgraded node costs it about one copy, while fcp(5)
    # has no versions to compare and spends a token on every beacon it
    # hears, even to push the factory version.  So `pbp > fcp(5)` fails
    # whether or not the update spreads: here, where it barely spreads,
    # and also with complete convergence.  On the benchmark's 160-node
    # trace (seeds 1-3) pbp reaches 160/160 nodes with 146 / 148 / 132
    # sends, while fcp(5) sends 1334 / 1316 / 1375 and reaches
    # 125 / 119 / 127.  Kept failing rather than weakened.
    _check(acceptance.criterion_6_load_ordering())


def test_criterion_07_fp_load_law():
    _check(acceptance.criterion_7_fp_load_law())


def _fake_c1_runs(monkeypatch, factor):
    """Serve criterion 7's c1 runs without simulating: each fp run sends
    100 copies over 10 s and `factor` x 100 over 20 s."""
    def run_grid(spec, cells, seeds):
        sends = 100 if spec.engine.duration == 10_000 else factor * 100
        return {(cfg, s): _record(cfg, s, sends=sends) for s in seeds for cfg in cells}

    monkeypatch.setattr(acceptance.engine, "run_grid", run_grid)


def test_criterion_07_catches_sends_that_are_not_receptions(monkeypatch):
    # flooding sends once per received beacon, except on seeds 103 and 107
    batch = _fake_batch(monkeypatch)
    for s in acceptance.DESK_SEEDS:
        batch[(acceptance.FP, s)].beacon_receptions = 0 if s in (103, 107) else 1
    _fake_c1_runs(monkeypatch, factor=2)
    result = acceptance.criterion_7_fp_load_law()
    assert not result.passed
    assert result.detail == (
        "sends==beacon receptions checked on 10 runs; "
        "doubling duration takes sends 300 -> 600 (x2.000) :: "
        "seed 103: sends != beacon receptions; seed 107: sends != beacon receptions"
    )


def test_criterion_07_catches_sends_that_triple(monkeypatch):
    batch = _fake_batch(monkeypatch)
    for s in acceptance.DESK_SEEDS:
        batch[(acceptance.FP, s)].beacon_receptions = 1
    _fake_c1_runs(monkeypatch, factor=3)
    result = acceptance.criterion_7_fp_load_law()
    assert not result.passed
    assert result.detail == (
        "sends==beacon receptions checked on 10 runs; "
        "doubling duration takes sends 300 -> 900 (x3.000) :: "
        "x3.000 not within 2.0 +/- 10%"
    )


def test_criterion_08_determinism():
    _check(acceptance.criterion_8_determinism())


def test_criterion_08_catches_failed_runs(monkeypatch):
    # a stub stands in for the CLI, so no simulation runs
    monkeypatch.setattr(acceptance.cli, "main", lambda argv: 1)
    result = acceptance.criterion_8_determinism()
    assert not result.passed
    assert result.detail == "byte-identical files: [] :: run a exited 1; run b exited 1"


def test_criterion_08_catches_differing_files(monkeypatch):
    # each run writes one file that names its own output directory
    def stub(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir()
        (out / "metadata.txt").write_text("seed = 42\n", encoding="utf-8")
        (out / "summary.csv").write_text(f"out = {out.name}\n", encoding="utf-8")
        return 0

    monkeypatch.setattr(acceptance.cli, "main", stub)
    result = acceptance.criterion_8_determinism()
    assert not result.passed
    assert result.detail == (
        "byte-identical files: ['metadata.txt'] :: files differ: ['summary.csv']"
    )


def test_criterion_09_reliability():
    _check(acceptance.criterion_9_reliability())


def test_criterion_09_catches_wrong_sign_in_exponent(monkeypatch):
    # exp(-exp(c)) agrees at c = 0 but falls where f should rise
    monkeypatch.setattr(metrics, "gossip_reliability", lambda c: math.exp(-math.exp(c)))
    result = acceptance.criterion_9_reliability()
    assert not result.passed
    assert result.detail == (
        "f(0)=0.367879441, f(3)=0.000000, strictly increasing checked on [-5, 15] :: "
        "f(3) = 1.8921786948382924e-09, want 0.951431; f does not rise strictly on [-5, 15]"
    )


def test_criterion_10_convergence_shape():
    _check(acceptance.criterion_10_convergence_shape())


def test_criterion_10_catches_a_node_flooding_missed(monkeypatch):
    # the dense run loses its last adoption, so one node never holds the update
    run = engine.run

    def drop_last_adoption(spec):
        rec = run(spec)
        if spec.name == "dense-connected":
            del rec.update_events[-1]
        return rec

    monkeypatch.setattr(acceptance.engine, "run", drop_last_adoption)
    result = acceptance.criterion_10_convergence_shape()
    assert not result.passed
    assert result.detail == (
        "fp coverage checked on connected scenarios: ['dense-connected', 'trace'] :: "
        "dense-connected: fp reached 59/60"
    )


def test_criterion_10_catches_a_rejected_dense_layout(monkeypatch):
    monkeypatch.setattr(acceptance, "_eventually_connected", lambda spec, injected: False)
    result = acceptance.criterion_10_convergence_shape()
    assert not result.passed
    assert result.detail == (
        "fp coverage checked on connected scenarios: ['trace'] :: "
        "connectivity oracle rejected the dense scenario"
    )
