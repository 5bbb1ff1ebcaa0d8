"""Release acceptance gate: one test per criterion.

These are end-to-end statistical checks and together take a few
minutes.  Each test prints its own pass/fail line (run pytest with -s
or check the failure output).  The `gossim validate` subcommand runs
the same suite.
"""

import pytest

from gossim import acceptance, engine, metrics, protocols


def _check(result):
    print(result)
    assert result.passed, str(result)


def _fake_batch(monkeypatch, t90=None, sends=None):
    """Serve hand-built records as the desk batch of every scenario, so no
    simulation runs.  Each cell of the grid, on each desk seed, has all 10
    nodes adopt the update at `t90[cfg]` ms (default 100) and node 0 send
    `sends[cfg]` copies of it (default 1).  Returns the batch to edit."""
    t90, sends = t90 or {}, sends or {}

    def record(cfg, seed):
        return metrics.RunRecord(
            n_nodes=10, duration_ms=1000, seed=seed, protocol=cfg.name,
            tokens=cfg.initial_tokens if cfg.token_control else None,
            workload_fingerprint=str(seed), injected_version=1,
            update_events=[(t90.get(cfg, 100), node, 1) for node in range(10)],
            software_sends={0: {1: sends.get(cfg, 1)}},
        )

    batch = {(cfg, s): record(cfg, s) for s in acceptance.DESK_SEEDS for cfg in acceptance.CELLS}
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
        "wired=True, mismatches=['gcp minus tokens == pbp', 'gcp minus both == fp']"
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


def test_criterion_08_determinism():
    _check(acceptance.criterion_8_determinism())


def test_criterion_09_reliability():
    _check(acceptance.criterion_9_reliability())


def test_criterion_10_convergence_shape():
    _check(acceptance.criterion_10_convergence_shape())
