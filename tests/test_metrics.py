import csv
import math

import pytest

from gossim.metrics import (
    RunRecord,
    convergence_series,
    gossip_reliability,
    load_bounds,
    load_histogram,
    savings,
    summary_row,
    time_to_fraction,
    write_summary,
)


def record(**kw):
    defaults = dict(
        n_nodes=5,
        duration_ms=1000,
        seed=0,
        protocol="fp",
        tokens=None,
        workload_fingerprint="f" * 16,
        injected_version=1,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


class TestConvergenceSeries:
    def test_basic_shape(self):
        rec = record(update_events=[(100, 0, 1), (250, 3, 1)])
        assert convergence_series(rec, 1) == [(0, 0), (100, 1), (250, 2), (1000, 2)]

    def test_same_instant_coalesced(self):
        rec = record(update_events=[(100, 0, 1), (100, 1, 1), (100, 2, 1)])
        assert convergence_series(rec, 1) == [(0, 0), (100, 3), (1000, 3)]

    def test_duplicate_node_counted_once(self):
        rec = record(update_events=[(100, 0, 1), (300, 0, 2)])
        assert convergence_series(rec, 1) == [(0, 0), (100, 1), (1000, 1)]

    def test_unknown_version_rejected(self):
        rec = record(update_events=[(100, 0, 1)])
        with pytest.raises(ValueError):
            convergence_series(rec, 7)

    def test_injected_version_allowed_even_if_unseen(self):
        rec = record(update_events=[])
        assert convergence_series(rec, 1) == [(0, 0), (1000, 0)]


class TestTimeToFraction:
    def test_hits_threshold(self):
        series = [(0, 0), (100, 3), (400, 9), (1000, 9)]
        assert time_to_fraction(series, 0.9, 10) == 400
        assert time_to_fraction(series, 0.3, 10) == 100

    def test_never_reached(self):
        series = [(0, 0), (100, 3), (1000, 3)]
        assert time_to_fraction(series, 0.9, 10) is None

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            time_to_fraction([(0, 0)], 0.0, 10)
        with pytest.raises(ValueError):
            time_to_fraction([(0, 0)], 1.5, 10)


def test_measured_nnh_without_transmissions_is_zero():
    assert record().measured_nnh() == 0.0
    assert record(beacon_tx_count=4, beacon_rx_sum=6).measured_nnh() == 1.5


def test_summary_row_holds_every_summary_field_in_order(tmp_path):
    # summary_row's keys are summary.csv's columns, so a renamed, moved,
    # extra or missing key changes the file's header here
    row = summary_row(record(metadata={"beacon_period_ms": "100"}), "s")
    write_summary(tmp_path / "summary.csv", [row, row])
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        header, *lines = csv.reader(fh)
    assert header == [
        "scenario",
        "protocol",
        "tokens",
        "seed",
        "n_nodes",
        "total_software_sends",
        "total_beacon_sends",
        "final_count",
        "t90_ms",
        "savings_pct",
        "measured_nnh",
        "bound_fp",
        "bound_fcp",
        "bound_pbp",
        "bound_gcp",
    ]
    assert lines == [[str(v) for v in row.values()]] * 2


def test_load_histogram_mass():
    rec = record(
        n_nodes=4,
        software_sends={0: {1: 2}, 2: {0: 1, 1: 1}},
    )
    hist = load_histogram(rec)
    assert hist == {2: 2, 0: 2}
    assert sum(hist.values()) == rec.n_nodes
    assert rec.total_software_sends() == 4
    assert rec.node_software_sends(2) == 2


class TestBounds:
    # one upgrade, 5 tokens, 10 neighbours, 50 s run, 100 ms beacons, 2000 nodes
    B = load_bounds(n_v=1, t=5, n_nh=10.0, d=50_000.0, p_b=100.0, n_s=2000)

    def test_flooding(self):
        assert self.B["fp"] == pytest.approx(5000.0)

    def test_fcp_includes_factory_version(self):
        assert self.B["fcp"] == pytest.approx(10.0)

    def test_pbp(self):
        assert self.B["pbp"] == pytest.approx(1999.0)

    def test_gcp(self):
        assert self.B["gcp"] == pytest.approx(5.0)

    def test_zero_upgrades_allowed(self):
        b = load_bounds(n_v=0, t=5, n_nh=1.0, d=1000.0, p_b=100.0, n_s=10)
        assert b["gcp"] == 0.0
        assert b["fcp"] == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            load_bounds(n_v=1, t=0, n_nh=1.0, d=1000.0, p_b=100.0, n_s=10)

    @pytest.mark.parametrize(
        "n_nh, d, p_b",
        [
            (math.nan, 1000.0, 100.0),
            (math.inf, 1000.0, 100.0),
            (1.0, math.inf, 100.0),
            (1.0, math.nan, 100.0),
            (1.0, 1000.0, math.nan),
            (1.0, 1000.0, math.inf),
        ],
    )
    def test_non_finite_rejected(self, n_nh, d, p_b):
        # NaN passes every `< 0` and `<= 0` test, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            load_bounds(n_v=1, t=5, n_nh=n_nh, d=d, p_b=p_b, n_s=10)


class TestGossipReliability:
    def test_known_values(self):
        assert gossip_reliability(0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert gossip_reliability(3.0) == pytest.approx(0.951431, abs=1e-5)

    def test_limits(self):
        assert gossip_reliability(40.0) == pytest.approx(1.0)
        assert gossip_reliability(-40.0) == pytest.approx(0.0)


class TestSavings:
    def test_percentage(self):
        flood = record(software_sends={0: {1: 100}})
        alg = record(protocol="gcp", tokens=5, software_sends={0: {1: 3}})
        assert savings(alg, flood) == pytest.approx(97.0)

    def test_workloads_must_match(self):
        flood = record(software_sends={0: {1: 100}})
        alg = record(workload_fingerprint="0" * 16, software_sends={})
        with pytest.raises(ValueError):
            savings(alg, flood)

    def test_empty_baseline_rejected(self):
        flood = record(software_sends={})
        with pytest.raises(ValueError):
            savings(flood, flood)
