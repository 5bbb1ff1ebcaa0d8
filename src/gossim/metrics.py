"""Run outputs and the two result families: convergence speed and load.

Also evaluates the closed-form per-node load bounds and the classic
gossip reliability value exp(-exp(-c)).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class RunRecord:
    """Immutable-after-run result of one simulation."""

    n_nodes: int
    duration_ms: int
    seed: int
    protocol: str
    tokens: Optional[int]
    workload_fingerprint: str  # identifies everything except the protocol
    injected_version: int
    # (t, node, version) per adoption; node -> version -> copies sent
    update_events: list[tuple[int, int, int]] = field(default_factory=list)
    software_sends: dict[int, dict[int, int]] = field(default_factory=dict)
    beacon_sends: dict[int, int] = field(default_factory=dict)
    beacon_receptions: int = 0
    beacon_tx_count: int = 0  # beacon transmissions, for the mean below
    beacon_rx_sum: int = 0  # total sampled receivers over those transmissions
    metadata: dict[str, str] = field(default_factory=dict)
    # (t, node, action) per protocol action; only tests fill it, through
    # tests/oracles.LoggedSimulation, and bench/workloads.record_digest
    # deletes it by name
    action_log: Optional[list[tuple]] = None

    def total_software_sends(self) -> int:
        return sum(sum(per.values()) for per in self.software_sends.values())

    def node_software_sends(self, node: int) -> int:
        return sum(self.software_sends.get(node, {}).values())

    def measured_nnh(self) -> float:
        """Mean receiver-set size over all beacon transmissions."""
        if self.beacon_tx_count == 0:
            return 0.0
        return self.beacon_rx_sum / self.beacon_tx_count


def convergence_series(rec: RunRecord, version: int) -> list[tuple[int, int]]:
    """Step series: how many nodes hold >= version at each update instant."""
    if version != rec.injected_version and not any(
        v >= version for _, _, v in rec.update_events
    ):
        raise ValueError(f"version {version} never appeared in this run")
    series = [(0, 0)]
    holders: set[int] = set()
    for t, node, v in rec.update_events:
        if v >= version and node not in holders:
            holders.add(node)
            if series[-1][0] == t:
                series[-1] = (t, len(holders))
            else:
                series.append((t, len(holders)))
    if series[-1][0] != rec.duration_ms:
        series.append((rec.duration_ms, len(holders)))
    return series


def load_histogram(rec: RunRecord) -> dict[int, int]:
    """sends-per-node histogram: {k: number of nodes that sent k copies}."""
    counts = Counter(rec.node_software_sends(n) for n in range(rec.n_nodes))
    return dict(counts)


def time_to_fraction(
    series: list[tuple[int, int]], fraction: float, n_nodes: int
) -> Optional[int]:
    """First instant at which count >= fraction * n_nodes, if ever."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    threshold = fraction * n_nodes
    for t, count in series:
        if count >= threshold:
            return t
    return None


def load_bounds(
    n_v: int, t: int, n_nh: float, d: float, p_b: float, n_s: int
) -> dict[str, float]:
    """Closed-form per-node software sends of each protocol, by name.

    n_v upgrades over the run, t tokens per node, n_nh neighbours on
    average, a run of d ms, beacons every p_b ms, n_s nodes.  Flooding
    sends once per received beacon; fcp's tokens are also drained for
    the factory version, hence n_v + 1.
    """
    if min(n_v, t, n_s) < 0 or t == 0 or n_s == 0:
        raise ValueError("counts must be positive (n_v may be 0)")
    # NaN fails every comparison, so finiteness is tested first
    if not all(map(math.isfinite, (n_nh, d, p_b))) or n_nh < 0 or d <= 0 or p_b <= 0:
        raise ValueError("n_nh, d, p_b must be finite and positive (n_nh may be 0)")
    return {
        "fp": d / p_b * n_nh,
        "fcp": (n_v + 1) * t,
        "pbp": n_v * (n_s - 1),
        "gcp": n_v * t,
    }


def gossip_reliability(c: float) -> float:
    return math.exp(-math.exp(-c))


def savings(alg: RunRecord, flooding: RunRecord) -> float:
    """Percentage of software sends avoided relative to the flooding run."""
    if alg.workload_fingerprint != flooding.workload_fingerprint:
        raise ValueError("runs come from different workloads")
    base = flooding.total_software_sends()
    if base == 0:
        raise ValueError("flooding baseline sent nothing")
    return 100.0 * (1.0 - alg.total_software_sends() / base)


def write_csv(path, header: list[str], rows) -> None:
    """Write a CSV file: the header line, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_convergence(path, series: list[tuple[int, int]]) -> None:
    write_csv(path, ["t_ms", "count"], series)


def write_load(path, histogram: dict[int, int]) -> None:
    write_csv(path, ["sends", "node_count"], sorted(histogram.items()))


def summary_row(
    rec: RunRecord,
    scenario_name: str,
    baseline: Optional[RunRecord] = None,
) -> dict[str, object]:
    """One summary.csv line: its keys, in order, are the file's columns."""
    series = convergence_series(rec, rec.injected_version)
    t90 = time_to_fraction(series, 0.9, rec.n_nodes)
    tokens = rec.tokens if rec.tokens is not None else ""
    bounds = load_bounds(
        n_v=1,
        t=rec.tokens or 1,
        n_nh=rec.measured_nnh(),
        d=rec.duration_ms,
        p_b=float(rec.metadata["beacon_period_ms"]),
        n_s=rec.n_nodes,
    )
    # no figure without a flooding run that sent something to save on
    saving = baseline is not None and baseline.total_software_sends() > 0
    return {
        "scenario": scenario_name,
        "protocol": rec.protocol,
        "tokens": tokens,
        "seed": rec.seed,
        "n_nodes": rec.n_nodes,
        "total_software_sends": rec.total_software_sends(),
        "total_beacon_sends": sum(rec.beacon_sends.values()),
        "final_count": series[-1][1],
        "t90_ms": t90 if t90 is not None else "",
        "savings_pct": f"{savings(rec, baseline):.4f}" if saving else "",
        "measured_nnh": f"{rec.measured_nnh():.6f}",
        **{f"bound_{name}": f"{value:.4f}" for name, value in bounds.items()},
    }


def write_summary(path, rows: list[dict[str, object]]) -> None:
    """Write summary_row rows, which all share their keys; the first names the columns."""
    write_csv(path, list(rows[0]), (row.values() for row in rows))
