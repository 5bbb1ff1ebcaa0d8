"""The benchmark's three workloads, their inputs and their output checks.

Each workload has four steps:

- ``inputs(seed, workdir)`` makes the run's inputs from the benchmark
  seed (untimed: the program sees nothing but the generated spec, trace
  file or CLI argv);
- ``setup(inputs)`` builds what a run needs (timed as ``setup_s``);
- ``run(prepared)`` executes it (timed as ``run_s``);
- ``outcome(prepared, result)`` reduces the output for the checks
  (untimed).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from gossim import cli, engine, metrics, mobility, protocols, scenarios


@dataclass
class Outcome:
    """What one timed run produced, reduced to what the checks need."""

    records: list  # RunRecords, in run order
    digest: str  # sha256 of the canonical output
    events: int  # engine events scheduled (heap pushes)
    problems: list[str] = field(default_factory=list)

    def counters(self) -> dict[str, int]:
        """Deterministic counts summed over the outcome's runs."""
        beacons = sum(sum(r.beacon_sends.values()) for r in self.records)
        software = sum(r.total_software_sends() for r in self.records)
        return {
            "sim_events": beacons + software,
            "beacon_receptions": sum(r.beacon_receptions for r in self.records),
            "software_sends": software,
            "final_coverage": sum(_final_count(r) for r in self.records),
            "engine_events": self.events,
        }


def _final_count(rec) -> int:
    return metrics.convergence_series(rec, rec.injected_version)[-1][1]


def record_digest(rec) -> str:
    """sha256 over every RunRecord field except the optional action log."""
    fields = asdict(rec)
    del fields["action_log"]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_problems(rec) -> list[str]:
    """Model invariants every run must satisfy, whatever the seed."""
    tag = f"{rec.protocol} seed {rec.seed}"
    problems = []
    if rec.protocol == "fp" and rec.total_software_sends() != rec.beacon_receptions:
        problems.append(
            f"{tag}: fp software sends {rec.total_software_sends()}"
            f" != beacon receptions {rec.beacon_receptions}"
        )
    if rec.tokens is not None:
        # tokens refill only on upgrade, so each (node, version) pair
        # spends at most one budget
        worst = max(
            (n for per in rec.software_sends.values() for n in per.values()),
            default=0,
        )
        if worst > rec.tokens:
            problems.append(f"{tag}: {worst} sends of one version > {rec.tokens} tokens")
    series = metrics.convergence_series(rec, rec.injected_version)
    if any(b < a for a, b in zip(series, series[1:])):
        problems.append(f"{tag}: convergence series decreases")
    if series[-1][1] < 1:
        problems.append(f"{tag}: injected update reached no node")
    return problems


class EngineWorkload:
    """Set-up builds one Simulation, run runs it."""

    def inputs(self, seed: int, workdir: Path):
        return seed

    def run(self, sim):
        return sim.run()

    def outcome(self, sim, rec) -> Outcome:
        return Outcome([rec], record_digest(rec), sim.seq, invariant_problems(rec))


# Simulated time of the geometric workloads.  The paper's runs last 50 s;
# 10 s keeps the same per-beacon work (same layouts and densities) while
# one run takes a few seconds of host time, so an invocation holds over a
# dozen runs and their median resists the shared host's bursts of
# slowness, which last seconds to tens of seconds.
DURATION_MS = 10_000


class PaperC9Social(EngineWorkload):
    """Paper-scale c9-social, gcp(5): 2250 nodes, 225,000 beacons in 10 s.

    Mean neighbourhood is about 0.09, so most beacons reach nobody and
    host time goes to mobility (position_at), the radio grid (rebuild,
    candidates) and the event queue, while protocols and core idle.
    """

    name = "paper-c9-social"
    default_seed = 1

    def setup(self, seed: int):
        spec = scenarios.builtin("c9-social", protocols.gcp(5), seed=seed)
        spec = replace(spec, engine=replace(spec.engine, duration=DURATION_MS))
        return engine.Simulation(spec)


# Contact-trace generator parameters.  160 nodes and 4,800 contacts of
# 0.2-8 s spread uniformly over the default 50 s run give each node about
# 60 contacts to scan per beacon and about 4.7 partners per beacon: the
# update reaches every node, tokens are spent and refilled, and one replay
# makes 80,000 beacons, as many as 800 nodes would make in 10 s (see
# DURATION_MS).  Keeping 50 s instead of shrinking the run keeps the scan
# length and the contact density of an 800-node, 24,000-contact trace.
# Geometry is bypassed entirely (no position_at, no grid, no radio draws),
# so time goes to ContactTrace.partners and the protocol handlers instead.
TRACE_NODES = 160
TRACE_CONTACTS = 4_800
TRACE_DURATION_MS = 50_000
TRACE_CONTACT_MS = (200, 8_000)


def write_contact_trace(path: Path, seed: int) -> None:
    """Write a seeded, uniformly random pair-contact trace CSV."""
    rng = random.Random(f"bench-trace/{seed}")
    lo, hi = TRACE_CONTACT_MS
    rows = []
    for _ in range(TRACE_CONTACTS):
        a = rng.randrange(TRACE_NODES)
        b = rng.randrange(TRACE_NODES - 1)
        b += b >= a  # uniform over the other nodes, never a itself
        length = rng.randint(lo, hi)
        start = rng.randrange(TRACE_DURATION_MS - length + 1)
        rows.append((start, start + length, a, b))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(mobility.TRACE_HEADER)
        w.writerows(rows)


class TraceGcp(EngineWorkload):
    """Trace replay, gcp(5), of a generated 160-node contact trace.

    The trace is written once per invocation; set-up is the program's
    part: scenario build, ``load_trace`` and Simulation construction.
    """

    name = "trace-gcp"
    default_seed = 1

    def inputs(self, seed: int, workdir: Path):
        path = workdir / f"trace-seed{seed}.csv"
        write_contact_trace(path, seed)
        return seed, str(path)

    def setup(self, inputs):
        seed, path = inputs
        spec = scenarios.trace_scenario(path, protocols.gcp(5), seed=seed)
        sim = engine.Simulation(spec)
        if sim.n != TRACE_NODES:
            raise ValueError(f"generated trace has {sim.n} nodes, want {TRACE_NODES}")
        return sim


class DeskC1Compare:
    """`gossim compare` of fp, fcp5, pbp, gcp5 on desk-scale c1, 10 s runs.

    200 dense nodes (about 2.2 neighbours): flooding alone makes about
    44k software sends, so digests, software handling and radio draws
    dominate and grid rebuilds stay cheap.  The only workload that runs
    the CLI and metrics writers and a batch of independent runs.
    """

    name = "desk-c1-compare"
    default_seed = 100
    cells = ("fp", "fcp", "pbp", "gcp")
    tokens = 5

    def inputs(self, seed: int, workdir: Path):
        # builtin c1 with the benchmark's run length, as a scenario file
        # for the CLI
        scenario = workdir / "c1.conf"
        scenario.write_text(f"builtin = c1\n[engine]\nduration_ms = {DURATION_MS}\n")
        return seed, scenario, workdir / "compare-out"

    def setup(self, inputs):
        # the spec building and Simulation construction that the CLI
        # repeats inside its run
        seed, scenario, out = inputs
        spec = scenarios.parse(scenario.read_text(encoding="utf-8"), name=scenario.stem)
        spec = scenarios.desk_scale(spec)
        for name in self.cells:
            proto = protocols.BY_NAME[name]
            cfg = proto(self.tokens) if name in ("fcp", "gcp") else proto()
            engine.Simulation(replace(spec, protocol=cfg, seed=seed))
        return inputs

    def run(self, prepared):
        seed, scenario, out = prepared
        argv = [
            "compare", "--scenario", str(scenario), "--scale", "desk",
            "--protocols", ",".join(self.cells),
            "--tokens-list", str(self.tokens),
            "--seeds", "1", "--seed", str(seed), "--out", str(out),
        ]
        records, events = [], []
        real_sim_run = engine.Simulation.run

        def capture(sim):
            rec = real_sim_run(sim)
            records.append(rec)
            events.append(sim.seq)
            return rec

        engine.Simulation.run = capture
        try:
            code = cli.main(argv)
        finally:
            engine.Simulation.run = real_sim_run
        return code, events, records

    def outcome(self, prepared, result) -> Outcome:
        out = prepared[-1]
        code, events, records = result
        problems = [] if code == 0 else [f"gossim compare exited {code}"]
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes())
        shutil.rmtree(out)
        for rec in records:
            problems.extend(invariant_problems(rec))
        if len(records) != len(self.cells):
            problems.append(f"{len(records)} runs, want {len(self.cells)}")
        return Outcome(records, digest.hexdigest(), sum(events), problems)


WORKLOADS = {w.name: w for w in (PaperC9Social(), DeskC1Compare(), TraceGcp())}
