"""gossim benchmark: one workload per invocation, JSON result on the last line.

    python3 bench/run.py --workload paper-c9-social --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` times set-up and runs of the unmodified package for about
``--seconds`` and reports the end-to-end metrics, its times scaled to the
host's reference speed by a yardstick run between runs (``calibrate.py``;
the times as measured are printed too).  ``--trace 1`` makes
one plain run and one run under span wrappers (see ``spans.py``) and
reports the per-layer metrics.  Every run's output is checked: invariants
always, determinism between runs, and the pinned digests and counters of
``golden.json`` at a workload's default seed.  Runs execute one after
another in this one process; ``--workload all`` runs every workload,
untraced then traced, in one child process at a time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch inputs and span dumps, relative to the checkout root: the trace
# file's path is part of the spec, hence of the pinned digest.
OUT = Path(".bench_out")
WORK = OUT / "work"

# Set-up is short next to a run, so after each run it is repeated on its
# own until both limits are met; setup_s is the median over the invocation.
SETUP_BATCH_SECONDS = 0.1
MIN_SETUPS_PER_BATCH = 3
MIN_RUNS = 2  # two runs at least, so every invocation checks determinism


def _import_package():
    """Import gossim from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gossim

    where = Path(gossim.__file__).resolve().parent
    if where != SRC / "gossim":
        raise ImportError(f"gossim imported from {where}, not from {SRC}")


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Checker:
    """Correctness of one invocation's runs; every mismatch fails a run."""

    def __init__(self, workload, seed: int):
        golden = json.loads((BENCH_DIR / "golden.json").read_text())[workload.name]
        self.pinned = golden if seed == golden["seed"] else None
        self.first = None  # (digest, counters) of the first checked run

    def problems(self, outcome, traced_counts=None) -> list[str]:
        found = list(outcome.problems)
        counters = outcome.counters()
        if self.first is None:
            self.first = (outcome.digest, counters)
        elif (outcome.digest, counters) != self.first:
            found.append(f"run differs from the first run: {outcome.digest[:12]}")
        if self.pinned is not None:
            if outcome.digest != self.pinned["sha256"]:
                found.append(f"digest {outcome.digest[:12]} != pinned {self.pinned['sha256'][:12]}")
            if counters != self.pinned["counters"]:
                found.append(f"counters {counters} != pinned {self.pinned['counters']}")
            if traced_counts is not None and traced_counts != self.pinned["traced_counters"]:
                found.append(f"traced counters {traced_counts} != pinned {self.pinned['traced_counters']}")
        return found


class Session:
    """Runs of one workload and the tally of attempts and failures."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.checker = Checker(workload, seed)
        self.inputs = workload.inputs(seed, workdir)
        self.attempted = 0
        self.failed = 0

    def setup(self):
        """Set up once after a collection: (prepared, seconds)."""
        gc.collect()
        s0 = time.perf_counter()
        prepared = self.workload.setup(self.inputs)
        return prepared, time.perf_counter() - s0

    def setup_batch(self) -> list[float]:
        times = []
        while len(times) < MIN_SETUPS_PER_BATCH or sum(times) < SETUP_BATCH_SECONDS:
            times.append(self.setup()[1])
        return times

    def timed_run(self):
        """Set up and run once: (setup_s, run_s, cpu_s, prepared, result) or None."""
        self.attempted += 1
        try:
            prepared, setup_s = self.setup()
            gc.collect()
            s0 = time.perf_counter()
            c0 = _cpu_seconds()
            result = self.workload.run(prepared)
            s1 = time.perf_counter()
            c1 = _cpu_seconds()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        return setup_s, s1 - s0, c1 - c0, prepared, result

    def check(self, prepared, result, traced_counts=None):
        """Check a run's output outside the timed region: its Outcome, or None."""
        try:
            outcome = self.workload.outcome(prepared, result)
            problems = self.checker.problems(outcome, traced_counts)
        except Exception:
            traceback.print_exc()
            outcome, problems = None, ["output could not be checked"]
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
        return outcome


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _show(name, value, unit, samples=None):
    shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
    line = f"  {name:34s} {shown} {unit}"
    if samples:
        q1, q3 = _quartiles(samples)
        line += f"   (median of {len(samples)}, q1 {q1:.6f}, q3 {q3:.6f})"
    print(line)


def _calibration() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the host-speed yardstick."""
    gc.collect()
    s0 = time.perf_counter()
    c0 = time.process_time()
    calibrate()
    return time.perf_counter() - s0, time.process_time() - c0


def end_to_end(session: Session, seconds: float) -> dict:
    """Time runs and set-ups for about `seconds`; return the metrics.

    Times are scaled to the host's reference speed (see calibrate.py),
    measured by the yardstick once before the first run and once after
    each run, so that the host's slow spells cancel out.  Every run is
    scaled by the two yardstick runs around it.
    """
    setups, runs, cpus, outcome = [], [], [], None
    cals = [_calibration()]
    start = time.perf_counter()
    while True:
        timed = session.timed_run()
        if timed is not None:
            setup_s, run_s, cpu_s, prepared, result = timed
            outcome = session.check(prepared, result) or outcome
            setups.append(setup_s)
            runs.append(run_s)
            cpus.append(cpu_s)
            del prepared, result, timed
            setups.extend(session.setup_batch())
            cals.append(_calibration())
        elapsed = time.perf_counter() - start
        per_run = elapsed / session.attempted
        if session.attempted >= MIN_RUNS and (elapsed + per_run > seconds or not runs):
            break
    if outcome is None:
        return {}

    counters = outcome.counters()
    # each run is scaled by the yardstick runs just before and after it;
    # set-ups, spread over the invocation, by the median of those
    slowdowns = [(a[0] + b[0]) / (2 * REFERENCE_S) for a, b in zip(cals, cals[1:])]
    cpu_slowdowns = [(a[1] + b[1]) / (2 * REFERENCE_S) for a, b in zip(cals, cals[1:])]
    measured = runs
    runs = [r / k for r, k in zip(runs, slowdowns)]
    cpus = [c / k for c, k in zip(cpus, cpu_slowdowns)]
    slowdown = statistics.median(slowdowns)
    setups = [s / slowdown for s in setups]
    run_s = statistics.median(runs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_s": (run_s, "s", runs),
        "cpu_s": (statistics.median(cpus), "s", cpus),
        "setup_s": (statistics.median(setups), "s", setups),
        "host_us_per_event": (run_s * 1e6 / counters["sim_events"], "us", None),
        "peak_rss_mb": (rss_mb, "MB", None),
    }
    print("end to end (times at the host's reference speed):")
    for name, (value, unit, samples) in metrics.items():
        _show(name, value, unit, samples)
    _show("fail_frac", session.failed / session.attempted, "ratio")
    _show("host slowdown (wall)", slowdown, "x", slowdowns)
    _show("host slowdown (cpu)", statistics.median(cpu_slowdowns), "x", cpu_slowdowns)
    print("  every run_s, as measured:", " ".join(f"{r:.4f}" for r in measured))
    print("  every calibration, as measured:", " ".join(f"{c[0]:.4f}" for c in cals))
    print(f"  output digest {outcome.digest}")
    print("counters:")
    for name, value in counters.items():
        print(f"  {name:34s} {value}")
    return {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}


def per_layer(session: Session) -> dict:
    """One plain run, then one run under spans; return per-layer metrics."""
    from spans import Tracer

    plain = session.timed_run()
    if plain is None or session.check(*plain[3:]) is None:
        return {}
    plain_run_s = plain[1]
    del plain  # free the plain run before the traced one
    tracer = Tracer()
    with tracer:
        traced = session.timed_run()
    if traced is None:
        return {}
    counts = tracer.call_counts()
    outcome = session.check(*traced[3:], traced_counts=counts)
    if outcome is None:
        return {}
    tracer.write(OUT / f"spans-{session.workload.name}-seed{session.seed}.json")

    spans = tracer.by_span()
    layer = tracer.layer_self()

    def self_s(span):
        return spans.get(span, {}).get("self_s", 0.0)

    # the radio picks every beacon receiver (beacon_rx_sum) and every
    # software receiver (one on_software call each), unless a trace replaces it
    geometric = any(r.metadata["trace_mode"] == "false" for r in outcome.records)
    receivers = 0
    if geometric:
        receivers = sum(r.beacon_rx_sum for r in outcome.records) + counts["protocols.on_software_calls"]
    examined = counts["radio.candidates_examined"]
    counters = outcome.counters()
    values = {
        "engine.self_s": (layer["engine"], "s"),
        "engine.events": (counters["engine_events"], "count"),
        "mobility.self_s": (layer["mobility"], "s"),
        "mobility.position_at_s": (self_s("mobility.NodeMotion.position_at"), "s"),
        "mobility.position_at_calls": (counts["mobility.position_at_calls"], "count"),
        "mobility.partners_s": (self_s("mobility.ContactTrace.partners"), "s"),
        "mobility.partners_calls": (counts["mobility.partners_calls"], "count"),
        "mobility.load_trace_s": (self_s("mobility.load_trace"), "s"),
        "radio.self_s": (layer["radio"], "s"),
        "radio.grid_rebuild_s": (self_s("radio.SpatialGrid.rebuild"), "s"),
        "radio.grid_rebuilds": (counts["radio.grid_rebuilds"], "count"),
        "radio.candidates_s": (self_s("radio.SpatialGrid.candidates"), "s"),
        "radio.candidates_examined": (examined, "count"),
        "radio.receivers": (receivers, "count"),
        "radio.useful_ratio": (receivers / examined if examined else 0.0, "ratio"),
        "radio.delivery_probability_s": (self_s("radio.delivery_probability"), "s"),
        "radio.delivery_probability_calls": (counts["radio.delivery_probability_calls"], "count"),
        "radio.draws": (counts["radio.draws"], "count"),
        "protocols.self_s": (layer["protocols"], "s"),
        "protocols.on_beacon_s": (self_s("protocols.on_beacon"), "s"),
        "protocols.on_beacon_calls": (counts["protocols.on_beacon_calls"], "count"),
        "protocols.on_software_s": (self_s("protocols.on_software"), "s"),
        "protocols.on_software_calls": (counts["protocols.on_software_calls"], "count"),
        "core.digest_s": (self_s("core.digest_for"), "s"),
        "core.digest_calls": (counts["core.digest_calls"], "count"),
        "metrics.s": (layer["metrics"], "s"),
        "scenarios.build_s": (layer["scenarios"], "s"),
        "cli.self_s": (layer["cli"], "s"),
        "sim_events": (counters["sim_events"], "count"),
        "beacon_receptions": (counters["beacon_receptions"], "count"),
        "software_sends": (counters["software_sends"], "count"),
        "final_coverage": (counters["final_coverage"], "count"),
        "trace.run_s": (traced[1], "s"),
        "trace.overhead_s": (traced[1] - plain_run_s, "s"),
    }
    print("per layer (one traced run; _s is self time):")
    for name, (value, unit) in values.items():
        _show(name, value, unit)
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run_all(args, names) -> dict:
    """Every workload, untraced then traced, one child process at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            print(f"== {' '.join(argv[2:])}", flush=True)
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(child.stdout)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                total["correct"] = False
                continue
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
            if trace == 0:
                table.append((name, result))
    print("end to end, all workloads:")
    for name, result in table:
        shown = [f"{m} {v['value']:.4f} {v['unit']}" for m, v in result["metrics"].items()]
        shown.append(f"fail_frac {result['failed'] / result['attempted']:.4f} ratio")
        print(f"  {name}: " + ", ".join(shown))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"bench: cannot import gossim from this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        print(json.dumps(run_all(args, list(WORKLOADS))))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print(f"workload {workload.name}, seed {seed}, trace {args.trace}")

    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        session = Session(workload, seed, WORK)
        if args.trace:
            metrics = per_layer(session)
        else:
            metrics = end_to_end(session, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"  runs attempted {session.attempted}, failed {session.failed}")
    result = {
        "correct": session.failed == 0 and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
