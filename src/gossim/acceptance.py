"""Acceptance suite: one callable check per release criterion.

Each criterion returns a CriterionResult; the CLI `validate` subcommand
and the test suite both run these.  Matched-seed desk runs are cached in
process so the statistical criteria share one batch.
"""

from __future__ import annotations

import filecmp
import functools
import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import mean

from . import cli, engine, metrics, mobility, protocols, scenarios
from .radio import RadioParams, delivery_probability

DESK_SEEDS = tuple(range(100, 110))
TOKEN_GRID = (2, 3, 5)
FP, PBP, FCP5, GCP5 = protocols.fp(), protocols.pbp(), protocols.fcp(5), protocols.gcp(5)
# the full protocol grid of the desk batch, in run order
CELLS = (FP, PBP) + tuple(p(k) for p in (protocols.fcp, protocols.gcp) for k in TOKEN_GRID)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.name} -- {self.detail}"


def _verdict(cid: int, name: str, facts: str, problems: list[str]) -> CriterionResult:
    """Pass with `facts` (what the criterion measured) when `problems` is
    empty; otherwise fail with `facts :: problem; problem`."""
    detail = f"{facts} :: {'; '.join(problems)}" if problems else facts
    return CriterionResult(cid, name, not problems, detail)


def _desk_spec(name: str, duration=None) -> scenarios.ScenarioSpec:
    spec = scenarios.desk_scale(scenarios.builtin(name))
    if duration is not None:
        spec = replace(spec, engine=replace(spec.engine, duration=duration))
    return spec


@functools.cache
def _batch(scenario: str) -> dict[tuple[protocols.ProtocolConfig, int], metrics.RunRecord]:
    """Matched-seed desk runs over the full protocol grid."""
    return engine.run_grid(_desk_spec(scenario), CELLS, DESK_SEEDS)


def _mean(batch, cfg, of=metrics.RunRecord.total_software_sends) -> float:
    """Mean of `of(record)` over the desk seeds of one protocol cell."""
    return mean(of(batch[(cfg, s)]) for s in DESK_SEEDS)


def _t90(rec: metrics.RunRecord) -> int:
    """Time to 90% coverage, censored at the run duration when unreached."""
    series = metrics.convergence_series(rec, rec.injected_version)
    t = metrics.time_to_fraction(series, 0.9, rec.n_nodes)
    return t if t is not None else rec.duration_ms


# -- criteria ---------------------------------------------------------------


def criterion_1_token_cap() -> CriterionResult:
    """Per-version sends <= tokens; totals <= t (GCP) / 2t (FCP) for n_v=1."""
    broken = []  # (run, node) pairs over a cap, in run order
    runs = 0
    for scenario in ("c9", "c9-social"):
        for (cfg, seed), rec in _batch(scenario).items():
            if not cfg.token_control:
                continue
            runs += 1
            k = cfg.initial_tokens
            cap_total = k if cfg.name == "gcp" else 2 * k
            for node, per in sorted(rec.software_sends.items()):
                if any(c > k for c in per.values()) or sum(per.values()) > cap_total:
                    broken.append(f"{scenario} {cfg.name}({k}) seed {seed} node {node}: {per}")
    problems = [f"{len(broken)} (run, node) pairs over a cap, first {broken[0]}"] if broken else []
    return _verdict(1, "token cap", f"caps checked on {runs} token-controlled runs", problems)


def criterion_2_radio() -> CriterionResult:
    p = RadioParams(r=3.0, R=5.0, p_min=0.3)
    checks = [
        abs(delivery_probability(2.0, p) - 1.0) < 1e-12,
        delivery_probability(6.0, p) == 0.0,
        abs(delivery_probability(5.0, p) - 0.3) < 1e-12,
        abs(delivery_probability(3.0, p) - 1.0) < 1e-12,
        # frozen oracle: 0.3 - sqrt(0.5)*(0.5-5)*0.7/4, evaluated independently
        abs(delivery_probability(4.0, p) - 0.8568465901844062) < 1e-6,
    ]
    grid = [delivery_probability(i * (p.R + 1.0) / 999.0, p) for i in range(1000)]
    monotone = all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))
    ok = all(checks) and monotone
    return CriterionResult(
        2, "radio model analytics", ok,
        f"branch values ok={all(checks)}, monotone on 1000-pt grid={monotone}",
    )


def criterion_3_flag_square() -> CriterionResult:
    """The four protocols are the corners of the (piggyback, token_control) square.

    Checked on configs, with no run: each corner derived from gcp(5) must
    equal its named config, so dropping token control must also normalize
    the unused budget.
    """
    square = ((GCP5, True, True), (PBP, True, False), (FCP5, False, True), (FP, False, False))
    wired = all(cfg.piggyback == pb and cfg.token_control == tc for cfg, pb, tc in square)
    pairs = [
        (replace(GCP5, token_control=False), PBP, "gcp minus tokens == pbp"),
        (replace(GCP5, piggyback=False), FCP5, "gcp minus piggyback == fcp"),
        (replace(GCP5, piggyback=False, token_control=False), FP, "gcp minus both == fp"),
    ]
    failures = [label for derived, named, label in pairs if derived != named]
    ok = wired and not failures
    detail = (
        "constructor flags form the square; every corner derived from gcp(5) "
        "equals its named config"
        if ok
        else f"wired={wired}, mismatches={failures}"
    )
    return CriterionResult(3, "flag square", ok, detail)


def criterion_4_speed_ordering() -> CriterionResult:
    problems = []
    censored = 0
    total = 0
    for scenario in ("c9", "c9-social"):
        batch = _batch(scenario)
        total += len(batch)
        censored += sum(_t90(rec) == rec.duration_ms for rec in batch.values())
        fp, pbp, gcp5 = (_mean(batch, cfg, of=_t90) for cfg in (FP, PBP, GCP5))
        if fp > pbp:
            problems.append(f"{scenario}: fp {fp:.0f} > pbp {pbp:.0f}")
        if abs(pbp - gcp5) > 0.2 * gcp5:
            problems.append(f"{scenario}: pbp {pbp:.0f} not within 20% of gcp5 {gcp5:.0f}")
        for k in TOKEN_GRID:
            gcp, fcp = (_mean(batch, p(k), of=_t90) for p in (protocols.gcp, protocols.fcp))
            if gcp > fcp:
                problems.append(f"{scenario}: gcp({k}) {gcp:.0f} > fcp({k}) {fcp:.0f}")
    facts = f"mean t90 orderings checked ({censored}/{total} runs censored at duration)"
    return _verdict(4, "speed ordering", facts, problems)


def criterion_5_savings(scale: str) -> CriterionResult:
    """The paper's targets on c9-social: fcp(5) saves 77-98% of flooding's
    sends and gcp(5) at least 95%, each the mean of per-seed savings.
    `scale` picks only the grid: paper seeds 1-3, or the desk batch."""
    if scale == "paper":
        seeds = (1, 2, 3)
        recs = engine.run_grid(scenarios.builtin("c9-social"), (FP, FCP5, GCP5), seeds)
    elif scale == "desk":
        seeds, recs = DESK_SEEDS, _batch("c9-social")
    else:
        raise ValueError(f"unknown scale {scale!r}: expected 'paper' or 'desk'")
    fcp_s, gcp_s = (
        mean(metrics.savings(recs[(cfg, s)], recs[(FP, s)]) for s in seeds)
        for cfg in (FCP5, GCP5)
    )
    problems = []
    if not 77.0 <= fcp_s <= 98.0:
        problems.append(f"fcp(5) {fcp_s:.2f}% not in [77, 98]")
    if not gcp_s >= 95.0:
        problems.append(f"gcp(5) {gcp_s:.2f}% not >= 95")
    facts = (
        f"{scale} scale, mean over seeds {seeds[0]}-{seeds[-1]}: "
        f"fcp(5)={fcp_s:.2f}% gcp(5)={gcp_s:.2f}%"
    )
    return _verdict(5, "message savings", facts, problems)


def criterion_6_load_ordering() -> CriterionResult:
    batch = _batch("c9-social")
    fp_t, pbp_t, fcp_t, gcp_t = (_mean(batch, cfg) for cfg in (FP, PBP, FCP5, GCP5))
    problems = []
    if not fp_t > 10.0 * pbp_t:
        problems.append(f"fp {fp_t:.1f} not > 10x pbp {pbp_t:.1f}")
    if not pbp_t > fcp_t:
        problems.append(f"pbp {pbp_t:.1f} not > fcp(5) {fcp_t:.1f}")
    if not fcp_t > gcp_t:
        problems.append(f"fcp(5) {fcp_t:.1f} not > gcp(5) {gcp_t:.1f}")
    facts = f"mean sends fp={fp_t:.1f} pbp={pbp_t:.1f} fcp5={fcp_t:.1f} gcp5={gcp_t:.1f}"
    return _verdict(6, "load ordering", facts, problems)


def criterion_7_fp_load_law() -> CriterionResult:
    batch = _batch("c9")
    problems = [
        f"seed {s}: sends != beacon receptions" for s in DESK_SEEDS
        if batch[(FP, s)].total_software_sends() != batch[(FP, s)].beacon_receptions
    ]
    # linearity needs a dense workload so receptions concentrate
    short, long = (
        sum(
            rec.total_software_sends()
            for rec in engine.run_grid(_desk_spec("c1", d), (FP,), (100, 101, 102)).values()
        )
        for d in (10_000, 20_000)
    )
    ratio = long / short if short else math.nan
    if not abs(ratio - 2.0) <= 0.2:
        problems.append(f"x{ratio:.3f} not within 2.0 +/- 10%")
    facts = (
        f"sends==beacon receptions checked on {len(DESK_SEEDS)} runs; "
        f"doubling duration takes sends {short} -> {long} (x{ratio:.3f})"
    )
    return _verdict(7, "fp load law", facts, problems)


def criterion_8_determinism() -> CriterionResult:
    config = "builtin = c9\nseed = 42\n[engine]\nduration_ms = 15000\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_path = tmp / "scenario.cfg"
        cfg_path.write_text(config, encoding="utf-8")
        args = [
            "run", "--scenario", str(cfg_path), "--protocol", "gcp",
            "--tokens", "5", "--scale", "desk",
        ]
        code_a = cli.main(args + ["--out", str(tmp / "a")])
        code_b = cli.main(args + ["--out", str(tmp / "b")])
        if code_a != 0 or code_b != 0:
            return CriterionResult(8, "determinism", False, "run failed")
        names = sorted(p.name for p in (tmp / "a").iterdir())
        same, diff, funny = filecmp.cmpfiles(tmp / "a", tmp / "b", names, shallow=False)
        ok = not diff and not funny and set(same) == set(names)
    return CriterionResult(
        8, "determinism", ok, f"byte-identical files: {sorted(same)}"
    )


def criterion_9_reliability() -> CriterionResult:
    v0 = metrics.gossip_reliability(0.0)
    v3 = metrics.gossip_reliability(3.0)
    grid = [metrics.gossip_reliability(-5.0 + i * 0.01) for i in range(2001)]
    monotone = all(a < b for a, b in zip(grid, grid[1:]))
    ok = (
        abs(v0 - math.exp(-1.0)) < 1e-9
        and abs(v3 - 0.951431) < 1e-5
        and monotone
    )
    return CriterionResult(
        9, "reliability formula", ok,
        f"f(0)={v0:.9f}, f(3)={v3:.6f}, strictly increasing={monotone}",
    )


def _eventually_connected(spec, injected: int) -> bool:
    """Oracle: can flooding reach everyone from the injected node?

    Takes the node trajectories of the engine's own set-up for `spec`,
    samples the certain-delivery graph (d < r) every 250 ms, and
    propagates reachability through its components by brute force,
    without the engine's grid or radio draws.  Conservative: brief
    contacts between samples are ignored.
    """
    motions = engine.Simulation(spec).motions
    n = len(motions)
    reached = {injected}
    r2 = spec.radio.r ** 2
    for t in range(spec.engine.injection_time, spec.engine.duration + 1, 250):
        pos = [m.position_at(t) for m in motions]
        # components of the certain-delivery graph, brute force
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(n):
            xi, yi = pos[i]
            for j in range(i + 1, n):
                xj, yj = pos[j]
                if (xi - xj) ** 2 + (yi - yj) ** 2 < r2:
                    parent[find(i)] = find(j)
        roots = {find(i) for i in reached}
        reached = {i for i in range(n) if find(i) in roots}
        if len(reached) == n:
            return True
    return False


def criterion_10_convergence_shape() -> CriterionResult:
    problems = []
    # (a) series are non-decreasing on every cached run
    for scenario in ("c9", "c9-social"):
        for rec in _batch(scenario).values():
            series = metrics.convergence_series(rec, rec.injected_version)
            if any(b < a for (_, a), (_, b) in zip(series, series[1:])):
                problems.append(f"non-monotone series in {scenario}")
                break
    # (b) flooding reaches everyone on connected scenarios
    dense = scenarios.ScenarioSpec(
        name="dense-connected",
        clusters=(scenarios.Cluster(60, mobility.AreaRect(0, 0, 16, 16)),),
        engine=engine.EngineParams(duration=6_000),
        protocol=protocols.fp(),
        seed=23,
    )
    desk = [replace(_desk_spec(n), protocol=FP, seed=23) for n in scenarios.BUILTIN_NAMES]
    # trace replay is eventually connected by construction of the sample
    trace = scenarios.trace_scenario(scenarios.sample_trace_path(), FP, seed=23)
    checked = []
    for spec in [dense, *desk, trace]:
        rec = engine.run(spec)
        if spec is not trace and not _eventually_connected(spec, rec.update_events[0][1]):
            continue  # not a connected scenario within this run
        checked.append(spec.name)
        final = metrics.convergence_series(rec, rec.injected_version)[-1][1]
        if final != rec.n_nodes:
            problems.append(f"{spec.name}: fp reached {final}/{rec.n_nodes}")
    if "dense-connected" not in checked:
        problems.append("connectivity oracle rejected the dense scenario")
    facts = f"series checked for monotony; fp coverage checked on connected scenarios: {checked}"
    return _verdict(10, "convergence-series shape", facts, problems)


def run_suite(scale: str) -> list[CriterionResult]:
    return [
        criterion_1_token_cap(),
        criterion_2_radio(),
        criterion_3_flag_square(),
        criterion_4_speed_ordering(),
        criterion_5_savings(scale),
        criterion_6_load_ordering(),
        criterion_7_fp_load_law(),
        criterion_8_determinism(),
        criterion_9_reliability(),
        criterion_10_convergence_shape(),
    ]
