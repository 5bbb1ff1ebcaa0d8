"""Command-line front door: run, compare (alias sweep), bounds, validate."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import engine, metrics, protocols, scenarios
from .scenarios import ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _int(text: str, source: str) -> int:
    """int(text), or a ConfigError that names where the text came from."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad value {text!r} for {source}: expected an integer") from None


def _seed(args, spec) -> int:
    """--seed, else $GOSSIM_SEED, else the scenario's own seed."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GOSSIM_SEED")
    return _int(env, "$GOSSIM_SEED") if env else spec.seed


def _load_scenario(ref: str, scale: str) -> scenarios.ScenarioSpec:
    if ref.startswith("builtin:"):
        spec = scenarios.builtin(ref[len("builtin:"):])
    else:
        path = Path(ref)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{ref}: cannot read scenario file: {exc.strerror}") from None
        spec = scenarios.parse(text, name=path.stem)
    if scale == "desk":
        spec = scenarios.desk_scale(spec)
    return spec


def _write_run_outputs(outdir: Path, spec, rec: metrics.RunRecord):
    outdir.mkdir(parents=True, exist_ok=True)
    series = metrics.convergence_series(rec, rec.injected_version)
    metrics.write_convergence(outdir / "convergence.csv", series)
    metrics.write_load(outdir / "load.csv", metrics.load_histogram(rec))
    metrics.write_summary(outdir / "summary.csv", [metrics.summary_row(rec, spec.name)])
    meta = dict(rec.metadata)
    meta.update(
        scenario=spec.name,
        seed=str(rec.seed),
        protocol=rec.protocol,
        tokens="" if rec.tokens is None else str(rec.tokens),
        n_nodes=str(rec.n_nodes),
        workload_fingerprint=rec.workload_fingerprint,
    )
    text = "".join(f"{k} = {meta[k]}\n" for k in sorted(meta))
    (outdir / "metadata.txt").write_text(text, encoding="utf-8")


def _cmd_run(args) -> int:
    if args.tokens is not None and args.protocol is None:
        # the scenario's own protocol would run and the budget go unused
        raise ConfigError("--tokens needs --protocol")
    spec = _load_scenario(args.scenario, args.scale)
    if args.protocol is not None:
        cfg = protocols.from_name(args.protocol, args.tokens, "--tokens")
        if args.tokens is not None and not cfg.token_control:
            raise ConfigError(f"--tokens is not used: {args.protocol} spends no tokens")
        spec = replace(spec, protocol=cfg)
    spec = replace(spec, seed=_seed(args, spec))
    rec = engine.run(spec)
    _write_run_outputs(Path(args.out), spec, rec)
    return EXIT_OK


def _cmd_compare(args) -> int:
    spec = _load_scenario(args.scenario, args.scale)
    names = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not names:
        raise ConfigError(f"--protocols names no protocol: {args.protocols!r}")
    raw_tokens = args.tokens_list.split(",") if args.tokens_list else []
    tokens_list = [_int(t, "--tokens-list") for t in raw_tokens]
    # every cell's config is built before the first run, so a bad name or
    # budget fails the command before it writes anything
    first = tokens_list[0] if tokens_list else None
    cells = [  # (label, config)
        (name if k is None else f"{name}{k}", protocols.from_name(name, k))
        for name in names
        for k in (
            tokens_list
            if protocols.from_name(name, first, "--tokens-list").token_control
            else [None]
        )
    ]
    if tokens_list and not any(cfg.token_control for _, cfg in cells):
        verb = "spends" if len(names) == 1 else "spend"
        raise ConfigError(f"--tokens-list is not used: {', '.join(names)} {verb} no tokens")
    labels = [label for label, _ in cells]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        # the same cell twice would write its rows twice and its file over itself
        raise ConfigError(f"repeated protocol cells: {', '.join(repeated)}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    # flooding first: its rows lead each seed, and its run of that seed
    # is the savings baseline of the other cells
    cells.sort(key=lambda c: c[1].name != "fp")

    base_seed = _seed(args, spec)
    seeds = range(base_seed, base_seed + args.seeds)
    records = engine.run_grid(spec, [cfg for _, cfg in cells], seeds)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        for label, cfg in cells:
            rec = records[(cfg, seed)]
            series = metrics.convergence_series(rec, rec.injected_version)
            metrics.write_convergence(outdir / f"{label}_seed{seed}_convergence.csv", series)
            baseline = None if cfg.name == "fp" else records.get((protocols.fp(), seed))
            rows.append(metrics.summary_row(rec, spec.name, baseline))
    metrics.write_summary(outdir / "summary.csv", rows)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    bounds = metrics.load_bounds(
        n_v=args.nv,
        t=args.tokens,
        n_nh=args.nnh,
        d=args.duration,
        p_b=args.beacon,
        n_s=args.nodes,
    )
    print("protocol  per_node_send_bound")
    for name, value in bounds.items():
        print(f"{name:<10}{value:.4f}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import acceptance

    results = acceptance.run_suite(scale=args.scale)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        metrics.write_csv(
            outdir / "report.csv",
            ["criterion", "status", "name", "detail"],
            ([r.cid, "pass" if r.passed else "FAIL", r.name, r.detail] for r in results),
        )
    for r in results:
        print(r)
    return EXIT_OK if all(r.passed for r in results) else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossim",
        description="Gossip-based software-update dissemination simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p, default="paper"):
        p.add_argument(
            "--scale",
            choices=("paper", "desk"),
            default=default,
            help="desk shrinks node counts /10 and areas /sqrt(10)",
        )

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--scenario", required=True, help="config file or builtin:NAME")
    p_run.add_argument("--protocol", choices=tuple(protocols.BY_NAME))
    p_run.add_argument("--tokens", type=int)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    add_scale(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", aliases=["sweep"], help="matched-seed runs over a protocol grid"
    )
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--protocols", required=True, help="comma list, e.g. fp,gcp")
    p_cmp.add_argument("--tokens-list", dest="tokens_list", default="")
    p_cmp.add_argument("--seeds", type=int, default=1)
    p_cmp.add_argument("--seed", type=int, default=None, help="base seed")
    p_cmp.add_argument("--out", required=True)
    add_scale(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_b = sub.add_parser("bounds", help="print the closed-form load bounds")
    p_b.add_argument("--nv", type=int, required=True)
    p_b.add_argument("--tokens", type=int, required=True)
    p_b.add_argument("--nnh", type=float, required=True)
    p_b.add_argument("--duration", type=float, required=True)
    p_b.add_argument("--beacon", type=float, required=True)
    p_b.add_argument("--nodes", type=int, required=True)
    p_b.set_defaults(func=_cmd_bounds)

    p_v = sub.add_parser("validate", help="run the acceptance suite")
    p_v.add_argument("--out", default=None)
    add_scale(p_v, default="desk")
    p_v.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
