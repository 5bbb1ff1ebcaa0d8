"""Re-pin golden.json: each workload's output digest and counters.

    python3 bench/pin.py [WORKLOAD ...]

Runs every named workload (all by default) once plainly and once under
the span wrappers, at its default seed, and writes the sha256 of its
output, its counters and the traced call counts into ``golden.json``.
Run it only in a change that alters what the workloads compute (their
inputs, or the model), and say why in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, ROOT, WORK, _import_package


def pin(workload) -> dict:
    from spans import Tracer

    seed = workload.default_seed
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.inputs(seed, WORK)
        prepared = workload.setup(inputs)
        outcome = workload.outcome(prepared, workload.run(prepared))
        with Tracer() as tracer:
            prepared = workload.setup(inputs)
            traced = workload.outcome(prepared, workload.run(prepared))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    problems = outcome.problems + traced.problems
    if (traced.digest, traced.counters()) != (outcome.digest, outcome.counters()):
        problems.append("the traced run differs from the plain run")
    if problems:
        raise SystemExit(f"{workload.name}: " + "; ".join(problems))
    return {
        "seed": seed,
        "sha256": outcome.digest,
        "counters": outcome.counters(),
        "traced_counters": tracer.call_counts(),
    }


def main(argv=None) -> int:
    _import_package()
    from workloads import WORKLOADS

    names = (sys.argv[1:] if argv is None else argv) or list(WORKLOADS)
    path = BENCH_DIR / "golden.json"
    golden = json.loads(path.read_text())
    os.chdir(ROOT)  # the trace file's relative path is part of the digest
    for name in names:
        golden[name] = pin(WORKLOADS[name])
        print(f"{name}: {golden[name]['sha256']}")
    path.write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
