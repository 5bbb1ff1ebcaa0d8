"""Show that the benchmark's output check can fail.

    python3 bench/show_check_fails.py

Feeds the trace-gcp checker, armed with the pins of seed 1, a run made
from seed 2 (digest and counters must mismatch), then a copy of that
run's record with one node sending a version more often than its token
budget allows (the token-cap invariant must fire).  Exits 0 only if both
are caught.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace

from run import ROOT, WORK, Checker, _import_package


def main() -> int:
    _import_package()
    from workloads import WORKLOADS, invariant_problems

    workload = WORKLOADS["trace-gcp"]
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        checker = Checker(workload, workload.default_seed)
        sim = workload.setup(workload.inputs(workload.default_seed + 1, WORK))
        outcome = workload.outcome(sim, workload.run(sim))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    wrong_seed = checker.problems(outcome)
    print("record of another seed:", *wrong_seed, sep="\n  ")

    rec = outcome.records[0]
    node = next(iter(rec.software_sends))
    over = {**rec.software_sends, node: {rec.injected_version: rec.tokens + 1}}
    over_cap = invariant_problems(replace(rec, software_sends=over))
    print("record over its token cap:", *over_cap, sep="\n  ")
    return 0 if wrong_seed and over_cap else 1


if __name__ == "__main__":
    sys.exit(main())
