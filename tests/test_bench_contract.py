"""Names the benchmark under bench/ reads from the package.

The benchmark's tracer (bench/spans.py) wraps its TARGETS by name, and
its workloads (bench/workloads.py) read a few more names.  A refactor
that deletes or renames one of them fails here in seconds, rather than
in a traced benchmark run.  This file only reads bench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gossim import engine, mobility, protocols, scenarios

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, path) for module, path, _ in _bench_module("spans").TARGETS]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_tracer_target_resolves(module, path):
    # looked up as the tracer does: vars(cls)[attr] for a method, else a
    # module attribute
    owner = importlib.import_module(f"gossim.{module}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(owner, cls_name))[attr])
    else:
        assert callable(getattr(owner, path))


def test_protocol_table():
    for name, make in protocols.BY_NAME.items():
        # the workloads call fcp and gcp with a budget, fp and pbp without
        cfg = make(5) if name in ("fcp", "gcp") else make()
        assert cfg.name == name


def test_workload_names():
    assert mobility.TRACE_HEADER == ["t_start_ms", "t_end_ms", "node_a", "node_b"]
    assert callable(protocols.gcp) and callable(scenarios.parse)
    sim = engine.Simulation(scenarios.desk_scale(scenarios.builtin("c9", seed=1)))
    assert sim.seq == 0
    sim.run()
    assert sim.seq > 0  # events scheduled, read as engine.events
