"""Spans around calls into gossim's layers, recorded from outside the package.

The tracer replaces public functions and methods with timing wrappers
and puts the originals back afterwards; nothing under ``src/`` changes.
A module that imported a function by name (``engine`` binds
``on_beacon``, ``digest_for``, ``delivery_probability`` ...) holds its
own reference, so every gossim module that binds the original gets the
wrapper.  Wrappers nest on one stack, so a span's self time is its
duration minus the spans it caused, wrappers included: tracer
bookkeeping counts in no layer's self time, and only the bare cost of
calling a wrapper stays with its caller.  Spans are aggregated in memory
per (caller span, span) edge and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _count_candidates(counts, args, result):
    counts["radio.candidates_examined"] += len(result)


def _count_draws(counts, args, result):
    # the engine draws from the radio stream exactly when 0 < p < 1
    counts["radio.draws"] += 0.0 < result < 1.0


# (module, attribute path, counter hook); a module is a layer
TARGETS = [
    ("engine", "run", None),
    ("engine", "Simulation.__init__", None),
    ("engine", "Simulation.run", None),
    ("engine", "verify_digest", None),
    ("mobility", "NodeMotion.position_at", None),
    ("mobility", "ContactTrace.partners", None),
    ("mobility", "load_trace", None),
    ("radio", "SpatialGrid.rebuild", None),
    ("radio", "SpatialGrid.candidates", _count_candidates),
    ("radio", "delivery_probability", _count_draws),
    ("protocols", "on_beacon", None),
    ("protocols", "on_software", None),
    ("core", "digest_for", None),
    ("metrics", "convergence_series", None),
    ("metrics", "summary_row", None),
    ("metrics", "load_histogram", None),
    ("metrics", "write_convergence", None),
    ("metrics", "write_load", None),
    ("metrics", "write_summary", None),
    ("scenarios", "builtin", None),
    ("scenarios", "desk_scale", None),
    ("scenarios", "trace_scenario", None),
    ("cli", "main", None),
]

LAYERS = ("engine", "mobility", "radio", "protocols", "core", "metrics", "scenarios", "cli")

ROOT = "<root>"


class Tracer:
    """Installs span wrappers on ``TARGETS``; use as a context manager."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total_s, child_s]
        self.counts = {"radio.candidates_examined": 0, "radio.draws": 0}
        self.layer_of = {f"{mod}.{path}": mod for mod, path, _ in TARGETS}
        self._stack = [[ROOT, 0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        stack, edges, counts = self._stack, self.edges, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            enter = clock()
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, dt, frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += dt
                    edge[2] += frame[1]
            if hook is not None:
                hook(counts, args, result)
            # the caller's self time loses this wrapper's bookkeeping too
            parent[1] += clock() - enter
            return result

        return span

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == "gossim" or k.startswith("gossim.")]
        for mod_name, path, hook in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules[f"gossim.{mod_name}"]
            if "." in path:  # Class.method: patch the class once
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr], hook))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        return False

    def by_span(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name, over all callers."""
        out: dict[str, dict[str, float]] = {}
        for (_, name), (calls, total, child) in self.edges.items():
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += calls
            agg["total_s"] += total
            agg["self_s"] += total - child
        return out

    def call_counts(self) -> dict[str, int]:
        """The deterministic call counts of the traced run."""
        spans = self.by_span()

        def calls(span):
            return int(spans.get(span, {}).get("calls", 0))

        return {
            "mobility.position_at_calls": calls("mobility.NodeMotion.position_at"),
            "mobility.partners_calls": calls("mobility.ContactTrace.partners"),
            "radio.grid_rebuilds": calls("radio.SpatialGrid.rebuild"),
            "radio.candidates_examined": self.counts["radio.candidates_examined"],
            "radio.delivery_probability_calls": calls("radio.delivery_probability"),
            "radio.draws": self.counts["radio.draws"],
            "protocols.on_beacon_calls": calls("protocols.on_beacon"),
            "protocols.on_software_calls": calls("protocols.on_software"),
            "core.digest_calls": calls("core.digest_for"),
        }

    def layer_self(self) -> dict[str, float]:
        spans = self.by_span()
        return {
            layer: sum((v["self_s"] for k, v in spans.items() if self.layer_of[k] == layer), 0.0)
            for layer in LAYERS
        }

    def write(self, path) -> None:
        rows = [
            {"caller": parent, "span": name, "calls": calls,
             "total_s": total, "self_s": total - child}
            for (parent, name), (calls, total, child) in sorted(self.edges.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"edges": rows, "counts": self.counts}, fh, indent=1)
