"""Declarative workload definitions and the scenario config file format.

Eight builtin synthetic workloads (single, sparse, overlapping,
bordered, and transmitter-bridged cluster layouts) plus a trace-driven
mode where a contact trace replaces geometry and radio entirely.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Optional

from .engine import EngineParams
from .mobility import AreaRect, MobilityParams
from .protocols import ProtocolConfig, gcp
from .radio import RadioParams


class ConfigError(ValueError):
    """Scenario file rejected; message carries line number or field name."""


@dataclass(frozen=True)
class Cluster:
    node_count: int
    area: AreaRect

    def __post_init__(self):
        if self.node_count <= 0:
            raise ConfigError("cluster node count must be positive")


@dataclass(frozen=True)
class TransmitterGroup:
    count: int
    area: AreaRect

    def __post_init__(self):
        if self.count <= 0:
            raise ConfigError("transmitter count must be positive")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    clusters: tuple[Cluster, ...]
    transmitters: Optional[TransmitterGroup]
    mobility: MobilityParams
    radio: Optional[RadioParams]
    engine: EngineParams
    protocol: ProtocolConfig
    seed: int
    trace: Optional[str] = None

    def __post_init__(self):
        if self.trace is not None:
            if self.clusters or self.transmitters or self.radio is not None:
                raise ConfigError("trace mode excludes clusters and radio geometry")
        else:
            if not self.clusters:
                raise ConfigError("a geometric scenario needs at least one cluster")
            if self.radio is None:
                raise ConfigError("a geometric scenario needs radio parameters")

    @property
    def n_nodes(self) -> int:
        n = sum(c.node_count for c in self.clusters)
        if self.transmitters is not None:
            n += self.transmitters.count
        return n

    def node_areas(self) -> Iterator[tuple[int, AreaRect]]:
        """(count, roaming area) groups in node-id order."""
        for c in self.clusters:
            yield c.node_count, c.area
        if self.transmitters is not None:
            yield self.transmitters.count, self.transmitters.area

    def workload_fingerprint(self) -> str:
        """Identifies the workload minus the protocol, for fair pairing."""
        parts = [
            repr([(c.node_count, c.area) for c in self.clusters]),
            repr(self.transmitters),
            repr(self.mobility),
            repr(self.radio),
            repr(self.engine),
            repr(self.seed),
            repr(self.trace),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


_DEFAULT_RADIO = RadioParams(r=3.0, R=5.0, p_min=0.3)


def sample_trace_path() -> str:
    """Tiny synthetic contact trace shipped with the package."""
    return str(Path(__file__).parent / "data" / "sample_trace.csv")


def trace_scenario(
    trace_path: str, protocol: Optional[ProtocolConfig] = None, seed: int = 0
) -> ScenarioSpec:
    """Trace-replay scenario: contacts replace geometry and radio."""
    return ScenarioSpec(
        name="trace",
        clusters=(),
        transmitters=None,
        mobility=MobilityParams(),
        radio=None,
        engine=EngineParams(),
        protocol=protocol if protocol is not None else gcp(5),
        seed=seed,
        trace=trace_path,
    )

BUILTIN_NAMES = (
    "c1", "c1-sparse", "c2", "c2-social", "c4", "c4-social", "c9", "c9-social"
)


def _rect(x0, y0, x1, y1) -> AreaRect:
    return AreaRect(float(x0), float(y0), float(x1), float(y1))


def _tiles(per_row: int, size: float, pitch: float) -> list[AreaRect]:
    return [
        _rect(i * pitch, j * pitch, i * pitch + size, j * pitch + size)
        for j in range(per_row)
        for i in range(per_row)
    ]


def _builtin_geometry(name: str):
    if name == "c1":
        return [(2000, _rect(0, 0, 250, 250))], None
    if name == "c1-sparse":
        return [(2000, _rect(0, 0, 1100, 1100))], None
    if name == "c2":
        # two 800x800 rectangles overlapping in a 100x100 corner square
        return [
            (1000, _rect(0, 0, 800, 800)),
            (1000, _rect(700, 700, 1500, 1500)),
        ], None
    if name == "c2-social":
        return [
            (950, _rect(0, 0, 800, 800)),
            (950, _rect(1200, 1200, 2000, 2000)),
        ], TransmitterGroup(100, _rect(0, 0, 2000, 2000))
    if name == "c4":
        return [(500, a) for a in _tiles(2, 550, 550)], None
    if name == "c4-social":
        return (
            [(475, a) for a in _tiles(2, 550, 750)],
            TransmitterGroup(100, _rect(0, 0, 1300, 1300)),
        )
    if name == "c9":
        return [(250, a) for a in _tiles(3, 400, 400)], None
    if name == "c9-social":
        return (
            [(240, a) for a in _tiles(3, 400, 550)],
            TransmitterGroup(90, _rect(0, 0, 1500, 1500)),
        )
    raise ConfigError(f"unknown builtin scenario {name!r}")


def builtin(name: str, protocol: Optional[ProtocolConfig] = None, seed: int = 0) -> ScenarioSpec:
    clusters, transmitters = _builtin_geometry(name)
    return ScenarioSpec(
        name=name,
        clusters=tuple(Cluster(n, a) for n, a in clusters),
        transmitters=transmitters,
        mobility=MobilityParams(),
        radio=_DEFAULT_RADIO,
        engine=EngineParams(),
        protocol=protocol if protocol is not None else gcp(5),
        seed=seed,
    )


def desk_scale(spec: ScenarioSpec) -> ScenarioSpec:
    """Shrink node counts by 10 and lengths by sqrt(10), keeping density."""
    if spec.trace is not None:
        return spec
    s = 1.0 / math.sqrt(10.0)

    def shrink(a: AreaRect) -> AreaRect:
        return AreaRect(a.x_min * s, a.y_min * s, a.x_max * s, a.y_max * s)

    clusters = tuple(
        Cluster(max(1, round(c.node_count / 10)), shrink(c.area))
        for c in spec.clusters
    )
    transmitters = spec.transmitters
    if transmitters is not None:
        transmitters = TransmitterGroup(
            max(1, round(transmitters.count / 10)), shrink(transmitters.area)
        )
    return replace(
        spec,
        name=spec.name + "@desk",
        clusters=clusters,
        transmitters=transmitters,
    )


# -- config file format ----------------------------------------------------

_SECTIONS = ("cluster", "transmitters", "radio", "engine", "protocol")
_TOP_KEYS = ("builtin", "seed", "trace")
_SECTION_KEYS = {
    "cluster": ("nodes", "area"),
    "transmitters": ("count", "area"),
    "radio": ("r", "R", "p_min"),
    "engine": (
        "beacon_period_ms", "duration_ms", "injection_time_ms",
        "delivery_latency_ms", "injected_version", "corruption_probability",
    ),
    "protocol": ("piggyback", "token_control", "tokens"),
}


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_area(value: str, lineno: int) -> AreaRect:
    parts = value.split()
    if len(parts) != 4:
        raise ConfigError(f"line {lineno}: area needs 4 numbers (x_min y_min x_max y_max)")
    try:
        x0, y0, x1, y1 = (float(v) for v in parts)
    except ValueError:
        raise ConfigError(f"line {lineno}: area values must be numbers") from None
    try:
        return AreaRect(x0, y0, x1, y1)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


# a comment opens at a '#' that starts the line or follows whitespace,
# so a value such as a trace path may hold '#' elsewhere
_COMMENT = re.compile(r"(?:^|\s)#")


def parse(config_text: str, name: str = "custom") -> ScenarioSpec:
    """Parse and validate a scenario config (key = value, [section]s)."""
    sections: list[tuple[str, dict]] = []
    top: dict[str, tuple[str, int]] = {}
    current: Optional[dict] = None
    current_name = ""
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        comment = _COMMENT.search(raw)
        line = (raw[: comment.start()] if comment else raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if current_name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current_name}]")
            if current_name != "cluster" and any(
                n == current_name for n, _ in sections
            ):
                raise ConfigError(f"line {lineno}: duplicate section [{current_name}]")
            current = {}
            sections.append((current_name, current))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            if key not in _TOP_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in top:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            top[key] = (value, lineno)
        else:
            allowed = _SECTION_KEYS[current_name]
            if key not in allowed:
                raise ConfigError(
                    f"line {lineno}: unknown key {key!r} in [{current_name}]"
                )
            if key in current:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            current[key] = (value, lineno)
    return _build(top, sections, name)


def _get(section: dict, key: str, conv, default=None):
    if key not in section:
        return default
    value, lineno = section[key]
    try:
        return conv(value)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {value!r} for {key!r}") from None


def _build(top: dict, sections: list[tuple[str, dict]], name: str) -> ScenarioSpec:
    by_name: dict[str, dict] = {}
    clusters_raw: list[dict] = []
    for sec_name, sec in sections:
        if sec_name == "cluster":
            clusters_raw.append(sec)
        else:
            by_name[sec_name] = sec

    base: Optional[ScenarioSpec] = None
    if "builtin" in top:
        if clusters_raw or "transmitters" in by_name or "trace" in top:
            raise ConfigError("builtin cannot be combined with explicit geometry")
        name = top["builtin"][0]
        base = builtin(name)

    seed = _get(top, "seed", int, 0)
    trace = _get(top, "trace", str)

    clusters: tuple[Cluster, ...] = base.clusters if base else ()
    transmitters = base.transmitters if base else None
    if clusters_raw:
        built = []
        for sec in clusters_raw:
            nodes = _get(sec, "nodes", int)
            area = sec.get("area")
            if nodes is None or area is None:
                raise ConfigError("each [cluster] needs nodes and area")
            built.append(Cluster(nodes, _parse_area(*area)))
        clusters = tuple(built)
    if "transmitters" in by_name:
        sec = by_name["transmitters"]
        count = _get(sec, "count", int)
        area = sec.get("area")
        if count is None or area is None:
            raise ConfigError("[transmitters] needs count and area")
        transmitters = TransmitterGroup(count, _parse_area(*area))

    radio = base.radio if base else (_DEFAULT_RADIO if trace is None else None)
    if "radio" in by_name:
        sec = by_name["radio"]
        defaults = radio or _DEFAULT_RADIO
        try:
            radio = RadioParams(
                r=_get(sec, "r", float, defaults.r),
                R=_get(sec, "R", float, defaults.R),
                p_min=_get(sec, "p_min", float, defaults.p_min),
            )
        except ValueError as exc:
            raise ConfigError(f"radio: {exc}") from None

    engine = base.engine if base else EngineParams()
    if "engine" in by_name:
        sec = by_name["engine"]
        try:
            engine = EngineParams(
                beacon_period=_get(sec, "beacon_period_ms", int, engine.beacon_period),
                duration=_get(sec, "duration_ms", int, engine.duration),
                injection_time=_get(
                    sec, "injection_time_ms", int, engine.injection_time
                ),
                delivery_latency=_get(
                    sec, "delivery_latency_ms", int, engine.delivery_latency
                ),
                injected_version=_get(
                    sec, "injected_version", int, engine.injected_version
                ),
                corruption_probability=_get(
                    sec, "corruption_probability", float, engine.corruption_probability
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"engine: {exc}") from None

    protocol = base.protocol if base else gcp(5)
    if "protocol" in by_name:
        sec = by_name["protocol"]
        piggyback = _get(sec, "piggyback", _parse_bool, protocol.piggyback)
        token_control = _get(
            sec, "token_control", _parse_bool, protocol.token_control
        )
        tokens = _get(sec, "tokens", int, protocol.initial_tokens)
        try:
            protocol = ProtocolConfig(piggyback, token_control, tokens)
        except ValueError as exc:
            raise ConfigError(f"protocol: {exc}") from None

    try:
        return ScenarioSpec(
            name=name,
            clusters=clusters,
            transmitters=transmitters,
            mobility=MobilityParams(),
            radio=radio,
            engine=engine,
            protocol=protocol,
            seed=seed,
            trace=trace,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(x: float) -> str:
    return repr(x)


def render(spec: ScenarioSpec) -> str:
    """Emit the config-file form of a spec; parse(render(s)) == s.

    Raises ValueError for a trace path that no config line can hold: one
    with leading or trailing whitespace, a line break, or a '#' at its
    start or after whitespace (parse would read a comment there).
    """
    lines = [f"seed = {spec.seed}"]
    if spec.trace is not None:
        path = spec.trace
        if path != path.strip() or len(path.splitlines()) > 1 or _COMMENT.search(path):
            raise ValueError(f"trace path {path!r} cannot be written to a scenario file")
        lines.append(f"trace = {path}")
    for c in spec.clusters:
        lines.append("[cluster]")
        lines.append(f"nodes = {c.node_count}")
        a = c.area
        lines.append(
            f"area = {_fmt(a.x_min)} {_fmt(a.y_min)} {_fmt(a.x_max)} {_fmt(a.y_max)}"
        )
    if spec.transmitters is not None:
        t = spec.transmitters
        lines.append("[transmitters]")
        lines.append(f"count = {t.count}")
        a = t.area
        lines.append(
            f"area = {_fmt(a.x_min)} {_fmt(a.y_min)} {_fmt(a.x_max)} {_fmt(a.y_max)}"
        )
    if spec.radio is not None:
        lines.append("[radio]")
        lines.append(f"r = {_fmt(spec.radio.r)}")
        lines.append(f"R = {_fmt(spec.radio.R)}")
        lines.append(f"p_min = {_fmt(spec.radio.p_min)}")
    lines.append("[engine]")
    lines.append(f"beacon_period_ms = {spec.engine.beacon_period}")
    lines.append(f"duration_ms = {spec.engine.duration}")
    lines.append(f"injection_time_ms = {spec.engine.injection_time}")
    lines.append(f"delivery_latency_ms = {spec.engine.delivery_latency}")
    lines.append(f"injected_version = {spec.engine.injected_version}")
    lines.append(f"corruption_probability = {_fmt(spec.engine.corruption_probability)}")
    lines.append("[protocol]")
    lines.append(f"piggyback = {str(spec.protocol.piggyback).lower()}")
    lines.append(f"token_control = {str(spec.protocol.token_control).lower()}")
    if spec.protocol.token_control:
        lines.append(f"tokens = {spec.protocol.initial_tokens}")
    return "\n".join(lines) + "\n"
