"""Declarative workload definitions and the scenario config file format.

Eight builtin synthetic workloads (single, sparse, overlapping,
bordered, and transmitter-bridged cluster layouts) plus a trace-driven
mode where a contact trace replaces geometry and radio entirely.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Optional

from .engine import KEYS as ENGINE_KEYS, EngineParams
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
            raise ConfigError("node count must be positive")


@dataclass(frozen=True)
class ScenarioSpec:
    """One workload: node layout, mobility, radio, engine and protocol.

    The defaults are the paper's: no transmitters, default mobility and
    engine, the radio r=3, R=5, p_min=0.3, gcp(5) and seed 0.  A trace
    spec replays contacts instead of geometry and passes `radio=None`
    and no clusters.
    """

    name: str
    clusters: tuple[Cluster, ...]
    transmitters: Optional[Cluster] = None
    mobility: MobilityParams = MobilityParams()
    radio: Optional[RadioParams] = RadioParams(r=3.0, R=5.0, p_min=0.3)
    engine: EngineParams = EngineParams()
    protocol: ProtocolConfig = gcp(5)
    seed: int = 0
    trace: Optional[str] = None

    def __post_init__(self):
        if self.trace is not None:
            if not self.trace:
                raise ConfigError("a trace scenario needs a trace path")
            if self.clusters or self.transmitters or self.radio is not None:
                raise ConfigError("trace mode excludes clusters and radio geometry")
        else:
            if not self.clusters:
                raise ConfigError("a geometric scenario needs at least one cluster")
            if self.radio is None:
                raise ConfigError("a geometric scenario needs radio parameters")

    def node_areas(self) -> Iterator[tuple[int, AreaRect]]:
        """(count, roaming area) groups in node-id order, transmitters last."""
        extra = () if self.transmitters is None else (self.transmitters,)
        for group in self.clusters + extra:
            yield group.node_count, group.area

    def workload_fingerprint(self) -> str:
        """Identifies the workload minus the protocol, for fair pairing."""
        t = self.transmitters
        parts = [
            repr([(c.node_count, c.area) for c in self.clusters]),
            # spelled as the repr of the class transmitters once had, so the
            # fingerprint, and every pinned RunRecord digest, keeps its bytes
            "None" if t is None else f"TransmitterGroup(count={t.node_count!r}, area={t.area!r})",
            repr(self.mobility),
            repr(self.radio),
            repr(self.engine),
            repr(self.seed),
            repr(self.trace),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# field -> default value; name and clusters have none (MISSING)
_DEFAULTS = {f.name: f.default for f in fields(ScenarioSpec)}


def sample_trace_path() -> str:
    """Tiny synthetic contact trace shipped with the package."""
    return str(Path(__file__).parent / "data" / "sample_trace.csv")


def trace_scenario(
    trace_path: str, protocol: Optional[ProtocolConfig] = None, seed: int = 0
) -> ScenarioSpec:
    """Trace-replay scenario: contacts replace geometry and radio."""
    spec = ScenarioSpec(name="trace", clusters=(), radio=None, seed=seed, trace=trace_path)
    return spec if protocol is None else replace(spec, protocol=protocol)


def _rect(x0, y0, x1, y1) -> AreaRect:
    return AreaRect(float(x0), float(y0), float(x1), float(y1))


def _tiles(per_row: int, size: float, pitch: float) -> list[AreaRect]:
    return [
        _rect(i * pitch, j * pitch, i * pitch + size, j * pitch + size)
        for j in range(per_row)
        for i in range(per_row)
    ]


# name -> (clusters as (node count, area), transmitters or None)
_BUILTINS = {
    "c1": ([(2000, _rect(0, 0, 250, 250))], None),
    "c1-sparse": ([(2000, _rect(0, 0, 1100, 1100))], None),
    # two 800x800 rectangles overlapping in a 100x100 corner square
    "c2": ([(1000, _rect(0, 0, 800, 800)), (1000, _rect(700, 700, 1500, 1500))], None),
    "c2-social": (
        [(950, _rect(0, 0, 800, 800)), (950, _rect(1200, 1200, 2000, 2000))],
        Cluster(100, _rect(0, 0, 2000, 2000)),
    ),
    "c4": ([(500, a) for a in _tiles(2, 550, 550)], None),
    "c4-social": (
        [(475, a) for a in _tiles(2, 550, 750)],
        Cluster(100, _rect(0, 0, 1300, 1300)),
    ),
    "c9": ([(250, a) for a in _tiles(3, 400, 400)], None),
    "c9-social": (
        [(240, a) for a in _tiles(3, 400, 550)],
        Cluster(90, _rect(0, 0, 1500, 1500)),
    ),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, protocol: Optional[ProtocolConfig] = None, seed: int = 0) -> ScenarioSpec:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin scenario {name!r}")
    clusters, transmitters = _BUILTINS[name]
    spec = ScenarioSpec(
        name=name,
        clusters=tuple(Cluster(n, a) for n, a in clusters),
        transmitters=transmitters,
        seed=seed,
    )
    return spec if protocol is None else replace(spec, protocol=protocol)


def desk_scale(spec: ScenarioSpec) -> ScenarioSpec:
    """Shrink node counts by 10 and lengths by sqrt(10), keeping density."""
    if spec.trace is not None:
        return spec
    s = 1.0 / math.sqrt(10.0)

    def shrink(group: Cluster) -> Cluster:
        a = group.area
        return Cluster(
            max(1, round(group.node_count / 10)),
            AreaRect(a.x_min * s, a.y_min * s, a.x_max * s, a.y_max * s),
        )

    return replace(
        spec,
        name=spec.name + "@desk",
        clusters=tuple(map(shrink, spec.clusters)),
        transmitters=None if spec.transmitters is None else shrink(spec.transmitters),
    )


# -- config file format ----------------------------------------------------


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_area(value: str) -> AreaRect:
    parts = value.split()
    if len(parts) != 4:
        raise ConfigError("area needs 4 numbers (x_min y_min x_max y_max)")
    try:
        x0, y0, x1, y1 = (float(v) for v in parts)
    except ValueError:
        raise ConfigError("area values must be numbers") from None
    try:
        return AreaRect(x0, y0, x1, y1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_path(value: str) -> str:
    if not value:
        raise ConfigError("trace needs a file path")
    return value


# The file format, stated once: parse checks keys against these rows,
# _build applies them and render writes them.  A row maps a file key to
# the dataclass field it sets and the converter that reads its value.
# Top-level rows set ScenarioSpec fields; `builtin` picks the base spec.
_TOP = (("seed", "seed", int), ("trace", "trace", _parse_path))
_SCHEMA = {
    # a group section builds a new object and needs every key; [cluster]
    # may repeat
    "cluster": (("nodes", "node_count", int), ("area", "area", _parse_area)),
    "transmitters": (("count", "node_count", int), ("area", "area", _parse_area)),
    # any other section overrides fields of the base spec's value, and
    # fills the ScenarioSpec field of its own name
    "radio": (("r", "r", float), ("R", "R", float), ("p_min", "p_min", float)),
    "engine": ENGINE_KEYS,
    "protocol": (
        ("piggyback", "piggyback", _parse_bool),
        ("token_control", "token_control", _parse_bool),
        ("tokens", "initial_tokens", int),
    ),
}
_GROUPS = ("cluster", "transmitters")  # sections that each build a Cluster
# the keys each section accepts; "" is the top level
_KEYS = {section: [key for key, _, _ in rows] for section, rows in _SCHEMA.items()}
_KEYS[""] = ["builtin"] + [key for key, _, _ in _TOP]

# a comment opens at a '#' that starts the line or follows whitespace,
# so a value such as a trace path may hold '#' elsewhere
_COMMENT = re.compile(r"(?:^|\s)#")


def parse(config_text: str, name: str = "custom") -> ScenarioSpec:
    """Parse and validate a scenario config (key = value, [section]s)."""
    sections: list[tuple[str, dict]] = [("", {})]  # the top level first
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        comment = _COMMENT.search(raw)
        line = (raw[: comment.start()] if comment else raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            if section != "cluster" and any(n == section for n, _ in sections):
                raise ConfigError(f"line {lineno}: duplicate section [{section}]")
            sections.append((section, {}))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        section, values = sections[-1]
        if key not in _KEYS[section]:
            where = f" in [{section}]" if section else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{where}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (value, lineno)
    return _build(sections[0][1], sections[1:], name)


def _values(section: dict, rows) -> dict:
    """The converted values that `section` sets, by dataclass field."""
    out = {}
    for key, field, conv in rows:
        if key not in section:
            continue
        value, lineno = section[key]
        try:
            out[field] = conv(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key!r}") from None
    return out


def _build(top: dict, sections: list[tuple[str, dict]], name: str) -> ScenarioSpec:
    if "builtin" in top:
        if "trace" in top or any(s in _GROUPS for s, _ in sections):
            raise ConfigError("builtin cannot be combined with explicit geometry")
        # builtin reads the value as a row's converter would, so an
        # unknown name fails with its line
        base = dict(vars(_values(top, [("builtin", "spec", builtin)])["spec"]))
    else:
        base = dict(_DEFAULTS, name=name, clusters=())
        if "trace" in top:
            base["radio"] = None
    base.update(_values(top, _TOP))
    for section, keys in sections:
        rows = _SCHEMA[section]
        values = _values(keys, rows)
        group = section in _GROUPS
        if group and len(values) < len(rows):
            raise ConfigError(f"[{section}] needs {' and '.join(_KEYS[section])}")
        try:
            if group:
                value = Cluster(**values)
            else:
                # a trace scenario's radio is None; a [radio] section there
                # builds on the default, and ScenarioSpec rejects the result
                value = replace(base[section] or _DEFAULTS[section], **values)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None
        if section == "cluster":
            base["clusters"] += (value,)
        else:
            base[section] = value
    return ScenarioSpec(**base)


def _fmt(value) -> str:
    """`value` in the form its converter reads back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, AreaRect):
        return " ".join(repr(v) for v in astuple(value))
    if isinstance(value, str):
        return value
    return repr(value)


def _lines(obj, rows) -> list[str]:
    values = ((key, getattr(obj, field)) for key, field, _ in rows)
    return [f"{key} = {_fmt(value)}" for key, value in values if value is not None]


def render(spec: ScenarioSpec) -> str:
    """Emit the config-file form of a spec; parse(render(s)) == s.

    Every key is written, `tokens` too: without token control its value
    is the normalized 1, which parse reads back to an equal config.
    Raises ValueError for a trace path that no config line can hold: one
    with leading or trailing whitespace, a line break, or a '#' at its
    start or after whitespace (parse would read a comment there).  Raises
    it too for non-default mobility, which no config key holds.
    """
    if spec.mobility != _DEFAULTS["mobility"]:
        raise ValueError(f"{spec.mobility!r} cannot be written to a scenario file")
    path = spec.trace
    if path is not None and (
        path != path.strip() or len(path.splitlines()) > 1 or _COMMENT.search(path)
    ):
        raise ValueError(f"trace path {path!r} cannot be written to a scenario file")
    lines = _lines(spec, _TOP)
    objs = [("cluster", c) for c in spec.clusters]
    objs += [(s, getattr(spec, s)) for s in _SCHEMA if s != "cluster"]
    for section, obj in objs:
        if obj is not None:
            lines += [f"[{section}]", *_lines(obj, _SCHEMA[section])]
    return "\n".join(lines) + "\n"
