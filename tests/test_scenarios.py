from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossim import protocols
from gossim.engine import EngineParams
from gossim.mobility import AreaRect, MobilityParams
from gossim.radio import RadioParams
from gossim.mobility import load_trace
from gossim.scenarios import (
    _SCHEMA,
    BUILTIN_NAMES,
    Cluster,
    ConfigError,
    ScenarioSpec,
    TransmitterGroup,
    builtin,
    desk_scale,
    parse,
    render,
    sample_trace_path,
    trace_scenario,
)

EXPECTED_COUNTS = {
    "c1": 2000,
    "c1-sparse": 2000,
    "c2": 2000,
    "c2-social": 2000,
    "c4": 2000,
    "c4-social": 2000,
    "c9": 2250,
    "c9-social": 2250,
}


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_node_counts(self, name):
        assert builtin(name).n_nodes == EXPECTED_COUNTS[name]

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin("c3")

    def test_social_variants_have_transmitters(self):
        for name in ("c2-social", "c4-social", "c9-social"):
            spec = builtin(name)
            assert spec.transmitters is not None
            # transmitters roam the whole field, clusters do not
            cover = spec.transmitters.area
            for c in spec.clusters:
                assert cover.x_max >= c.area.x_max and cover.y_max >= c.area.y_max

    def test_default_protocol(self):
        assert builtin("c1").protocol == protocols.gcp(5)


class TestDeskScale:
    def test_counts_and_lengths(self):
        spec = desk_scale(builtin("c9"))
        assert spec.name == "c9@desk"
        assert spec.n_nodes == 225
        full = builtin("c9").clusters[0].area
        small = spec.clusters[0].area
        assert small.x_max == pytest.approx(full.x_max / 10 ** 0.5)

    def test_density_preserved(self):
        full = builtin("c1")
        desk = desk_scale(full)
        area_full = 250.0 * 250.0
        a = desk.clusters[0].area
        area_desk = (a.x_max - a.x_min) * (a.y_max - a.y_min)
        density_full = full.n_nodes / area_full
        density_desk = desk.n_nodes / area_desk
        assert density_desk == pytest.approx(density_full, rel=0.01)

    def test_trace_unchanged(self):
        spec = trace_scenario(sample_trace_path())
        assert desk_scale(spec) == spec


class TestParse:
    def test_minimal_cluster(self):
        spec = parse(
            """
            seed = 3
            [cluster]
            nodes = 10
            area = 0 0 50 50
            """
        )
        assert spec.seed == 3
        assert spec.n_nodes == 10
        assert spec.protocol == protocols.gcp(5)

    def test_comments_and_blank_lines(self):
        spec = parse("# top\nseed = 1\n\n[cluster]  # two\nnodes = 2\narea = 0 0 1 1\n")
        assert spec.seed == 1

    def test_builtin_reference(self):
        spec = parse("builtin = c9\nseed = 7\n")
        assert spec.name == "c9"
        assert spec.n_nodes == 2250
        assert spec.seed == 7

    def test_builtin_with_geometry_conflicts(self):
        with pytest.raises(ConfigError, match="builtin"):
            parse("builtin = c1\n[cluster]\nnodes = 5\narea = 0 0 1 1\n")

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse("seed = 1\ncolour = red\n")

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_bad_seed_has_line_number(self, value):
        with pytest.raises(ConfigError, match=f"line 2: bad value '{value}' for 'seed'"):
            parse(f"builtin = c1\nseed = {value}\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse("[antenna]\n")

    def test_bad_radio_ordering(self):
        with pytest.raises(ConfigError, match="0 < r < R"):
            parse(
                "[cluster]\nnodes = 2\narea = 0 0 9 9\n[radio]\nr = 6\nR = 5\n"
            )

    def test_zero_tokens_rejected(self):
        with pytest.raises(ConfigError, match="token"):
            parse(
                "[cluster]\nnodes = 2\narea = 0 0 9 9\n"
                "[protocol]\npiggyback = true\ntoken_control = true\ntokens = 0\n"
            )

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="line 5"):
            parse(
                "[cluster]\nnodes = 2\narea = 0 0 9 9\n"
                "[protocol]\npiggyback = maybe\n"
            )

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse("seed = 1\nseed = 2\n")

    def test_area_needs_four_numbers(self):
        with pytest.raises(ConfigError, match="area"):
            parse("[cluster]\nnodes = 2\narea = 0 0 9\n")

    def test_multiple_clusters(self):
        spec = parse(
            "[cluster]\nnodes = 2\narea = 0 0 9 9\n"
            "[cluster]\nnodes = 3\narea = 20 20 30 30\n"
        )
        assert spec.n_nodes == 5


# An oracle written apart from the schema table: for each key, the field
# it sets, a valid value in file form and that value once parsed.
_CHANGES = {
    ("cluster", "nodes"): ("node_count", "3", 3),
    ("cluster", "area"): ("area", "1 1 8 8", AreaRect(1.0, 1.0, 8.0, 8.0)),
    ("transmitters", "count"): ("count", "4", 4),
    ("transmitters", "area"): ("area", "0 0 30 30", AreaRect(0.0, 0.0, 30.0, 30.0)),
    ("radio", "r"): ("r", "2.5", 2.5),
    ("radio", "R"): ("R", "6.5", 6.5),
    ("radio", "p_min"): ("p_min", "0.5", 0.5),
    ("engine", "beacon_period_ms"): ("beacon_period", "250", 250),
    ("engine", "duration_ms"): ("duration", "9000", 9000),
    ("engine", "injection_time_ms"): ("injection_time", "500", 500),
    ("engine", "delivery_latency_ms"): ("delivery_latency", "7", 7),
    ("engine", "injected_version"): ("injected_version", "3", 3),
    ("engine", "corruption_probability"): ("corruption_probability", "0.125", 0.125),
    ("protocol", "piggyback"): ("piggyback", "false", False),
    ("protocol", "token_control"): ("token_control", "false", False),
    ("protocol", "tokens"): ("initial_tokens", "9", 9),
}
_ROWS = [(section, key) for section, rows in _SCHEMA.items() for key, _, _ in rows]
_BASE_FILE = {
    "cluster": {"nodes": "2", "area": "0 0 9 9"},
    "transmitters": {"count": "1", "area": "0 0 20 20"},
}


def _file(section=None, key=None, value=None):
    """The base file, with `key` in [section] set to `value`."""
    body = {s: dict(keys) for s, keys in _BASE_FILE.items()}
    if section is not None:
        body.setdefault(section, {})[key] = value
    return "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for s, keys in body.items()
    )


class TestSchemaRows:
    @pytest.mark.parametrize("section, key", _ROWS, ids=[f"{s}.{k}" for s, k in _ROWS])
    def test_bad_value_names_line_and_key(self, section, key):
        text = _file(section, key, "nope")
        lineno = text.splitlines().index(f"{key} = nope") + 1
        with pytest.raises(ConfigError, match=f"^line {lineno}: ") as exc:
            parse(text)
        assert key in str(exc.value)

    @pytest.mark.parametrize("section, key", _ROWS, ids=[f"{s}.{k}" for s, k in _ROWS])
    def test_key_sets_only_its_field(self, section, key):
        field, text, value = _CHANGES[section, key]
        base = parse(_file())
        if section == "cluster":
            expected = replace(base, clusters=(replace(base.clusters[0], **{field: value}),))
        else:
            expected = replace(base, **{section: replace(getattr(base, section), **{field: value})})
        assert expected != base
        assert parse(_file(section, key, text)) == expected


class TestRender:
    @pytest.mark.parametrize("name", ["c1", "c2-social", "c9"])
    def test_round_trip_builtin(self, name):
        spec = builtin(name, protocols.fcp(3), seed=11)
        assert parse(render(spec), name=spec.name) == spec

    def test_round_trip_without_token_control(self):
        spec = builtin("c4", protocols.fp(), seed=2)
        again = parse(render(spec), name=spec.name)
        assert again == spec
        assert again.protocol == protocols.fp()


_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def _areas(draw):
    xs = sorted(draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(_coord, min_size=2, max_size=2, unique=True)))
    return AreaRect(xs[0], ys[0], xs[1], ys[1])


@st.composite
def _engines(draw):
    duration = draw(st.integers(min_value=1, max_value=10**6))
    return EngineParams(
        beacon_period=draw(st.integers(min_value=1, max_value=10**4)),
        delivery_latency=draw(st.integers(min_value=0, max_value=10**4)),
        duration=duration,
        injection_time=draw(st.integers(min_value=0, max_value=duration - 1)),
        injected_version=draw(st.integers(min_value=1, max_value=10**6)),
        corruption_probability=draw(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
        ),
    )


@st.composite
def _protocols(draw):
    name = draw(st.sampled_from(sorted(protocols.BY_NAME)))
    if name in ("fcp", "gcp"):
        return protocols.BY_NAME[name](draw(st.integers(min_value=1, max_value=1000)))
    return protocols.BY_NAME[name]()


@st.composite
def _radios(draw):
    r, R = sorted(
        draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=2, unique=True))
    )
    return RadioParams(r=r, R=R, p_min=draw(st.floats(min_value=1e-3, max_value=1.0)))


@st.composite
def _specs(draw):
    # '#' and inner spaces may appear, but no '#' right after a space: that
    # one opens a comment, and render refuses such a path
    paths = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_#./ -]{0,30}", fullmatch=True).filter(
        lambda p: p == p.strip() and " #" not in p
    )
    trace = draw(st.none() | paths)
    geometric = trace is None
    clusters = ()
    transmitters = None
    if geometric:
        clusters = tuple(
            Cluster(n, a)
            for n, a in draw(
                st.lists(st.tuples(st.integers(min_value=1, max_value=5000), _areas()), min_size=1, max_size=3)
            )
        )
        if draw(st.booleans()):
            transmitters = TransmitterGroup(draw(st.integers(min_value=1, max_value=500)), draw(_areas()))
    return ScenarioSpec(
        name="custom",
        clusters=clusters,
        transmitters=transmitters,
        mobility=MobilityParams(),
        radio=draw(_radios()) if geometric else None,
        engine=draw(_engines()),
        protocol=draw(_protocols()),
        seed=draw(st.integers(min_value=-(2**40), max_value=2**40)),
        trace=trace,
    )


class TestRoundTrip:
    @given(_specs())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_render(self, spec):
        assert parse(render(spec)) == spec

    def test_engine_knobs_survive(self):
        engine = EngineParams(delivery_latency=3, injected_version=7, corruption_probability=0.25)
        spec = replace(builtin("c1", protocols.gcp(5), seed=4), engine=engine)
        text = render(spec)
        assert "delivery_latency_ms = 3" in text
        assert "injected_version = 7" in text
        assert "corruption_probability = 0.25" in text
        assert parse(text, name=spec.name) == spec

    def test_hash_inside_trace_path_survives(self):
        spec = trace_scenario("runs/day#2.csv", seed=3)
        assert parse(render(spec), name="trace") == spec
        assert parse("trace = runs/day#2.csv  # second day\n").trace == "runs/day#2.csv"

    @pytest.mark.parametrize(
        "path", ["runs/day #2.csv", "#day2.csv", " day2.csv", "day2.csv\t", "a\nb.csv"]
    )
    def test_render_refuses_unwritable_trace_path(self, path):
        with pytest.raises(ValueError, match="trace path"):
            render(trace_scenario(path))


class TestFingerprint:
    def test_ignores_protocol(self):
        a = builtin("c1", protocols.fp(), seed=4)
        b = builtin("c1", protocols.gcp(5), seed=4)
        assert a.workload_fingerprint() == b.workload_fingerprint()

    def test_tracks_seed(self):
        a = builtin("c1", seed=4)
        b = builtin("c1", seed=5)
        assert a.workload_fingerprint() != b.workload_fingerprint()


class TestTraceScenario:
    def test_sample_trace_ships(self):
        path = sample_trace_path()
        assert Path(path).exists()
        assert load_trace(path).node_count == 6

    def test_excludes_geometry(self):
        spec = trace_scenario(sample_trace_path())
        assert spec.clusters == ()
        assert spec.radio is None
