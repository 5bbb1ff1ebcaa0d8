import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossim.core import digest_for
from gossim.protocols import (
    ProtocolConfig,
    SendBeacon,
    SendSoftware,
    UpdateLocal,
    fcp,
    fp,
    from_name,
    gcp,
    on_beacon,
    on_software,
    pbp,
)


class TestConstructors:
    def test_flag_square(self):
        assert (fp().piggyback, fp().token_control) == (False, False)
        assert (fcp(3).piggyback, fcp(3).token_control) == (False, True)
        assert (pbp().piggyback, pbp().token_control) == (True, False)
        assert (gcp(3).piggyback, gcp(3).token_control) == (True, True)

    def test_names(self):
        assert fp().name == "fp"
        assert fcp(2).name == "fcp"
        assert pbp().name == "pbp"
        assert gcp(2).name == "gcp"

    def test_tokens_require_budget(self):
        with pytest.raises(ValueError):
            fcp(0)
        with pytest.raises(ValueError):
            gcp(-1)

    def test_unused_budget_normalized(self):
        # without token control the budget is behaviourally irrelevant
        assert ProtocolConfig(False, False, 7) == fp()


class TestFromName:
    def test_every_name(self):
        assert from_name("fp") == fp()
        assert from_name("pbp", 4) == pbp()  # tokens ignored
        assert from_name("fcp", 3) == fcp(3)
        assert from_name("gcp", 2) == gcp(2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol 'xp'"):
            from_name("xp", 2)

    def test_tokens_required(self):
        with pytest.raises(ValueError, match="^tokens required for gcp$"):
            from_name("gcp")
        with pytest.raises(ValueError, match="^--tokens-list required for fcp$"):
            from_name("fcp", None, "--tokens-list")


class TestOnBeacon:
    def test_fp_always_pushes(self):
        assert on_beacon(fp(), 0, 1, None) == (1, SendSoftware(0, digest_for(0)))

    def test_fcp_spends_then_stops(self):
        tokens, act = on_beacon(fcp(1), 2, 1, None)
        assert (tokens, act) == (0, SendSoftware(2, digest_for(2)))
        assert on_beacon(fcp(1), 2, tokens, None) == (0, None)

    def test_pbp_pushes_to_older(self):
        assert on_beacon(pbp(), 3, 1, 1) == (1, SendSoftware(3, digest_for(3)))

    def test_pbp_pulls_from_newer(self):
        assert on_beacon(pbp(), 1, 1, 3) == (1, SendBeacon())

    def test_pbp_silent_on_equal(self):
        assert on_beacon(pbp(), 2, 1, 2) == (1, None)

    def test_gcp_pushes_only_with_tokens(self):
        assert on_beacon(gcp(2), 3, 0, 1) == (0, None)
        assert on_beacon(gcp(2), 3, 1, 1) == (0, SendSoftware(3, digest_for(3)))

    def test_gcp_pull_costs_nothing(self):
        assert on_beacon(gcp(2), 1, 0, 4) == (0, SendBeacon())

    def test_version_visibility_enforced(self):
        # the equal-version test comes first, and None equals no version
        for cfg in (pbp(), gcp(1), gcp(5)):
            for version in range(4):
                for tokens in (0, 1):
                    with pytest.raises(AssertionError, match="bare beacon"):
                        on_beacon(cfg, version, tokens, None)
        with pytest.raises(AssertionError):
            on_beacon(fp(), 0, 1, 1)

    def test_inputs_not_mutated(self):
        # a pure function of its arguments: the same call, the same answer
        cfg = gcp(2)
        first = on_beacon(cfg, 3, 2, 0)
        assert first == (1, SendSoftware(3, digest_for(3)))
        assert on_beacon(cfg, 3, 2, 0) == first
        assert cfg == gcp(2)


class TestOnSoftware:
    def test_newer_version_adopted(self):
        assert on_software(fp(), 1, 1, 2, True) == (2, 1, UpdateLocal(2))

    def test_stale_copy_ignored(self):
        assert on_software(fp(), 2, 1, 1, True) == (2, 1, None)
        assert on_software(pbp(), 2, 1, 2, True) == (2, 1, None)

    def test_corrupt_copy_rerequested(self):
        assert on_software(gcp(2), 0, 2, 5, False) == (0, 2, SendBeacon())

    def test_update_refills_tokens(self):
        assert on_software(gcp(3), 0, 0, 1, True) == (1, 3, UpdateLocal(1))

    def test_update_keeps_tokens_without_control(self):
        # without token control the budget is the normalized 1 and stays so
        assert on_software(pbp(), 0, 1, 1, True) == (1, 1, UpdateLocal(1))


# -- reference machines ------------------------------------------------------
# Independent re-implementations of the four protocols, written directly
# from their behavioural descriptions, used as oracles for the single
# parametric machine.


def _ref_step(proto, state, event):
    version, tok, init = state
    out = []
    if event[0] == "beacon":
        remote = event[1]
        if proto == "fp":
            out.append(("software", version))
        elif proto == "fcp":
            if tok > 0:
                tok -= 1
                out.append(("software", version))
        elif proto == "pbp":
            if remote < version:
                out.append(("software", version))
            elif remote > version:
                out.append(("beacon",))
        else:  # gcp
            if remote < version and tok > 0:
                tok -= 1
                out.append(("software", version))
            elif remote > version:
                out.append(("beacon",))
    else:  # software
        payload, ok = event[1], event[2]
        if not ok:
            out.append(("beacon",))
        elif payload > version:
            version = payload
            if proto in ("fcp", "gcp"):
                tok = init
            out.append(("update", payload))
    return (version, tok, init), out


def _machine_step(cfg, state, event):
    version, tokens = state
    if event[0] == "beacon":
        remote = event[1] if cfg.piggyback else None
        tokens, a = on_beacon(cfg, version, tokens, remote)
    else:
        version, tokens, a = on_software(cfg, version, tokens, event[1], event[2])
    flat = []
    if isinstance(a, SendSoftware):
        assert a.digest == digest_for(a.version)
        flat.append(("software", a.version))
    elif isinstance(a, SendBeacon):
        flat.append(("beacon",))
    elif a is not None:
        flat.append(("update", a.version))
    return (version, tokens), flat


_events = st.lists(
    st.one_of(
        st.tuples(st.just("beacon"), st.integers(min_value=0, max_value=4)),
        st.tuples(
            st.just("software"),
            st.integers(min_value=0, max_value=4),
            st.booleans(),
        ),
    ),
    max_size=30,
)


@given(
    proto=st.sampled_from(["fp", "fcp", "pbp", "gcp"]),
    tokens=st.integers(min_value=1, max_value=4),
    start_version=st.integers(min_value=0, max_value=3),
    events=_events,
)
@settings(max_examples=400, deadline=None)
def test_machine_matches_reference(proto, tokens, start_version, events):
    cfg = {
        "fp": fp(),
        "fcp": fcp(tokens),
        "pbp": pbp(),
        "gcp": gcp(tokens),
    }[proto]
    init = tokens if cfg.token_control else 1
    ref = (start_version, init, init)
    state = (start_version, init)
    for event in events:
        ref, want = _ref_step(proto, ref, event)
        state, got = _machine_step(cfg, state, event)
        assert got == want
        assert state == ref[:2]
        assert 0 <= state[1] <= cfg.initial_tokens
