"""Release acceptance gate: one test per criterion.

These are end-to-end statistical checks and together take a few
minutes.  Each test prints its own pass/fail line (run pytest with -s
or check the failure output).  The `gossim validate` subcommand runs
the same suite.
"""

from gossim import acceptance, engine, protocols


def _check(result):
    print(result)
    assert result.passed, str(result)


def test_criterion_01_token_cap():
    _check(acceptance.criterion_1_token_cap())


def test_criterion_02_radio_model():
    _check(acceptance.criterion_2_radio())


def test_criterion_03_flag_square():
    _check(acceptance.criterion_3_flag_square())


def test_criterion_03_catches_unnormalized_budget(monkeypatch):
    # without the normalization, dropping token control from gcp(5) keeps
    # its budget of 5, so two derived corners differ from pbp and fp;
    # the check compares configs and runs nothing
    def no_run(self, spec):
        raise AssertionError("criterion 3 built a Simulation")

    monkeypatch.setattr(protocols.ProtocolConfig, "__post_init__", lambda self: None)
    monkeypatch.setattr(engine.Simulation, "__init__", no_run)
    result = acceptance.criterion_3_flag_square()
    assert not result.passed
    assert result.detail == (
        "wired=True, mismatches=['gcp minus tokens == pbp', 'gcp minus both == fp']"
    )


def test_criterion_04_speed_ordering():
    _check(acceptance.criterion_4_speed_ordering())


def test_criterion_05_savings():
    _check(acceptance.criterion_5_savings(scale="paper"))


def test_criterion_06_load_ordering():
    # Known red: pbp pushes only to a neighbour whose piggybacked version
    # is older, so each upgraded node costs it about one copy, while fcp(5)
    # has no versions to compare and spends a token on every beacon it
    # hears, even to push the factory version.  So `pbp > fcp(5)` fails
    # whether or not the update spreads: here, where it barely spreads,
    # and also with complete convergence.  On the benchmark's 160-node
    # trace (seeds 1-3) pbp reaches 160/160 nodes with 146 / 148 / 132
    # sends, while fcp(5) sends 1334 / 1316 / 1375 and reaches
    # 125 / 119 / 127.  Kept failing rather than weakened.
    _check(acceptance.criterion_6_load_ordering())


def test_criterion_07_fp_load_law():
    _check(acceptance.criterion_7_fp_load_law())


def test_criterion_08_determinism():
    _check(acceptance.criterion_8_determinism())


def test_criterion_09_reliability():
    _check(acceptance.criterion_9_reliability())


def test_criterion_10_convergence_shape():
    _check(acceptance.criterion_10_convergence_shape())
