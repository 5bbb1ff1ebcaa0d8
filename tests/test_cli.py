import csv

import pytest

from gossim.cli import EXIT_CONFIG, EXIT_OK, main

TINY = """\
seed = 4
[cluster]
nodes = 8
area = 0 0 10 10
[engine]
duration_ms = 4000
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return str(p)


class TestRun:
    def test_writes_outputs(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", tiny_cfg, "--protocol", "gcp",
                     "--tokens", "2", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("convergence.csv", "load.csv", "summary.csv", "metadata.txt"):
            assert (out / name).exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["protocol"] == "gcp"
        assert rows[0]["n_nodes"] == "8"

    def test_reruns_are_byte_identical(self, tiny_cfg, tmp_path):
        args = ["run", "--scenario", tiny_cfg, "--protocol", "fp"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        for name in ("convergence.csv", "load.csv", "summary.csv", "metadata.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_builtin_reference(self, tmp_path):
        code = main([
            "run", "--scenario", "builtin:c9", "--protocol", "pbp",
            "--scale", "desk", "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_OK

    def test_seed_env_default(self, tiny_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("GOSSIM_SEED", "99")
        out = tmp_path / "env"
        assert main(["run", "--scenario", tiny_cfg, "--protocol", "fp",
                     "--out", str(out)]) == EXIT_OK
        meta = (out / "metadata.txt").read_text()
        assert "seed = 99" in meta


    def test_scenario_seed_used_without_flag_or_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GOSSIM_SEED", raising=False)
        cfg = tmp_path / "c1.cfg"
        cfg.write_text("builtin = c1\nseed = 42\n[engine]\nduration_ms = 1500\n")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(cfg), "--scale", "desk",
                     "--protocol", "fp", "--out", str(out)]) == EXIT_OK
        assert "seed = 42\n" in (out / "metadata.txt").read_text()

    def test_seed_flag_beats_env_and_scenario(self, tiny_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("GOSSIM_SEED", "99")
        out = tmp_path / "o"
        assert main(["run", "--scenario", tiny_cfg, "--protocol", "fp",
                     "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert "seed = 7\n" in (out / "metadata.txt").read_text()

class TestConfigErrors:
    def test_tokens_required(self, tiny_cfg, tmp_path):
        code = main(["run", "--scenario", tiny_cfg, "--protocol", "gcp",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_missing_scenario_file(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.cfg"),
                     "--protocol", "fp", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_bad_config_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("wavelength = 7\n")
        code = main(["run", "--scenario", str(p), "--protocol", "fp",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_unknown_subcommand(self):
        assert main(["launch"]) == EXIT_CONFIG

    def test_unknown_protocol_flag(self, tiny_cfg, tmp_path):
        assert main(["run", "--scenario", tiny_cfg, "--protocol", "xp",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_bad_seed_env_names_its_source(self, tiny_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GOSSIM_SEED", "abc")
        assert main(["run", "--scenario", tiny_cfg, "--protocol", "fp",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "bad value 'abc' for $GOSSIM_SEED" in capsys.readouterr().err

    def test_bad_tokens_list_entry_names_its_source(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", tiny_cfg, "--protocols", "gcp",
                     "--tokens-list", "2,x", "--out", str(out)]) == EXIT_CONFIG
        assert "bad value 'x' for --tokens-list" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_matched_seed_grid(self, tiny_cfg, tmp_path):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--scenario", tiny_cfg, "--protocols", "fp,gcp",
            "--tokens-list", "2", "--seeds", "2", "--seed", "10",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 cells x 2 seeds
        assert {r["protocol"] for r in rows} == {"fp", "gcp"}
        # every non-flooding row carries a savings figure
        for r in rows:
            if r["protocol"] != "fp":
                assert r["savings_pct"] != ""
        assert (out / "fp_seed10_convergence.csv").exists()
        assert (out / "gcp2_seed11_convergence.csv").exists()

    def test_scenario_seed_is_base_seed(self, tiny_cfg, tmp_path, monkeypatch):
        # tiny.cfg says seed = 4; with no --seed and no $GOSSIM_SEED it rules
        monkeypatch.delenv("GOSSIM_SEED", raising=False)
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", tiny_cfg, "--protocols", "pbp",
                     "--seeds", "2", "--out", str(out)]) == EXIT_OK
        with open(out / "summary.csv", newline="") as fh:
            assert [r["seed"] for r in csv.DictReader(fh)] == ["4", "5"]
        assert (out / "pbp_seed4_convergence.csv").exists()

    def test_bad_budget_fails_before_any_run(self, tiny_cfg, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", tiny_cfg, "--protocols", "fp,gcp",
                     "--tokens-list", "2,0", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_sweep_alias(self, tiny_cfg, tmp_path):
        code = main([
            "sweep", "--scenario", tiny_cfg, "--protocols", "pbp",
            "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_OK

    def test_tokens_list_required(self, tiny_cfg, tmp_path):
        code = main([
            "compare", "--scenario", tiny_cfg, "--protocols", "fcp",
            "--out", str(tmp_path / "s"),
        ])
        assert code == EXIT_CONFIG


class TestBounds:
    def test_prints_table(self, capsys):
        code = main([
            "bounds", "--nv", "1", "--tokens", "5", "--nnh", "10",
            "--duration", "50000", "--beacon", "100", "--nodes", "2000",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fp        5000.0000" in out
        assert "fcp       10.0000" in out
        assert "pbp       1999.0000" in out
        assert "gcp       5.0000" in out
