import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gossim import acceptance, engine
from gossim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

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
    def test_tokens_required(self, tiny_cfg, tmp_path, capsys):
        code = main(["run", "--scenario", tiny_cfg, "--protocol", "gcp",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --tokens required for gcp\n"

    def test_missing_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "nope.cfg"
        code = main(["run", "--scenario", str(path), "--protocol", "fp",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}: cannot read scenario file: No such file or directory\n"
        )
        assert not (tmp_path / "o").exists()

    def test_bad_config_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("wavelength = 7\n")
        code = main(["run", "--scenario", str(p), "--protocol", "fp",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_unexpected_failure_is_a_runtime_error(self, tiny_cfg, tmp_path, monkeypatch,
                                                   capsys):
        def fail(spec):
            raise RuntimeError("queue overflow")

        monkeypatch.setattr(engine, "run", fail)
        code = main(["run", "--scenario", tiny_cfg, "--protocol", "fp",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime error: queue overflow\n"

    def test_non_finite_radio_writes_nothing(self, tmp_path, capsys):
        p = tmp_path / "inf.cfg"
        p.write_text(TINY + "[radio]\nR = inf\n")
        code = main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: radio: r, R and p_min must be finite\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "trace, message",
        [("missing.csv", "missing.csv: cannot read contact trace: No such file or directory"),
         # an empty path is refused where it is read, by its line
         ("", "line 1: trace needs a file path"),
         (".", ".: cannot read contact trace: Is a directory")],
        ids=["missing", "empty", "dir"],
    )
    def test_unreadable_trace_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                command, trace, message):
        monkeypatch.chdir(tmp_path)
        Path("t.cfg").write_text(f"trace = {trace}\n")
        args = ["--protocol", "fp"] if command == "run" else ["--protocols", "fp"]
        code = main([command, "--scenario", "t.cfg", *args, "--out", "o"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("o").exists()

    def test_tokens_without_protocol_writes_nothing(self, tiny_cfg, tmp_path, capsys):
        # the scenario's own protocol would run and the budget be dropped
        out = tmp_path / "o"
        code = main(["run", "--scenario", tiny_cfg, "--tokens", "3", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --tokens needs --protocol\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [(["run", "--protocol", "fp", "--tokens", "5"],
          "--tokens is not used: fp spends no tokens"),
         (["run", "--protocol", "pbp", "--tokens", "0"],
          "--tokens is not used: pbp spends no tokens"),
         (["compare", "--protocols", "fp,pbp", "--tokens-list", "5"],
          "--tokens-list is not used: fp, pbp spend no tokens")],
        ids=["run-fp", "run-pbp", "compare-fp-pbp"],
    )
    def test_budget_no_protocol_spends_writes_nothing(self, tiny_cfg, tmp_path, capsys,
                                                      args, message):
        # fp and pbp would run and the budget be dropped
        out = tmp_path / "o"
        code = main([args[0], "--scenario", tiny_cfg, *args[1:], "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, args, message",
        [("[cluster]\nnodes = 20\narea = 0 0 10 10\n[radio]\nR = inf\n", [],
          "radio: r, R and p_min must be finite"),
         ("trace = missing.csv\n", ["--protocol", "fp"],
          "missing.csv: cannot read contact trace: No such file or directory"),
         ("builtin = c9\n", ["--scale", "desk", "--tokens", "3"],
          "--tokens needs --protocol"),
         ("trace =\n", ["--protocol", "fp"], "line 1: trace needs a file path"),
         (None, ["--protocol", "fp"], ".: cannot read scenario file: Is a directory"),
         (TINY.replace("4000", "3600001"), ["--protocol", "fp"],
          "engine: duration must be at most 3600000 ms, got 3600001")],
        ids=["non-finite-R", "missing-trace", "tokens-without-protocol", "empty-trace",
             "scenario-directory", "duration-over-cap"],
    )
    def test_module_entry_point_reports_config_errors(self, tmp_path, scenario, args,
                                                      message):
        # the interpreter's exit code and stderr, as a shell sees them; a
        # scenario of None runs the working directory itself
        if scenario is not None:
            (tmp_path / "s.cfg").write_text(scenario)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "gossim.cli", "run",
             "--scenario", "." if scenario is None else "s.cfg", *args, "--out", "o"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_fails_before_any_output(self, tiny_cfg, tmp_path, seeds):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", tiny_cfg, "--protocols", "pbp",
                     "--seeds", seeds, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("protocols", [",", "", " , "])
    def test_no_protocols_fails_before_any_output(self, tiny_cfg, tmp_path, capsys,
                                                  protocols):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", tiny_cfg, "--protocols", protocols,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "--protocols names no protocol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocols, tokens", [("gcp,gcp", "2"), ("fcp", "2,2"), ("fp,pbp,fp", "")]
    )
    def test_repeated_cell_fails_before_any_output(self, tiny_cfg, tmp_path, capsys,
                                                   protocols, tokens):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", tiny_cfg, "--protocols", protocols,
                     "--tokens-list", tokens, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "repeated protocol cells" in capsys.readouterr().err

    def test_cell_order_does_not_change_outputs(self, tiny_cfg, tmp_path):
        outs = []
        for order in ("gcp,fp", "fp,gcp"):
            out = tmp_path / order.replace(",", "-")
            assert main(["compare", "--scenario", tiny_cfg, "--protocols", order,
                         "--tokens-list", "2", "--seeds", "2", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # flooding's row leads each seed: it is the savings baseline
        with open(outs[0] / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["protocol"], r["seed"]) for r in rows] == [
            ("fp", "4"), ("gcp", "4"), ("fp", "5"), ("gcp", "5")
        ]

    def test_flooding_that_sent_nothing_leaves_savings_empty(self, tmp_path):
        # three nodes on a square kilometre never meet, so flooding sends nothing
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text("[cluster]\nnodes = 3\narea = 0 0 1000 1000\n"
                       "[engine]\nduration_ms = 3000\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(cfg), "--protocols", "fp,gcp",
                     "--tokens-list", "5", "--out", str(out)]) == EXIT_OK
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["protocol"], r["total_software_sends"], r["savings_pct"])
                for r in rows] == [("fp", "0", ""), ("gcp", "0", "")]

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--nnh", "nan"), ("--nnh", "inf"), ("--duration", "inf"), ("--beacon", "nan")],
    )
    def test_non_finite_value_is_a_config_error(self, capsys, flag, value):
        argv = {"--nv": "1", "--tokens": "5", "--nnh": "10", "--duration": "50000",
                "--beacon": "100", "--nodes": "2000", flag: value}
        code = main(["bounds"] + [a for item in argv.items() for a in item])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


class TestValidate:
    def test_report_keeps_details_with_commas(self, tmp_path, monkeypatch, capsys):
        # both details hold commas, which must not split into extra columns
        results = [acceptance.criterion_2_radio(), acceptance.criterion_9_reliability()]
        monkeypatch.setattr(acceptance, "run_suite", lambda scale: results)
        out = tmp_path / "report"
        assert main(["validate", "--out", str(out)]) == EXIT_OK
        with open(out / "report.csv", newline="", encoding="utf-8") as fh:
            rows = [list(row.items()) for row in csv.DictReader(fh)]
        assert rows == [
            [("criterion", str(r.cid)), ("status", "pass"), ("name", r.name),
             ("detail", r.detail)]
            for r in results
        ]
        assert capsys.readouterr().out.splitlines() == [str(r) for r in results]
