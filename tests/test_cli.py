import json
import re
import warnings
from pathlib import Path

import pytest

from hybandit.cli import KEYS, build_parser, main
from hybandit.replay import write_replay_log

from test_replay import synth_records


def run_cli(*args):
    return main(list(args))


# a tiny custom problem for the checks that must fail before any run
SMALL = ["--d1", "2", "--d2", "2", "--K", "2", "--T", "5", "--n-envs", "1", "--n-trials", "1"]


class TestGenEnv:
    def test_setting1_dump(self, tmp_path, capsys):
        out = tmp_path / "env.json"
        assert run_cli("gen-env", "--setting", "1", "--seed", "5", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["d1"] == 40 and doc["d2"] == 5 and doc["K"] == 25

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                run_cli(
                    "gen-env",
                    "--d1", "4", "--d2", "3", "--K", "5", "--T", "100",
                    "--seed", "9",
                    "--out", str(out),
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_out_parent_directories_created(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "env.json"
        assert run_cli("gen-env", "--setting", "1", "--seed", "5", "--out", str(out)) == 0
        assert json.loads(out.read_text())["K"] == 25
        assert f"wrote {out}" in capsys.readouterr().err

    def test_invalid_d2_exits_2(self, tmp_path, capsys):
        rc = run_cli(
            "gen-env", "--d1", "4", "--d2", "0", "--K", "5", "--T", "10",
            "--out", str(tmp_path / "x.json"),
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_dims_exits_2(self, tmp_path, capsys):
        assert run_cli("gen-env", "--out", str(tmp_path / "x.json")) == 2

    @pytest.mark.parametrize(
        "flag",
        ["--algos", "--k-grid", "--scale", "--threads", "--rho", "--n-envs", "--n-trials",
         "--delta", "--diagnostics-every", "--trace-stride"],
    )
    def test_unread_flag_is_usage_error(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen-env", "--setting", "1", flag, "1", "--out", str(tmp_path / "x.json"))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "doc",
        [{"d1": "3"}, {"d1": True}, {"K": 2.5}, {"T": 1}, {"noise_std": "0.2"}, {"seed": "3"},
         {"S": 0}, {"setting": "1"}],
        ids=["d1_string", "d1_bool", "K_fraction", "T_one", "noise_std_string", "seed_string",
             "S_zero", "setting_string"],
    )
    def test_bad_config_value_exits_2(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d1": 3, "d2": 2, "K": 2, "T": 5, **doc}))
        out = tmp_path / "x.json"
        assert run_cli("gen-env", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{next(iter(doc))} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--noise-std", "-1"), ("--noise-std", "nan"), ("--d2", "0"), ("--T", "1")]
    )
    def test_bad_flag_value_exits_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "x.json"
        args = ["--d1", "3", "--d2", "2", "--K", "2", "--T", "5", flag, value]
        assert run_cli("gen-env", *args, "--out", str(out)) == 2
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_config_numbers_match_float_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d1": 3, "d2": 2, "K": 2, "T": 5, "noise_std": 0, "S": 1}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("gen-env", "--config", str(cfg), "--out", str(a)) == 0
        flags = ["--d1", "3", "--d2", "2", "--K", "2", "--T", "5", "--noise-std", "0.0"]
        assert run_cli("gen-env", *flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_desk_scale_setting(self, tmp_path):
        rc = run_cli(
            "run", "--setting", "1", "--algos", "hylinucb,linucb",
            "--scale", "0.0005", "--seed", "3", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        regret = (tmp_path / "regret.csv").read_text().splitlines()
        assert regret[0] == "algo,env_id,trial_id,round,cum_regret,chosen_arm"
        algos = {line.split(",")[0] for line in regret[1:]}
        assert algos == {"hylinucb", "linucb"}
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_k_grid_rows(self, tmp_path):
        rc = run_cli(
            "run", "--setting", "3", "--k-grid", "2,3", "--algos", "linucb",
            "--T", "30", "--n-envs", "1", "--n-trials", "1", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        ks = [int(line.split(",")[1]) for line in summary]
        assert ks == [2, 3]

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"setting": 1, "bogus": True}))
        assert run_cli("run", "--config", str(cfg)) == 2

    def test_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "setting": "custom",
                    "d1": 3, "d2": 2, "K": 3, "T": 40,
                    "algos": "linucb",
                    "n_envs": 1, "n_trials": 2, "seed": 4,
                    "out_dir": str(tmp_path),
                }
            )
        )
        assert run_cli("run", "--config", str(cfg), "--n-trials", "1") == 0
        regret = (tmp_path / "regret.csv").read_text().splitlines()[1:]
        trials = {line.split(",")[2] for line in regret}
        assert trials == {"0"}

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "4",
            "--T", "60", "--algos", "hylinucb,dislinucb", "--n-envs", "1",
            "--n-trials", "2", "--seed", "11",
        ]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert run_cli(*args, "--out-dir", str(out1)) == 0
        assert run_cli(*args, "--out-dir", str(out2)) == 0
        assert (out1 / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


    def test_horizon_below_two_exits_2(self, tmp_path, capsys):
        rc = run_cli(
            "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "3",
            "--T", "1", "--algos", "linucb", "--n-envs", "1", "--n-trials", "1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        assert "got 1" in capsys.readouterr().err
        assert not (tmp_path / "regret.csv").exists()


    def test_rho_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "3",
                "--T", "20", "--rho", "0.05", "--out-dir", str(tmp_path),
            )
        assert exc.value.code == 2
        assert "--rho" in capsys.readouterr().err
        assert not (tmp_path / "regret.csv").exists()

    @pytest.mark.parametrize(
        "args, key",
        [(["--setting", "1", "--scale", "0.002", "--threads", "0"], "threads"),
         ([*SMALL, "--threads", "-3"], "threads"),
         ([*SMALL, "--trace-stride", "0"], "trace_stride"),
         ([*SMALL, "--noise-std", "-1"], "noise_std"),
         ([*SMALL, "--noise-std", "nan"], "noise_std"),
         ([*SMALL, "--delta", "2"], "delta"),
         ([*SMALL, "--scale", "nan"], "scale"),
         ([*SMALL, "--algos", "linucb,suplinucb"], "algos"),
         ([*SMALL, "--algos", "linucb,linucb"], "algos"),
         ([*SMALL, "--setting", "4"], "setting"),
         (["--setting", "3", "--k-grid", "3,x", "--T", "5"], "k_grid"),
         (["--setting", "1", "--k-grid", "10,20", "--scale", "0.002"], "k_grid"),
         ([*SMALL, "--k-grid", "3,4"], "k_grid"),
         (["--setting", "3", "--K", "7", "--T", "5"], "K"),
         (["--setting", "1", "--scale", "0.00001"], "T")],
        ids=["threads_zero", "threads_negative", "trace_stride_zero", "noise_std_negative",
             "noise_std_nan", "delta_two", "scale_nan", "algos_unknown", "algos_repeated",
             "setting_four",
             "k_grid_not_integers", "k_grid_setting_1", "k_grid_custom", "K_with_setting_3",
             "T_scaled_below_two"],
    )
    def test_bad_flag_value_exits_2_before_running(self, args, key, tmp_path, capsys):
        assert run_cli("run", *args, "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert key in err and "running" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "doc",
        [{"n_envs": 1.7}, {"T": 5.6}, {"seed": "3"}, {"threads": True}, {"scale": "0.5"},
         {"setting": "1"}, {"k_grid": "10,20"}, {"algos": ["linucb"]}],
        ids=["n_envs_fraction", "T_fraction", "seed_string", "threads_bool", "scale_string",
             "setting_string", "k_grid_string", "algos_array"],
    )
    def test_bad_config_value_exits_2_before_running(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        base = {"d1": 2, "d2": 2, "K": 2, "T": 5, "n_envs": 1, "n_trials": 1}
        cfg.write_text(json.dumps({**base, **doc}))
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
        assert f"{next(iter(doc))} must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_replay_entry_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replay": []}))
        assert run_cli("run", "--config", str(cfg), *SMALL, "--out-dir", str(tmp_path)) == 2
        assert "'replay' must be an object" in capsys.readouterr().err


class TestDiagnose:
    def test_produces_report_and_csv(self, tmp_path, capsys):
        rc = run_cli(
            "diagnose", "--setting", "custom", "--d1", "3", "--d2", "3", "--K", "3",
            "--T", "300", "--algos", "hylinucb", "--n-envs", "1", "--n-trials", "1",
            "--diagnostics-every", "100", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "T_m" in out and "gamma[hylinucb]" in out
        assert "sandwich spectrum range" in out
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_rho_override(self, tmp_path, capsys):
        rc = run_cli(
            "diagnose", "--setting", "custom", "--d1", "3", "--d2", "3", "--K", "3",
            "--T", "200", "--algos", "linucb", "--n-envs", "1", "--n-trials", "1",
            "--rho", "0.05", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert "rho = 0.05" in capsys.readouterr().out

    def test_oracle_diagnostics_skip_confidence(self, tmp_path, capsys):
        rc = run_cli(
            "diagnose", "--setting", "custom", "--d1", "3", "--d2", "3", "--K", "3",
            "--T", "200", "--algos", "oracle", "--n-envs", "1", "--n-trials", "1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "confidence violations" not in out
        assert (tmp_path / "diagnostics.csv").exists()


    def test_horizon_below_two_exits_2(self, tmp_path, capsys):
        rc = run_cli(
            "diagnose", "--setting", "custom", "--d1", "3", "--d2", "3", "--K", "3",
            "--T", "1", "--algos", "hylinucb", "--n-envs", "1", "--n-trials", "1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "got 1" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "diagnostics.csv").exists()


    def test_one_pull_count_omits_w_slope(self, tmp_path, capsys):
        # the benchmark's set-up shape: at T=2 every pulled arm has tau = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                "diagnose", "--d1", "10", "--d2", "10", "--K", "5", "--T", "2",
                "--algos", "hylinucb", "--n-envs", "1", "--n-trials", "1",
                "--diagnostics-every", "1", "--out-dir", str(tmp_path),
            )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lambda_min(V) slope mean" in out
        assert "lambda_min(W) slope" not in out

    def test_trace_stride_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "diagnose", "--setting", "custom", "--d1", "3", "--d2", "3", "--K", "3",
                "--T", "200", "--trace-stride", "2", "--out-dir", str(tmp_path),
            )
        assert exc.value.code == 2
        assert "--trace-stride" in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.csv").exists()

    @pytest.mark.parametrize(
        "args, key",
        [(["--rho", "-1"], "rho"), (["--rho", "nan"], "rho"), (["--rho", "2"], "rho"),
         (["--diagnostics-every", "0"], "diagnostics_every"), (["--threads", "0"], "threads"),
         (["--T", "50", "--diagnostics-every", "100"], "diagnostics_every"),
         (["--diagnostics-every", "5"], "diagnostics_every"),
         (["--diagnostics-every", "3"], "diagnostics_every")],
        ids=["rho_negative", "rho_nan", "rho_above_one", "diagnostics_every_zero",
             "threads_zero", "no_sample", "one_sample_at_T", "one_sample_before_T"],
    )
    def test_bad_flag_value_exits_2_before_running(self, args, key, tmp_path, capsys):
        assert run_cli("diagnose", *SMALL, *args, "--out-dir", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_k_sweep_exits_2_before_running(self, tmp_path, capsys):
        # a sweep would report the first K's constants over every K's runs
        rc = run_cli(
            "diagnose", "--setting", "3", "--k-grid", "3,40", "--T", "200", "--n-envs", "1",
            "--n-trials", "1", "--algos", "hylinucb", "--out-dir", str(tmp_path),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "one K per call" in captured.err and "k_grid=[3, 40]" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))


class TestReplay:
    def test_end_to_end(self, tmp_path):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(5, 400, n_arms=4))
        rc = run_cli(
            "replay", "--log", str(log), "--train-n", "300",
            "--algos", "hylinucb,linucb", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        regret = (tmp_path / "replay_regret.csv").read_text().splitlines()
        assert len(regret) == 1 + 2 * 100
        rel = (tmp_path / "replay_relative.csv").read_text().splitlines()
        assert rel[0] == "algo,round,mean_cum_regret,regret_minus_best"
        # relative regret is nonnegative and zero for the per-round best
        rows = [line.split(",") for line in rel[1:]]
        assert all(float(r[3]) >= 0.0 for r in rows)

    def test_T_replays_first_rounds_only(self, tmp_path):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(5, 400, n_arms=4))
        rc = run_cli(
            "replay", "--log", str(log), "--train-n", "300", "--T", "40",
            "--algos", "hylinucb,linucb", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        regret = (tmp_path / "replay_regret.csv").read_text().splitlines()
        assert len(regret) == 1 + 2 * 40
        assert [int(r.split(",")[3]) for r in regret[1:41]] == list(range(1, 41))
        rel = (tmp_path / "replay_relative.csv").read_text().splitlines()
        assert len(rel) == 1 + 2 * 40

    def test_T_beyond_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(5, 400, n_arms=4))
        rc = run_cli(
            "replay", "--log", str(log), "--train-n", "300", "--T", "101",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "101" in err and "100" in err
        assert not (tmp_path / "replay_regret.csv").exists()

    def test_horizon_below_two_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(5, 400, n_arms=4))
        rc = run_cli(
            "replay", "--log", str(log), "--train-n", "300", "--T", "1",
            "--out-dir", str(tmp_path),
        )
        assert rc == 2
        assert "got 1" in capsys.readouterr().err
        assert not (tmp_path / "replay_regret.csv").exists()

    def test_train_n_too_large_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(6, 50, n_arms=3))
        assert run_cli("replay", "--log", str(log), "--train-n", "50", "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "train_n=50" in err and "50 records" in err
        assert not (tmp_path / "replay_regret.csv").exists()

    def test_non_finite_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(8, 40, n_arms=3))
        lines = log.read_text().splitlines()
        doc = json.loads(lines[4])
        doc["user"][0] = float("nan")
        lines[4] = json.dumps(doc)
        log.write_text("\n".join(lines) + "\n")
        rc = run_cli("replay", "--log", str(log), "--train-n", "20", "--out-dir", str(tmp_path))
        assert rc == 2
        assert "line 5" in capsys.readouterr().err
        assert not (tmp_path / "replay_regret.csv").exists()

    def test_overflowing_literal_exits_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(8, 40, n_arms=3))
        lines = log.read_text().splitlines()
        doc = json.loads(lines[6])
        doc["arms"][1][0] = "x"
        lines[6] = json.dumps(doc).replace('"x"', "1e400")
        log.write_text("\n".join(lines) + "\n")
        rc = run_cli("replay", "--log", str(log), "--train-n", "20", "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 7" in err and "finite" in err
        assert not (tmp_path / "replay_regret.csv").exists()

    def test_missing_log_exits_2(self, tmp_path):
        assert run_cli("replay", "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "flag",
        ["--setting", "--k-grid", "--scale", "--threads", "--rho", "--d1", "--d2", "--K",
         "--n-envs", "--diagnostics-every", "--trace-stride"],
    )
    def test_unread_flag_is_usage_error(self, flag, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(5, 60, n_arms=3))
        with pytest.raises(SystemExit) as exc:
            run_cli("replay", "--log", str(log), "--train-n", "40", flag, "1",
                    "--out-dir", str(tmp_path))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "replay_regret.csv").exists()

    @pytest.mark.parametrize(
        "entry",
        [{"ridge": 0}, {"ridge": -1.0}, {"ridge": float("nan")}, {"ridge": float("inf")},
         {"ridge": "1e-6"}, {"ridge": True}, {"train_n": "x"}, {"train_n": 0},
         {"train_n": 2.5}],
        ids=["ridge_zero", "ridge_negative", "ridge_nan", "ridge_inf", "ridge_string",
             "ridge_bool", "train_n_string", "train_n_zero", "train_n_fraction"],
    )
    def test_bad_replay_config_exits_2_before_reading_log(self, entry, tmp_path, capsys):
        # the log does not exist: reading it would fail with exit code 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replay": {"log": str(tmp_path / "none.jsonl"), **entry}}))
        assert run_cli("replay", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert next(iter(entry)) in err
        assert "none.jsonl" not in err

    @pytest.mark.parametrize(
        "doc",
        [{"n_trials": "x"}, {"n_trials": 0}, {"n_trials": 1.5}, {"delta": 2}, {"delta": 0},
         {"delta": "0.1"}, {"seed": "x"}, {"seed": 1.5}, {"replay": {"noise_std": "x"}},
         {"replay": {"noise_std": -1}}, {"replay": {"noise_std": float("nan")}}, {"T": "x"},
         {"T": 2.7}],
        ids=["n_trials_string", "n_trials_zero", "n_trials_fraction", "delta_two",
             "delta_zero", "delta_string", "seed_string", "seed_fraction",
             "noise_std_string", "noise_std_negative", "noise_std_nan", "T_string",
             "T_fraction"],
    )
    def test_bad_value_in_config_exits_2_before_reading_log(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = run_cli("replay", "--config", str(cfg), "--log", str(tmp_path / "none.jsonl"),
                     "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        key = next(iter(doc))
        assert (key if key != "replay" else "noise_std") in err
        assert "none.jsonl" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--noise-std", "-1"), ("--noise-std", "inf"), ("--delta", "1"), ("--delta", "nan"),
         ("--n-trials", "0"), ("--algos", "linucb,linucb")],
    )
    def test_bad_flag_value_exits_2_before_reading_log(self, flag, value, tmp_path, capsys):
        rc = run_cli("replay", "--log", str(tmp_path / "none.jsonl"), flag, value,
                     "--out-dir", str(tmp_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err
        assert "none.jsonl" not in err

    def test_train_n_flag_below_one_exits_2(self, tmp_path, capsys):
        rc = run_cli("replay", "--log", str(tmp_path / "none.jsonl"), "--train-n", "0",
                     "--out-dir", str(tmp_path))
        assert rc == 2
        assert "train_n" in capsys.readouterr().err


class TestSummarize:
    def test_round_trip(self, tmp_path):
        rc = run_cli(
            "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "3",
            "--T", "40", "--algos", "linucb,oracle", "--n-envs", "1", "--n-trials", "2",
            "--out-dir", str(tmp_path),
        )
        assert rc == 0
        rc = run_cli(
            "summarize", "--regret", str(tmp_path / "regret.csv"),
            "--out-dir", str(tmp_path / "sum"),
        )
        assert rc == 0
        lines = (tmp_path / "sum" / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("algo,")
        oracle_row = [l for l in lines if l.startswith("oracle")][0]
        assert float(oracle_row.split(",")[5]) == 0.0

    def test_shape_fields_left_empty(self, tmp_path):
        rc = run_cli(
            "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "3",
            "--T", "30", "--algos", "linucb,oracle", "--n-envs", "1", "--n-trials", "2",
            "--out-dir", str(tmp_path),
        )
        assert rc == 0
        rc = run_cli(
            "summarize", "--regret", str(tmp_path / "regret.csv"),
            "--out-dir", str(tmp_path / "sum"),
        )
        assert rc == 0
        lines = (tmp_path / "sum" / "summary.csv").read_text().splitlines()
        assert lines[0] == "algo,K,d1,d2,T,mean_final_regret,std_final_regret,n_trials"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["linucb", "oracle"]
        for row in rows:
            assert len(row) == 8
            assert row[1:4] == ["", "", ""]
            assert row[4] == "30" and row[7] == "2"

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("summarize", "--regret", str(tmp_path / "no.csv")) == 2

    def test_k_sweep_csv_exits_2_naming_trace(self, tmp_path, capsys):
        # regret.csv has no K column: the sweep writes trace (linucb, 0, 0) once per K
        rc = run_cli(
            "run", "--setting", "3", "--k-grid", "2,3", "--T", "20", "--algos", "linucb",
            "--n-envs", "1", "--n-trials", "1", "--out-dir", str(tmp_path),
        )
        assert rc == 0
        assert "K=2,3 " in capsys.readouterr().err
        out = tmp_path / "sum"
        assert run_cli("summarize", "--regret", str(tmp_path / "regret.csv"), "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert "line 22" in err and "algo=linucb env_id=0 trial_id=0" in err
        assert "K sweep" in err
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "row",
        ["linucb,0,0,2,0.75", "linucb,0,0,2,0.75,1,9", "linucb,x,0,2,0.75,1",
         "linucb,0,y,2,0.75,1", "linucb,0,0,2.5,0.75,1", "linucb,0,0,2,abc,1"],
        ids=["too_few_fields", "too_many_fields", "env_id", "trial_id", "round",
             "cum_regret"],
    )
    def test_malformed_row_exits_2_naming_line(self, row, tmp_path, capsys):
        regret = tmp_path / "regret.csv"
        regret.write_text(
            "algo,env_id,trial_id,round,cum_regret,chosen_arm\n"
            f"linucb,0,0,1,0.5,2\n{row}\nlinucb,0,0,3,0.8,0\n"
        )
        out = tmp_path / "sum"
        assert run_cli("summarize", "--regret", str(regret), "--out-dir", str(out)) == 2
        assert "line 3" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HYBANDIT_OUT_DIR", str(tmp_path / "envout"))
    rc = run_cli(
        "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "3",
        "--T", "20", "--algos", "oracle", "--n-envs", "1", "--n-trials", "1",
    )
    assert rc == 0
    assert (tmp_path / "envout" / "regret.csv").exists()


def _readme_invocations():
    """The ``hybandit`` command lines of the README's CLI section."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = re.sub(r"\\\n\s*", " ", block)
    return [line.split()[1:] for line in joined.splitlines() if line.startswith("hybandit ")]


def test_readme_invocations_parse():
    invocations = _readme_invocations()
    assert {argv[0] for argv in invocations} == {
        "gen-env", "run", "diagnose", "replay", "summarize"
    }
    parser = build_parser()
    for argv in invocations:
        parser.parse_args(argv)


COMMANDS = ("gen-env", "run", "diagnose", "replay", "summarize")


def test_readme_key_table_mirrors_keys():
    """README's key table has one row per key: flag, type, range and the commands that read it."""
    lines = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key | flag |"))
    header = [c.strip() for c in lines[start].strip("|").split("|")]
    assert header[4:] == list(COMMANDS)
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells
    assert sorted(rows) == sorted(key.name for key in KEYS)
    for key in KEYS:
        _, flag, kind, allowed, *defaults = rows[key.name]
        assert flag.strip("`") == (key.flag or "—"), key.name
        assert kind == key.kind, key.name
        assert key.range.removeprefix("of ") in allowed, key.name
        assert [d != "—" for d in defaults] == [c in key.defaults for c in COMMANDS], key.name

