import json

from hybandit.cli import main
from hybandit.replay import write_replay_log

from test_replay import synth_records


def run_cli(*args):
    return main(list(args))


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

    def test_invalid_d2_exits_2(self, tmp_path, capsys):
        rc = run_cli(
            "gen-env", "--d1", "4", "--d2", "0", "--K", "5", "--T", "10",
            "--out", str(tmp_path / "x.json"),
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_dims_exits_2(self, tmp_path, capsys):
        assert run_cli("gen-env", "--out", str(tmp_path / "x.json")) == 2


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

    def test_train_n_too_large_exits_1(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        write_replay_log(log, synth_records(6, 50, n_arms=3))
        assert run_cli("replay", "--log", str(log), "--train-n", "50", "--out-dir", str(tmp_path)) == 1

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

    def test_missing_log_exits_2(self, tmp_path):
        assert run_cli("replay", "--out-dir", str(tmp_path)) == 2


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


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HYBANDIT_OUT_DIR", str(tmp_path / "envout"))
    rc = run_cli(
        "run", "--setting", "custom", "--d1", "3", "--d2", "2", "--K", "3",
        "--T", "20", "--algos", "oracle", "--n-envs", "1", "--n-trials", "1",
    )
    assert rc == 0
    assert (tmp_path / "envout" / "regret.csv").exists()
