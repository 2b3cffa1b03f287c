import json

import numpy as np
import pytest

from hybandit.envs import hybrid_least_squares, sample_unit_ball
from hybandit.harness import Environment, run_trial
from hybandit.replay import (
    ReplayLogError,
    ReplayRecord,
    _norm_scales,
    build_features,
    parse_replay_log,
    semi_synthetic_environment,
    write_replay_log,
)
from hybandit.rng import stream

from oracles import mean_reward


def synth_records(seed, n, n_arms=5, du=3, dv=3, params=None):
    """Random log records; clicks follow a planted bilinear model if given."""
    rng = stream(seed, 0, 0, "replay")
    records = []
    for _ in range(n):
        user = sample_unit_ball(rng, du)
        arms = sample_unit_ball(rng, dv, n_arms)
        displayed = int(rng.integers(n_arms))
        if params is None:
            click = int(rng.integers(2))
        else:
            x, z = build_features(user, arms[displayed])
            p = min(1.0, max(0.0, 0.5 + mean_reward(params, displayed, x, z)))
            click = int(rng.random() < p)
        records.append(ReplayRecord(user, arms, displayed, click))
    return records


class TestBuildFeatures:
    def test_dims_like_six_by_six(self):
        x, z = build_features(np.ones(6), np.ones(6))
        assert x.shape == (36,) and z.shape == (6,)

    def test_basis_vectors(self):
        u = np.zeros(3)
        u[0] = 1.0
        v = np.zeros(2)
        v[0] = 1.0
        x, z = build_features(u, v)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(x, expected)
        assert np.array_equal(z, v)

    def test_bilinear_form_oracle(self, rng):
        u, v = rng.standard_normal(4), rng.standard_normal(3)
        a = rng.standard_normal((4, 3))
        x, _ = build_features(u, v)
        assert float(x @ a.ravel()) == pytest.approx(float(u @ a @ v), rel=1e-12)


class TestParseWriteRoundTrip:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        assert list(parse_replay_log(path)) == []

    def test_round_trip(self, tmp_path):
        records = synth_records(3, 1000)
        path = tmp_path / "log.jsonl"
        write_replay_log(path, records)
        back = list(parse_replay_log(path))
        assert len(back) == 1000
        for a, b in zip(records, back):
            assert np.array_equal(a.user, b.user)
            assert np.array_equal(a.arms, b.arms)
            assert a.displayed == b.displayed and a.click == b.click

    def test_displayed_out_of_range_names_line(self, tmp_path):
        records = synth_records(1, 3, n_arms=4)
        path = tmp_path / "log.jsonl"
        write_replay_log(path, records)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[1])
        bad["displayed"] = 5
        lines[1] = json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayLogError, match="line 2"):
            list(parse_replay_log(path))

    def test_malformed_json_names_line(self, tmp_path):
        records = synth_records(2, 2)
        path = tmp_path / "log.jsonl"
        write_replay_log(path, records)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ReplayLogError, match="line 3"):
            list(parse_replay_log(path))

    def test_shape_drift_rejected(self, tmp_path):
        records = synth_records(4, 2)
        path = tmp_path / "log.jsonl"
        write_replay_log(path, records)
        doc = {"user": [0.1], "arms": [[0.2, 0.3]], "displayed": 1, "click": 0}
        with open(path, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(ReplayLogError, match="line 3"):
            list(parse_replay_log(path))

    def test_bad_click_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        doc = {"user": [0.1], "arms": [[0.2]], "displayed": 1, "click": 2}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ReplayLogError, match="click"):
            list(parse_replay_log(path))

    @pytest.mark.parametrize("field", ["user", "arms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_features_name_line(self, tmp_path, field, value):
        records = synth_records(7, 3, n_arms=2, du=2, dv=2)
        path = tmp_path / "log.jsonl"
        write_replay_log(path, records)
        lines = path.read_text().splitlines()
        bad = json.loads(lines[1])
        if field == "user":
            bad["user"][0] = value
        else:
            bad["arms"][1][0] = value
        # json writes (and parses) the NaN/Infinity literals; the log must not accept them
        lines[1] = json.dumps(bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayLogError, match="line 2.*finite"):
            list(parse_replay_log(path))

    def test_doubles_parse_bit_for_bit_as_json(self, tmp_path):
        rng = np.random.default_rng(13)
        drawn = rng.integers(0, 2**64, size=1024, dtype=np.uint64, endpoint=False).view(float)
        special = [5e-324, -5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308]
        values = np.concatenate([special, drawn[np.isfinite(drawn)]])
        values = values[: len(values) // 16 * 16].reshape(-1, 16)
        # shortest repr, and digit counts that fall short of or go past a double's
        formats = (repr, "{:.17g}".format, "{:.25g}".format, "{:.12e}".format)
        lines = []
        for i, row in enumerate(values):
            text = [formats[(i + j) % len(formats)](float(v)) for j, v in enumerate(row)]
            user = ",".join(text[:4])
            arms = ",".join("[" + ",".join(text[k : k + 4]) + "]" for k in range(4, 16, 4))
            lines.append(f'{{"user":[{user}],"arms":[{arms}],"displayed":1,"click":0}}')
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records = list(parse_replay_log(path))
        assert len(records) == len(lines)

        def bits(values):
            return np.asarray(values, dtype=float).view(np.int64)

        for rec, line in zip(records, lines):
            doc = json.loads(line)
            assert np.array_equal(bits(rec.user), bits(doc["user"]))
            assert np.array_equal(bits(rec.arms), bits(doc["arms"]))

    def test_non_utf8_line_named(self, tmp_path):
        records = synth_records(2, 3)
        path = tmp_path / "log.jsonl"
        write_replay_log(path, records)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:20] + b"\xff" + lines[1][20:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ReplayLogError, match=r"line 2: not valid UTF-8 \(byte 0xff\)"):
            list(parse_replay_log(path))

    @pytest.mark.parametrize(
        "bad, message",
        [("[" * 100_000, "nested too deeply"),
         ('{"user": [1%s], "arms": [[0.2]], "displayed": 1, "click": 0}' % ("0" * 400),
          "bad feature arrays")],
        ids=["deep_nesting", "integer_beyond_double"],
    )
    def test_deep_nesting_and_huge_integer_name_line(self, bad, message, tmp_path):
        path = tmp_path / "log.jsonl"
        write_replay_log(path, synth_records(2, 1))
        with open(path, "a") as fh:
            fh.write(bad + "\n")
        with pytest.raises(ReplayLogError, match=f"line 2: .*{message}"):
            list(parse_replay_log(path))

    def test_lines_split_numbered_and_skipped(self, tmp_path):
        """Universal newlines: CRLF and CR end lines too, and blank lines still count."""
        good = json.dumps({"user": [0.5], "arms": [[0.25], [1.0]], "displayed": 2, "click": 1})
        path = tmp_path / "log.jsonl"
        path.write_bytes(f"{good}\r\n{good}\r\n\r\n  \r{good}\n{{\n".encode())
        with pytest.raises(ReplayLogError, match="line 6: invalid JSON"):
            list(parse_replay_log(path))
        path.write_bytes(path.read_bytes()[:-2])
        records = list(parse_replay_log(path))
        assert len(records) == 3
        assert all(r.displayed == 1 and r.click == 1 for r in records)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        doc = {"user": [0.1], "arms": [[0.2]], "displayed": 1, "click": 0, "extra": 1}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ReplayLogError, match="unknown"):
            list(parse_replay_log(path))


class TestSemiSyntheticEnvironment:
    def test_train_n_too_large(self):
        records = synth_records(5, 10)
        with pytest.raises(ValueError):
            semi_synthetic_environment(records, 10)

    def test_learned_model_recovers_planted_params(self, rng):
        from test_model import random_params

        du = dv = 3
        planted = random_params(rng, du * dv, dv, 4, S=0.2)
        # noiseless continuous targets: feed mean rewards directly
        records = synth_records(8, 4000, n_arms=4, du=du, dv=dv)
        data = []
        for rec in records:
            x, z = build_features(rec.user, rec.arms[rec.displayed])
            data.append((rec.displayed, x, z, mean_reward(planted, rec.displayed, x, z)))
        fit = hybrid_least_squares(data, n_arms=4, ridge=1e-8)
        assert np.linalg.norm(fit.params.theta - planted.theta) < 1e-5
        assert np.max(np.abs(fit.params.betas - planted.betas)) < 1e-4

    def test_noiseless_oracle_replay_has_zero_regret(self):
        records = synth_records(9, 300, n_arms=4)
        learned, ctxs = semi_synthetic_environment(records, 200, ridge=1e-6)
        env = Environment(0, 123, learned.params, ctxs, noise_std=0.0)
        trace, _ = run_trial("oracle", env, 0)
        assert trace.final_regret == 0.0
        assert len(trace.cum_regret) == 100

    @pytest.mark.parametrize("du, dv", [(3, 3), (4, 5), (7, 2)])
    def test_norm_scales_match_per_record_loop(self, monkeypatch, du, dv):
        # Bit-for-bit: the scales divide every feature.  Norms above 1 keep the
        # floor from hiding a difference; 40 logs of 30 records span 5 chunks each.
        monkeypatch.setattr("hybandit.replay.FIT_CHUNK", 7)
        rng = np.random.default_rng(du * 10 + dv)
        for _ in range(40):
            records = [
                ReplayRecord(
                    rng.standard_normal(du) * (3.0 + rng.random()),
                    rng.standard_normal((4, dv)) * (3.0 + rng.random()),
                    0,
                    0,
                )
                for _ in range(30)
            ]
            user_max = max(float(np.linalg.norm(r.user)) for r in records)
            arm_max = max(float(np.max(np.linalg.norm(r.arms, axis=1))) for r in records)
            assert _norm_scales(records) == (max(1.0, user_max), max(1.0, arm_max))

    def test_stacked_features_match_per_record_outer(self, monkeypatch):
        # Bit-for-bit: one stacked build_features call gives the per-record
        # np.outer training data, hence the same fit, and every replay round
        # equals its per-arm np.outer stack.  Norms above 1 make both scales divide.
        records = [
            ReplayRecord(3.0 * r.user, 2.0 * r.arms, r.displayed, r.click)
            for r in synth_records(11, 1200, n_arms=4, du=4, dv=5)
        ]
        fitted = []

        def recording_fit(data, **kwargs):
            fitted.append(data)
            return hybrid_least_squares(data, **kwargs)

        monkeypatch.setattr("hybandit.replay.hybrid_least_squares", recording_fit)
        learned, ctxs = semi_synthetic_environment(records, 1000)
        (data,) = fitted
        us, arm_s = ctxs.user_scale, ctxs.arm_scale
        assert us > 1.0 and arm_s > 1.0
        loop = [
            (r.displayed, np.outer(r.user / us, r.arms[r.displayed] / arm_s).ravel(),
             r.arms[r.displayed] / arm_s, float(r.click))
            for r in records[:1000]
        ]
        assert len(data) == len(loop)
        for (arm, x, z, y), (arm_l, x_l, z_l, y_l) in zip(data, loop):
            assert arm == arm_l and y == y_l
            assert np.array_equal(x, x_l) and np.array_equal(z, z_l)
        ref = hybrid_least_squares(loop, n_arms=4, ridge=1e-6)
        assert np.array_equal(learned.params.theta, ref.params.theta)
        assert np.array_equal(learned.params.betas, ref.params.betas)
        assert learned.fit_residual == ref.fit_residual
        for t, rec in enumerate(records[1000:]):
            ctx = ctxs.round(t)
            u, arms = rec.user / us, rec.arms / arm_s
            assert np.array_equal(ctx.xs, np.stack([np.outer(u, a).ravel() for a in arms]))
            assert np.array_equal(ctx.zs, arms)

    def test_context_norms_bounded(self):
        records = synth_records(10, 50, n_arms=3)
        # inflate feature norms so rescaling has to kick in
        records = [
            ReplayRecord(3.0 * r.user, 2.0 * r.arms, r.displayed, r.click) for r in records
        ]
        _, ctxs = semi_synthetic_environment(records, 20)
        assert ctxs.user_scale > 1.0 and ctxs.arm_scale > 1.0
        for t in range(ctxs.T):
            ctx = ctxs.round(t)
            assert np.all(np.linalg.norm(ctx.xs, axis=1) <= 1.0 + 1e-9)
            assert np.all(np.linalg.norm(ctx.zs, axis=1) <= 1.0 + 1e-9)
