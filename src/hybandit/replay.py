"""Replay-log ingestion and semi-synthetic bandit environments.

A replay log is UTF-8, line-delimited JSON, one record per line:

    {"user": [...], "arms": [[...], ...], "displayed": int (1-based), "click": 0|1}

where ``user`` is the round's user feature vector, ``arms`` the K candidate
feature vectors, ``displayed`` the arm actually shown, and ``click`` the
recorded feedback.  (Proprietary click-log formats can be adapted to this
schema externally; this module only consumes it.)

The semi-synthetic protocol fits a hybrid least-squares reward model on a
training prefix of the log, then replays the remaining rounds as a bandit
environment whose ground truth is the learned model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .envs import LearnedModel, hybrid_least_squares
from .model import ContextRound


class ReplayLogError(ValueError):
    """A replay log failed schema validation; carries the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ReplayRecord:
    """One logged interaction.  ``displayed`` is a 0-based arm index."""

    user: np.ndarray
    arms: np.ndarray  # (K, dv)
    displayed: int
    click: int

    def __post_init__(self):
        object.__setattr__(self, "user", np.asarray(self.user, dtype=float))
        object.__setattr__(self, "arms", np.asarray(self.arms, dtype=float))
        if not 0 <= self.displayed < self.arms.shape[0]:
            raise ValueError(f"displayed arm {self.displayed} out of range")
        if self.click not in (0, 1):
            raise ValueError(f"click must be 0 or 1, got {self.click}")


def parse_replay_log(path):
    """Stream :class:`ReplayRecord` objects from a log file.

    Validates shapes against the first record and reports malformed lines by
    number via :class:`ReplayLogError`.
    """
    shape: tuple[int, int, int] | None = None  # (du, K, dv)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReplayLogError(lineno, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(doc, dict):
                raise ReplayLogError(lineno, "record must be a JSON object")
            unknown = set(doc) - {"user", "arms", "displayed", "click"}
            if unknown:
                raise ReplayLogError(lineno, f"unknown fields {sorted(unknown)}")
            try:
                user = np.asarray(doc["user"], dtype=float)
                arms = np.asarray(doc["arms"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise ReplayLogError(lineno, f"bad feature arrays: {exc}") from exc
            if "displayed" not in doc or "click" not in doc:
                raise ReplayLogError(lineno, "missing 'displayed' or 'click'")
            if user.ndim != 1 or arms.ndim != 2:
                raise ReplayLogError(lineno, "user must be a vector and arms a matrix")
            if not (np.isfinite(user).all() and np.isfinite(arms).all()):
                raise ReplayLogError(lineno, "user and arm features must be finite numbers")
            displayed = doc["displayed"]
            if not isinstance(displayed, int) or isinstance(displayed, bool):
                raise ReplayLogError(lineno, "'displayed' must be an integer")
            click = doc["click"]
            if click not in (0, 1) or isinstance(click, bool):
                raise ReplayLogError(lineno, "'click' must be 0 or 1")
            if shape is None:
                shape = (user.shape[0], arms.shape[0], arms.shape[1])
            elif (user.shape[0], arms.shape[0], arms.shape[1]) != shape:
                raise ReplayLogError(
                    lineno,
                    f"shape {(user.shape[0], *arms.shape)} differs from first record {shape}",
                )
            if not 1 <= displayed <= arms.shape[0]:
                raise ReplayLogError(
                    lineno, f"displayed={displayed} out of range 1..{arms.shape[0]}"
                )
            yield ReplayRecord(user, arms, displayed - 1, int(click))


def write_replay_log(path, records) -> None:
    """Write records in the line-delimited JSON log format (inverse of parsing)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            doc = {
                "user": [float(v) for v in rec.user],
                "arms": [[float(v) for v in arm] for arm in rec.arms],
                "displayed": int(rec.displayed) + 1,
                "click": int(rec.click),
            }
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def build_features(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared/arm feature pair of a (user, arm) combination.

    The shared features are the row-major vectorization of ``u v^T`` (so
    their inner product with a flattened d_u x d_v parameter matrix is the
    bilinear form ``u^T A v``); the arm features are ``v`` itself.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.outer(u, v).ravel(), v.copy()


class ReplayContextStream:
    """Context sequence built from logged records via :func:`build_features`.

    Feature vectors are rescaled by global factors so every round satisfies
    the unit-norm bounds the policies assume; the factors are recorded.
    """

    def __init__(self, records: list[ReplayRecord], user_scale: float, arm_scale: float):
        self.records = records
        self.user_scale = user_scale
        self.arm_scale = arm_scale

    @property
    def T(self) -> int:
        return len(self.records)

    def round(self, t: int) -> ContextRound:
        rec = self.records[t]
        u = rec.user / self.user_scale
        arms = rec.arms / self.arm_scale
        xs = np.einsum("a,kb->kab", u, arms).reshape(arms.shape[0], -1)
        return ContextRound(xs, arms)


def _norm_scales(records) -> tuple[float, float]:
    user_max = max(float(np.linalg.norm(r.user)) for r in records)
    arm_max = max(float(np.max(np.linalg.norm(r.arms, axis=1))) for r in records)
    return max(1.0, user_max), max(1.0, arm_max)


def semi_synthetic_environment(
    records,
    train_n: int,
    *,
    ridge: float = 1e-6,
) -> tuple[LearnedModel, ReplayContextStream]:
    """Fit the reward model on the first ``train_n`` records, replay the rest.

    Training data uses the displayed arm's features with the click as the
    regression target.  The returned stream serves the remaining records'
    K-arm contexts; rewards during simulation should be drawn from the
    learned model (it is the ground truth of the semi-synthetic world).
    """
    records = list(records)
    if train_n < 1:
        raise ValueError(f"train_n must be positive, got {train_n}")
    if len(records) <= train_n:
        raise ValueError(
            f"log has {len(records)} records, need more than train_n={train_n}"
        )
    user_scale, arm_scale = _norm_scales(records)
    train = records[:train_n]
    data = []
    for rec in train:
        x, z = build_features(rec.user / user_scale, rec.arms[rec.displayed] / arm_scale)
        data.append((rec.displayed, x, z, float(rec.click)))
    n_arms = records[0].arms.shape[0]
    learned = hybrid_least_squares(data, n_arms=n_arms, ridge=ridge)
    return learned, ReplayContextStream(records[train_n:], user_scale, arm_scale)
