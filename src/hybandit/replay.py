"""Replay-log ingestion and semi-synthetic bandit environments.

A replay log is UTF-8, line-delimited strict JSON, one record per line:

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


def _decode_rejected(lineno: int, line: str):
    """Decode a line that orjson rejected with :mod:`json`, only to word the error.

    A byte that is not UTF-8 (read as a lone surrogate) is named.  A line
    ``json`` decodes comes back for the record checks, which reject what
    orjson refused: ``NaN``, ``Infinity`` and float literals that overflow a
    double (``inf`` to ``json``) are not finite, and an integer beyond a
    double is a bad feature array.  Any other line is ``invalid JSON``.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ReplayLogError(lineno, f"not valid UTF-8 (byte 0x{byte:02x})") from None
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReplayLogError(lineno, f"invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise ReplayLogError(lineno, "invalid JSON (nested too deeply)") from None


def parse_replay_log(path):
    """Stream :class:`ReplayRecord` objects from a log file.

    Each line is decoded with orjson, which reads every double bit for bit as
    :func:`json.loads` does.  Validates shapes against the first record and
    reports malformed lines by number via :class:`ReplayLogError`.
    """
    import orjson  # loaded only when a log is parsed

    shape: tuple[int, int, int] | None = None  # (du, K, dv)
    # surrogateescape keeps a byte that is not UTF-8, so it fails on its own line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = orjson.loads(line)
            except orjson.JSONDecodeError:
                doc = _decode_rejected(lineno, line)
            if not isinstance(doc, dict):
                raise ReplayLogError(lineno, "record must be a JSON object")
            unknown = set(doc) - {"user", "arms", "displayed", "click"}
            if unknown:
                raise ReplayLogError(lineno, f"unknown fields {sorted(unknown)}")
            try:
                user = np.asarray(doc["user"], dtype=float)
                arms = np.asarray(doc["arms"], dtype=float)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    bilinear form ``u^T A v``); the arm features are ``v`` itself.  Leading
    axes broadcast: ``(n, du)`` users with ``(n, dv)`` arms give ``(n, du *
    dv)`` and ``(n, dv)`` features, one row per pair, and one ``(du,)`` user
    with ``(K, dv)`` arms gives one row per arm.  Each entry is the same
    product ``u_a v_b`` that ``np.outer`` computes.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x = u[..., :, None] * v[..., None, :]
    return x.reshape(*x.shape[:-2], -1), v.copy()


class ReplayContextStream:
    """Context sequence of logged users (T, du) and arms (T, K, dv), via :func:`build_features`.

    Both are already divided by global factors, recorded as ``user_scale``
    and ``arm_scale``, so every round satisfies the unit-norm bounds the
    policies assume.
    """

    def __init__(self, users: np.ndarray, arms: np.ndarray, user_scale: float, arm_scale: float):
        self.users = users
        self.arms = arms
        self.user_scale = user_scale
        self.arm_scale = arm_scale

    @property
    def T(self) -> int:
        return len(self.users)

    def round(self, t: int) -> ContextRound:
        return ContextRound(*build_features(self.users[t], self.arms[t]))


def semi_synthetic_environment(
    records,
    train_n: int,
    *,
    ridge: float = 1e-6,
) -> tuple[LearnedModel, ReplayContextStream]:
    """Fit the reward model on the first ``train_n`` records, replay the rest.

    Users and arms are stacked once and divided by the largest user and arm
    feature norms (at least 1).  Training data uses the displayed arm's
    features with the click as the regression target.  The returned stream
    serves the remaining records' K-arm contexts; rewards during simulation
    should be drawn from the learned model (it is the ground truth of the
    semi-synthetic world).
    """
    records = list(records)
    if train_n < 1:
        raise ValueError(f"train_n must be positive, got {train_n}")
    if len(records) <= train_n:
        raise ValueError(
            f"log has {len(records)} records, need more than train_n={train_n}"
        )
    users = np.stack([rec.user for rec in records])
    arms = np.stack([rec.arms for rec in records])
    # The user norms are row-wise (1, du) @ (du, 1) products, which numpy
    # computes with the same ``dot`` as the 1-D ``np.linalg.norm``, so the
    # scales match a per-record loop bit for bit.
    user_scale = max(1.0, float(np.sqrt(np.max(users[:, None, :] @ users[:, :, None]))))
    arm_scale = max(1.0, float(np.max(np.linalg.norm(arms, axis=2))))
    users /= user_scale
    arms /= arm_scale
    shown = np.array([rec.displayed for rec in records[:train_n]])
    xs, zs = build_features(users[:train_n], arms[np.arange(train_n), shown])
    clicks = np.array([rec.click for rec in records[:train_n]], dtype=float)
    learned = hybrid_least_squares(shown, xs, zs, clicks, n_arms=arms.shape[1], ridge=ridge)
    return learned, ReplayContextStream(users[train_n:], arms[train_n:], user_scale, arm_scale)
