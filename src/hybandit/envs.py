"""Synthetic hybrid-reward environments and hybrid least-squares fitting.

An environment is a pure function of its seed: the reward parameters and the
whole context sequence are regenerated on demand from addressable random
streams, so trials of the same environment share contexts exactly while
drawing independent reward noise, and nothing needs to be stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import BlockDesign
from .model import ContextRound, HybridParams
from .rng import stream


def sample_unit_ball(rng: np.random.Generator, dim: int, n: int | None = None) -> np.ndarray:
    """Uniform draw(s) from the closed unit ball in ``dim`` dimensions.

    Gaussian direction scaled by a U^(1/dim) radius.  Returns shape (dim,)
    when ``n`` is None, else (n, dim).
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    count = 1 if n is None else int(n)
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(float).tiny, out=norms)
    radii = rng.random((count, 1)) ** (1.0 / dim)
    out = g / norms * radii
    return out[0] if n is None else out


@dataclass(frozen=True)
class SyntheticEnvConfig:
    """Shape, noise and seed of one synthetic environment."""

    d1: int
    d2: int
    n_arms: int
    T: int
    noise_std: float = 0.1
    S: float = 1.0
    env_seed: int = 0

    def __post_init__(self):
        if min(self.d1, self.d2, self.n_arms, self.T) < 1:
            raise ValueError("d1, d2, n_arms and T must be positive")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")
        if self.S <= 0:
            raise ValueError(f"S must be positive, got {self.S}")


class SyntheticContextStream:
    """Lazy context sequence: round t is regenerated from (env_seed, t)."""

    def __init__(self, cfg: SyntheticEnvConfig):
        self.cfg = cfg

    @property
    def T(self) -> int:
        return self.cfg.T

    def round(self, t: int) -> ContextRound:
        if not 0 <= t < self.cfg.T:
            raise IndexError(f"round {t} outside horizon {self.cfg.T}")
        rng = stream(self.cfg.env_seed, 0, t, "context")
        xs = sample_unit_ball(rng, self.cfg.d1, self.cfg.n_arms)
        zs = sample_unit_ball(rng, self.cfg.d2, self.cfg.n_arms)
        return ContextRound(xs, zs)


def generate_environment(cfg: SyntheticEnvConfig) -> tuple[HybridParams, SyntheticContextStream]:
    """Draw reward parameters and expose the context stream of one environment.

    The shared parameter and the K arm parameters are uniform in balls of
    radius S; arm features come from unit balls round by round.  Everything
    is a deterministic function of ``cfg.env_seed``.
    """
    rng = stream(cfg.env_seed, 0, 0, "params")
    theta = cfg.S * sample_unit_ball(rng, cfg.d1)
    betas = cfg.S * sample_unit_ball(rng, cfg.d2, cfg.n_arms)
    return HybridParams(theta, betas, S=cfg.S), SyntheticContextStream(cfg)


def draw_reward(
    params: HybridParams,
    arm: int,
    x: np.ndarray,
    z: np.ndarray,
    noise_std: float,
    rng: np.random.Generator,
) -> float:
    """Mean reward of (arm, x, z) plus centered Gaussian noise."""
    if noise_std < 0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
    mean = float(np.dot(params.theta, x) + np.dot(params.betas[arm], z))
    if noise_std == 0:
        return mean
    return mean + noise_std * float(rng.standard_normal())


def dump_environment(cfg: SyntheticEnvConfig, path) -> None:
    """Write the environment's parameters and shape to a JSON audit file."""
    params, _ = generate_environment(cfg)
    doc = {
        "d1": cfg.d1,
        "d2": cfg.d2,
        "K": cfg.n_arms,
        "T": cfg.T,
        "S": cfg.S,
        "noise_std": cfg.noise_std,
        "env_seed": cfg.env_seed,
        "theta": params.theta.tolist(),
        "betas": [b.tolist() for b in params.betas],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class LearnedModel:
    """Hybrid least-squares fit: recovered parameters plus the fit residual."""

    params: HybridParams
    fit_residual: float


# Records stacked at a time by the fit; bounds its memory beyond ``data`` itself.
FIT_CHUNK = 512


def _record_stacks(data: list, d1: int, d2: int, size: int):
    """Consecutive stacks ``(arms, xs, zs, ys)`` of ``size`` records each."""
    for start in range(0, len(data), size):
        part = data[start : start + size]
        arms = np.array([int(item[0]) for item in part], dtype=np.int64)
        xs = np.array([item[1] for item in part], dtype=float)
        zs = np.array([item[2] for item in part], dtype=float)
        ys = np.array([float(item[3]) for item in part])
        if xs.shape != (len(part), d1) or zs.shape != (len(part), d2):
            raise ValueError("feature dimensions differ between records")
        if not (np.isfinite(xs).all() and np.isfinite(zs).all() and np.isfinite(ys).all()):
            raise ValueError("features and targets must be finite")
        yield arms, xs, zs, ys


def hybrid_least_squares(
    data,
    *,
    n_arms: int | None = None,
    ridge: float = 1e-6,
) -> LearnedModel:
    """Penalized least-squares fit of the hybrid reward model.

    ``data`` is a sequence of ``(arm, x, z, y)`` observations.  The normal
    equations, plus ``ridge * I`` so arms never (or rarely) shown still get a
    unique, zero-shrunk solution, are accumulated ``FIT_CHUNK`` records at a
    time into the block form the policies use and solved by one block solve.
    """
    data = list(data)
    if not data:
        raise ValueError("data must be nonempty")
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    d1 = len(np.asarray(data[0][1], dtype=float))
    d2 = len(np.asarray(data[0][2], dtype=float))
    arm_ids = [int(item[0]) for item in data]
    k = max(arm_ids) + 1 if n_arms is None else int(n_arms)
    if min(arm_ids) < 0 or max(arm_ids) >= k:
        raise ValueError(f"arm indices {min(arm_ids)}..{max(arm_ids)} out of range for {k} arms")

    design = BlockDesign(d1, d2, k, ridge)
    u_shared = np.zeros(d1)
    u_arms = np.zeros((k, d2))
    for arms, xs, zs, ys in _record_stacks(data, d1, d2, FIT_CHUNK):
        design.V += xs.T @ xs
        u_shared += xs.T @ ys
        np.add.at(design.W, arms, zs[:, :, None] * zs[:, None, :])
        np.add.at(design.B, arms, xs[:, :, None] * zs[:, None, :])
        np.add.at(u_arms, arms, zs * ys[:, None])
    design.refresh()
    theta, betas = design.solve_blocks(u_shared, u_arms)
    rss = 0.0
    for arms, xs, zs, ys in _record_stacks(data, d1, d2, FIT_CHUNK):
        resid = xs @ theta + np.einsum("nd,nd->n", zs, betas[arms]) - ys
        rss += float(resid @ resid)

    bound = max(
        1e-12,
        float(np.linalg.norm(theta)),
        float(np.max(np.linalg.norm(betas, axis=1))) if k else 0.0,
    )
    params = HybridParams(theta, betas, S=bound)
    return LearnedModel(params, rss)
