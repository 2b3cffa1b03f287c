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


def dump_environment(cfg: SyntheticEnvConfig, path) -> None:
    """Write the environment's parameters and shape to a JSON audit file."""
    params, _ = generate_environment(cfg)
    doc = {
        "d1": cfg.d1,
        "d2": cfg.d2,
        "K": cfg.n_arms,
        "T": cfg.T,
        "S": float(cfg.S),
        "noise_std": float(cfg.noise_std),
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


# Rows summed at a time by the fit; bounds the memory of its outer products.
FIT_CHUNK = 512


def hybrid_least_squares(arms, xs, zs, ys, *, n_arms: int, ridge: float = 1e-6) -> LearnedModel:
    """Penalized least-squares fit of the hybrid reward model.

    ``arms`` (n,), ``xs`` (n, d1), ``zs`` (n, d2) and ``ys`` (n,) hold one
    observation per row: the arm shown, its shared and arm features, and the
    reward.  The normal equations, plus ``ridge * I`` so arms never (or
    rarely) shown still get a unique, zero-shrunk solution, are accumulated
    ``FIT_CHUNK`` rows at a time into the block form the policies use and
    solved by one block solve.
    """
    arms = np.asarray(arms)
    xs, zs, ys = (np.asarray(a, dtype=float) for a in (xs, zs, ys))
    n = len(arms)
    if n == 0:
        raise ValueError("data must be nonempty")
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    ndims = (arms.ndim, xs.ndim, zs.ndim, ys.ndim)
    if ndims != (1, 2, 2, 1) or not len(xs) == len(zs) == len(ys) == n:
        raise ValueError("arms, xs, zs and ys must hold one row per observation")
    if not (np.isfinite(xs).all() and np.isfinite(zs).all() and np.isfinite(ys).all()):
        raise ValueError("features and targets must be finite")
    if arms.min() < 0 or arms.max() >= n_arms:
        raise ValueError(f"arm indices {arms.min()}..{arms.max()} out of range for {n_arms} arms")
    d1, d2 = xs.shape[1], zs.shape[1]

    design = BlockDesign(d1, d2, n_arms, ridge)
    u_shared = np.zeros(d1)
    u_arms = np.zeros((n_arms, d2))
    chunks = [slice(start, start + FIT_CHUNK) for start in range(0, n, FIT_CHUNK)]
    for c in chunks:
        a, x, z, y = arms[c], xs[c], zs[c], ys[c]
        design.V += x.T @ x
        u_shared += x.T @ y
        np.add.at(design.W, a, z[:, :, None] * z[:, None, :])
        np.add.at(design.B, a, x[:, :, None] * z[:, None, :])
        np.add.at(u_arms, a, z * y[:, None])
    design.refresh()
    theta, betas = design.solve_blocks(u_shared, u_arms)
    rss = 0.0
    for c in chunks:
        resid = xs[c] @ theta + np.einsum("nd,nd->n", zs[c], betas[arms[c]]) - ys[c]
        rss += float(resid @ resid)

    bound = max(1e-12, float(np.linalg.norm(theta)), float(np.max(np.linalg.norm(betas, axis=1))))
    params = HybridParams(theta, betas, S=bound)
    return LearnedModel(params, rss)
