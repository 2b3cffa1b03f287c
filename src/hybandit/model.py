"""Problem-domain types: hybrid reward parameters, their flattening, regret.

A hybrid reward instance has one shared parameter vector (length d1) plus one
arm-specific vector per arm (length d2).  Embedding an arm's feature pair into
a (d1 + d2*K)-vector reduces the hybrid problem to an ordinary shared linear
model over the flattened parameters (:func:`flatten`), preserving mean rewards
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class HybridParams:
    """Ground-truth reward parameters: shared theta, per-arm betas, norm bound S."""

    theta: np.ndarray
    betas: np.ndarray  # (K, d2)
    S: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=float))
        if self.theta.ndim != 1 or self.betas.ndim != 2:
            raise ValueError("theta must be a vector and betas a (K, d2) stack")
        if self.S <= 0:
            raise ValueError(f"norm bound S must be positive, got {self.S}")
        limit = self.S * (1.0 + _NORM_TOL)
        if np.linalg.norm(self.theta) > limit:
            raise ValueError("shared parameter norm exceeds the bound S")
        if self.betas.size and float(np.max(np.linalg.norm(self.betas, axis=1))) > limit:
            raise ValueError("an arm parameter norm exceeds the bound S")

    @property
    def d1(self) -> int:
        return self.theta.shape[0]

    @property
    def d2(self) -> int:
        return self.betas.shape[1]

    @property
    def n_arms(self) -> int:
        return self.betas.shape[0]


@dataclass(frozen=True)
class ContextRound:
    """The K feature tuples of one round, stacked per arm; read-only views, as rounds are shared."""

    xs: np.ndarray  # (K, d1)
    zs: np.ndarray  # (K, d2)

    def __post_init__(self):
        for name in ("xs", "zs"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if self.xs.ndim != 2 or self.zs.ndim != 2 or self.xs.shape[0] != self.zs.shape[0]:
            raise ValueError("xs and zs must be (K, d1) and (K, d2) stacks")

    @property
    def n_arms(self) -> int:
        return self.xs.shape[0]

    def arm(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.xs[i], self.zs[i]


def flatten(params: HybridParams) -> np.ndarray:
    """Concatenate (theta, beta_1, ..., beta_K) into one global vector."""
    return np.concatenate([params.theta, params.betas.ravel()])


def unflatten(phi: np.ndarray, d1: int, d2: int, n_arms: int, S: float = 1.0) -> HybridParams:
    """Inverse of :func:`flatten`."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (d1 + d2 * n_arms,):
        raise ValueError(f"phi length {phi.shape} does not match d1 + d2*K")
    return HybridParams(phi[:d1].copy(), phi[d1:].reshape(n_arms, d2).copy(), S=S)


def mean_reward(params: HybridParams, arm: int, x: np.ndarray, z: np.ndarray) -> float:
    """Noiseless reward of pulling ``arm`` with features (x, z)."""
    return float(np.dot(params.theta, x) + np.dot(params.betas[arm], z))


def mean_rewards(params: HybridParams, ctx: ContextRound) -> np.ndarray:
    """Noiseless rewards of every arm in one round."""
    return ctx.xs @ params.theta + np.einsum("kd,kd->k", ctx.zs, params.betas)


def instantaneous_regret(params: HybridParams, ctx: ContextRound, chosen: int) -> float:
    """Best mean reward of the round minus the chosen arm's mean reward."""
    if not 0 <= chosen < ctx.n_arms:
        raise ValueError(f"chosen arm {chosen} out of range")
    means = mean_rewards(params, ctx)
    return max(0.0, float(np.max(means) - means[chosen]))
