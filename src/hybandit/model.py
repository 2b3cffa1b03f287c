"""Problem-domain types: hybrid reward parameters, context rounds, mean rewards.

A hybrid reward instance has one shared parameter vector (length d1) plus one
arm-specific vector per arm (length d2).  Embedding an arm's feature pair into
a (d1 + d2*K)-vector reduces the hybrid problem to an ordinary shared linear
model over the concatenated parameters (theta, beta_1, ..., beta_K),
preserving mean rewards exactly.
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


def mean_rewards(params: HybridParams, ctx: ContextRound) -> np.ndarray:
    """Noiseless rewards of every arm in one round."""
    return ctx.xs @ params.theta + np.einsum("kd,kd->k", ctx.zs, params.betas)
