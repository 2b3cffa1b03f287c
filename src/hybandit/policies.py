"""The three UCB policies: LinUCB and HyLinUCB (shared reduction) and DisLinUCB.

LinUCB and HyLinUCB are the same ridge-UCB procedure over the sparse embedded
features; they differ only in the regularizer and exploration coefficient
(LinUCB: lambda = 1; HyLinUCB: lambda = K with a coefficient that scales with
the intrinsic d1 + d2 dimension instead of d1 + d2*K).  DisLinUCB runs one
independent (d1 + d2)-dimensional ridge-UCB model per arm on the concatenated
features.

All policies are deterministic: score ties break toward the lowest arm index.
States are single-writer; one instance per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import INVERSE_REFRESH_EVERY, BlockDesign, symmetrize
from .model import ContextRound, HybridParams, mean_rewards

LINUCB = "linucb"
DISLINUCB = "dislinucb"
HYLINUCB = "hylinucb"
ORACLE = "oracle"

ALGORITHMS = (LINUCB, DISLINUCB, HYLINUCB)
SHARED_ALGORITHMS = (LINUCB, HYLINUCB)


def default_lambda(algo: str, n_arms: int) -> float:
    """Regularizer each algorithm is defined with: 1, except K for HyLinUCB."""
    if algo in (LINUCB, DISLINUCB):
        return 1.0
    if algo == HYLINUCB:
        return float(n_arms)
    raise ValueError(f"unknown algorithm {algo!r}")


def exploration_coefficient(
    algo: str,
    *,
    S: float,
    n_arms: int,
    d1: int,
    d2: int,
    T: int,
    delta: float,
    lam: float | None = None,
) -> float:
    """Default UCB exploration coefficient of each algorithm.

    LinUCB uses the confidence-set width of the full (d1 + d2*K)-dimensional
    ridge estimator; HyLinUCB replaces the ambient dimension with the
    intrinsic d1 + d2 (each embedded feature has only that many nonzeros);
    DisLinUCB uses the per-arm (d1 + d2)-dimensional width with a union bound
    over arms.
    """
    if min(S, n_arms, d1, d2) <= 0:
        raise ValueError("S, n_arms, d1, d2 must all be positive")
    if T < 2:
        raise ValueError(f"horizon T must be at least 2, got {T}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability delta must lie in (0, 1), got {delta}")
    if lam is None:
        lam = default_lambda(algo, n_arms)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if algo == LINUCB:
        return 2.0 * S * math.sqrt(lam * n_arms) + math.sqrt(
            2.0 * (d1 + d2 * n_arms) * math.log(T / delta)
        )
    if algo == HYLINUCB:
        return 2.0 * (S * math.sqrt(n_arms) + math.sqrt(2.0 * (d1 + d2) * math.log(T / delta)))
    if algo == DISLINUCB:
        return 2.0 * math.sqrt(S) + math.sqrt(2.0 * (d1 + d2) * math.log(n_arms * T / delta))
    raise ValueError(f"unknown algorithm {algo!r}")


@dataclass(frozen=True)
class PolicyConfig:
    """Frozen per-trial policy configuration."""

    algo: str
    d1: int
    d2: int
    n_arms: int
    S: float
    T: int
    delta: float
    lam: float
    gamma: float

    @classmethod
    def create(
        cls,
        algo: str,
        *,
        d1: int,
        d2: int,
        n_arms: int,
        S: float,
        T: int,
        delta: float = 0.1,
        lam: float | None = None,
        gamma: float | None = None,
    ) -> "PolicyConfig":
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
        lam_val = default_lambda(algo, n_arms) if lam is None else float(lam)
        gamma_val = (
            exploration_coefficient(
                algo, S=S, n_arms=n_arms, d1=d1, d2=d2, T=T, delta=delta, lam=lam_val
            )
            if gamma is None
            else float(gamma)
        )
        return cls(algo, d1, d2, n_arms, S, T, delta, lam_val, gamma_val)


class SharedLinearUCB:
    """Ridge-UCB over the sparse embedding, maintained in block form.

    Serves both LinUCB and HyLinUCB (they differ only in config).  A round
    scores every arm in one pass over the block design
    (:meth:`BlockDesign.means_and_quad_forms`), which reads each arm's mean
    and confidence width off the same Schur intermediates without forming
    the estimate, so it costs polynomially in (d1, d2) and linearly in K.
    :meth:`estimates` solves for the estimate itself, for diagnostics.
    """

    def __init__(self, config: PolicyConfig):
        if config.algo not in SHARED_ALGORITHMS:
            raise ValueError(f"{config.algo!r} is not a shared-reduction algorithm")
        self.config = config
        self.design = BlockDesign(config.d1, config.d2, config.n_arms, config.lam)
        self.u_shared = np.zeros(config.d1)
        self.u_arms = np.zeros((config.n_arms, config.d2))

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ridge estimates (theta part, per-arm beta stack)."""
        return self.design.solve_blocks(self.u_shared, self.u_arms)

    def phi_hat(self) -> np.ndarray:
        """Estimate as one flat (d1 + d2*K)-vector."""
        theta, betas = self.estimates()
        return np.concatenate([theta, betas.ravel()])

    def scores(self, ctx: ContextRound) -> np.ndarray:
        means, quads = self.design.means_and_quad_forms(
            ctx.xs, ctx.zs, self.u_shared, self.u_arms
        )
        return means + self.config.gamma * np.sqrt(quads)

    def select_arm(self, ctx: ContextRound) -> int:
        return int(np.argmax(self.scores(ctx)))

    def update(self, arm: int, x: np.ndarray, z: np.ndarray, reward: float) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        self.design.block_update(arm, x, z)
        self.u_shared += reward * np.asarray(x, dtype=float)
        self.u_arms[arm] += reward * np.asarray(z, dtype=float)


class DisjointLinearUCB:
    """One independent ridge-UCB model per arm on the concatenated features.

    Per-arm Gram matrices ``M`` and their Sherman-Morrison inverses ``M_inv``
    are (K, d1 + d2, d1 + d2) stacks; an arm's inverse is rebuilt every
    ``INVERSE_REFRESH_EVERY`` pulls of that arm.
    """

    def __init__(self, config: PolicyConfig):
        if config.algo != DISLINUCB:
            raise ValueError(f"{config.algo!r} is not the disjoint algorithm")
        self.config = config
        d = config.d1 + config.d2
        self.M = np.repeat((np.eye(d) * config.lam)[None, :, :], config.n_arms, axis=0)
        self.M_inv = np.repeat((np.eye(d) / config.lam)[None, :, :], config.n_arms, axis=0)
        self.pulls = np.zeros(config.n_arms, dtype=np.int64)
        self.u = np.zeros((config.n_arms, d))
        self.phi = np.zeros((config.n_arms, d))

    def scores(self, ctx: ContextRound) -> np.ndarray:
        xbar = np.hstack([ctx.xs, ctx.zs])
        means = np.einsum("kd,kd->k", xbar, self.phi)
        quads = np.einsum("kd,kd->k", (self.M_inv @ xbar[..., None])[..., 0], xbar)
        return means + self.config.gamma * np.sqrt(np.maximum(quads, 0.0))

    def select_arm(self, ctx: ContextRound) -> int:
        return int(np.argmax(self.scores(ctx)))

    def update(self, arm: int, x: np.ndarray, z: np.ndarray, reward: float) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        xbar = np.concatenate([x, z]).astype(float, copy=False)
        if not np.isfinite(xbar).all():
            raise ValueError("features must be finite")
        self.M[arm] += np.outer(xbar, xbar)
        g = self.M_inv[arm] @ xbar
        self.M_inv[arm] -= np.outer(g, g) / (1.0 + float(xbar @ g))
        self.pulls[arm] += 1
        if self.pulls[arm] % INVERSE_REFRESH_EVERY == 0:
            self.M[arm] = symmetrize(self.M[arm])
            self.M_inv[arm] = symmetrize(np.linalg.inv(self.M[arm]))
        self.u[arm] += reward * xbar
        self.phi[arm] = self.M_inv[arm] @ self.u[arm]


class OraclePolicy:
    """Zero-regret reference: always plays an arm with the best mean reward."""

    def __init__(self, params: HybridParams):
        self.params = params

    def select_arm(self, ctx: ContextRound) -> int:
        return int(np.argmax(mean_rewards(self.params, ctx)))

    def update(self, arm: int, x: np.ndarray, z: np.ndarray, reward: float) -> None:
        pass


def make_policy(config: PolicyConfig):
    """Instantiate the policy named by ``config.algo``."""
    if config.algo in SHARED_ALGORITHMS:
        return SharedLinearUCB(config)
    if config.algo == DISLINUCB:
        return DisjointLinearUCB(config)
    raise ValueError(f"unknown algorithm {config.algo!r}")
