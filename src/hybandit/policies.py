"""The three UCB policies: LinUCB and HyLinUCB (shared reduction) and DisLinUCB.

LinUCB and HyLinUCB are the same ridge-UCB procedure over the sparse embedded
features; they differ only in the regularizer and exploration coefficient
(LinUCB: lambda = 1; HyLinUCB: lambda = K with a coefficient that scales with
the intrinsic d1 + d2 dimension instead of d1 + d2*K).  DisLinUCB runs one
independent (d1 + d2)-dimensional ridge-UCB model per arm on the concatenated
features.  All three keep one :class:`BlockDesign` and score and update through
it: the shared policies put x in the shared slot and z in the arm slot, while
DisLinUCB puts [x, z] in the arm slot and leaves the shared block empty.

All policies are deterministic: score ties break toward the lowest arm index.
States are single-writer; one instance per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BlockDesign
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
    :meth:`place` decides which features go in the shared slot and which in
    the arm slot; the design's block sizes follow from it.
    """

    algorithms = SHARED_ALGORITHMS

    def __init__(self, config: PolicyConfig):
        if config.algo not in self.algorithms:
            raise ValueError(f"{config.algo!r} is not a {type(self).__name__} algorithm")
        self.config = config
        x, z = self.place(np.zeros(config.d1), np.zeros(config.d2))
        self.design = BlockDesign(x.size, z.size, config.n_arms, config.lam)
        self.u_shared = np.zeros(x.size)
        self.u_arms = np.zeros((config.n_arms, z.size))

    @staticmethod
    def place(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Features of the shared slot and of the arm slot: x and z."""
        return x, z

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Current ridge estimates (shared part, per-arm stack)."""
        return self.design.solve_blocks(self.u_shared, self.u_arms)

    def phi_hat(self) -> np.ndarray:
        """Estimate as one flat (shared + K * arm slot)-vector."""
        theta, betas = self.estimates()
        return np.concatenate([theta, betas.ravel()])

    def scores(self, ctx: ContextRound) -> np.ndarray:
        xs, zs = self.place(ctx.xs, ctx.zs)
        means, quads = self.design.means_and_quad_forms(xs, zs, self.u_shared, self.u_arms)
        return means + self.config.gamma * np.sqrt(quads)

    def select_arm(self, ctx: ContextRound) -> int:
        return int(np.argmax(self.scores(ctx)))

    def update(self, arm: int, x: np.ndarray, z: np.ndarray, reward: float) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        x, z = self.place(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
        self.design.block_update(arm, x, z)
        self.u_shared += reward * x
        self.u_arms[arm] += reward * z


class DisjointLinearUCB(SharedLinearUCB):
    """One independent ridge-UCB model per arm on the concatenated features.

    The disjoint LinUCB of Li, Chu, Langford and Schapire 2010 (Algorithm 1,
    arXiv:1003.0146) is their hybrid design with no shared block: [x, z]
    goes in the arm slot of a ``BlockDesign(0, d1 + d2, K, lam)``, whose
    ``W_i`` is arm i's Gram matrix.
    """

    algorithms = (DISLINUCB,)
    # Own entries, not inherited ones, so that wrapping a method of each class by
    # name (as a tracer does) wraps every function once.
    select_arm = SharedLinearUCB.select_arm
    update = SharedLinearUCB.update

    @staticmethod
    def place(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Features of the shared slot and of the arm slot: none and [x, z]."""
        return x[..., :0], np.concatenate([x, z], axis=-1)


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
