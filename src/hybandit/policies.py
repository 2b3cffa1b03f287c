"""The three UCB policies: LinUCB and HyLinUCB (shared reduction) and DisLinUCB.

LinUCB and HyLinUCB are the same ridge-UCB procedure over the sparse embedded
features; they differ only in the regularizer and exploration coefficient
(LinUCB: lambda = 1; HyLinUCB: lambda = K with a coefficient that scales with
the intrinsic d1 + d2 dimension instead of d1 + d2*K).  DisLinUCB runs one
independent (d1 + d2)-dimensional ridge-UCB model per arm on the concatenated
features.  All three keep one :class:`BlockDesign` and score and update through
it: the shared policies put x in the shared slot and z in the arm slot, while
DisLinUCB puts [x, z] in the arm slot and leaves the shared block empty.

Each policy, :class:`OraclePolicy` included, answers the diagnostics about its
own state, so no other module knows its layout: ``unit_ridge_blocks()`` (the
pulls' ``V = I + sum xx^T``, ``W_i = I + sum zz^T`` and ``B_i = sum xz^T``),
``sandwich_spectrum()``, ``confidence_residual(params)`` and ``gamma``.

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
        return cls(algo, d1, d2, n_arms, lam_val, gamma_val)


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

    @property
    def gamma(self) -> float:
        """Exploration coefficient, the radius the confidence residual is checked against."""
        return self.config.gamma

    def unit_ridge_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pulls' unit-ridge blocks: ``V - (lambda-1) I``, ``W_i - (lambda-1) I``, ``B_i``."""
        design, shift = self.design, self.design.ridge - 1.0
        return design.V - shift * np.eye(design.d1), design.W - shift * np.eye(design.d2), design.B

    def sandwich_spectrum(self) -> tuple[float, float]:
        """Extreme eigenvalues of the design's block-diagonal sandwich, in closed form."""
        return self.design.sandwich_spectrum()

    def confidence_residual(self, params: HybridParams) -> float:
        """Design-weighted estimation error ``sqrt((phi_hat - phi*)^T M (phi_hat - phi*))``.

        Compared with ``gamma``, it tells whether the true parameters lie in
        the confidence set.  Computed through the blocks; never materializes M.
        """
        theta_hat, betas_hat = self.estimates()
        d0 = theta_hat - params.theta
        darms = betas_hat - params.betas
        design = self.design
        top = float(d0 @ design.V @ d0)
        cross = 2.0 * float(d0 @ np.einsum("kab,kb->a", design.B, darms))
        arms = float(np.einsum("ka,kab,kb->", darms, design.W, darms))
        return math.sqrt(max(0.0, top + cross + arms))


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

    def unit_ridge_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pulls' unit-ridge blocks, read off each arm's [x, z] Gram matrix ``W_k``.

        ``I + sum_k (W_k[:d1, :d1] - lambda I)``, ``W_k[d1:, d1:] - (lambda-1) I``
        and ``W_k[:d1, d1:]``.
        """
        d1, d2, ridge, w = self.config.d1, self.config.d2, self.design.ridge, self.design.W
        v = np.eye(d1) + np.sum(w[:, :d1, :d1] - ridge * np.eye(d1), axis=0)
        return v, w[:, d1:, d1:] - (ridge - 1.0) * np.eye(d2), w[:, :d1, d1:]

    def sandwich_spectrum(self) -> tuple[float, float]:
        """NaN: the design has no shared block to sandwich."""
        return math.nan, math.nan

    def confidence_residual(self, params: HybridParams) -> float:
        """Worst per-arm design-weighted error of the [theta*, beta*_i] estimates."""
        thetas = np.broadcast_to(params.theta, (params.n_arms, params.d1))
        d = self.estimates()[1] - np.hstack([thetas, params.betas])
        return math.sqrt(max(0.0, float(np.max(np.einsum("ka,kab,kb->k", d, self.design.W, d)))))


class OraclePolicy:
    """Zero-regret reference: plays a best-mean arm and keeps only the sums of its pulls.

    ``V = I + sum xx^T``, ``W_i = I + sum zz^T`` and ``B_i = sum xz^T`` are
    what its diagnostics read; it has no estimate, so no sandwich spectrum,
    confidence residual or ``gamma`` (all NaN).
    """

    gamma = math.nan

    def __init__(self, params: HybridParams):
        self.params = params
        self.V = np.eye(params.d1)
        self.W = np.repeat(np.eye(params.d2)[None], params.n_arms, axis=0)
        self.B = np.zeros((params.n_arms, params.d1, params.d2))

    def select_arm(self, ctx: ContextRound) -> int:
        return int(np.argmax(mean_rewards(self.params, ctx)))

    def update(self, arm: int, x: np.ndarray, z: np.ndarray, reward: float) -> None:
        self.W[arm] += np.outer(z, z)
        self.V += np.outer(x, x)
        self.B[arm] += np.outer(x, z)

    def unit_ridge_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.V, self.W, self.B

    def sandwich_spectrum(self) -> tuple[float, float]:
        return math.nan, math.nan

    def confidence_residual(self, params: HybridParams) -> float:
        return math.nan


def make_policy(config: PolicyConfig):
    """Instantiate the policy named by ``config.algo``."""
    if config.algo in SHARED_ALGORITHMS:
        return SharedLinearUCB(config)
    if config.algo == DISLINUCB:
        return DisjointLinearUCB(config)
    raise ValueError(f"unknown algorithm {config.algo!r}")
