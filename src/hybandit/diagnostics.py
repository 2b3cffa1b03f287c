"""Diversity, confidence and spectral diagnostics for bandit runs.

These checks turn the quantities behind the regret analysis into measurable
ones: burn-in round counts from the diversity constant, minimum-eigenvalue
growth of the design blocks, cross-block operator-norm growth, the
block-diagonal sandwich spectrum and the estimator's confidence residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import HybridParams
from .policies import ALGORITHMS, exploration_coefficient


def unit_ball_diversity(d1: int, d2: int) -> float:
    """Diversity constant of uniform unit-ball features: 1/(max(d1,d2) + 2).

    The second-moment matrix of a uniform draw from the unit ball in R^d is
    I/(d+2); the weaker of the two feature blocks gives the joint constant.
    """
    return 1.0 / (max(d1, d2) + 2)


@dataclass(frozen=True)
class TheoryConstants:
    """Burn-in round counts and exploration coefficients for one instance."""

    rho: float
    T_m: float
    T_o: float
    gamma: dict[str, float]
    T: int
    horizon_covers_T_o: bool


def theory_constants(
    rho: float, d1: int, d2: int, n_arms: int, T: int, delta: float, S: float = 1.0
) -> TheoryConstants:
    """Evaluate the burn-in constants T_m and T_o for a problem instance.

    T_m is the round count after which minimum design-block eigenvalues grow
    linearly with high probability; T_o the (much larger) count after which
    the cross blocks are dominated and the sandwich relation holds.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    t_m = (16.0 / rho**2 + 8.0 / (3.0 * rho)) * math.log(2.0 * (d1 + d2) * n_arms * T / delta)
    t_o = max(128.0 / rho**2, 4.0 * t_m) * n_arms**2 * math.log((d1 + d2) * n_arms / delta)
    gammas = {
        algo: exploration_coefficient(
            algo, S=S, n_arms=n_arms, d1=d1, d2=d2, T=T, delta=delta
        )
        for algo in ALGORITHMS
    }
    return TheoryConstants(rho, t_m, t_o, gammas, T, T >= t_o)


@dataclass
class DiagnosticsSample:
    """Spectral snapshot of a policy's design state after ``round_index`` rounds."""

    round_index: int
    lambda_min_V: float
    lambda_min_W: np.ndarray  # per arm
    sigma_max_B: np.ndarray  # per arm
    tau: np.ndarray  # per-arm pull counts
    sandwich_min: float
    sandwich_max: float
    conf_residual: float
    conf_gamma: float


@dataclass
class DiagnosticsTrace:
    """Sampled diagnostics of one trial."""

    algo: str
    env_id: int
    trial_id: int
    n_arms: int
    d1: int
    d2: int
    samples: list[DiagnosticsSample] = field(default_factory=list)

    def rounds(self) -> np.ndarray:
        return np.array([s.round_index for s in self.samples], dtype=float)


@dataclass(frozen=True)
class AssumptionReport:
    """Least-squares growth rates of the design spectra plus bound checks."""

    v_slope: float
    w_slope: float
    b_ratio_max: float
    b_ratio_bound: float
    v_slope_ok: bool
    w_slope_ok: bool
    b_norm_ok: bool


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ``y`` against ``x``; NaN when ``x`` has one distinct value."""
    if len(x) < 2:
        raise ValueError("need at least two samples to fit a slope")
    if np.ptp(x) == 0:
        return math.nan
    return float(np.polyfit(x, y, 1)[0])


def validate_assumption(
    trace: DiagnosticsTrace, rho_expected: float, delta: float = 0.1
) -> AssumptionReport:
    """Check linear minimum-eigenvalue growth and square-root cross-block growth.

    Fits the slope of lambda_min(V) against the round count and of the per-arm
    lambda_min(W_i) against that arm's pull count; slopes at least half the
    expected diversity constant pass.  A slope that cannot be fitted (a
    non-finite lambda_min(V), or one pull count for every sampled arm) is
    NaN and passes.  Cross-block norms must stay below
    ``sqrt(8 tau log(K (d1 + d2) / delta))`` at every sampled round.
    """
    if not trace.samples:
        raise ValueError("diagnostics trace has no samples")
    rounds = trace.rounds()
    v_vals = np.array([s.lambda_min_V for s in trace.samples])
    v_slope = _fit_slope(rounds, v_vals) if np.all(np.isfinite(v_vals)) else math.nan

    taus: list[float] = []
    w_vals: list[float] = []
    ratio_max = 0.0
    for s in trace.samples:
        for i in range(trace.n_arms):
            if s.tau[i] > 0:
                taus.append(float(s.tau[i]))
                w_vals.append(float(s.lambda_min_W[i]))
                ratio_max = max(ratio_max, float(s.sigma_max_B[i]) / math.sqrt(s.tau[i]))
    w_slope = _fit_slope(np.array(taus), np.array(w_vals))
    b_bound = math.sqrt(8.0 * math.log(trace.n_arms * (trace.d1 + trace.d2) / delta))
    return AssumptionReport(
        v_slope=v_slope,
        w_slope=w_slope,
        b_ratio_max=ratio_max,
        b_ratio_bound=b_bound,
        v_slope_ok=bool(math.isnan(v_slope) or v_slope >= rho_expected / 2.0),
        w_slope_ok=bool(math.isnan(w_slope) or w_slope >= rho_expected / 2.0),
        b_norm_ok=ratio_max <= b_bound,
    )


class PulledFeatureTracker:
    """Unused, kept only because ``perfbench/spans.py`` looks up its ``record`` at install."""

    def record(self, arm: int, x: np.ndarray, z: np.ndarray) -> None:
        """Do nothing: the pulled blocks come from the policy (``policy.unit_ridge_blocks()``)."""


def sample_diagnostics(
    policy, params: HybridParams | None, round_index: int, tau: np.ndarray
) -> DiagnosticsSample:
    """Take one spectral snapshot of a trial in flight; ``tau`` holds the per-arm pull counts.

    Every quantity is the policy's own answer about its state: the diversity
    quantities come from ``policy.unit_ridge_blocks()`` (the pulls'
    ``V = I + sum xx^T``, ``W_i = I + sum zz^T``, ``B_i = sum xz^T``), each
    as one batched LAPACK call: ``eigvalsh`` of V, ``eigvalsh`` of the W
    stack and ``svd`` of the B stack.  ``policy.sandwich_spectrum()`` is NaN
    for DisLinUCB and the oracle; ``policy.confidence_residual(params)`` is
    NaN for the oracle, and is not taken when ``params`` is None (true
    parameters unavailable).
    """
    v, w, b = policy.unit_ridge_blocks()
    smin, smax = policy.sandwich_spectrum()
    return DiagnosticsSample(
        round_index=round_index,
        lambda_min_V=float(np.linalg.eigvalsh(v)[0]),
        lambda_min_W=np.linalg.eigvalsh(w)[:, 0],
        sigma_max_B=np.linalg.svd(b, compute_uv=False)[:, 0],
        tau=tau,
        sandwich_min=smin,
        sandwich_max=smax,
        conf_residual=math.nan if params is None else policy.confidence_residual(params),
        conf_gamma=policy.gamma,
    )
