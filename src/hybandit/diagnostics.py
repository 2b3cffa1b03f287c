"""Diversity, confidence and spectral diagnostics for bandit runs.

These checks turn the quantities behind the regret analysis into measurable
ones: burn-in round counts from the diversity constant, minimum-eigenvalue
growth of the design blocks, cross-block operator-norm growth, the
block-diagonal sandwich spectrum, the estimator's confidence residual, and
the deterministic elliptic-potential inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import BlockDesign, SymPosDef
from .model import HybridParams
from .policies import (
    ALGORITHMS,
    DisjointLinearUCB,
    SharedLinearUCB,
    exploration_coefficient,
)


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


def shared_confidence_residual(policy: SharedLinearUCB, params: HybridParams) -> float:
    """Design-weighted estimation error ``sqrt((phi_hat - phi*)^T M (phi_hat - phi*))``.

    Computed through the blocks; never materializes M.
    """
    theta_hat, betas_hat = policy.estimates()
    d0 = theta_hat - params.theta
    darms = betas_hat - params.betas
    design = policy.design
    top = float(d0 @ design.V @ d0)
    cross = 2.0 * float(d0 @ np.einsum("kab,kb->a", design.B, darms))
    arms = float(np.einsum("ka,kab,kb->", darms, design.W, darms))
    return math.sqrt(max(0.0, top + cross + arms))


def disjoint_confidence_residual(policy: DisjointLinearUCB, params: HybridParams) -> float:
    """Worst per-arm design-weighted error of the disjoint models' [theta*, beta*_i] estimates."""
    targets = np.hstack([np.broadcast_to(params.theta, (params.n_arms, params.d1)), params.betas])
    d = policy.estimates()[1] - targets
    return math.sqrt(max(0.0, float(np.max(np.einsum("ka,kab,kb->k", d, policy.design.W, d)))))


@dataclass(frozen=True)
class ConfidenceReport:
    residual: float
    gamma: float
    ok: bool


def check_confidence(policy, params: HybridParams, gamma: float | None = None) -> ConfidenceReport:
    """Check the estimator against its confidence width (synthetic runs only)."""
    if gamma is None:
        gamma = policy.config.gamma
    if isinstance(policy, DisjointLinearUCB):
        residual = disjoint_confidence_residual(policy, params)
    elif isinstance(policy, SharedLinearUCB):
        residual = shared_confidence_residual(policy, params)
    else:
        raise TypeError(f"no confidence residual for {type(policy).__name__}")
    return ConfidenceReport(residual, float(gamma), residual <= gamma)


@dataclass(frozen=True)
class SandwichReport:
    spectrum_min: float
    spectrum_max: float
    ok: bool


def check_sandwich(design: BlockDesign) -> SandwichReport:
    """Check that the design lies between half and twice its block-diagonal part."""
    smin, smax = design.sandwich_spectrum()
    return SandwichReport(smin, smax, 0.5 <= smin and smax <= 2.0)


@dataclass(frozen=True)
class EllipticReport:
    lhs: np.ndarray
    bound: np.ndarray
    worst_slack: float
    ok: bool


def check_elliptic_potential(xs: np.ndarray, lam: float) -> EllipticReport:
    """Verify the deterministic potential inequality along a feature sequence.

    For unit-bounded vectors and lam >= 1, the running sum of squared
    inverse-design-weighted norms never exceeds ``2 d log(1 + t / (lam d))``.
    Reports the worst slack over the sequence (negative slack = violation,
    which would indicate a numerical or bookkeeping bug).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError("expected a (t, d) stack of vectors")
    if lam < 1.0:
        raise ValueError(f"lam must be at least 1, got {lam}")
    norms = np.linalg.norm(xs, axis=1)
    if norms.size and float(np.max(norms)) > 1.0 + 1e-9:
        raise ValueError("all vectors must have norm at most 1")
    n, d = xs.shape
    design = SymPosDef(d, lam)
    lhs = np.zeros(n)
    bound = np.zeros(n)
    running = 0.0
    for s in range(n):
        running += design.quad_form_inv(xs[s])
        lhs[s] = running
        bound[s] = 2.0 * d * math.log(1.0 + (s + 1) / (lam * d))
        design.rank_one_update(xs[s])
    slack = bound - lhs
    worst = float(np.min(slack)) if n else math.inf
    return EllipticReport(lhs, bound, worst, worst >= 0.0)


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
    """Accumulates the design blocks of the features a policy actually pulls.

    Kept separate from the policy's own design so the diversity diagnostics
    use a fixed unit ridge no matter which regularizer the policy runs with,
    and so they exist for policies (like the oracle) that keep no design at
    all.  Holds the unit-ridge blocks ``V`` (d1, d1), ``W`` (K, d2, d2) and
    ``B`` (K, d1, d2) and the pull counts as plain arrays.  ``V`` stays
    exactly symmetric: entry (i, j) of ``x x^T`` is the same product as
    entry (j, i).
    """

    def __init__(self, d1: int, d2: int, n_arms: int):
        self.V = np.eye(d1)
        self.W = np.repeat(np.eye(d2)[None, :, :], n_arms, axis=0)
        self.B = np.zeros((n_arms, d1, d2))
        self.pull_counts = np.zeros(n_arms, dtype=np.int64)

    def record(self, arm: int, x: np.ndarray, z: np.ndarray) -> None:
        """Add one pulled (arm, x, z): V += x x^T, W_arm += z z^T, B_arm += x z^T."""
        self.V += np.outer(x, x)
        self.W[arm] += np.outer(z, z)
        self.B[arm] += np.outer(x, z)
        self.pull_counts[arm] += 1


def sample_diagnostics(
    tracker: PulledFeatureTracker,
    policy,
    params: HybridParams | None,
    round_index: int,
) -> DiagnosticsSample:
    """Take one spectral snapshot of a trial in flight.

    The diversity quantities come from the tracker, each as one batched
    LAPACK call: lambda_min(V) from ``eigvalsh``, lambda_min(W_i) from one
    ``eigvalsh`` over the (K, d2, d2) stack and sigma_max(B_i) from one
    ``svd`` over the (K, d1, d2) stack.  The sandwich spectrum comes in
    closed form from the shared policy's own design
    (:meth:`BlockDesign.sandwich_spectrum`; NaN for DisLinUCB, whose design
    has no shared block, and for the oracle); the
    confidence residual from whichever estimator the policy maintains (NaN
    for the oracle, or when true parameters are unavailable).
    """
    lam_v = float(np.linalg.eigvalsh(tracker.V)[0])
    lam_w = np.linalg.eigvalsh(tracker.W)[:, 0]
    sig_b = np.linalg.svd(tracker.B, compute_uv=False)[:, 0]
    if isinstance(policy, SharedLinearUCB) and not isinstance(policy, DisjointLinearUCB):
        smin, smax = policy.design.sandwich_spectrum()
    else:
        smin, smax = math.nan, math.nan
    if params is not None and isinstance(policy, SharedLinearUCB):
        report = check_confidence(policy, params)
        residual, gamma = report.residual, report.gamma
    else:
        residual = math.nan
        gamma = getattr(getattr(policy, "config", None), "gamma", math.nan)
    return DiagnosticsSample(
        round_index=round_index,
        lambda_min_V=lam_v,
        lambda_min_W=lam_w,
        sigma_max_B=sig_b,
        tau=tracker.pull_counts.copy(),
        sandwich_min=smin,
        sandwich_max=smax,
        conf_residual=residual,
        conf_gamma=gamma,
    )
