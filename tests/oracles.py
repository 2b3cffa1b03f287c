"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the block-structured code paths under
test: dense design matrices, LAPACK factorizations, brute-force maxima.  The
one exception is :func:`check_elliptic_potential`, which checks the
single-ridge ``BlockDesign`` against a deterministic inequality.
"""

import math
from dataclasses import dataclass

import numpy as np

from hybandit.linalg import BlockDesign


def mean_reward(params, arm: int, x: np.ndarray, z: np.ndarray) -> float:
    """Noiseless reward of one arm: the scalar reference of ``model.mean_rewards``."""
    return float(params.theta @ x + params.betas[arm] @ z)


def stack_observations(data):
    """``(arm, x, z, y)`` observations as the fit's arrays ``arms, xs, zs, ys``, one row each."""
    arms, xs, zs, ys = zip(*data)
    return np.array(arms), *(np.array(a, dtype=float) for a in (xs, zs, ys))


def flat_params(params) -> np.ndarray:
    """(theta, beta_1, ..., beta_K) as one vector, in the layout of :func:`dense_embed`."""
    return np.concatenate([params.theta, params.betas.ravel()])


def flat_estimate(policy) -> np.ndarray:
    """A policy's ridge estimate (shared part, then each arm slot) as one vector."""
    theta, betas = policy.estimates()
    return np.concatenate([theta, betas.ravel()])


def dense_embed(arm: int, x: np.ndarray, z: np.ndarray, n_arms: int) -> np.ndarray:
    d1, d2 = len(x), len(z)
    v = np.zeros(d1 + d2 * n_arms)
    v[:d1] = x
    v[d1 + arm * d2 : d1 + (arm + 1) * d2] = z
    return v


class SparseHybridVector:
    """One arm's feature pair viewed as a sparse (d1 + d2*K)-vector.

    ``x`` occupies the first d1 coordinates and ``z`` the block of arm
    ``arm`` (0-based); all other coordinates are zero.
    """

    __slots__ = ("arm", "x", "z")

    def __init__(self, arm: int, x: np.ndarray, z: np.ndarray):
        self.arm = int(arm)
        self.x = np.asarray(x, dtype=float)
        self.z = np.asarray(z, dtype=float)
        if self.x.ndim != 1 or self.z.ndim != 1:
            raise ValueError("x and z must be one-dimensional")
        if self.arm < 0:
            raise ValueError(f"arm index must be nonnegative, got {arm}")

    def dense(self, n_arms: int) -> np.ndarray:
        """Materialize the full (d1 + d2 * n_arms)-dimensional vector."""
        if self.arm >= n_arms:
            raise ValueError(f"arm {self.arm} out of range for {n_arms} arms")
        d1, d2 = self.x.shape[0], self.z.shape[0]
        out = np.zeros(d1 + d2 * n_arms)
        out[:d1] = self.x
        out[d1 + self.arm * d2 : d1 + (self.arm + 1) * d2] = self.z
        return out


def embed(arm: int, x: np.ndarray, z: np.ndarray, n_arms: int) -> SparseHybridVector:
    """Place (x, z) of ``arm`` (0-based) into its sparse embedded form.

    The dense view keeps x in the first d1 coordinates and z in the arm's own
    d2-slot, so inner products with flattened parameters reproduce the hybrid
    mean reward.
    """
    if not 0 <= arm < n_arms:
        raise ValueError(f"arm {arm} out of range for {n_arms} arms")
    return SparseHybridVector(arm, x, z)


def assemble_dense(design) -> np.ndarray:
    """The full (d1 + d2*K)^2 design matrix of a ``BlockDesign``, from its blocks."""
    n = design.d1 + design.d2 * design.n_arms
    m = np.zeros((n, n))
    m[: design.d1, : design.d1] = design.V
    for i in range(design.n_arms):
        sl = slice(design.d1 + i * design.d2, design.d1 + (i + 1) * design.d2)
        m[: design.d1, sl] = design.B[i]
        m[sl, : design.d1] = design.B[i].T
        m[sl, sl] = design.W[i]
    return m


class DenseSharedUCB:
    """Naive (d1 + d2*K)-dimensional reference for the shared-reduction policies.

    Keeps the full dense design matrix, re-inverts it every round with
    LAPACK, and scores arms by looping.  Slow but unarguable.
    """

    def __init__(self, d1, d2, n_arms, lam, gamma):
        self.d1, self.d2, self.n_arms, self.gamma = d1, d2, n_arms, gamma
        dim = d1 + d2 * n_arms
        self.M = lam * np.eye(dim)
        self.u = np.zeros(dim)
        self.phi = np.zeros(dim)

    def scores(self, ctx) -> np.ndarray:
        m_inv = np.linalg.inv(self.M)
        out = np.empty(self.n_arms)
        for i in range(self.n_arms):
            v = dense_embed(i, ctx.xs[i], ctx.zs[i], self.n_arms)
            out[i] = v @ self.phi + self.gamma * np.sqrt(v @ m_inv @ v)
        return out

    def select_arm(self, ctx) -> int:
        return int(np.argmax(self.scores(ctx)))

    def update(self, arm, x, z, reward) -> None:
        v = dense_embed(arm, x, z, self.n_arms)
        self.M += np.outer(v, v)
        self.u += reward * v
        self.phi = np.linalg.solve(self.M, self.u)


class DenseDisjointUCB:
    """Naive per-arm reference for DisLinUCB: one dense (d1 + d2)-dimensional model per arm.

    Keeps every arm's full Gram matrix M_i, re-inverts each one with LAPACK
    every round, re-solves the pulled arm's estimate at every update, and
    scores arms by looping.
    """

    def __init__(self, d1, d2, n_arms, lam, gamma):
        self.n_arms, self.gamma = n_arms, gamma
        dim = d1 + d2
        self.M = [lam * np.eye(dim) for _ in range(n_arms)]
        self.u = np.zeros((n_arms, dim))
        self.phi = np.zeros((n_arms, dim))

    def scores(self, ctx) -> np.ndarray:
        out = np.empty(self.n_arms)
        for i in range(self.n_arms):
            v = np.concatenate([ctx.xs[i], ctx.zs[i]])
            m_inv = np.linalg.inv(self.M[i])
            out[i] = v @ self.phi[i] + self.gamma * np.sqrt(v @ m_inv @ v)
        return out

    def select_arm(self, ctx) -> int:
        return int(np.argmax(self.scores(ctx)))

    def update(self, arm, x, z, reward) -> None:
        v = np.concatenate([x, z])
        self.M[arm] += np.outer(v, v)
        self.u[arm] += reward * v
        self.phi[arm] = np.linalg.solve(self.M[arm], self.u[arm])


def dense_ridge(rows: np.ndarray, ys: np.ndarray, lam: float) -> np.ndarray:
    """Ridge solution via dense normal equations."""
    dim = rows.shape[1]
    return np.linalg.solve(rows.T @ rows + lam * np.eye(dim), rows.T @ ys)


def sandwich_spectrum_dense(design) -> tuple[float, float]:
    """Extreme eigenvalues of ``U^{-1/2} M U^{-1/2}`` from the dense design matrix.

    M comes from :func:`assemble_dense`, U is its block-diagonal part
    (V, W_1, ..., W_K), and U^{-1/2} is the symmetric inverse square root
    from a LAPACK eigendecomposition of U.
    """
    m = assemble_dense(design)
    u = np.zeros_like(m)
    u[: design.d1, : design.d1] = m[: design.d1, : design.d1]
    for i in range(design.n_arms):
        sl = slice(design.d1 + i * design.d2, design.d1 + (i + 1) * design.d2)
        u[sl, sl] = m[sl, sl]
    w, q = np.linalg.eigh(u)
    u_inv_half = (q / np.sqrt(w)) @ q.T
    vals = np.linalg.eigvalsh(u_inv_half @ m @ u_inv_half)
    return float(vals[0]), float(vals[-1])


def char_poly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion.

    Returns monic coefficients [1, c_{n-1}, ..., c_0]; uses only matrix
    products and traces, independent of any eigensolver.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def eigenvalues_by_char_poly(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, ascending."""
    roots = np.roots(char_poly_coefficients(a))
    return np.sort(roots.real)


def brute_force_best_arm(params, ctx) -> tuple[int, float]:
    best_val = -np.inf
    best_arm = -1
    for i in range(ctx.n_arms):
        val = float(params.theta @ ctx.xs[i] + params.betas[i] @ ctx.zs[i])
        if val > best_val:
            best_val = val
            best_arm = i
    return best_arm, best_val


def hermitian_dilation(b: np.ndarray) -> np.ndarray:
    """Symmetric dilation ``[[0, B], [B^T, 0]]`` of a rectangular matrix.

    Its eigenvalues are plus/minus the singular values of B (padded with
    zeros), which turns singular-value questions into symmetric eigenvalue
    ones.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {b.shape}")
    p, q = b.shape
    out = np.zeros((p + q, p + q))
    out[:p, p:] = b
    out[p:, :p] = b.T
    return out


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
    The design is ``BlockDesign(0, d, 1, lam)``: one ridge matrix, updated by
    Sherman-Morrison.  Reports the worst slack over the sequence (negative
    slack = violation, which would indicate a numerical or bookkeeping bug).
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
    design = BlockDesign(0, d, 1, lam)
    no_shared = np.zeros((1, 0))
    quads = np.zeros(n)
    for s in range(n):
        quads[s] = design.quad_forms_per_arm(no_shared, xs[s : s + 1])[0]
        design.block_update(0, no_shared[0], xs[s])
    lhs = np.cumsum(quads)
    bound = 2.0 * d * np.log1p(np.arange(1, n + 1) / (lam * d))
    slack = bound - lhs
    worst = float(np.min(slack)) if n else math.inf
    return EllipticReport(lhs, bound, worst, worst >= 0.0)
