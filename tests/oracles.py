"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the block-structured code paths under
test: dense design matrices, LAPACK factorizations, brute-force maxima.
"""

import numpy as np


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
