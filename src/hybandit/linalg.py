"""Dense small-matrix kernels and the block-structured hybrid design matrix.

The design matrix of the embedded (shared-setting) problem is

    M = [[ V    B_1  ...  B_K ]
         [ B_1^T  W_1        ]
         [  ...        ...   ]
         [ B_K^T         W_K ]]

with a d1 x d1 shared block ``V``, one d2 x d2 block ``W_i`` per arm, and
cross blocks ``B_i``.  Every observation touches exactly one arm slot, so M
can be updated and solved without ever materialising the full
(d1 + d2*K)^2 inverse: each ``W_i`` and the Schur complement of the
arm-diagonal part against ``V`` carry Sherman-Morrison maintained inverses,
and solves go through that Schur complement.  An update's cost does not
depend on K; a solve is linear in K.

Supported envelope: d1, d2 <= 64 and K <= 512, everything stored dense
row-major.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BlockDesign",
    "sym_eigenvalues",
]

# Full re-inversion cadence for Sherman-Morrison maintained inverses; bounds
# floating-point drift over long runs at negligible amortized cost.
INVERSE_REFRESH_EVERY = 10_000


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Symmetric part ``(A + A^T) / 2`` of a matrix or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


class SymPosDef:
    """Unused, kept only because ``perfbench/spans.py`` looks up its ``refresh`` at install."""

    def refresh(self) -> None:
        """Do nothing: every policy's design is a :class:`BlockDesign`."""


class BlockDesign:
    """Regularized design matrix of the hybrid problem, held in block form.

    State, all plain numpy arrays: the shared block ``V`` (d1, d1), the
    per-arm stacks ``W`` and ``W_inv`` (K, d2, d2), the cross blocks ``B``
    (K, d1, d2), ``C`` with ``C_i = B_i W_i^{-1}`` (K, d1, d2), and
    ``F = V_eff^{-1}``, the inverse of the Schur complement

        V_eff = V - sum_i B_i W_i^{-1} B_i^T = V - sum_i C_i B_i^T.

    Rank-one Schur bookkeeping (hybrid LinUCB; Li, Chu, Langford and
    Schapire 2010, "A Contextual-Bandit Approach to Personalized News Article
    Recommendation", Algorithm 2, arXiv:1003.0146).  An observation (a, x, z)
    sets V' = V + x x^T, W_a' = W_a + z z^T and B_a' = B_a + x z^T.  With
    g = W_a^{-1} z and s = 1 + z^T g, Sherman-Morrison gives
    W_a'^{-1} = W_a^{-1} - g g^T / s, and expanding the products yields

        C_a' = C_a + r g^T / s,        r = x - C_a z,
        C_a' B_a'^T = C_a B_a^T + C_a z x^T + r (C_a z)^T / s + (s - 1) / s r x^T,

    so that, with every other arm's term unchanged,

        V_eff' = V_eff + x x^T - C_a z x^T - r (C_a z)^T / s - (s - 1) / s r x^T
               = V_eff + r r^T / s.

    A second Sherman-Morrison step keeps F: F' = F - (F r)(F r)^T / (s + r^T F r).
    So an update costs O(d1^2 + d1 d2^2), independent of K, and only arm a's
    ``C`` changes (it is recomputed as ``B_a W_a^{-1}``).  Every ``INVERSE_REFRESH_EVERY`` updates :meth:`refresh`
    rebuilds ``W_inv``, ``C`` and ``F`` from ``V``, ``W`` and ``B`` to bound
    floating-point drift.  ``V`` keeps its entries only; nothing needs its
    inverse.

    With ``d1 = 0`` there is no shared block: ``V``, ``B``, ``C`` and ``F``
    are empty, M = blockdiag(W_1, ..., W_K), and the design is the disjoint
    model of the same paper's Algorithm 1, one ridge model per arm.
    """

    def __init__(self, d1: int, d2: int, n_arms: int, ridge: float):
        if d1 < 0 or min(d2, n_arms) < 1:
            raise ValueError("d1 must be nonnegative, d2 and n_arms positive")
        if ridge <= 0:
            raise ValueError(f"ridge weight must be positive, got {ridge}")
        self.d1 = int(d1)
        self.d2 = int(d2)
        self.n_arms = int(n_arms)
        self.ridge = float(ridge)
        self.V = np.eye(d1) * self.ridge
        self.W = np.repeat((np.eye(d2) * self.ridge)[None, :, :], n_arms, axis=0)
        self.W_inv = np.repeat((np.eye(d2) / self.ridge)[None, :, :], n_arms, axis=0)
        self.B = np.zeros((n_arms, d1, d2))
        self.C = np.zeros((n_arms, d1, d2))
        self.F = np.eye(d1) / self.ridge
        self.t = 0

    def block_update(self, arm: int, x: np.ndarray, z: np.ndarray) -> None:
        """Add the rank-one term of one observation: V += x x^T, W_arm += z z^T, B_arm += x z^T."""
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        if x.shape != (self.d1,) or z.shape != (self.d2,):
            raise ValueError(
                f"feature dims {x.shape}/{z.shape} do not match design "
                f"({self.d1},)/({self.d2},)"
            )
        a = int(arm)
        if not 0 <= a < self.n_arms:
            raise ValueError(f"arm {arm} out of range for {self.n_arms} arms")
        if not (np.isfinite(x).all() and np.isfinite(z).all()):
            raise ValueError("features must be finite")
        g = self.W_inv[a] @ z
        s = 1.0 + float(z @ g)
        self.W_inv[a] -= np.outer(g, g) / s
        self.W[a] += np.outer(z, z)
        if self.d1:  # with no shared block, V, B, C and F are empty
            r = x - self.C[a] @ z
            fr = self.F @ r
            self.F -= np.outer(fr, fr) / (s + float(r @ fr))
            self.V += np.outer(x, x)
            self.B[a] += np.outer(x, z)
            self.C[a] = self.B[a] @ self.W_inv[a]
        self.t += 1
        if self.t % INVERSE_REFRESH_EVERY == 0:
            self.refresh()

    def refresh(self) -> None:
        """Rebuild ``W_inv``, ``C`` and ``F`` from the accumulated ``V``, ``W`` and ``B``.

        Raises ``ValueError`` if some ``W_i`` or the Schur complement is not
        positive definite, which no sequence of finite updates can cause.
        """
        self.V = symmetrize(self.V)
        self.W = symmetrize(self.W)
        try:
            np.linalg.cholesky(self.W)
        except np.linalg.LinAlgError as exc:
            raise ValueError("an arm block W_i is not positive definite") from exc
        self.W_inv = symmetrize(np.linalg.inv(self.W))
        self.C = self.B @ self.W_inv
        v_eff = symmetrize(self.V - self.schur_sum())
        try:
            chol = np.linalg.cholesky(v_eff)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "Schur complement V - sum B_i W_i^-1 B_i^T is not positive definite"
            ) from exc
        chol_inv = np.linalg.inv(chol)
        self.F = symmetrize(chol_inv.T @ chol_inv)

    def schur_sum(self) -> np.ndarray:
        """``sum_i C_i B_i^T``: one matmul of (d1, K d2) reshapes, row a ``[X_1[a] .. X_K[a]]``."""
        k_d2 = self.n_arms * self.d2
        c, b = (m.transpose(1, 0, 2).reshape(self.d1, k_d2) for m in (self.C, self.B))
        return c @ b.T

    def solve_blocks(
        self, b_shared: np.ndarray, b_arms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve M y = b for a block right-hand side (d1 part, (K, d2) arm parts)."""
        b_shared = np.asarray(b_shared, dtype=float)
        b_arms = np.asarray(b_arms, dtype=float)
        if b_shared.shape != (self.d1,) or b_arms.shape != (self.n_arms, self.d2):
            raise ValueError("right-hand side shape does not match design blocks")
        y0 = self.F @ (b_shared - np.einsum("kab,kb->a", self.C, b_arms))
        y_arms = np.einsum("kab,kb->ka", self.W_inv, b_arms) - np.einsum("kab,a->kb", self.C, y0)
        return y0, y_arms

    def quad_forms_per_arm(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Quadratic forms ``u_i^T M^{-1} u_i`` for all arms at once.

        Row i of ``xs``/``zs`` is scored in arm i's own slot.
        """
        zeros = np.zeros(self.d1), np.zeros((self.n_arms, self.d2))
        return self.means_and_quad_forms(xs, zs, *zeros)[1]

    def means_and_quad_forms(
        self,
        xs: np.ndarray,
        zs: np.ndarray,
        u_shared: np.ndarray,
        u_arms: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every arm's estimated mean ``u_i . phi_hat`` and quad form ``u_i^T M^{-1} u_i``.

        ``phi_hat = M^{-1} b`` is the ridge estimate for the right-hand side
        ``b = (u_shared, u_arms)``; row i of ``xs``/``zs`` is scored in arm
        i's own slot, as in :meth:`quad_forms_per_arm`.  The estimate is
        never formed.  By :meth:`solve_blocks`, its blocks are

            theta_hat = F (u_shared - sum_j C_j u_j),
            beta_hat_i = W_i^{-1} u_i - C_i^T theta_hat.

        With w_i = x_i - C_i z_i and g_i = W_i^{-1} z_i, and since every
        W_i^{-1} is exactly symmetric (the rank-one updates keep it so and
        :meth:`refresh` symmetrizes it),

            mean_i = x_i . theta_hat + z_i . beta_hat_i
                   = (x_i - C_i z_i) . theta_hat + (W_i^{-1} z_i) . u_i
                   = w_i . theta_hat + g_i . u_i,
            quad_i = w_i^T F w_i + g_i . z_i.

        So one pass costs three K-sized contractions (``C z``, ``W^{-1} z``
        and ``sum_j C_j u_j``) instead of the six of a block solve.  The mean
        differs from the one built on :meth:`solve_blocks` in the last bits
        only.  With no shared block (d1 = 0) the ``w`` terms vanish, leaving
        the disjoint model's ``g_i . u_i`` and ``g_i . z_i``.
        """
        u_shared = np.asarray(u_shared, dtype=float)
        u_arms = np.asarray(u_arms, dtype=float)
        if u_shared.shape != (self.d1,) or u_arms.shape != (self.n_arms, self.d2):
            raise ValueError("right-hand side shape does not match design blocks")
        xs = np.asarray(xs, dtype=float)
        zs = np.asarray(zs, dtype=float)
        if xs.shape != (self.n_arms, self.d1) or zs.shape != (self.n_arms, self.d2):
            raise ValueError("expected per-arm feature stacks of shapes (K, d1) and (K, d2)")
        g = (zs[:, None, :] @ self.W_inv)[:, 0, :]  # z_i^T W_i^-1 = (W_i^-1 z_i)^T
        means = np.einsum("ka,ka->k", g, u_arms)
        quads = np.einsum("ka,ka->k", g, zs)
        if self.d1:  # with no shared block, C and F are empty
            w = xs - np.einsum("kab,kb->ka", self.C, zs)
            theta = self.F @ (u_shared - np.einsum("kab,kb->a", self.C, u_arms))
            means += w @ theta
            quads += np.einsum("ka,ka->k", w @ self.F, w)
        return means, np.maximum(quads, 0.0)

    def sandwich_spectrum(self) -> tuple[float, float]:
        """Extreme eigenvalues of ``U^{-1/2} M U^{-1/2}`` with U = blockdiag(V, W_1..W_K).

        With G = V^{-1/2} [B_1 W_1^{-1/2} ... B_K W_K^{-1/2}],

            U^{-1/2} M U^{-1/2} = I + [[0, G], [G^T, 0]],

        the identity plus the Hermitian dilation of G, whose eigenvalues are
        the singular values of G with both signs (padded with zeros).  So the
        spectrum is symmetric about 1 and its extremes are exactly
        1 -/+ sigma_max(G), where

            sigma_max(G)^2 = lambda_max(G G^T) = lambda_max(V^{-1/2} S V^{-1/2}),
            S = sum_i B_i W_i^{-1} B_i^T = sum_i C_i B_i^T.

        That costs one matmul (:meth:`schur_sum`) and two d1 x d1 symmetric
        eigensolves (V^{-1/2} from one of V), O(d1^3 + K d1^2 d2), instead of
        a dense (d1 + d2 K)-dimensional eigenproblem.  Returns (1, 1) exactly
        when all cross blocks vanish.
        """
        if not np.any(self.B):
            return (1.0, 1.0)
        w, q = np.linalg.eigh(self.V)
        v_inv_half = (q / np.sqrt(w)) @ q.T
        lam = float(np.linalg.eigvalsh(symmetrize(v_inv_half @ self.schur_sum() @ v_inv_half))[-1])
        sigma = math.sqrt(max(0.0, lam))
        return 1.0 - sigma, 1.0 + sigma


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    return symmetrize(a)


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``)."""
    return np.linalg.eigvalsh(_check_symmetric(a))
