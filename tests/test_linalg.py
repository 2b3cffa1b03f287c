import numpy as np
import pytest

from hybandit.diagnostics import PulledFeatureTracker, sample_diagnostics
from hybandit.linalg import BlockDesign, SymPosDef, hermitian_dilation, sym_eigenvalues
from hybandit.policies import HYLINUCB, PolicyConfig, SharedLinearUCB

from oracles import (
    SparseHybridVector,
    assemble_dense,
    dense_ridge,
    eigenvalues_by_char_poly,
    sandwich_spectrum_dense,
)


def random_design(rng, d1, d2, n_arms, ridge, n_updates, scale=1.0):
    bd = BlockDesign(d1, d2, n_arms, ridge)
    for _ in range(n_updates):
        x = rng.standard_normal(d1)
        x *= scale * rng.random() / max(1.0, np.linalg.norm(x))
        z = rng.standard_normal(d2)
        z *= scale * rng.random() / max(1.0, np.linalg.norm(z))
        bd.block_update(int(rng.integers(n_arms)), x, z)
    return bd


def solve_dense_view(bd, u):
    """``M^{-1} u`` through ``solve_blocks`` with a one-hot block right-hand side."""
    b_arms = np.zeros((bd.n_arms, bd.d2))
    b_arms[u.arm] = u.z
    y0, y_arms = bd.solve_blocks(u.x, b_arms)
    return np.concatenate([y0, y_arms.ravel()])


def quad_form(bd, u):
    """``u^T M^{-1} u`` for one embedded vector, through ``quad_forms_per_arm``."""
    xs = np.zeros((bd.n_arms, bd.d1))
    zs = np.zeros((bd.n_arms, bd.d2))
    xs[u.arm], zs[u.arm] = u.x, u.z
    return float(bd.quad_forms_per_arm(xs, zs)[u.arm])


class TestSymPosDef:
    def test_identity_rank_one(self):
        m = SymPosDef(2, 1.0)
        m.rank_one_update(np.array([1.0, 0.0]))
        assert np.allclose(m.entries, np.diag([2.0, 1.0]))
        assert np.allclose(m.inv_entries, np.diag([0.5, 1.0]))

    def test_zero_update_is_noop(self):
        m = SymPosDef(3, 2.0)
        before_e, before_i = m.entries.copy(), m.inv_entries.copy()
        m.rank_one_update(np.zeros(3))
        assert np.array_equal(m.entries, before_e)
        assert np.array_equal(m.inv_entries, before_i)

    def test_maintained_inverse_matches_dense(self, rng):
        m = SymPosDef(5, 1.0)
        acc = np.eye(5)
        for _ in range(100):
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            m.rank_one_update(v)
            acc += np.outer(v, v)
        assert np.max(np.abs(m.inv_entries - np.linalg.inv(acc))) < 1e-9

    @pytest.mark.slow
    def test_long_run_drift(self, rng):
        # 10^4 unit-norm updates, lambda >= 1: product with the true inverse
        # stays within 1e-8 of the identity.
        dim = 12
        m = SymPosDef(dim, 1.0)
        for _ in range(10_000):
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            m.rank_one_update(v)
        residual = m.entries @ m.inv_entries - np.eye(dim)
        assert np.max(np.abs(residual)) < 1e-8

    def test_dimension_mismatch(self):
        m = SymPosDef(3, 1.0)
        with pytest.raises(ValueError):
            m.rank_one_update(np.ones(4))

    def test_refresh_counter(self, rng):
        # the periodic refresh must not disturb values
        m = SymPosDef(4, 1.0)
        acc = np.eye(4)
        import hybandit.linalg as linalg

        old = linalg.INVERSE_REFRESH_EVERY
        linalg.INVERSE_REFRESH_EVERY = 7
        try:
            for _ in range(30):
                v = rng.standard_normal(4) / 3.0
                m.rank_one_update(v)
                acc += np.outer(v, v)
        finally:
            linalg.INVERSE_REFRESH_EVERY = old
        assert np.max(np.abs(m.inv_entries - np.linalg.inv(acc))) < 1e-10


class TestBlockDesign:
    def test_first_update_layout(self, rng):
        lam = 1.5
        bd = BlockDesign(3, 2, 4, lam)
        x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
        bd.block_update(1, x, z)
        assert np.allclose(bd.V, lam * np.eye(3) + np.outer(x, x))
        assert np.allclose(bd.W[1], lam * np.eye(2) + np.outer(z, z))
        assert np.allclose(bd.B[1], np.outer(x, z))
        assert not np.any(bd.B[0]) and not np.any(bd.B[2]) and not np.any(bd.B[3])
        assert bd.t == 1

    def test_zero_z_touches_only_v_and_counters(self, rng):
        bd = BlockDesign(3, 2, 2, 1.0)
        x = rng.standard_normal(3) / 2
        bd.block_update(0, x, np.zeros(2))
        assert np.allclose(bd.V, np.eye(3) + np.outer(x, x))
        assert np.allclose(bd.W[0], np.eye(2))
        assert not np.any(bd.B)
        assert bd.t == 1

    def test_dense_accumulation_oracle(self, rng):
        d1, d2, n_arms = 2, 2, 3
        bd = BlockDesign(d1, d2, n_arms, 1.0)
        dense = np.eye(d1 + d2 * n_arms)
        for _ in range(200):
            i = int(rng.integers(n_arms))
            x, z = rng.standard_normal(d1) / 2, rng.standard_normal(d2) / 2
            u = SparseHybridVector(i, x, z)
            bd.block_update(u.arm, u.x, u.z)
            v = u.dense(n_arms)
            dense += np.outer(v, v)
        assert np.max(np.abs(assemble_dense(bd) - dense)) < 1e-10

    def test_solve_fresh_design_is_scaled_identity(self, rng):
        lam = 2.5
        bd = BlockDesign(3, 2, 4, lam)
        u = SparseHybridVector(2, rng.standard_normal(3), rng.standard_normal(2))
        assert np.allclose(solve_dense_view(bd, u), u.dense(4) / lam)

    def test_solve_single_arm_matches_dense(self, rng):
        bd = random_design(rng, 3, 2, 1, 1.0, 40)
        u = SparseHybridVector(0, rng.standard_normal(3), rng.standard_normal(2))
        ref = np.linalg.solve(assemble_dense(bd), u.dense(1))
        assert np.max(np.abs(solve_dense_view(bd, u) - ref)) < 1e-10

    def test_solve_matches_dense_inverse_oracle(self, rng):
        bd = random_design(rng, 3, 2, 4, 1.0, 500)
        m_inv = np.linalg.inv(assemble_dense(bd))
        for _ in range(20):
            u = SparseHybridVector(
                int(rng.integers(4)), rng.standard_normal(3), rng.standard_normal(2)
            )
            ref = m_inv @ u.dense(4)
            got = solve_dense_view(bd, u)
            assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))

    def test_solve_blocks_general_rhs(self, rng):
        bd = random_design(rng, 4, 3, 5, 2.0, 300)
        b0 = rng.standard_normal(4)
        barms = rng.standard_normal((5, 3))
        y0, yarms = bd.solve_blocks(b0, barms)
        ref = np.linalg.solve(assemble_dense(bd), np.concatenate([b0, barms.ravel()]))
        assert np.max(np.abs(np.concatenate([y0, yarms.ravel()]) - ref)) < 1e-9

    def test_quad_form_fresh_unit_vector(self):
        lam = 4.0
        bd = BlockDesign(3, 2, 2, lam)
        x = np.array([0.6, 0.8, 0.0])
        u = SparseHybridVector(0, x, np.zeros(2))
        assert quad_form(bd, u) == pytest.approx(1.0 / lam, rel=1e-12)

    def test_quad_form_zero_vector(self):
        bd = BlockDesign(3, 2, 2, 1.0)
        assert quad_form(bd, SparseHybridVector(1, np.zeros(3), np.zeros(2))) == 0.0

    def test_quad_form_matches_solve_and_dense(self, rng):
        bd = random_design(rng, 3, 2, 4, 1.0, 150)
        m_inv = np.linalg.inv(assemble_dense(bd))
        for _ in range(10):
            u = SparseHybridVector(
                int(rng.integers(4)), rng.standard_normal(3), rng.standard_normal(2)
            )
            dense_val = float(u.dense(4) @ m_inv @ u.dense(4))
            assert quad_form(bd, u) == pytest.approx(dense_val, rel=1e-9)
            assert quad_form(bd, u) == pytest.approx(
                float(u.dense(4) @ solve_dense_view(bd, u)), rel=1e-9
            )

    def test_quad_form_bounded_by_norm_over_ridge(self, rng):
        lam = 3.0
        bd = random_design(rng, 3, 2, 3, lam, 80)
        for _ in range(10):
            u = SparseHybridVector(
                int(rng.integers(3)), rng.standard_normal(3), rng.standard_normal(2)
            )
            norm2 = float(u.x @ u.x + u.z @ u.z)
            assert quad_form(bd, u) <= norm2 / lam + 1e-12

    def test_quad_form_monotone_under_updates(self, rng):
        bd = BlockDesign(3, 2, 3, 1.0)
        u = SparseHybridVector(1, rng.standard_normal(3), rng.standard_normal(2))
        prev = quad_form(bd, u)
        for _ in range(50):
            bd.block_update(
                int(rng.integers(3)),
                rng.standard_normal(3) / 2,
                rng.standard_normal(2) / 2,
            )
            cur = quad_form(bd, u)
            assert cur <= prev + 1e-12
            prev = cur

    def test_quad_forms_per_arm_matches_scalar(self, rng):
        bd = random_design(rng, 3, 2, 4, 1.0, 120)
        xs = rng.standard_normal((4, 3))
        zs = rng.standard_normal((4, 2))
        batch = bd.quad_forms_per_arm(xs, zs)
        for i in range(4):
            u = SparseHybridVector(i, xs[i], zs[i])
            assert batch[i] == pytest.approx(
                float(u.dense(4) @ solve_dense_view(bd, u)), rel=1e-12
            )

    def test_means_and_quad_forms_match_block_solve(self, rng):
        bd = random_design(rng, 3, 2, 4, 1.0, 120)
        xs = rng.standard_normal((4, 3))
        zs = rng.standard_normal((4, 2))
        u_shared = rng.standard_normal(3)
        u_arms = rng.standard_normal((4, 2))
        means, quads = bd.means_and_quad_forms(xs, zs, u_shared, u_arms)
        theta, betas = bd.solve_blocks(u_shared, u_arms)
        for i in range(4):
            expected = float(xs[i] @ theta + zs[i] @ betas[i])
            assert means[i] == pytest.approx(expected, rel=1e-12, abs=1e-14), i
        assert np.array_equal(quads, bd.quad_forms_per_arm(xs, zs))
        with pytest.raises(ValueError):
            bd.means_and_quad_forms(xs, zs, u_shared[:2], u_arms)

    @pytest.mark.parametrize("d1, d2, n_arms", [(-1, 2, 3), (3, 0, 3), (3, 2, 0)])
    def test_rejects_bad_dimensions(self, d1, d2, n_arms):
        with pytest.raises(ValueError):
            BlockDesign(d1, d2, n_arms, 1.0)

    def test_dimension_mismatch(self, rng):
        bd = BlockDesign(3, 2, 2, 1.0)
        with pytest.raises(ValueError):
            bd.block_update(0, np.ones(4), np.ones(2))
        with pytest.raises(ValueError):
            bd.block_update(5, np.ones(3), np.ones(2))

    @pytest.mark.parametrize(
        "arm, x, z",
        [(4, np.ones(3), np.ones(2)), (-1, np.ones(3), np.ones(2)),
         (1, np.ones(2), np.ones(2)), (1, np.ones(3), np.ones((1, 2)))],
    )
    def test_rejected_update_leaves_state(self, rng, arm, x, z):
        bd = random_design(rng, 3, 2, 4, 1.0, 20)
        before = {k: np.copy(v) for k, v in vars(bd).items()}
        with pytest.raises(ValueError):
            bd.block_update(arm, x / 4, z / 4)
        for k, v in vars(bd).items():
            assert np.array_equal(before[k], v), k


def schur_inverse_reference(bd):
    """``inv(V - sum_i B_i W_i^{-1} B_i^T)`` recomputed from the accumulated blocks."""
    s = sum(b @ np.linalg.inv(w) @ b.T for b, w in zip(bd.B, bd.W))
    return np.linalg.inv(bd.V - s)


class TestBlockDesignNumerics:
    def test_schur_inverse_tracks_recompute_across_refreshes(self, rng, monkeypatch):
        # 25,000 updates cross two periodic refreshes (INVERSE_REFRESH_EVERY = 10,000)
        refreshes = []
        original = BlockDesign.refresh

        def counting_refresh(self):
            refreshes.append(self.t)
            original(self)

        monkeypatch.setattr(BlockDesign, "refresh", counting_refresh)
        d1, d2, n_arms = 3, 2, 4
        bd = BlockDesign(d1, d2, n_arms, 1.0)
        for step in range(1, 25_001):
            x = rng.standard_normal(d1)
            x *= rng.random() / np.linalg.norm(x)
            z = rng.standard_normal(d2)
            z *= rng.random() / np.linalg.norm(z)
            bd.block_update(int(rng.integers(n_arms)), x, z)
            if step % 1000 == 0:
                ref = schur_inverse_reference(bd)
                rel = np.max(np.abs(bd.F - ref)) / np.max(np.abs(ref))
                assert rel <= 1e-10, (step, rel)
                w_inv = np.linalg.inv(bd.W)
                assert np.max(np.abs(bd.W_inv - w_inv)) <= 1e-10 * np.max(np.abs(w_inv))
                assert np.max(np.abs(bd.C - bd.B @ w_inv)) <= 1e-10 * max(1.0, np.max(np.abs(bd.C)))
        assert refreshes == [10_000, 20_000]

    def test_no_shared_block_is_per_arm_dense_ridge_across_refreshes(self, rng, monkeypatch):
        # d1 = 0 leaves M = blockdiag(W_1, ..., W_K): one ridge model per arm
        refreshes = []
        original = BlockDesign.refresh

        def counting_refresh(self):
            refreshes.append(self.t)
            original(self)

        monkeypatch.setattr(BlockDesign, "refresh", counting_refresh)
        monkeypatch.setattr("hybandit.linalg.INVERSE_REFRESH_EVERY", 50)
        d, n_arms, lam = 4, 3, 2.0
        bd = BlockDesign(0, d, n_arms, lam)
        rows = [[] for _ in range(n_arms)]
        ys = [[] for _ in range(n_arms)]
        u_arms = np.zeros((n_arms, d))
        for step in range(1, 131):
            i = int(rng.integers(n_arms))
            z, y = rng.standard_normal(d) / 2, float(rng.standard_normal())
            bd.block_update(i, np.zeros(0), z)
            rows[i].append(z)
            ys[i].append(y)
            u_arms[i] += y * z
            if step not in (50, 100, 130):
                continue
            zs = rng.standard_normal((n_arms, d)) / 2
            theta, betas = bd.solve_blocks(np.zeros(0), u_arms)
            means, quads = bd.means_and_quad_forms(np.zeros((n_arms, 0)), zs, np.zeros(0), u_arms)
            assert theta.shape == (0,)
            for a in range(n_arms):
                r = np.array(rows[a]).reshape(-1, d)
                ref = dense_ridge(r, np.array(ys[a]), lam)
                m = lam * np.eye(d) + r.T @ r
                assert np.max(np.abs(betas[a] - ref)) < 1e-10, (step, a)
                assert means[a] == pytest.approx(float(zs[a] @ ref), rel=1e-10, abs=1e-14)
                assert quads[a] == pytest.approx(float(zs[a] @ np.linalg.solve(m, zs[a])), rel=1e-12)
        assert refreshes == [50, 100]

    def test_refresh_matches_incremental_state(self, rng):
        bd = random_design(rng, 4, 3, 5, 1.0, 400)
        f, c, w_inv = bd.F.copy(), bd.C.copy(), bd.W_inv.copy()
        bd.refresh()
        assert np.max(np.abs(bd.F - f)) <= 1e-12 * np.max(np.abs(f))
        assert np.max(np.abs(bd.C - c)) <= 1e-12 * max(1.0, np.max(np.abs(c)))
        assert np.max(np.abs(bd.W_inv - w_inv)) <= 1e-12

    def test_refresh_rejects_non_pd_schur_complement(self, rng):
        bd = random_design(rng, 3, 2, 4, 1.0, 50)
        # shrink V below the cross-block term: V - sum B W^-1 B^T loses definiteness
        bd.V = 1e-3 * np.eye(3)
        with pytest.raises(ValueError, match="Schur complement"):
            bd.refresh()

    def test_refresh_rejects_non_pd_arm_block(self, rng):
        bd = random_design(rng, 3, 2, 4, 1.0, 50)
        bd.W[2] = -np.eye(2)
        with pytest.raises(ValueError, match="positive definite"):
            bd.refresh()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_block_update_rejects_non_finite(self, rng, value):
        bd = random_design(rng, 3, 2, 4, 1.0, 20)
        before = {k: np.copy(v) for k, v in vars(bd).items()}
        x = rng.standard_normal(3) / 2
        x[0] = value
        with pytest.raises(ValueError, match="finite"):
            bd.block_update(1, x, rng.standard_normal(2) / 2)
        with pytest.raises(ValueError, match="finite"):
            bd.block_update(1, np.zeros(3), np.array([0.1, value]))
        for k, v in vars(bd).items():
            assert np.array_equal(before[k], v), k


class TestEigensolver:
    def test_diagonal(self):
        assert np.allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_zero_matrix(self):
        assert np.allclose(sym_eigenvalues(np.zeros((4, 4))), np.zeros(4))

    def test_char_poly_oracle(self, rng):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        got = sym_eigenvalues(a)
        ref = eigenvalues_by_char_poly(a)
        assert np.max(np.abs(got - ref)) < 1e-8

    def test_against_lapack_many_sizes(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 24))
            a = rng.standard_normal((n, n))
            a = a + a.T
            got = sym_eigenvalues(a)
            ref = np.linalg.eigvalsh(a)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) < 1e-9 * scale

    def test_rejects_nonsymmetric(self, rng):
        with pytest.raises(ValueError):
            sym_eigenvalues(rng.standard_normal((4, 4)))
        with pytest.raises(ValueError):
            sym_eigenvalues(rng.standard_normal((3, 4)))


class TestHermitianDilation:
    def test_one_by_one(self):
        h = hermitian_dilation(np.array([[1.0]]))
        assert np.array_equal(h, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sym_eigenvalues(h), [-1.0, 1.0])

    def test_zero(self):
        assert not np.any(hermitian_dilation(np.zeros((3, 2))))

    def test_eigenvalues_are_plus_minus_singular_values(self, rng):
        b = rng.standard_normal((3, 2))
        # singular values via the (independent) eigensolver on B^T B
        sv = np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(b.T @ b)))
        expected = np.sort(np.concatenate([sv, -sv, np.zeros(1)]))
        got = sym_eigenvalues(hermitian_dilation(b))
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_spectrum_multiset_up_to_8x6(self, rng):
        for _ in range(25):
            p, q = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            b = rng.standard_normal((p, q))
            sv = np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(b.T @ b if q <= p else b @ b.T)))
            expected = np.sort(np.concatenate([sv, -sv, np.zeros(abs(p - q))]))
            got = sym_eigenvalues(hermitian_dilation(b))
            assert np.max(np.abs(got - expected)) < 1e-8


def max_singular_value(b):
    """sigma_max of one matrix through the batched stack path of ``sample_diagnostics``."""
    tracker = PulledFeatureTracker(b.shape[0], b.shape[1], 1)
    tracker.B[0] = b
    return float(sample_diagnostics(tracker, None, None, 1).sigma_max_B[0])


class TestMaxSingularValue:
    def test_identity(self):
        assert max_singular_value(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_unit_outer(self, rng):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        z = rng.standard_normal(3)
        z /= np.linalg.norm(z)
        assert max_singular_value(np.outer(x, z)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_gram_eigenvalue_oracle(self, rng):
        b = rng.standard_normal((4, 3))
        ref = float(np.sqrt(np.max(np.linalg.eigvalsh(b.T @ b))))
        assert max_singular_value(b) == pytest.approx(ref, rel=1e-10)


class TestSandwichSpectrum:
    def test_fresh_design_exact_ones(self):
        assert BlockDesign(3, 2, 4, 1.0).sandwich_spectrum() == (1.0, 1.0)

    def test_no_cross_blocks_exact_ones(self, rng):
        # z = 0 keeps every B_i zero while V and W still grow
        bd = BlockDesign(3, 2, 2, 1.0)
        for _ in range(10):
            bd.block_update(0, rng.standard_normal(3) / 2, np.zeros(2))
        assert bd.sandwich_spectrum() == (1.0, 1.0)

    def test_symmetric_about_one_and_matches_dense(self, rng):
        bd = random_design(rng, 3, 2, 3, 1.0, 60)
        smin, smax = bd.sandwich_spectrum()
        # spectrum of I + A with A a dilation: symmetric about 1
        assert smin + smax == pytest.approx(2.0, abs=1e-8)
        m = assemble_dense(bd)
        u = np.zeros_like(m)
        u[:3, :3] = bd.V
        for i in range(3):
            sl = slice(3 + 2 * i, 5 + 2 * i)
            u[sl, sl] = bd.W[i]
        w, q = np.linalg.eigh(u)
        u_ih = (q / np.sqrt(w)) @ q.T
        ref = np.linalg.eigvalsh(u_ih @ m @ u_ih)
        assert smin == pytest.approx(ref[0], abs=1e-8)
        assert smax == pytest.approx(ref[-1], abs=1e-8)

    def test_single_update_extremes_match_cross_operator_norm(self, rng):
        bd = BlockDesign(3, 2, 3, 1.0)
        x = rng.standard_normal(3) / 2
        z = rng.standard_normal(2) / 2
        bd.block_update(1, x, z)
        # extreme eigenvalues are 1 -/+ the largest singular value of the
        # normalized cross operator
        w1, q1 = np.linalg.eigh(bd.V)
        v_half = (q1 / np.sqrt(w1)) @ q1.T
        zmat = []
        for i in range(3):
            w2, q2 = np.linalg.eigh(bd.W[i])
            w_half = (q2 / np.sqrt(w2)) @ q2.T
            zmat.append(v_half @ bd.B[i] @ w_half)
        sigma = np.linalg.svd(np.hstack(zmat), compute_uv=False)[0]
        smin, smax = bd.sandwich_spectrum()
        assert smax == pytest.approx(1.0 + sigma, abs=1e-9)
        assert smin == pytest.approx(1.0 - sigma, abs=1e-9)

    @pytest.mark.parametrize(
        "d1, d2, n_arms", [(8, 2, 3), (3, 2, 5)], ids=["d2K_below_d1", "d2K_above_d1"]
    )
    def test_closed_form_matches_dense_oracle(self, rng, d1, d2, n_arms):
        bd = random_design(rng, d1, d2, n_arms, 1.0, 80)
        got = bd.sandwich_spectrum()
        ref = sandwich_spectrum_dense(bd)
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-10

    def test_hylinucb_design_matches_dense_oracle_across_refresh(self, rng, monkeypatch):
        monkeypatch.setattr("hybandit.linalg.INVERSE_REFRESH_EVERY", 50)
        refreshes = []
        original = BlockDesign.refresh
        monkeypatch.setattr(
            BlockDesign, "refresh", lambda self: (refreshes.append(self.t), original(self))
        )
        d1, d2, n_arms = 4, 3, 3
        cfg = PolicyConfig.create(HYLINUCB, d1=d1, d2=d2, n_arms=n_arms, S=1.0, T=200)
        assert cfg.lam == n_arms
        pol = SharedLinearUCB(cfg)
        for step in range(1, 121):
            x = rng.standard_normal(d1)
            x *= rng.random() / np.linalg.norm(x)
            z = rng.standard_normal(d2)
            z *= rng.random() / np.linalg.norm(z)
            pol.update(int(rng.integers(n_arms)), x, z, float(rng.standard_normal()))
            if step in (49, 50, 51, 120):
                got = pol.design.sandwich_spectrum()
                ref = sandwich_spectrum_dense(pol.design)
                assert np.max(np.abs(np.subtract(got, ref))) <= 1e-10, step
        assert refreshes == [50, 100]
