import numpy as np
import pytest
from scipy.linalg import block_diag

from momentlab.measurements import second_moment_blocks
from momentlab.so3 import (
    MAX_BAND_LIMIT,
    band_limit_blocks,
    haar_euler_angles,
    rotate_bandlimited,
    so3_quadrature,
)

from reference import (
    euler_from_rotation_3d,
    rotation_matrix_3d,
    wigner_block,
    wigner_degree_block,
)

# real degree-1 harmonics are proportional to (y, z, x) in our m = -1, 0, 1 order
PERM_YZX = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def fit_degree1_coeffs(fun, points):
    """Least-squares expansion of a linear function in the (y, z, x) monomials."""
    basis = np.column_stack([points[:, 1], points[:, 2], points[:, 0]])
    return np.linalg.lstsq(basis, fun, rcond=None)[0]


class TestEulerExtraction:
    def test_roundtrip(self, rng):
        for _ in range(200):
            angles = haar_euler_angles(rng, 1)[0]
            R = rotation_matrix_3d(*angles)
            back = rotation_matrix_3d(*euler_from_rotation_3d(R))
            np.testing.assert_allclose(back, R, atol=1e-12)

    def test_gimbal_cases(self):
        for beta in (0.0, np.pi):
            R = rotation_matrix_3d(0.7, beta, 1.3)
            back = rotation_matrix_3d(*euler_from_rotation_3d(R))
            np.testing.assert_allclose(back, R, atol=1e-12)


class TestWigner:
    def test_identity_rotation(self):
        for L in range(4):
            np.testing.assert_allclose(
                wigner_block(L, 0.0, 0.0, 0.0), np.eye((L + 1) ** 2), atol=1e-13
            )

    def test_orthogonality(self, rng):
        for L in range(5):
            D = wigner_block(L, *haar_euler_angles(rng, 1)[0])
            err = np.max(np.abs(D @ D.T - np.eye((L + 1) ** 2)))
            assert err < 1e-10

    def test_degree1_equals_3d_rotation_about_z(self):
        # point-grid oracle: rotate degree-1 functions directly on the sphere
        alpha = 0.9
        D1 = wigner_degree_block(1, alpha, 0.0, 0.0)
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        R = rotation_matrix_3d(alpha, 0.0, 0.0)
        for coeffs in np.eye(3):
            f = np.column_stack([pts[:, 1], pts[:, 2], pts[:, 0]]) @ coeffs
            f_rot = np.column_stack(
                [(pts @ R)[:, 1], (pts @ R)[:, 2], (pts @ R)[:, 0]]
            ) @ coeffs  # f(R^{-1} p) sampled via p <- R^T p
            got = fit_degree1_coeffs(f_rot, pts)
            np.testing.assert_allclose(got, D1 @ coeffs, atol=1e-8)

    def test_degree1_equals_conjugated_rotation(self, rng):
        for _ in range(10):
            a, b, g = haar_euler_angles(rng, 1)[0]
            D1 = wigner_degree_block(1, a, b, g)
            R = rotation_matrix_3d(a, b, g)
            np.testing.assert_allclose(D1, PERM_YZX @ R @ PERM_YZX.T, atol=1e-8)

    def test_composition(self, rng):
        for L in (2, 4):
            for _ in range(10):
                g1 = haar_euler_angles(rng, 1)[0]
                g2 = haar_euler_angles(rng, 1)[0]
                R12 = rotation_matrix_3d(*g1) @ rotation_matrix_3d(*g2)
                D12 = wigner_block(L, *euler_from_rotation_3d(R12))
                err = np.max(
                    np.abs(wigner_block(L, *g1) @ wigner_block(L, *g2) - D12)
                )
                assert err < 1e-8

    def test_per_degree_energy_invariance(self, rng):
        L = 4
        blocks = band_limit_blocks(L)
        x = rng.normal(size=(L + 1) ** 2)
        base = second_moment_blocks(x, blocks)
        for _ in range(20):
            y = wigner_block(L, *haar_euler_angles(rng, 1)[0]) @ x
            np.testing.assert_allclose(
                second_moment_blocks(y, blocks), base, atol=1e-8
            )

    @pytest.mark.parametrize("L", [0, 1, 3, 8, MAX_BAND_LIMIT])
    def test_assembly_equals_block_diag(self, rng, L):
        angles = haar_euler_angles(rng, 1)[0]
        degrees = [wigner_degree_block(l, *angles) for l in range(L + 1)]
        np.testing.assert_array_equal(wigner_block(L, *angles), block_diag(*degrees))

    def test_band_limit_cap(self):
        with pytest.raises(ValueError):
            wigner_block(17, 0.1, 0.2, 0.3)


class TestBatchedRotation:
    def test_matches_matrix_application(self, rng):
        L = 3
        x = rng.normal(size=(L + 1) ** 2)
        angles = haar_euler_angles(rng, size=7)
        batched = rotate_bandlimited(L, angles, x)
        for i in range(7):
            np.testing.assert_allclose(
                batched[i], wigner_block(L, *angles[i]) @ x, atol=1e-12
            )


class TestQuadrature:
    def test_weights_normalized(self):
        for L in (1, 3, 4):
            _, w = so3_quadrature(L)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-13)

    def test_order_doubling_changes_nothing(self, rng):
        # exactness check: the moment integrand is resolved at the design order
        L = 3
        x = rng.normal(size=(L + 1) ** 2)
        nodes, w = so3_quadrature(L)
        Y = rotate_bandlimited(L, nodes, x)
        M1 = (Y * w[:, None]).T @ Y
        nodes2, w2 = so3_quadrature(2 * L + 1)  # strictly finer product rule
        Y2 = rotate_bandlimited(L, nodes2[:, :3], x)
        M2 = (Y2 * w2[:, None]).T @ Y2
        np.testing.assert_allclose(M1, M2, atol=1e-12)
