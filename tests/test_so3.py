import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from momentlab.measurements import DimensionError, second_moment_blocks
from momentlab.mra import _CHUNK_ROWS
from momentlab.so3 import (
    MAX_BAND_LIMIT,
    _PAD_COLUMNS,
    _rotation_factors,
    _trig_table,
    _z_rotate,
    band_limit_blocks,
    haar_euler_angles,
    rotate_bandlimited,
    so3_quadrature,
)

from reference import (
    euler_from_rotation_3d,
    rotate_bandlimited_reference,
    rotation_matrix_3d,
    wigner_block,
    wigner_degree_block,
)

# gimbal and wrap-around angles: beta at 0 and pi, alpha and gamma at 0 and 2 pi
EDGE_ANGLES = np.array(
    [
        [0.0, 0.0, 0.0],
        [2 * np.pi, 0.0, 2 * np.pi],
        [0.0, np.pi, 2 * np.pi],
        [2 * np.pi, np.pi, 0.0],
        [0.7, 0.0, 1.3],
        [0.7, np.pi, 1.3],
    ]
)

# real degree-1 harmonics are proportional to (y, z, x) in our m = -1, 0, 1 order
PERM_YZX = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def loop_rotate_bandlimited(L, angles, x):
    """``rotate_bandlimited``'s stages, with B built by a loop over k from x's sorted entries."""
    inverse, J = _rotation_factors(L)[:2]
    N = (L + 1) ** 2
    xs = x[np.argsort(inverse)]
    B = np.zeros((N, 2 * L + 1))
    B[: L + 1, 0] = xs[: L + 1]
    lo = L + 1
    for k in range(1, L + 1):
        w = L + 1 - k
        p, q = slice(lo, lo + w), slice(lo + w, lo + 2 * w)
        B[p, 2 * k - 1], B[q, 2 * k - 1] = xs[p], xs[q]
        B[p, 2 * k], B[q, 2 * k] = -xs[q], xs[p]
        lo += 2 * w
    n = angles.shape[0]
    table = np.zeros((2 * L + 1, -(-n // _PAD_COLUMNS) * _PAD_COLUMNS))
    _trig_table(angles[:, 2], L, table[:, :n])
    v = (J.T @ B) @ table
    _trig_table(angles[:, 1], L, table[:, :n])
    _z_rotate(v, table, L)
    v = J @ v
    _trig_table(angles[:, 0], L, table[:, :n])
    _z_rotate(v, table, L)
    return v[inverse, :n].T


def column_stack_haar_euler_angles(rng, size):
    """Haar Euler angles drawn as three arrays and stacked, in the draw order of the library."""
    al = rng.uniform(0.0, 2 * np.pi, size=size)
    ga = rng.uniform(0.0, 2 * np.pi, size=size)
    be = np.arccos(rng.uniform(-1.0, 1.0, size=size))
    return np.column_stack([al, be, ga])


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
    @pytest.mark.parametrize("L", range(MAX_BAND_LIMIT + 1))
    def test_matches_reference_and_matrices(self, rng, L):
        x = rng.normal(size=(L + 1) ** 2)
        angles = np.vstack([EDGE_ANGLES, haar_euler_angles(rng, size=7)])
        batched = rotate_bandlimited(L, angles, x)
        np.testing.assert_allclose(
            batched, rotate_bandlimited_reference(L, angles, x), rtol=0, atol=1e-12
        )
        for g, row in zip(angles, batched):
            np.testing.assert_allclose(row, wigner_block(L, *g) @ x, rtol=0, atol=1e-12)
        # one rotation: the first stage's product has one column
        np.testing.assert_allclose(
            rotate_bandlimited(L, angles[-1:], x),
            rotate_bandlimited_reference(L, angles[-1:], x),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("L", [0, 1, 4, MAX_BAND_LIMIT])
    @pytest.mark.parametrize("n", [1, 17, 300])
    def test_cached_b_indices_keep_every_bit(self, rng, L, n):
        x = rng.normal(size=(L + 1) ** 2)
        angles = np.vstack([EDGE_ANGLES, haar_euler_angles(rng, size=n)])
        np.testing.assert_array_equal(
            rotate_bandlimited(L, angles, x), loop_rotate_bandlimited(L, angles, x)
        )

    def test_trig_table_matches_cos_and_sin(self, rng):
        theta = np.concatenate([[0.0, np.pi / 2, np.pi, 2 * np.pi], rng.uniform(0, 2 * np.pi, 500)])
        table = np.empty((2 * MAX_BAND_LIMIT + 1, theta.size))
        _trig_table(theta, MAX_BAND_LIMIT, table)
        np.testing.assert_array_equal(table[0], 1.0)
        k = np.arange(1, MAX_BAND_LIMIT + 1)[:, None]
        np.testing.assert_allclose(table[1::2], np.cos(k * theta), rtol=0, atol=1e-13)
        np.testing.assert_allclose(table[2::2], np.sin(k * theta), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS + 1])
    def test_row_counts(self, rng, n):
        L = 4
        x = rng.normal(size=(L + 1) ** 2)
        angles = haar_euler_angles(rng, size=n)
        batched = rotate_bandlimited(L, angles, x)
        assert batched.shape == (n, (L + 1) ** 2)
        np.testing.assert_allclose(
            batched, rotate_bandlimited_reference(L, angles, x), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("L", [2, 4, 8])
    def test_composition(self, rng, L):
        # rotating by g2 and then by g1 is rotating by g1 g2
        x = rng.normal(size=(L + 1) ** 2)
        for _ in range(10):
            g1, g2 = haar_euler_angles(rng, 2)
            g12 = euler_from_rotation_3d(rotation_matrix_3d(*g1) @ rotation_matrix_3d(*g2))
            twice = rotate_bandlimited(L, g1, rotate_bandlimited(L, g2, x)[0])
            np.testing.assert_allclose(
                twice, rotate_bandlimited(L, g12, x), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize(
        "L, angles_shape, x_size",
        [
            (MAX_BAND_LIMIT + 1, (2, 3), (MAX_BAND_LIMIT + 2) ** 2),
            (-1, (2, 3), 0),
            (2, (2, 4), 9),
            (2, (2, 2), 9),
            (2, (2, 1, 3), 9),
            (2, (2, 3), 8),
        ],
        ids=["above-max", "negative", "four-angles", "two-angles", "3-d-angles", "short-x"],
    )
    def test_rejects_bad_inputs(self, L, angles_shape, x_size):
        with pytest.raises(DimensionError):
            rotate_bandlimited(L, np.zeros(angles_shape), np.zeros(x_size))


class TestHaarEulerAngles:
    @pytest.mark.parametrize("size", [1, 7, 1000])
    def test_same_draws_as_stacked_columns(self, size):
        np.testing.assert_array_equal(
            haar_euler_angles(np.random.default_rng(3), size),
            column_stack_haar_euler_angles(np.random.default_rng(3), size),
        )

    def test_peak_memory_is_result_and_two_draws(self):
        # the stacked form peaks at the result plus three draws (4.58 MiB here)
        n = 100_000
        haar_euler_angles(np.random.default_rng(0), 10)
        tracemalloc.start()
        try:
            angles = haar_euler_angles(np.random.default_rng(0), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= angles.nbytes + 2 * n * 8


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
