import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentlab.measurements import (
    BlockStructure,
    DimensionError,
    block_structure_for_power_spectrum,
    measurement_jacobian,
    mixed_signal,
    real_fourier_matrix,
    second_moment_blocks,
    separable_measurement,
    to_real_fourier,
)
from momentlab.so3 import band_limit_blocks

from reference import dft_block_energy_oracle


def loop_separable_measurement(x, A, blocks):
    """Reference form: one matrix-vector product per block."""
    out = np.empty(blocks.R)
    for k, sl in enumerate(blocks.slices()):
        s = A[sl] @ x
        out[k] = s @ s
    return out


def loop_measurement_jacobian(x, A, blocks):
    """Reference form: row k is 2 * sum_j <x, w_j> w_j over block k's rows."""
    J = np.empty((blocks.R, blocks.N))
    for k, sl in enumerate(blocks.slices()):
        rows = A[sl]
        J[k] = 2.0 * (rows.T @ (rows @ x))
    return J


KERNEL_LAYOUTS = [block_structure_for_power_spectrum(N) for N in range(1, 21)] + [
    band_limit_blocks(L) for L in range(5)
]


class TestBlockStructure:
    def test_power_spectrum_layouts(self):
        assert block_structure_for_power_spectrum(8).dims == (1, 1, 2, 2, 2)
        assert block_structure_for_power_spectrum(8).R == 5
        assert block_structure_for_power_spectrum(3).dims == (1, 2)
        assert block_structure_for_power_spectrum(3).R == 2
        assert block_structure_for_power_spectrum(1).dims == (1,)
        assert block_structure_for_power_spectrum(2).dims == (1, 1)

    def test_block_count_formula(self):
        for N in range(1, 40):
            assert block_structure_for_power_spectrum(N).R == N // 2 + 1

    def test_starts_cached_and_read_only(self):
        blocks = BlockStructure((1, 3, 5))
        assert blocks.starts is blocks.starts
        np.testing.assert_array_equal(blocks.starts, [0, 1, 4])
        with pytest.raises(ValueError):
            blocks.starts[0] = 3
        np.testing.assert_array_equal(blocks.starts, [0, 1, 4])

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            block_structure_for_power_spectrum(0)
        with pytest.raises(DimensionError):
            BlockStructure((1, 0, 2))


class TestRealFourier:
    def test_zero_maps_to_zero(self):
        assert np.all(to_real_fourier(np.zeros(7)) == 0)

    def test_constant_vector_is_pure_dc(self):
        for N in (4, 5):
            x = to_real_fourier(np.full(N, 3.0))
            energies = second_moment_blocks(x, block_structure_for_power_spectrum(N))
            assert energies[0] == pytest.approx(9.0 * N, abs=1e-12)
            assert np.all(np.abs(energies[1:]) < 1e-12)

    def test_block_energies_match_dft_oracle_small(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        x = to_real_fourier(v)
        energies = second_moment_blocks(x, block_structure_for_power_spectrum(4))
        np.testing.assert_allclose(energies, dft_block_energy_oracle(v), atol=1e-12)

    def test_block_energies_match_dft_oracle_random(self, rng):
        for _ in range(50):
            N = int(rng.integers(1, 33))
            v = rng.normal(size=N)
            x = to_real_fourier(v)
            blocks = block_structure_for_power_spectrum(N)
            np.testing.assert_allclose(
                second_moment_blocks(x, blocks),
                dft_block_energy_oracle(v),
                atol=1e-10 * max(1.0, np.sum(v * v)),
            )

    def test_orthonormality(self):
        for N in (1, 2, 3, 8, 17, 32):
            F = real_fourier_matrix(N)
            np.testing.assert_allclose(F @ F.T, np.eye(N), atol=1e-12)

    @given(st.integers(1, 32), st.integers(0, 10**6))
    def test_parseval(self, N, seed):
        v = np.random.default_rng(seed).normal(size=N)
        x = to_real_fourier(v)
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(v), abs=1e-12)
        blocks = block_structure_for_power_spectrum(N)
        assert np.sum(second_moment_blocks(x, blocks)) == pytest.approx(
            np.sum(v * v), rel=1e-12, abs=1e-12
        )

    @given(st.integers(2, 32), st.integers(0, 10**6))
    def test_cyclic_shift_and_reversal_invariance(self, N, seed):
        r = np.random.default_rng(seed)
        v = r.normal(size=N)
        s = int(r.integers(0, N))
        blocks = block_structure_for_power_spectrum(N)
        base = second_moment_blocks(to_real_fourier(v), blocks)
        shifted = second_moment_blocks(to_real_fourier(np.roll(v, s)), blocks)
        reversed_ = second_moment_blocks(to_real_fourier(v[::-1].copy()), blocks)
        scale = max(1.0, np.max(base))
        np.testing.assert_allclose(shifted, base, atol=1e-10 * scale)
        np.testing.assert_allclose(reversed_, base, atol=1e-10 * scale)


class TestSecondMomentBlocks:
    def test_direct_example(self):
        blocks = BlockStructure((1, 2, 2))
        out = second_moment_blocks(np.array([1.0, 1.0, 2.0, 2.0, 3.0]), blocks)
        np.testing.assert_array_equal(out, [1.0, 5.0, 13.0])

    def test_sign_invariance_exact(self, rng):
        blocks = BlockStructure((1, 3, 5))
        x = rng.normal(size=9)
        np.testing.assert_array_equal(
            second_moment_blocks(x, blocks), second_moment_blocks(-x, blocks)
        )

    def test_against_summation_oracle(self, rng):
        blocks = BlockStructure((1, 3, 5))
        for _ in range(20):
            x = rng.normal(size=9)
            expected = np.array(
                [sum(x[i] ** 2 for i in range(s, s + d)) for s, d in zip((0, 1, 4), (1, 3, 5))]
            )
            np.testing.assert_allclose(
                second_moment_blocks(x, blocks), expected, atol=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            second_moment_blocks(np.ones(4), BlockStructure((1, 2, 2)))

    @given(st.integers(1, 24), st.integers(0, 10**6))
    def test_block_orthogonal_invariance(self, N, seed):
        r = np.random.default_rng(seed)
        blocks = block_structure_for_power_spectrum(N)
        x = r.normal(size=N)
        Q = np.zeros((N, N))
        for sl in blocks.slices():
            d = sl.stop - sl.start
            M = r.normal(size=(d, d))
            q, rr = np.linalg.qr(M)
            Q[sl, sl] = q * np.sign(np.diag(rr))
        scale = max(1.0, float(x @ x))
        np.testing.assert_allclose(
            second_moment_blocks(Q @ x, blocks),
            second_moment_blocks(x, blocks),
            atol=1e-10 * scale,
        )


class TestSeparableMeasurement:
    def test_identity_mixing(self, rng):
        blocks = block_structure_for_power_spectrum(6)
        x = rng.normal(size=6)
        np.testing.assert_allclose(
            separable_measurement(x, np.eye(6), blocks),
            second_moment_blocks(x, blocks),
            atol=1e-14,
        )

    def test_orthogonal_signal_gives_zero(self, rng):
        blocks = BlockStructure((2, 2))
        # rows of A span the first two coordinates only
        A = np.zeros((4, 4))
        A[:, :2] = rng.normal(size=(4, 2))
        x = np.array([0.0, 0.0, 1.0, -2.0])
        np.testing.assert_array_equal(
            separable_measurement(x, A, blocks), np.zeros(2)
        )

    def test_separability_identity_n8(self, rng):
        blocks = block_structure_for_power_spectrum(8)
        for _ in range(20):
            x = rng.normal(size=8)
            A = rng.normal(size=(8, 8))
            lhs = separable_measurement(x, A, blocks)
            rhs = second_moment_blocks(A @ x, blocks)
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @given(st.integers(1, 32), st.integers(0, 10**6))
    def test_separability_identity_property(self, N, seed):
        r = np.random.default_rng(seed)
        blocks = block_structure_for_power_spectrum(N)
        x = r.normal(size=N)
        A = r.normal(size=(N, N))
        lhs = separable_measurement(x, A, blocks)
        rhs = second_moment_blocks(A @ x, blocks)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestMeasurementJacobian:
    def test_zero_signal(self):
        blocks = block_structure_for_power_spectrum(5)
        J = measurement_jacobian(np.zeros(5), np.eye(5), blocks)
        np.testing.assert_array_equal(J, np.zeros((3, 5)))

    def test_single_block_identity(self, rng):
        blocks = BlockStructure((6,))
        x = rng.normal(size=6)
        J = measurement_jacobian(x, np.eye(6), blocks)
        np.testing.assert_allclose(J, 2.0 * x[None, :], atol=1e-14)

    def test_matches_central_differences(self, rng):
        blocks = block_structure_for_power_spectrum(8)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=8)
            A = rng.normal(size=(8, 8))
            J = measurement_jacobian(A @ x, A, blocks)
            J_fd = np.empty_like(J)
            for j in range(8):
                e = np.zeros(8)
                e[j] = h
                J_fd[:, j] = (
                    separable_measurement(x + e, A, blocks)
                    - separable_measurement(x - e, A, blocks)
                ) / (2 * h)
            scale = max(np.max(np.abs(J)), 1e-12)
            worst = max(worst, np.max(np.abs(J - J_fd)) / scale)
        assert worst < 1e-6


class TestKernelOracles:
    """The reduceat kernels agree with their block-loop reference forms."""

    @pytest.mark.parametrize("blocks", KERNEL_LAYOUTS, ids=lambda b: str(b.dims))
    def test_measurement_matches_loop_form(self, blocks):
        r = np.random.default_rng(blocks.N)
        for _ in range(5):
            x = r.normal(size=blocks.N)
            A = r.normal(size=(blocks.N, blocks.N))
            np.testing.assert_allclose(
                separable_measurement(x, A, blocks),
                loop_separable_measurement(x, A, blocks),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("blocks", KERNEL_LAYOUTS, ids=lambda b: str(b.dims))
    def test_measurement_of_a_stack_is_its_rows(self, blocks):
        r = np.random.default_rng(blocks.N)
        X = r.normal(size=(7, blocks.N))
        A = r.normal(size=(blocks.N, blocks.N))
        stacked = separable_measurement(X, A, blocks)
        assert stacked.shape == (7, blocks.R)
        for x, row in zip(X, stacked):
            single = separable_measurement(x, A, blocks)
            np.testing.assert_array_equal(row, single)
            s = A @ x           # one signal keeps the bits of A @ x
            np.testing.assert_array_equal(single, np.add.reduceat(s * s, blocks.starts))

    def test_measurement_checks_the_signal_shape(self):
        blocks = block_structure_for_power_spectrum(4)
        for bad in (np.ones(5), np.ones((3, 5)), np.ones((2, 2, 4))):
            with pytest.raises(DimensionError):
                separable_measurement(bad, np.eye(4), blocks)

    @pytest.mark.parametrize("blocks", KERNEL_LAYOUTS, ids=lambda b: str(b.dims))
    def test_jacobian_matches_loop_form(self, blocks):
        r = np.random.default_rng(blocks.N)
        for _ in range(5):
            x = r.normal(size=blocks.N)
            A = r.normal(size=(blocks.N, blocks.N))
            np.testing.assert_allclose(
                measurement_jacobian(A @ x, A, blocks),
                loop_measurement_jacobian(x, A, blocks),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("blocks", KERNEL_LAYOUTS, ids=lambda b: str(b.dims))
    def test_jacobian_of_a_stack_is_its_rows(self, blocks):
        r = np.random.default_rng(blocks.N)
        X = r.normal(size=(7, blocks.N))
        A = r.normal(size=(blocks.N, blocks.N))
        S = mixed_signal(X, A, blocks)
        stacked = measurement_jacobian(S, A, blocks)
        assert stacked.shape == (7, blocks.R, blocks.N)
        for x, s, J in zip(X, S, stacked):
            np.testing.assert_array_equal(s, A @ x)
            np.testing.assert_array_equal(J, measurement_jacobian(s, A, blocks))
            # the bits of the form that mixes x itself
            np.testing.assert_array_equal(
                J, 2.0 * np.add.reduceat((A @ x)[:, None] * A, blocks.starts, axis=0)
            )

    def test_jacobian_checks_the_mixed_signal_shape(self):
        blocks = block_structure_for_power_spectrum(4)
        for bad in (np.ones(5), np.ones((3, 5)), np.ones((2, 2, 4))):
            with pytest.raises(DimensionError):
                measurement_jacobian(bad, np.eye(4), blocks)
        with pytest.raises(DimensionError):
            measurement_jacobian(np.ones(4), np.eye(5), blocks)
