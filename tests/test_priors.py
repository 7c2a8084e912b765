from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kstest

from momentlab import priors
from momentlab.measurements import (
    DimensionError,
    block_structure_for_power_spectrum,
    second_moment_blocks,
)
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    SparsePrior,
    ambient_network,
    estimate_image_dimension,
    generator_forward,
    generator_jacobian,
    generic_linear_sparse_prior,
    generic_orthonormal_sparse_prior,
    latent_parametrizations,
    network_from_json,
    perturb_final_layer,
    prior_charts,
    random_relu_network,
    sample_mixing,
    sparse_prior_from_json,
    standard_basis_sparse_prior,
)

from reference import network_to_json, sparse_prior_to_json


class TestGeneratorForward:
    def test_zero_weights_give_zero(self, rng):
        net = GeneratorNetwork(
            (Layer(np.zeros((5, 3)), "relu"), Layer(np.zeros((4, 5)), "identity"))
        )
        for _ in range(5):
            assert np.all(generator_forward(net, rng.normal(size=3)) == 0)

    def test_single_relu_layer(self):
        net = GeneratorNetwork((Layer(np.eye(2), "relu"),))
        np.testing.assert_array_equal(
            generator_forward(net, np.array([1.0, -2.0])), [1.0, 0.0]
        )

    def test_matches_layer_by_layer_oracle(self):
        rng = np.random.default_rng(0)
        W1 = rng.normal(size=(6, 2))
        W2 = rng.normal(size=(4, 6))
        net = GeneratorNetwork((Layer(W1, "relu"), Layer(W2, "identity")))
        z = np.array([1.0, 0.0])
        expected = W2 @ np.maximum(W1 @ z, 0.0)
        np.testing.assert_allclose(generator_forward(net, z), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = ambient_network(4)
        with pytest.raises(DimensionError):
            generator_forward(net, np.ones(3))

    def test_activations(self):
        z = np.array([-2.0, -0.5, 0.5, 2.0])
        leaky = GeneratorNetwork((Layer(np.eye(4), "leaky-relu(0.1)"),))
        np.testing.assert_allclose(
            generator_forward(leaky, z), [-0.2, -0.05, 0.5, 2.0]
        )
        hard = GeneratorNetwork((Layer(np.eye(4), "hardtanh(-1,1)"),))
        np.testing.assert_allclose(generator_forward(hard, z), [-1.0, -0.5, 0.5, 1.0])

    def test_activation_tags_parsed_once_per_layer(self, monkeypatch):
        net = random_relu_network((2, 6, 5), seed=0, activation="leaky-relu(0.1)")
        calls = []
        parse = priors.parse_activation
        monkeypatch.setattr(
            priors, "parse_activation", lambda tag: calls.append(tag) or parse(tag)
        )
        z = np.array([0.3, -1.2])
        generator_forward(net, z)
        generator_jacobian(net, z)
        assert calls == []
        Layer(np.eye(2), "relu")
        assert calls == ["relu"]
        for bad in ("swish", "relu(1)", "hardtanh(1,-1)", "leaky-relu"):
            with pytest.raises(ValueError):
                Layer(np.eye(2), bad)

    @given(st.integers(0, 10**6), st.floats(0.1, 10.0))
    def test_positive_homogeneity_of_relu_nets(self, seed, c):
        net = random_relu_network((2, 6, 5), seed=seed)
        z = np.random.default_rng(seed + 1).normal(size=2)
        lhs = generator_forward(net, c * z)
        rhs = c * generator_forward(net, z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


class TestGeneratorJacobian:
    def test_matches_finite_differences(self, rng):
        net = random_relu_network((3, 8, 6, 7), seed=4)
        h = 1e-6
        for _ in range(10):
            z = rng.normal(size=3)
            _, J = generator_jacobian(net, z)
            J_fd = np.empty_like(J)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                J_fd[:, j] = (
                    generator_forward(net, z + e) - generator_forward(net, z - e)
                ) / (2 * h)
            np.testing.assert_allclose(J, J_fd, atol=1e-5)


ACTIVATIONS = ["identity", "relu", "leaky-relu(0.1)", "hardtanh(-0.5,0.7)"]


def reference_activation(tag, a):
    if tag == "relu":
        return np.maximum(a, 0.0)
    if tag == "leaky-relu(0.1)":
        return np.where(a > 0, a, 0.1 * a)
    if tag == "hardtanh(-0.5,0.7)":
        return np.clip(a, -0.5, 0.7)
    return a


def reference_forward(net, z, tag):
    """Reference form: one point through one layer at a time, as W @ a."""
    a = z
    for layer in net.layers:
        a = layer.weight @ a
        if layer.bias is not None:
            a = a + layer.bias
        a = reference_activation(tag, a)
    return a


def network(tag, bias, seed=0):
    """Layers (2 -> 7 -> 6 -> 5), each with activation ``tag``."""
    r = np.random.default_rng(seed)
    widths = (2, 7, 6, 5)
    return GeneratorNetwork(tuple(
        Layer(r.normal(size=(n_out, n_in)), tag, r.normal(size=n_out) if bias else None)
        for n_in, n_out in zip(widths, widths[1:])
    ))


class TestLayerWalk:
    """generator_forward and generator_jacobian on points, stacks and charts."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_point_keeps_the_layer_by_layer_bits(self, rng, tag, bias):
        net = network(tag, bias)
        for _ in range(10):
            z = rng.normal(size=2)
            np.testing.assert_array_equal(generator_forward(net, z), reference_forward(net, z, tag))

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_stack_is_its_rows(self, rng, tag, bias):
        net = network(tag, bias)
        Z = rng.normal(size=(9, 2))
        X = generator_forward(net, Z)
        assert X.shape == (9, 5)
        for z, x in zip(Z, X):
            np.testing.assert_allclose(x, generator_forward(net, z), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_jacobian_walk_returns_the_forward_value(self, rng, tag, bias):
        net = network(tag, bias)
        for _ in range(10):
            z = rng.normal(size=2)
            x, J = generator_jacobian(net, z)
            np.testing.assert_array_equal(x, generator_forward(net, z))
            assert J.shape == (5, 2)

    def test_shapes_are_checked(self):
        net = network("relu", False)
        for bad in (np.ones(3), np.ones((4, 3)), np.ones((2, 2, 2))):
            with pytest.raises(DimensionError):
                generator_forward(net, bad)
        with pytest.raises(DimensionError):
            generator_jacobian(net, np.ones((4, 2)))

    def test_sparse_chart_is_its_basis_columns(self):
        prior = generic_linear_sparse_prior(7, 3, seed=2)
        params = latent_parametrizations(prior, np.random.default_rng(5))
        ref = np.random.default_rng(5)
        for _ in range(6):
            # the draws of one restart: a sorted support, then its start
            support = np.sort(ref.choice(7, size=3, replace=False))
            z_ref = ref.normal(size=3)
            z0, net = next(params)
            np.testing.assert_array_equal(z0, z_ref)
            B = prior.basis[:, support]
            np.testing.assert_array_equal(generator_forward(net, z0), B @ z0)
            x, J = generator_jacobian(net, z0)
            np.testing.assert_array_equal(x, B @ z0)
            np.testing.assert_array_equal(J, B)

    def test_network_is_its_own_chart(self):
        net = random_relu_network((2, 6, 5), seed=3)
        params = latent_parametrizations(net, np.random.default_rng(8))
        ref = np.random.default_rng(8)
        for _ in range(4):
            z0, chart = next(params)
            assert chart is net
            np.testing.assert_array_equal(z0, ref.normal(size=2))
        assert prior_charts(net) == [net]

    def test_sparse_prior_has_one_chart_per_support(self):
        prior = generic_orthonormal_sparse_prior(5, 2, seed=1)
        charts = prior_charts(prior)
        supports = list(combinations(range(5), 2))
        assert len(charts) == len(supports) == 10
        for chart, support in zip(charts, supports):
            (layer,) = chart.layers
            np.testing.assert_array_equal(layer.weight, prior.basis[:, list(support)])

    def test_unknown_prior_type(self):
        with pytest.raises(TypeError):
            next(latent_parametrizations(np.eye(3), np.random.default_rng(0)))


class TestImageDimension:
    def test_linear_rank_two(self, rng):
        # product of two rank-2 factors, no activations
        U = rng.normal(size=(7, 2))
        V = rng.normal(size=(2, 5))
        net = GeneratorNetwork((Layer(V, "identity"), Layer(U, "identity")))
        assert estimate_image_dimension(net, trials=5, seed=0) == 2

    def test_generic_relu_net_with_latent_two(self):
        net = random_relu_network((2, 7, 9), seed=1)
        assert estimate_image_dimension(net, trials=50, seed=0) == 2

    def test_constant_zero_net(self):
        net = GeneratorNetwork((Layer(np.zeros((4, 3)), "relu"),))
        assert estimate_image_dimension(net, trials=5, seed=0) == 0

    def test_never_exceeds_min_layer_width(self):
        for seed in range(10):
            widths = (3, 2, 6, 5)  # bottleneck width 2
            net = random_relu_network(widths, seed=seed)
            assert estimate_image_dimension(net, trials=20, seed=seed) <= min(widths)


def sparse_draws(prior, n, seed):
    """n signals drawn as a run draws its starts: a random support's chart at a Gaussian point."""
    params = latent_parametrizations(prior, np.random.default_rng(seed))
    return [generator_forward(net, z) for _, (z, net) in zip(range(n), params)]


class TestSparsePrior:
    def test_two_sparse_in_generic_basis(self):
        prior = generic_orthonormal_sparse_prior(10, 2, seed=5)
        for x in sparse_draws(prior, 10, seed=0):
            coeffs = prior.basis.T @ x
            assert np.sum(np.abs(coeffs) > 1e-12) == 2

    def test_generic_orthonormal_energies_strictly_positive(self):
        # distinguishes generic bases from standard-basis sparsity
        blocks = block_structure_for_power_spectrum(10)
        prior = generic_orthonormal_sparse_prior(10, 2, seed=7)
        for x in sparse_draws(prior, 100, seed=0):
            assert np.all(second_moment_blocks(x, blocks) > 0)

    def test_standard_basis_prior_blockifies_time_deltas(self):
        prior = standard_basis_sparse_prior(8, 2)
        blocks = block_structure_for_power_spectrum(8)
        # shifting the support must preserve the power spectrum
        c = np.zeros(8)
        c[1], c[4] = 1.5, -0.5
        from momentlab.measurements import to_real_fourier

        x = to_real_fourier(c)
        x_shifted = to_real_fourier(np.roll(c, 3))
        np.testing.assert_allclose(
            second_moment_blocks(x, blocks),
            second_moment_blocks(x_shifted, blocks),
            atol=1e-12,
        )
        # and both are realizable by the prior (columns of its basis)
        np.testing.assert_allclose(prior.basis @ c, x, atol=1e-12)

    def test_sparsity_bounds(self):
        with pytest.raises(ValueError):
            SparsePrior(np.eye(4), 5)
        with pytest.raises(ValueError):
            SparsePrior(np.eye(4), 0)


class TestSampleMixing:
    def test_special_orthogonal_contract(self):
        for seed in range(1000):
            A = sample_mixing(6, "special-orthogonal", seed)
            err = np.max(np.abs(A.T @ A - np.eye(6)))
            assert err < 1e-10
            assert abs(np.linalg.det(A) - 1.0) < 1e-10

    def test_reproducible(self):
        A1 = sample_mixing(5, "general-linear", 123)
        A2 = sample_mixing(5, "general-linear", 123)
        np.testing.assert_array_equal(A1, A2)

    def test_so2_angle_uniform(self):
        rng = np.random.default_rng(0)
        angles = np.empty(100_000)
        for i in range(angles.size):
            A = sample_mixing(2, "special-orthogonal", rng)
            angles[i] = np.arctan2(A[1, 0], A[0, 0])
        stat = kstest(angles, "uniform", args=(-np.pi, 2 * np.pi)).statistic
        assert stat < 0.01

    class _Draws:
        """A stand-in generator whose normal() returns the given matrices in turn."""

        def __init__(self, matrices):
            self.matrices = iter(matrices)
            self.calls = 0

        def normal(self, size):
            self.calls += 1
            return next(self.matrices)

    def test_general_linear_redraws_a_singular_draw(self, monkeypatch):
        singular = np.diag([1.0, 1.0, 0.0])
        good = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])
        draws = self._Draws([singular, good])
        monkeypatch.setattr(priors, "as_rng", lambda seed: draws)
        np.testing.assert_array_equal(sample_mixing(3, "general-linear", 0), good)
        assert draws.calls == 2

    def test_general_linear_gives_up_after_the_retries(self, monkeypatch):
        draws = self._Draws([np.zeros((3, 3))] * priors._MIXING_RETRIES)
        monkeypatch.setattr(priors, "as_rng", lambda seed: draws)
        with pytest.raises(RuntimeError, match="tries"):
            sample_mixing(3, "general-linear", 0)
        assert draws.calls == priors._MIXING_RETRIES


class TestSerialization:
    def test_network_roundtrip(self):
        net = random_relu_network((2, 5, 4), seed=9)
        clone = network_from_json(network_to_json(net))
        assert clone.latent_dim == net.latent_dim
        z = np.array([0.3, -1.2])
        np.testing.assert_array_equal(
            generator_forward(clone, z), generator_forward(net, z)
        )

    def test_sparse_roundtrip(self):
        prior = generic_orthonormal_sparse_prior(6, 2, seed=1)
        clone = sparse_prior_from_json(sparse_prior_to_json(prior))
        np.testing.assert_array_equal(clone.basis, prior.basis)
        assert clone.sparsity == prior.sparsity
        assert clone.kind == prior.kind


class TestPerturbFinalLayer:
    def test_small_relative_change(self):
        net = random_relu_network((2, 6, 8), seed=2)
        bumped = perturb_final_layer(net, rel_scale=1e-2, seed=0)
        base = net.layers[-1].weight
        delta = bumped.layers[-1].weight - base
        assert 0 < np.linalg.norm(delta) < 0.1 * np.linalg.norm(base)
        for a, b in zip(net.layers[:-1], bumped.layers[:-1]):
            np.testing.assert_array_equal(a.weight, b.weight)
