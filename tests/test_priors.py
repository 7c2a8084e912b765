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
    real_fourier_matrix,
    second_moment_blocks,
)
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    SparsePrior,
    ambient_network,
    chart_stack,
    chart_walk,
    estimate_image_dimension,
    is_cone,
    latent_parametrizations,
    network_from_json,
    parse_activation,
    prior_charts,
    random_relu_network,
    sample_mixing,
    sparse_prior,
    sparse_prior_from_json,
    walk_jacobian,
)

from reference import network_to_json, reference_walk, sparse_prior_to_json


def walk(net, z):
    """The value and Jacobian of one chart walk."""
    w = chart_walk(net, z)
    return w.x, walk_jacobian(w)


class TestChartWalk:
    def test_zero_weights_give_zero(self, rng):
        net = GeneratorNetwork(
            (Layer(np.zeros((5, 3)), "relu"), Layer(np.zeros((4, 5)), "identity"))
        )
        for _ in range(5):
            assert np.all(chart_walk(net, rng.normal(size=3)).x == 0)

    def test_single_relu_layer(self):
        net = GeneratorNetwork((Layer(np.eye(2), "relu"),))
        np.testing.assert_array_equal(chart_walk(net, np.array([1.0, -2.0])).x, [1.0, 0.0])

    def test_matches_layer_by_layer_oracle(self):
        rng = np.random.default_rng(0)
        W1 = rng.normal(size=(6, 2))
        W2 = rng.normal(size=(4, 6))
        net = GeneratorNetwork((Layer(W1, "relu"), Layer(W2, "identity")))
        z = np.array([1.0, 0.0])
        expected = W2 @ np.maximum(W1 @ z, 0.0)
        np.testing.assert_allclose(chart_walk(net, z).x, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        net = ambient_network(4)
        with pytest.raises(DimensionError):
            chart_walk(net, np.ones(3))

    def test_activations(self):
        z = np.array([-2.0, -0.5, 0.5, 2.0])
        leaky = GeneratorNetwork((Layer(np.eye(4), "leaky-relu(0.1)"),))
        np.testing.assert_allclose(chart_walk(leaky, z).x, [-0.2, -0.05, 0.5, 2.0])
        hard = GeneratorNetwork((Layer(np.eye(4), "hardtanh(-1,1)"),))
        np.testing.assert_allclose(chart_walk(hard, z).x, [-1.0, -0.5, 0.5, 1.0])

    def test_activation_tags_parsed_once_per_layer(self, monkeypatch):
        net = random_relu_network((2, 6, 5), seed=0, activation="leaky-relu(0.1)")
        calls = []
        parse = priors.parse_activation
        monkeypatch.setattr(
            priors, "parse_activation", lambda tag: calls.append(tag) or parse(tag)
        )
        walk(net, np.array([0.3, -1.2]))
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
        lhs = chart_walk(net, c * z).x
        rhs = c * chart_walk(net, z).x
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


class TestWalkJacobian:
    def test_matches_finite_differences(self, rng):
        net = random_relu_network((3, 8, 6, 7), seed=4)
        h = 1e-6
        for _ in range(10):
            z = rng.normal(size=3)
            _, J = walk(net, z)
            J_fd = np.empty_like(J)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                J_fd[:, j] = (chart_walk(net, z + e).x - chart_walk(net, z - e).x) / (2 * h)
            np.testing.assert_allclose(J, J_fd, atol=1e-5)


ACTIVATIONS = ["identity", "relu", "leaky-relu(0.1)", "hardtanh(-0.5,0.7)"]


class TestActivationTable:
    def test_every_activation_is_in_the_table(self):
        assert sorted(priors._ACTIVATIONS) == sorted(parse_activation(t)[0] for t in ACTIVATIONS)

    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_derivative_matches_central_differences(self, rng, tag):
        name, params = parse_activation(tag)
        act = priors._ACTIVATIONS[name]
        a = 2.0 * rng.normal(size=500)
        kinks = {"identity": [], "relu": [0.0], "leaky-relu": [0.0], "hardtanh": list(params)}
        for kink in kinks[name]:
            a = a[np.abs(a - kink) > 1e-3]      # away from the kinks
        h = 1e-6
        fd = (act.value(a + h, params) - act.value(a - h, params)) / (2 * h)
        np.testing.assert_allclose(act.derivative(a, params), fd, atol=1e-8)

    def test_parsed_tags(self):
        assert parse_activation(" relu ") == ("relu", ())
        assert parse_activation("leaky-relu(0.01)") == ("leaky-relu", (0.01,))
        assert parse_activation("hardtanh(-1, 2.5)") == ("hardtanh", (-1.0, 2.5))

    @pytest.mark.parametrize(
        "tag",
        [
            # a bad parameter count
            "identity(0)", "relu(1)", "leaky-relu", "leaky-relu(0.1,0.2)", "hardtanh(1)",
            "hardtanh(-1,0,1)",
            # hardtanh with lo >= hi
            "hardtanh(1,-1)", "hardtanh(0.5,0.5)",
            # an unknown name, or no tag at all
            "swish", "swish(1)", "ReLU", "relu(", "",
            # parameters that are no finite numbers
            "leaky-relu(nan)", "leaky-relu(inf)", "leaky-relu(-inf)", "hardtanh(nan,1)",
            "hardtanh(-inf,1)", "hardtanh(0,1e400)", "leaky-relu(x)",
        ],
    )
    def test_bad_tags_raise(self, tag):
        with pytest.raises(ValueError):
            parse_activation(tag)


def network(tag, bias, seed=0):
    """Layers (2 -> 7 -> 6 -> 5), each with activation ``tag``."""
    r = np.random.default_rng(seed)
    widths = (2, 7, 6, 5)
    return GeneratorNetwork(tuple(
        Layer(r.normal(size=(n_out, n_in)), tag, r.normal(size=n_out) if bias else None)
        for n_in, n_out in zip(widths, widths[1:])
    ))


class TestIsCone:
    @pytest.mark.parametrize("tag", ACTIVATIONS + ["leaky-relu(-0.5)"])
    def test_the_table_marks_the_activations_that_commute_with_scaling(self, rng, tag):
        name, params = parse_activation(tag)
        act = priors._ACTIVATIONS[name]
        a = 2.0 * rng.normal(size=500)
        commutes = all(
            np.allclose(act.value(t * a, params), t * act.value(a, params))
            for t in (0.3, 2.0, 7.0)
        )
        assert act.homogeneous == commutes == (name != "hardtanh")

    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_a_network_with_no_bias_is_a_cone_unless_an_activation_is_hardtanh(self, rng, tag):
        net = network(tag, bias=False)
        assert is_cone(net) == (tag != "hardtanh(-0.5,0.7)")
        z = rng.normal(size=2)
        scaled_walk_is_scaled = np.allclose(chart_walk(net, 5.0 * z).x, 5.0 * chart_walk(net, z).x)
        assert scaled_walk_is_scaled == is_cone(net)

    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_a_network_with_a_bias_is_no_cone(self, tag):
        assert not is_cone(network(tag, bias=True))
        net = random_relu_network((2, 6, 5), seed=0)
        first, last = net.layers
        assert is_cone(net)
        assert not is_cone(GeneratorNetwork((first, Layer(last.weight, tag, np.zeros(5)))))

    def test_one_hardtanh_layer_makes_no_cone(self):
        first, last = random_relu_network((2, 6, 5), seed=0).layers
        assert not is_cone(GeneratorNetwork((Layer(first.weight, "hardtanh(-1,1)"), last)))

    @pytest.mark.parametrize("kind", ["standard-basis", "generic-orthonormal", "generic-linear"])
    def test_every_sparse_chart_is_a_cone(self, kind):
        charts = prior_charts(sparse_prior(6, 2, kind, seed=1))
        assert len(charts) == 15
        assert all(map(is_cone, charts))


def assert_is_reference_walk(x, J, net, z):
    """x and J have the bits of the reference walk's value and Jacobian."""
    x_ref, J_ref = reference_walk(net, z)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(J, J_ref)


class TestLayerWalk:
    """chart_walk and walk_jacobian on points, stacks and charts, against the reference walk."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_point_is_the_reference_walk(self, rng, tag, bias):
        net = network(tag, bias)
        for _ in range(10):
            z = rng.normal(size=2)
            x, J = walk(net, z)
            assert (x.shape, J.shape) == ((5,), (5, 2))
            assert_is_reference_walk(x, J, net, z)

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_stack_row_is_the_reference_walk(self, rng, tag, bias):
        net = network(tag, bias)
        Z = rng.normal(size=(9, 2))
        X, J = walk(net, Z)
        assert (X.shape, J.shape) == ((9, 5), (9, 5, 2))
        for z, x, j in zip(Z, X, J):
            assert_is_reference_walk(x, j, net, z)

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("tag", ACTIVATIONS)
    def test_chart_stack_lane_is_the_reference_walk_of_its_chart(self, rng, tag, bias):
        charts = [network(tag, bias, seed) for seed in (0, 1)]
        stack = chart_stack(charts)
        assert stack.lanes == 2
        assert (stack.latent_dim, stack.output_dim) == (2, 5)
        Z = rng.normal(size=(2, 2))
        X, J = walk(stack, Z)
        for chart, z, x, j in zip(charts, Z, X, J):
            assert_is_reference_walk(x, j, chart, z)

    def test_chart_stack_of_sparse_supports(self, rng):
        prior = sparse_prior(7, 3, "generic-linear", seed=2)
        params = latent_parametrizations(prior, np.random.default_rng(1))
        (z1, c1), (z2, c2) = next(params), next(params)
        stack = chart_stack((c1, c2))
        (layer,) = stack.layers
        np.testing.assert_array_equal(layer.weight, [c1.layers[0].weight, c2.layers[0].weight])
        X, J = walk(stack, np.stack([z1, z2]))
        for chart, z, x, j in zip((c1, c2), (z1, z2), X, J):
            np.testing.assert_array_equal(x, chart.layers[0].weight @ z)
            np.testing.assert_array_equal(j, chart.layers[0].weight)

    def test_one_chart_is_its_own_stack(self):
        net = network("relu", True)
        assert chart_stack((net, net)) is net
        assert net.lanes is None

    def test_charts_that_differ_in_layout_do_not_stack(self):
        relu, hardtanh = network("relu", True), network("hardtanh(-0.5,0.7)", True)
        for other in (hardtanh, network("relu", False), random_relu_network((2, 7, 5), seed=0)):
            with pytest.raises(DimensionError):
                chart_stack((relu, other))
        wide = GeneratorNetwork((Layer(np.ones((5, 3))),))
        with pytest.raises(DimensionError):
            chart_stack((GeneratorNetwork((Layer(np.ones((5, 2))),)), wide))

    def test_shapes_are_checked(self):
        net = network("relu", False)
        for bad in (np.ones(3), np.ones((4, 3)), np.ones((2, 2, 2))):
            with pytest.raises(DimensionError):
                chart_walk(net, bad)
        # a chart stack walks exactly one row per lane
        stack = chart_stack((net, network("relu", False, seed=1)))
        for bad in (np.ones(2), np.ones((3, 2)), np.ones((2, 3))):
            with pytest.raises(DimensionError):
                chart_walk(stack, bad)
        with pytest.raises(DimensionError):
            GeneratorNetwork((Layer(np.ones((2, 5, 2))), Layer(np.ones((3, 4, 5)))))
        with pytest.raises(DimensionError):
            Layer(np.ones((2, 5, 2)), bias=np.ones(5))

    def test_sparse_chart_is_its_basis_columns(self):
        prior = sparse_prior(7, 3, "generic-linear", seed=2)
        params = latent_parametrizations(prior, np.random.default_rng(5))
        ref = np.random.default_rng(5)
        for _ in range(6):
            # the draws of one restart: a sorted support, then its start
            support = np.sort(ref.choice(7, size=3, replace=False))
            z_ref = ref.normal(size=3)
            z0, net = next(params)
            np.testing.assert_array_equal(z0, z_ref)
            B = prior.basis[:, support]
            x, J = walk(net, z0)
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
        prior = sparse_prior(5, 2, seed=1)
        charts = prior_charts(prior)
        supports = list(combinations(range(5), 2))
        assert len(charts) == len(supports) == 10
        for chart, support in zip(charts, supports):
            (layer,) = chart.layers
            np.testing.assert_array_equal(layer.weight, prior.basis[:, list(support)])

    def test_unknown_prior_type(self):
        with pytest.raises(TypeError):
            next(latent_parametrizations(np.eye(3), np.random.default_rng(0)))


def one_layer_chart(kind):
    """The ambient network of R^4, or the chart of one support of a sparse prior."""
    if kind == "ambient":
        return ambient_network(4)
    return prior_charts(sparse_prior(6, 2, "generic-linear", seed=1))[3]


class TestOneLayerCharts:
    """A one-layer chart's walk keeps its contract on a stack and never hands out its weight."""

    @pytest.mark.parametrize("kind", ["ambient", "sparse-support"])
    def test_stack_gets_one_jacobian_per_row(self, rng, kind):
        chart = one_layer_chart(kind)
        Z = rng.normal(size=(3, chart.latent_dim))
        X, J = walk(chart, Z)
        assert J.shape == (3, chart.output_dim, chart.latent_dim)
        for z, x, j in zip(Z, X, J):
            assert_is_reference_walk(x, j, chart, z)

    @pytest.mark.parametrize("kind", ["ambient", "sparse-support", "two-lane-stack"])
    def test_no_jacobian_writes_into_a_weight(self, rng, kind):
        if kind == "two-lane-stack":
            charts = prior_charts(sparse_prior(6, 2, "generic-linear", seed=1))[:2]
            chart = chart_stack(charts)
            latents = [rng.normal(size=(2, 2))]
        else:
            chart = one_layer_chart(kind)
            K = chart.latent_dim
            latents = [rng.normal(size=K), rng.normal(size=(3, K))]
        (layer,) = chart.layers
        before = layer.weight.copy()
        for z in latents:
            J = walk_jacobian(chart_walk(chart, z))
            try:
                J[...] = 7.0
            except ValueError:          # a read-only view
                pass
            np.testing.assert_array_equal(layer.weight, before)


class TestImageDimension:
    def test_linear_rank_two(self, rng):
        # product of two rank-2 factors, no activations
        U = rng.normal(size=(7, 2))
        V = rng.normal(size=(2, 5))
        net = GeneratorNetwork((Layer(V, "identity"), Layer(U, "identity")))
        assert estimate_image_dimension(net) == 2

    def test_generic_relu_net_with_latent_two(self):
        net = random_relu_network((2, 7, 9), seed=1)
        assert estimate_image_dimension(net) == 2

    def test_constant_zero_net(self):
        net = GeneratorNetwork((Layer(np.zeros((4, 3)), "relu"),))
        assert estimate_image_dimension(net) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_one_stack_equals_one_walk_per_trial(self, seed):
        # the per-trial form: one draw of size K, one reference walk and one SVD each
        net = random_relu_network((3, 4, 6), seed=seed, activation="hardtanh(-0.3,0.3)")
        rng = np.random.default_rng(0)
        expected = 0
        for _ in range(priors.IMAGE_DIMENSION_TRIALS):
            _, J = reference_walk(net, rng.normal(size=3))
            expected = max(expected, priors.numerical_rank(np.linalg.svd(J, compute_uv=False)))
        assert estimate_image_dimension(net) == expected

    def test_never_exceeds_min_layer_width(self):
        for seed in range(10):
            widths = (3, 2, 6, 5)  # bottleneck width 2
            net = random_relu_network(widths, seed=seed)
            assert estimate_image_dimension(net) <= min(widths)


def sparse_draws(prior, n, seed):
    """n signals drawn as a run draws its starts: a random support's chart at a Gaussian point."""
    params = latent_parametrizations(prior, np.random.default_rng(seed))
    return [chart_walk(net, z).x for _, (z, net) in zip(range(n), params)]


class TestSparsePrior:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("N, M", [(1, 1), (6, 2), (9, 4)])
    def test_each_kind_draws_its_basis(self, N, M, seed):
        bases = {
            "standard-basis": real_fourier_matrix(N),
            "generic-orthonormal": sample_mixing(N, "special-orthogonal", seed),
            "generic-linear": sample_mixing(N, "general-linear", seed),
        }
        for kind, basis in bases.items():
            prior = sparse_prior(N, M, kind, seed=seed)
            np.testing.assert_array_equal(prior.basis, basis)
            assert (prior.sparsity, prior.kind) == (M, kind)
        default = sparse_prior(N, M, seed=seed)
        np.testing.assert_array_equal(default.basis, bases["generic-orthonormal"])
        assert default.kind == "generic-orthonormal"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sparse prior kind"):
            sparse_prior(4, 2, "generic-sparse")

    def test_two_sparse_in_generic_basis(self):
        prior = sparse_prior(10, 2, seed=5)
        for x in sparse_draws(prior, 10, seed=0):
            coeffs = prior.basis.T @ x
            assert np.sum(np.abs(coeffs) > 1e-12) == 2

    def test_generic_orthonormal_energies_strictly_positive(self):
        # distinguishes generic bases from standard-basis sparsity
        blocks = block_structure_for_power_spectrum(10)
        prior = sparse_prior(10, 2, seed=7)
        for x in sparse_draws(prior, 100, seed=0):
            assert np.all(second_moment_blocks(x, blocks) > 0)

    def test_standard_basis_prior_blockifies_time_deltas(self):
        prior = sparse_prior(8, 2, "standard-basis")
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
        np.testing.assert_array_equal(chart_walk(clone, z).x, chart_walk(net, z).x)

    def test_sparse_roundtrip(self):
        prior = sparse_prior(6, 2, seed=1)
        clone = sparse_prior_from_json(sparse_prior_to_json(prior))
        np.testing.assert_array_equal(clone.basis, prior.basis)
        assert clone.sparsity == prior.sparsity
        assert clone.kind == prior.kind
