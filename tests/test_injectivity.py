import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from momentlab import injectivity
from momentlab.injectivity import (
    brute_force_collision_oracle,
    codimension_probe,
    collision_search,
    regime_label,
    solution_dim_bound,
    threshold_sweep,
)
from momentlab.measurements import (
    BlockStructure,
    block_structure_for_power_spectrum,
    separable_measurement,
    to_real_fourier,
)
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    ambient_network,
    generic_orthonormal_sparse_prior,
    random_relu_network,
    sample_mixing,
    standard_basis_sparse_prior,
)


def loop_gl_probe_jacobian(A, x, y, blocks):
    """Reference form of the general-linear constraint Jacobian (one row at a time)."""
    N, R = blocks.N, blocks.R
    block_of_row = np.repeat(np.arange(R), blocks.dims)
    G = 2.0 * (A @ (np.outer(x, x) - np.outer(y, y)))
    J = np.zeros((R, N * N))
    for j in range(N):
        J[block_of_row[j], j * N:(j + 1) * N] = G[j]
    return J


def loop_so_probe_jacobian(A, x, y, blocks):
    """Reference form of the SO(N) constraint Jacobian (one generator at a time)."""
    N, R = blocks.N, blocks.R
    block_of_row = np.repeat(np.arange(R), blocks.dims)
    G = 2.0 * (A @ (np.outer(x, x) - np.outer(y, y)))
    H = G @ A.T
    J = np.zeros((R, N * (N - 1) // 2))
    a_idx, b_idx = np.triu_indices(N, 1)
    for col, (a, b) in enumerate(zip(a_idx, b_idx)):
        J[block_of_row[a], col] += H[a, b]
        J[block_of_row[b], col] -= H[b, a]
    return J


def probe_normalized(x, y, manifold):
    """The pair as codimension_probe rescales it before building constraints."""
    if manifold == "special-orthogonal":
        y = y * (np.linalg.norm(x) / np.linalg.norm(y))
    joint = max(np.linalg.norm(x), np.linalg.norm(y))
    return x / joint, y / joint


def probe_jacobian(monkeypatch, x, y, manifold, blocks):
    """The constraint Jacobian that codimension_probe hands to the solver."""
    seen = []
    solve = injectivity.damped_gauss_newton

    def spy(residual, jacobian, x0, **kwargs):
        seen.append(jacobian)
        return solve(residual, jacobian, x0, **kwargs)

    monkeypatch.setattr(injectivity, "damped_gauss_newton", spy)
    codimension_probe(x, y, manifold, blocks, seed=0, restarts=1, max_iter=1)
    return seen[0]


def pair_block_embedding_network(N: int, block_start: int) -> GeneratorNetwork:
    """K=2 generator mapping the latent plane onto one (cos, sin) pair block."""
    W = np.zeros((N, 2))
    W[block_start, 0] = 1.0
    W[block_start + 1, 1] = 1.0
    return GeneratorNetwork((Layer(W, "identity"),))


class TestCollisionSearch:
    def test_torus_orbit_collision_under_identity(self):
        N = 8
        blocks = block_structure_for_power_spectrum(N)
        rep = collision_search(
            ambient_network(N), np.eye(N), blocks, restarts=50, seed=42
        )
        assert rep.verdict == "collision"
        assert rep.residual < 1e-12
        assert rep.separation > 0.1
        # soundness: recompute both measurement vectors independently
        gap = separable_measurement(rep.x, np.eye(N), blocks) - separable_measurement(
            rep.y, np.eye(N), blocks
        )
        assert np.linalg.norm(gap) < 1e-8

    def test_sparse_shift_collision(self):
        N = 8
        blocks = block_structure_for_power_spectrum(N)
        prior = standard_basis_sparse_prior(N, 2)
        rep = collision_search(
            prior, np.eye(N), blocks, restarts=100, seed=7
        )
        assert rep.verdict == "collision"
        assert rep.residual < 1e-12
        # the found pair must be genuinely different signals
        assert rep.separation > 1e-3 * rep.scale

    def test_no_collision_for_relu_prior_in_gl_regime(self):
        # N = 9 >= 4M with image dimension M = 2
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 12, N), seed=3)
        A = sample_mixing(N, "general-linear", seed=11)
        rep = collision_search(prior, A, blocks, restarts=60, seed=0)
        assert rep.verdict == "no-collision-found"

    def test_sign_pair_never_reported(self):
        # even when the only measurement-equal pairs are sign pairs, the
        # separation requirement keeps them out of collision verdicts
        N = 6
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((1, 4, N), seed=2)
        rep = collision_search(
            prior, sample_mixing(N, "general-linear", 5), blocks, restarts=40, seed=1
        )
        if rep.verdict == "collision":
            assert rep.separation >= 1e-3 * rep.scale

    def test_rejects_zero_restarts(self):
        blocks = block_structure_for_power_spectrum(4)
        with pytest.raises(ValueError, match="restarts"):
            collision_search(ambient_network(4), np.eye(4), blocks, restarts=0)

    @pytest.mark.parametrize("K, seed, restarts, used", [(2, 3, 20, 6), (1, 0, 5, 5)])
    def test_one_solve_per_restart_used(self, spy_solves, K, seed, restarts, used):
        # N = 4 < 2M: the K=2 prior collides on its sixth restart, the K=1
        # prior uses every restart without a collision
        N = 4
        solves = spy_solves(injectivity)
        rep = collision_search(
            random_relu_network((K, 8, N), seed=seed),
            sample_mixing(N, "general-linear", seed=seed),
            block_structure_for_power_spectrum(N),
            restarts=restarts,
            seed=seed,
        )
        assert rep.restarts_used == used == len(solves)
        assert rep.verdict == ("collision" if used < restarts else "no-collision-found")

    def test_deterministic_given_seed(self):
        N = 8
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 6, N), seed=1)
        A = sample_mixing(N, "special-orthogonal", 3)
        r1 = collision_search(prior, A, blocks, restarts=10, seed=9)
        r2 = collision_search(prior, A, blocks, restarts=10, seed=9)
        assert r1.residual == r2.residual
        np.testing.assert_array_equal(r1.x, r2.x)


class TestBruteForceOracle:
    def test_constant_zero_generator(self):
        N = 5
        net = GeneratorNetwork((Layer(np.zeros((N, 2)), "identity"),))
        rep = brute_force_collision_oracle(
            net, np.eye(N), block_structure_for_power_spectrum(N), 21
        )
        assert rep.verdict == "no-collision-found"

    def test_dc_embedding_has_no_collision_beyond_sign(self):
        N = 5
        W = np.zeros((N, 1))
        W[0, 0] = 1.0
        net = GeneratorNetwork((Layer(W, "identity"),))
        rep = brute_force_collision_oracle(
            net, np.eye(N), block_structure_for_power_spectrum(N), 101
        )
        assert rep.verdict == "no-collision-found"

    def test_pair_block_embedding_collides(self):
        N = 7
        net = pair_block_embedding_network(N, 1)
        rep = brute_force_collision_oracle(
            net, np.eye(N), block_structure_for_power_spectrum(N), 41
        )
        assert rep.verdict == "collision"
        assert rep.residual < 1e-12

    def test_latent_dim_cap(self):
        net = random_relu_network((3, 5, 6), seed=0)
        with pytest.raises(ValueError):
            brute_force_collision_oracle(
                net, np.eye(6), block_structure_for_power_spectrum(6), 11
            )

    def test_point_cap_is_checked_before_any_forward_pass(self, monkeypatch):
        # 3 supports x 116^2 grid points = 40 368, just over the cap of 200^2;
        # 115^2 would give 39 675, just under it.
        prior = generic_orthonormal_sparse_prior(3, 2, seed=0)
        assert injectivity._ORACLE_POINTS == 200**2 < 3 * 116**2

        def forward(*args):
            raise AssertionError("the oracle evaluated the prior")

        monkeypatch.setattr(injectivity, "generator_forward", forward)
        with pytest.raises(ValueError, match="40368 points, above the cap of 40000"):
            brute_force_collision_oracle(prior, np.eye(3), block_structure_for_power_spectrum(3), 116)

    def test_memory_is_bounded_by_the_chunk_size(self):
        # 28 supports x 15^2 grid points: P = 6300 points, 3.7 times a 41^2 grid.
        # 512-row chunks would hold 512 x 6300 pairs per array (about 250 MB
        # over the arrays of one chunk); chunks of at most _ORACLE_CELLS pairs
        # keep the peak under 16 float arrays of that size.
        N = 8
        prior = generic_orthonormal_sparse_prior(N, 2, seed=1)
        A = sample_mixing(N, "special-orthogonal", 2)
        bound = 16 * injectivity._ORACLE_CELLS * 8
        tracemalloc.start()
        try:
            rep = brute_force_collision_oracle(prior, A, block_structure_for_power_spectrum(N), 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert rep.verdict == "no-collision-found"

    @pytest.mark.parametrize("kind", ["standard-basis", "generic-orthonormal"])
    def test_verdict_does_not_depend_on_the_chunks(self, monkeypatch, kind):
        # P = 15 supports x 9^2 grid points = 1215, small enough for one chunk
        N = 6
        if kind == "standard-basis":
            prior, A = standard_basis_sparse_prior(N, 2), np.eye(N)
            expected = "collision"
        else:
            prior = generic_orthonormal_sparse_prior(N, 2, seed=3)
            A = sample_mixing(N, "special-orthogonal", 4)
            expected = "no-collision-found"
        blocks = block_structure_for_power_spectrum(N)
        P = 15 * 9**2
        reports = []
        for cells in (P * P, 5 * P, injectivity._ORACLE_CELLS):
            monkeypatch.setattr(injectivity, "_ORACLE_CELLS", cells)
            reports.append(brute_force_collision_oracle(prior, A, blocks, 9))
        one_chunk = reports[0]
        assert one_chunk.verdict == expected
        for rep in reports[1:]:
            assert rep.verdict == one_chunk.verdict
            np.testing.assert_allclose(rep.residual, one_chunk.residual, rtol=1e-9, atol=1e-15)

    def test_agrees_with_search_on_seeded_instances(self):
        # mixed positive/negative instances, K <= 2 throughout
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        for seed in range(5):
            prior = random_relu_network((2, 12, N), seed=seed)
            A = sample_mixing(N, "general-linear", seed=100 + seed)
            search = collision_search(prior, A, blocks, restarts=40, seed=seed)
            oracle = brute_force_collision_oracle(prior, A, blocks, 41)
            assert search.verdict == oracle.verdict == "no-collision-found"
        for seed in range(3):
            net = pair_block_embedding_network(N, 1 + 2 * seed)
            search = collision_search(
                net, np.eye(N), blocks, restarts=40, seed=seed
            )
            oracle = brute_force_collision_oracle(
                net, np.eye(N), blocks, 41
            )
            assert search.verdict == oracle.verdict == "collision"


class TestCodimensionProbe:
    def test_bound_values(self):
        assert solution_dim_bound("general-linear", 8, 5) == 59
        assert solution_dim_bound("special-orthogonal", 7, 4) == 18
        assert solution_dim_bound("general-linear", 9, 3) == 78
        assert solution_dim_bound("special-orthogonal", 9, 3) == 34

    def test_so_n7_power_spectrum(self, rng):
        blocks = block_structure_for_power_spectrum(7)
        x, y = rng.normal(size=7), rng.normal(size=7)
        est = codimension_probe(x, y, "special-orthogonal", blocks, seed=0)
        assert est.ambient_dim == 21
        assert est.theoretical_bound == 18
        assert est.converged
        assert est.residual < 1e-9
        assert est.estimated_solution_dim == 18

    def test_gl_n8_power_spectrum(self, rng):
        blocks = block_structure_for_power_spectrum(8)
        x, y = rng.normal(size=8), rng.normal(size=8)
        est = codimension_probe(x, y, "general-linear", blocks, seed=0)
        assert est.ambient_dim == 64
        assert est.theoretical_bound == 59
        assert est.converged
        assert est.estimated_solution_dim == 59

    def test_gl_custom_blocks(self, rng):
        blocks = BlockStructure((1, 3, 5))
        hits = 0
        for i in range(5):
            x, y = rng.normal(size=9), rng.normal(size=9)
            est = codimension_probe(x, y, "general-linear", blocks, seed=i)
            assert est.theoretical_bound == 78
            if est.converged:
                assert est.estimated_solution_dim <= 78
                hits += est.estimated_solution_dim == 78
        assert hits >= 4

    def test_rejects_sign_equivalent_pair(self, rng):
        blocks = block_structure_for_power_spectrum(6)
        x = rng.normal(size=6)
        with pytest.raises(ValueError):
            codimension_probe(x, -x, "general-linear", blocks, seed=0)
        # scaled copies collapse to sign pairs on the rotation manifold
        with pytest.raises(ValueError):
            codimension_probe(x, 2.0 * x, "special-orthogonal", blocks, seed=0)

    def test_rejects_zero_restarts(self, rng):
        blocks = block_structure_for_power_spectrum(5)
        x, y = rng.normal(size=5), rng.normal(size=5)
        with pytest.raises(ValueError, match="restarts"):
            codimension_probe(x, y, "general-linear", blocks, restarts=0)

    @pytest.mark.parametrize("max_iter, used", [(3, 3), (2, 6)])
    def test_one_solve_per_restart_used(self, spy_solves, rng, max_iter, used):
        # three iterations reach the target from the third start; two never do
        blocks = block_structure_for_power_spectrum(7)
        x, y = rng.normal(size=7), rng.normal(size=7)
        solves = spy_solves(injectivity)
        est = codimension_probe(
            x, y, "special-orthogonal", blocks, seed=0, restarts=6, max_iter=max_iter
        )
        assert est.restarts_used == used == len(solves)
        assert est.converged == (used < 6)
        if not est.converged:
            assert est.residual == min(np.sqrt(s.f) for s in solves)

    @pytest.mark.parametrize("blocks", [
        block_structure_for_power_spectrum(7),
        block_structure_for_power_spectrum(16),
        BlockStructure((1, 3, 5)),
    ], ids=lambda b: str(b.dims))
    @pytest.mark.parametrize("manifold", ["general-linear", "special-orthogonal"])
    def test_jacobian_equals_loop_form(self, monkeypatch, rng, blocks, manifold):
        x, y = rng.normal(size=blocks.N), rng.normal(size=blocks.N)
        jac = probe_jacobian(monkeypatch, x, y, manifold, blocks)
        xn, yn = probe_normalized(x, y, manifold)
        loop = loop_gl_probe_jacobian if manifold == "general-linear" else loop_so_probe_jacobian
        for i in range(3):
            A = sample_mixing(blocks.N, manifold, i)
            np.testing.assert_array_equal(jac(A), loop(A, xn, yn, blocks))

    def test_singleton_block_factorization_at_solution(self, rng):
        # every singleton-block row of a solution is orthogonal to x - y or x + y
        blocks = block_structure_for_power_spectrum(8)
        for i in range(5):
            x = rng.normal(size=8)
            y = rng.normal(size=8)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)     # unit pair: probe normalization is a no-op
            est = codimension_probe(x, y, "general-linear", blocks, seed=i)
            assert est.converged and est.solution is not None
            for sl in blocks.slices():
                if sl.stop - sl.start != 1:
                    continue
                w = est.solution[sl.start]
                assert min(abs((x + y) @ w), abs((x - y) @ w)) < 1e-8


class TestSkewExponential:
    """The SO(N) probe's retraction map against scipy's general expm."""

    @pytest.mark.parametrize("N", range(2, 21))
    def test_matches_expm(self, N):
        rng = np.random.default_rng(N)
        for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0):   # spectral norm of K
            G = rng.normal(size=(N, N))
            K = scale * (G - G.T) / np.linalg.norm(G - G.T, 2)
            Q = injectivity._expm_skew(K)
            assert np.max(np.abs(Q - expm(K))) <= 1e-13
            assert np.max(np.abs(Q.T @ Q - np.eye(N))) <= 1e-13
            assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


class TestThresholdSweep:
    def test_regime_labels(self):
        assert regime_label(10, 2, "special-orthogonal") == "all-signals"
        assert regime_label(6, 2, "special-orthogonal") == "generic-signals"
        assert regime_label(3, 2, "special-orthogonal") == "below-threshold"
        assert regime_label(8, 2, "general-linear") == "all-signals"
        assert regime_label(4, 2, "general-linear") == "generic-signals"
        assert regime_label(3, 2, "general-linear") == "below-threshold"

    def test_small_sweep_no_collisions_above_threshold(self):
        family = lambda N, M, seed: random_relu_network((M, M + 6, N), seed=seed)
        result = threshold_sweep(
            family, [10], [2], "special-orthogonal", seeds=range(5), restarts=25
        )
        (cell,) = result.cells
        assert cell["regime"] == "all-signals"
        assert cell["collisions_found_fraction"] == 0.0
        assert len(result.rows) == 5
        assert all(r["verdict"] == "no-collision-found" for r in result.rows)

    def test_below_threshold_reported_not_asserted(self):
        family = lambda N, M, seed: random_relu_network((M, M + 4, N), seed=seed)
        result = threshold_sweep(
            family, [3], [2], "special-orthogonal", seeds=range(2), restarts=10
        )
        (cell,) = result.cells
        assert cell["regime"] == "below-threshold"
        assert 0.0 <= cell["collisions_found_fraction"] <= 1.0

    def test_seeds_from_a_generator_reach_every_cell(self):
        family = lambda N, M, seed: random_relu_network((M, M + 4, N), seed=seed)
        args = (family, [4, 6], [1], "special-orthogonal")
        from_list = threshold_sweep(*args, seeds=[0, 1], restarts=3)
        from_generator = threshold_sweep(*args, seeds=(s for s in [0, 1]), restarts=3)
        assert len(from_generator.rows) == 4
        assert from_generator.rows == from_list.rows
        assert from_generator.cells == from_list.cells
