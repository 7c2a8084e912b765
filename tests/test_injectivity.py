import hashlib
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from momentlab import injectivity
from momentlab.config import build_prior
from momentlab.injectivity import (
    brute_force_collision_oracle,
    codimension_probe,
    collision_search,
    regime_label,
    solution_dim_bound,
)
from momentlab.measurements import (
    BlockStructure,
    DimensionError,
    block_structure_for_power_spectrum,
    separable_measurement,
    to_real_fourier,
)
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    ambient_network,
    latent_parametrizations,
    random_relu_network,
    sample_mixing,
    sparse_prior,
)
from momentlab.presets import get_preset
from momentlab.runner import build_mixing

from reference import (
    REFERENCE_ORACLE_CELLS,
    brute_force_collision_oracle_reference,
    oracle_points,
    pair_collision_objective,
    regime_label_reference,
    so_probe_jacobian_scatter,
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


def probe_closures(monkeypatch, x, y, manifold, blocks):
    """The constraint Jacobian and the retraction that codimension_probe hands to the solver."""
    seen = []
    solve = injectivity.damped_gauss_newton

    def spy(residual, jacobian, x0, **kwargs):
        seen.append((jacobian, kwargs["retract"]))
        return solve(residual, jacobian, x0, **kwargs)

    monkeypatch.setattr(injectivity, "damped_gauss_newton", spy)
    monkeypatch.setattr(injectivity, "PROBE_MAX_ITER", 1)
    codimension_probe(x, y, manifold, blocks, seed=0, restarts=1)
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
        prior = sparse_prior(N, 2, "standard-basis")
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

    def test_a_search_without_collision_keeps_its_pair_at_scale(self):
        # the objective is flat along the ray through a pair, so a solve that
        # stalls there must stop rather than slide its pair toward zero
        N = 10
        prior = random_relu_network((2, 12, N), seed=5)
        A = sample_mixing(N, "special-orthogonal", seed=21)
        rep = collision_search(
            prior, A, block_structure_for_power_spectrum(N), restarts=8, seed=0
        )
        assert rep.verdict == "no-collision-found"
        assert rep.scale > 1e-3

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
            collision_search(ambient_network(4), np.eye(4), blocks, restarts=0, seed=0)

    def test_checks_mixing_and_prior_length_before_any_solve(self, spy_solves):
        # the objective runs unchecked cores, so the search checks its inputs once
        blocks = block_structure_for_power_spectrum(4)
        solves = spy_solves(injectivity)
        with pytest.raises(DimensionError, match="mixing has shape"):
            collision_search(ambient_network(4), np.eye(5), blocks, restarts=200, seed=0)
        with pytest.raises(DimensionError, match="prior signals have length 5"):
            collision_search(sparse_prior(5, 2), np.eye(4), blocks, restarts=200, seed=0)
        with pytest.raises(TypeError, match="unsupported prior type ndarray"):
            collision_search(np.eye(4), np.eye(4), blocks, restarts=200, seed=0)
        assert solves == []

    @pytest.mark.parametrize("K, seed, restarts, used", [(2, 3, 20, 6), (1, 0, 5, 5)])
    def test_one_solve_per_restart_used(self, spy_solves, K, seed, restarts, used):
        # N = 4 < 2M: the K=2 prior collides on its sixth restart, the K=1
        # prior uses every restart without a collision. The K=2 case guards
        # the solver's FTOL stop on a plateau: the sixth solve opens with
        # relative decreases of 5.3e-7, 1.3e-8 and 3.3e-10 before it falls
        # off. A stop on the actual decrease alone would end it there, and
        # the search would need 11 restarts; the linear model still predicts
        # more than FTOL, so the solve goes on and the search collides.
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

    def test_each_solve_gets_the_search_budget(self, monkeypatch):
        # The thm2-so search of perfbench collide draw 1. Its 17th solve
        # crawls along the separation hinge without colliding, and it ran 500
        # iterations before the budget was SEARCH_MAX_ITER.
        budgets, solves = [], []
        solve = injectivity.damped_gauss_newton

        def spy(*args, max_iter, **kwargs):
            budgets.append(max_iter)
            solves.append(solve(*args, max_iter=max_iter, **kwargs))
            return solves[-1]

        monkeypatch.setattr(injectivity, "damped_gauss_newton", spy)
        N = 10
        rep = collision_search(
            random_relu_network((2, 12, N), seed=5),
            sample_mixing(N, "special-orthogonal", seed=31),
            block_structure_for_power_spectrum(N),
            restarts=20,
            seed=10,
        )
        assert budgets == [injectivity.SEARCH_MAX_ITER] * 20
        assert solves[16].iterations == injectivity.SEARCH_MAX_ITER
        assert rep.solves_at_budget == 1
        assert rep.verdict == "no-collision-found" and rep.restarts_used == 20

    def test_solves_at_budget_reads_the_budget_at_call_time(self, monkeypatch, spy_solves):
        N = 10
        solves = spy_solves(injectivity)
        monkeypatch.setattr(injectivity, "SEARCH_MAX_ITER", 5)
        rep = collision_search(
            random_relu_network((2, 12, N), seed=5),
            sample_mixing(N, "special-orthogonal", seed=31),
            block_structure_for_power_spectrum(N),
            restarts=6,
            seed=10,
        )
        assert max(gn.iterations for gn in solves) == 5
        assert rep.solves_at_budget == sum(gn.iterations == 5 for gn in solves) > 0

    @pytest.mark.parametrize("case", [
        "ctrl-torus", "ctrl-sparse-shift", "plateau-guard", "threshold-N3-M2",
    ])
    def test_a_collision_is_found_well_within_the_budget(self, spy_solves, case):
        # Collisions are zero-residual basins, where a solve converges fast;
        # the solve that finds one keeps at least half the budget spare.
        if case.startswith("ctrl-"):
            params = get_preset(case).parameters()
            prior = build_prior(params["prior"])
            N = prior.output_dim
            A = build_mixing(params["mixing"], N)
            restarts, seed = params["restarts"], params["seed"]
        elif case == "plateau-guard":       # the K=2 case of test_one_solve_per_restart_used
            N, restarts, seed = 4, 20, 3
            prior = random_relu_network((2, 8, N), seed=seed)
            A = sample_mixing(N, "general-linear", seed=seed)
        else:       # the first-seed search of a threshold sweep's cell N=3, M=2
            N, restarts, seed = 3, 5, 0
            prior = build_prior({"type": "relu-network", "widths": [2, 6, N], "seed": seed})
            A = sample_mixing(N, "general-linear", np.random.SeedSequence((seed, 0xA)))
        solves = spy_solves(injectivity)
        rep = collision_search(
            prior, A, block_structure_for_power_spectrum(N), restarts=restarts, seed=seed
        )
        assert rep.verdict == "collision" and rep.restarts_used < restarts
        assert solves[-1].iterations <= injectivity.SEARCH_MAX_ITER // 2

    @pytest.mark.parametrize(
        "N, kind, restarts, seed",
        [(1, "identity", 3, 4), (2, "general-linear", 1, 0), (4, "identity", 2, 5)],
    )
    def test_reported_pair_replays_the_accepted_iterates(
        self, monkeypatch, N, kind, restarts, seed
    ):
        # The ambient prior's latent point is u = [x; y]. The report must be
        # the documented pick over the accepted iterates of every solve, in
        # order: the least raw / s**2 among separated pairs, or else the least
        # raw gap. A solve accepts exactly its strict running minima.
        solves = []
        solve = injectivity.damped_gauss_newton

        def spy(residual, jacobian, x0, **kwargs):
            evaluated = []
            solves.append(evaluated)

            def recorded(u):
                r = residual(u)
                evaluated.append((u.copy(), float(r @ r)))
                return r

            return solve(recorded, jacobian, x0, **kwargs)

        monkeypatch.setattr(injectivity, "damped_gauss_newton", spy)
        A = np.eye(N) if kind == "identity" else sample_mixing(N, kind, seed)
        blocks = block_structure_for_power_spectrum(N)
        rep = collision_search(ambient_network(N), A, blocks, restarts=restarts, seed=seed)

        best = fallback = None
        for evaluated in solves:
            f_min = None
            for u, f in evaluated:
                if f_min is not None and not f < f_min:
                    continue
                f_min = f
                x, y = u[:N], u[N:]
                raw = np.linalg.norm(
                    separable_measurement(x, A, blocks) - separable_measurement(y, A, blocks)
                )
                s = max(np.linalg.norm(x), np.linalg.norm(y))
                sep = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
                if s > 0 and sep >= injectivity.SEPARATION_TOL * s:
                    if best is None or raw / s**2 < best[0]:
                        best = (raw / s**2, x, y, raw, sep)
                if fallback is None or raw < fallback[3]:
                    fallback = (np.inf, x, y, raw, sep)
        _, x, y, raw, sep = best if best is not None else fallback
        assert len(solves) == rep.restarts_used
        np.testing.assert_array_equal(rep.x, x)
        np.testing.assert_array_equal(rep.y, y)
        assert rep.residual == raw and rep.separation == sep

    def test_deterministic_given_seed(self):
        N = 8
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 6, N), seed=1)
        A = sample_mixing(N, "special-orthogonal", 3)
        r1 = collision_search(prior, A, blocks, restarts=10, seed=9)
        r2 = collision_search(prior, A, blocks, restarts=10, seed=9)
        assert r1.residual == r2.residual
        np.testing.assert_array_equal(r1.x, r2.x)


def biased_network(tag, seed):
    """Layers (2 -> 7 -> 6 -> 5) with biases, each with activation ``tag``."""
    r = np.random.default_rng(seed)
    widths = (2, 7, 6, 5)
    return GeneratorNetwork(tuple(
        Layer(r.normal(size=(n_out, n_in)), tag, r.normal(size=n_out))
        for n_in, n_out in zip(widths, widths[1:])
    ))


def support_of(chart, prior):
    """The basis columns that a sparse prior's chart holds."""
    W = chart.layers[0].weight
    return [int(np.flatnonzero((prior.basis == col[:, None]).all(axis=0))[0]) for col in W.T]


class TestCollisionObjective:
    """The two-lane objective has the bits of the pair walked one signal at a time."""

    def check(self, spy_objectives, prior, seed, extra_points):
        N = prior.output_dim
        blocks = block_structure_for_power_spectrum(N)
        A = sample_mixing(N, "general-linear", seed=3)
        seen = spy_objectives(injectivity)
        collision_search(prior, A, blocks, restarts=1, seed=seed)
        residual, jacobian, u0 = seen[0]
        params = latent_parametrizations(prior, np.random.default_rng(seed))
        (z1, net1), (z2, net2) = next(params), next(params)
        np.testing.assert_array_equal(u0, np.concatenate([z1, z2]))
        ref_residual, ref_jacobian = pair_collision_objective(
            net1, net2, A, blocks, injectivity.SEPARATION_TOL
        )
        r = np.random.default_rng(seed)
        points = [r.normal(size=u0.shape) for _ in range(10)] + extra_points(net1, net2, r)
        rows = []
        for u in points:
            res = residual(u)
            np.testing.assert_array_equal(res, ref_residual(u))
            J = jacobian(u)
            np.testing.assert_array_equal(J, ref_jacobian(u))
            rows.append((res[-1], J[-1]))
            with pytest.raises(ValueError, match="last residual"):
                jacobian(u.copy())
        return net1, net2, rows

    @pytest.mark.parametrize("tag", ["relu", "leaky-relu(0.1)", "hardtanh(-0.5,0.7)"])
    def test_network_with_bias(self, spy_objectives, tag):
        def near_pair(net1, net2, r):
            z = r.normal(size=2)
            return [np.concatenate([z, z + 1e-7 * r.normal(size=2)]), np.concatenate([z, z])]

        _, _, rows = self.check(spy_objectives, biased_network(tag, 5), 2, near_pair)
        near, equal = rows[-2:]
        assert near[0] > 0 and np.any(near[1] != 0)     # the penalty is active
        assert not np.any(equal[1])                     # x = y: separation 0, no penalty row

    def test_two_sparse_supports(self, spy_objectives):
        prior = sparse_prior(5, 3, "generic-linear", seed=2)

        def special_points(net1, net2, r):
            # zero, then x ~ y and x ~ -y in the span of the shared basis columns
            shared = sorted(set(support_of(net1, prior)) & set(support_of(net2, prior)))
            x = prior.basis[:, shared] @ r.normal(size=len(shared))
            B1, B2 = net1.layers[0].weight, net2.layers[0].weight
            z1 = np.linalg.lstsq(B1, x, rcond=None)[0]
            z2 = np.linalg.lstsq(B2, x, rcond=None)[0] + 1e-7 * r.normal(size=3)
            return [np.zeros(6), np.concatenate([z1, z2]), np.concatenate([z1, -z2])]

        net1, net2, rows = self.check(spy_objectives, prior, 0, special_points)
        assert support_of(net1, prior) != support_of(net2, prior)
        zero, plus, minus = rows[-3:]
        assert zero[0] == np.sqrt(injectivity.PENALTY_WEIGHT) * injectivity.SEPARATION_TOL
        assert not np.any(zero[1])
        for penalty, row in (plus, minus):
            assert penalty > 0 and np.any(row != 0)


def oracle_instances():
    """(prior, mixing, layout, grid) the oracle's scan is checked on, by name.

    Criterion 4's ten instances, ``thm1-gl``'s prior under three mixings, a
    28-support sparse prior, a K = 1 network, the constant-zero generator,
    and two priors that are no cone: ``thm1-gl``'s network with hardtanh
    activations, and with a bias on its hidden layer.
    """
    N = 9
    blocks = block_structure_for_power_spectrum(N)
    out = {}
    for seed in range(5):
        A = sample_mixing(N, "general-linear", seed=100 + seed)
        out[f"relu-{seed}"] = (random_relu_network((2, 12, N), seed=seed), A, blocks, 41)
    for i in range(5):
        net = pair_block_embedding_network(N, 1 + 2 * (i % 4))
        out[f"embedding-{i}"] = (net, np.eye(N), blocks, 41)
    for mseed in (11, 21, 31):
        A = sample_mixing(N, "general-linear", seed=mseed)
        out[f"thm1-gl-{mseed}"] = (random_relu_network((2, 12, 9), seed=3), A, blocks, 41)
    out["sparse"] = (
        sparse_prior(8, 2, seed=1),
        sample_mixing(8, "special-orthogonal", 2),
        block_structure_for_power_spectrum(8),
        15,
    )
    A = sample_mixing(N, "general-linear", seed=5)
    out["latent-1"] = (random_relu_network((1, 8, N), seed=2), A, blocks, 101)
    zero = GeneratorNetwork((Layer(np.zeros((N, 2)), "identity"),))
    out["zero"] = (zero, np.eye(N), blocks, 21)
    A = sample_mixing(N, "general-linear", seed=11)
    hardtanh = random_relu_network((2, 12, N), seed=3, activation="hardtanh(-1,1)")
    out["hardtanh"] = (hardtanh, A, blocks, 41)
    hidden, last = random_relu_network((2, 12, N), seed=3).layers
    bias = np.random.default_rng(4).normal(size=12)
    out["bias"] = (GeneratorNetwork((Layer(hidden.weight, "relu", bias), last)), A, blocks, 41)
    return out


ORACLE_INSTANCES = oracle_instances()


def report_bits(rep):
    return rep.x.tobytes(), rep.y.tobytes(), rep.residual, rep.separation, rep.scale


def gram_digests(X, Meas, rows, stop):
    """Digests of the Gram entries <x_i, x_j> and <m_i, m_j>, i < stop and
    j > i, in row-major order, each computed in a chunk of ``rows`` rows as
    the oracle's scan computes them. A last chunk that would hold one row
    takes the next too; the reference form's chunks never hold one row on
    the instances checked."""
    digests = [hashlib.sha256(), hashlib.sha256()]
    P = len(X)
    for i0 in range(0, min(stop, P - 1), rows):
        I, J = slice(i0, min(i0 + rows, max(stop, i0 + 2), P)), slice(i0, P)
        keep = np.triu(np.ones((I.stop - i0, P - i0), bool), k=1)
        keep[stop - i0:] = False
        for digest, Y in zip(digests, (X, Meas)):
            digest.update((Y[I] @ Y[J].T)[keep].tobytes())
    return [digest.hexdigest() for digest in digests]


def assert_same_report(rep, want, X, Meas, stop, rows, want_rows):
    """``rep`` and ``want`` scan the points X, with measurements Meas, as
    rows up to ``stop``, in chunks of ``rows`` and ``want_rows`` rows.

    Each pair's normalized gap follows from its two Gram entries by the same
    elementwise operations, and the report's floats from the chosen pair's
    own vectors, so the reports are the same bits whenever the BLAS gives
    every Gram entry the same bits at both chunk sizes. Some
    OpenBLAS kernels (SkylakeX, Haswell and Nehalem among them) round an
    entry by where it falls in the chunk, and a near tie may then go to
    another pair. There the verdict must agree and the gap to rtol 1e-9.
    """
    if report_bits(rep) == report_bits(want):
        return
    assert gram_digests(X, Meas, rows, stop) != gram_digests(X, Meas, want_rows, stop), (
        "the same Gram entries gave another report"
    )
    assert rep.verdict == want.verdict
    np.testing.assert_allclose(rep.residual, want.residual, rtol=1e-9, atol=1e-15)


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
        # 115^2 would give 39 675, just under it. The supports are counted,
        # not built.
        prior = sparse_prior(3, 2, seed=0)
        assert injectivity.ORACLE_POINTS == 200**2 < 3 * 116**2

        def forward(*args):
            raise AssertionError("the oracle evaluated the prior")

        monkeypatch.setattr(injectivity, "chart_walk", forward)
        monkeypatch.setattr(injectivity, "prior_charts", forward)
        with pytest.raises(ValueError, match="40368 points, above the cap of 40000"):
            brute_force_collision_oracle(prior, np.eye(3), block_structure_for_power_spectrum(3), 116)

    def test_memory_is_bounded_by_the_chunk_size(self):
        # 28 supports x 15^2 grid points: P = 6300 points, 3.7 times a 41^2 grid.
        # Chunks of at most ORACLE_CELLS pairs (8 rows of 6300 here) keep the
        # peak under 16 float arrays of that size.
        N = 8
        prior = sparse_prior(N, 2, seed=1)
        A = sample_mixing(N, "special-orthogonal", 2)
        bound = 16 * injectivity.ORACLE_CELLS * 8
        tracemalloc.start()
        try:
            rep = brute_force_collision_oracle(prior, A, block_structure_for_power_spectrum(N), 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert rep.verdict == "no-collision-found"

    def test_a_41_by_41_grid_peaks_under_8_mib(self):
        # thm1-gl's instance: five float arrays of 32 x 1681 pairs take 2.2 MB
        prior, A, blocks, grid = ORACLE_INSTANCES["thm1-gl-11"]
        tracemalloc.start()
        try:
            brute_force_collision_oracle(prior, A, blocks, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("K, grid", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4)])
    def test_a_tiny_grid_takes_tiny_memory(self, K, grid):
        # at most 16 points: a chunk holds at most P rows, however many
        # ORACLE_CELLS // P would give, so its arrays and mask stay small
        prior = random_relu_network((K, 12, 9), seed=0)
        A = sample_mixing(9, "general-linear", seed=11)
        tracemalloc.start()
        try:
            brute_force_collision_oracle(prior, A, block_structure_for_power_spectrum(9), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_every_pair_after_its_row_is_scanned(self, monkeypatch, rows):
        # Five points, one pair (a, b) of them with the same block energies:
        # x_b is x_a with coordinate 1 negated, which keeps the energy of the
        # block {1, 2}. In chunks of any row count the oracle reports x_a, x_b,
        # so the triangle mask keeps every j > i, j = i + 1 included. A
        # hardtanh prior is no cone, so every point is a row.
        N, P = 9, 5
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((1, 4, N), seed=0, activation="hardtanh(-1,1)")
        monkeypatch.setattr(injectivity, "ORACLE_CELLS", rows * P)
        for a, b in combinations(range(P), 2):
            X = np.random.default_rng(0).standard_normal((P, N))
            X[b] = X[a]
            X[b, 1] *= -1
            monkeypatch.setattr(injectivity, "chart_walk", lambda net, lat: SimpleNamespace(x=X))
            rep = brute_force_collision_oracle(prior, np.eye(N), blocks, P)
            assert rep.verdict == "collision", (a, b)
            assert (rep.x.tobytes(), rep.y.tobytes()) == (X[a].tobytes(), X[b].tobytes()), (a, b)

    @pytest.mark.parametrize("rows", [2, 59, 118])
    def test_the_last_pair_keeps_its_bits_in_any_chunk(self, monkeypatch, rows):
        # P - 2 = 118 is a multiple of the row count, so the last chunk holds
        # the rows P - 2 and P - 1 alone. Its Gram product still has two
        # columns, as its columns start at its first row: a (2, 1) product
        # would go down BLAS's matrix-vector path. The last pair is the
        # collision, so every chunking must choose it. A hardtanh prior is no
        # cone, so every point is a row.
        N, P = 9, 120
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((1, 4, N), seed=0, activation="hardtanh(-1,1)")
        X = np.random.default_rng(7).standard_normal((P, N))
        X[-1] = X[-2]
        X[-1, 1] *= -1
        monkeypatch.setattr(injectivity, "chart_walk", lambda net, lat: SimpleNamespace(x=X))
        Meas = separable_measurement(X, np.eye(N), blocks)
        monkeypatch.setattr(injectivity, "ORACLE_CELLS", P * P)
        one_chunk = brute_force_collision_oracle(prior, np.eye(N), blocks, P)
        assert (one_chunk.x.tobytes(), one_chunk.y.tobytes()) == (X[-2].tobytes(), X[-1].tobytes())
        monkeypatch.setattr(injectivity, "ORACLE_CELLS", rows * P)
        rep = brute_force_collision_oracle(prior, np.eye(N), blocks, P)
        assert_same_report(rep, one_chunk, X, Meas, P, rows, P)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 11])
    def test_a_cone_prior_scans_the_pairs_with_a_boundary_point(self, monkeypatch, rows):
        # A 4 x 4 grid of a ReLU prior: 12 boundary points, then the 4 interior
        # ones (5, 6, 9, 10). One pair (a, b) of its points has the same block
        # energies, as above. A pair with a boundary point is reported, in
        # scan order; a pair of two interior points is never scanned. At 11
        # rows the last chunk would hold row 11 alone: it takes the interior
        # row 12 too and masks it out. The coordinates are nonzero integers,
        # so every Gram entry is exact and the pair's gap is 0.
        N, grid = 9, 4
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 4, N), seed=0)
        P = grid**2
        interior = [5, 6, 9, 10]
        order = [p for p in range(P) if p not in interior] + interior
        monkeypatch.setattr(injectivity, "ORACLE_CELLS", rows * P)
        for a, b in combinations(range(P), 2):
            rng = np.random.default_rng(0)
            X = rng.integers(1, 10, size=(P, N)) * rng.choice([-1.0, 1.0], size=(P, N))
            X[b] = X[a]
            X[b, 1] *= -1
            monkeypatch.setattr(injectivity, "chart_walk", lambda net, lat: SimpleNamespace(x=X))
            rep = brute_force_collision_oracle(prior, np.eye(N), blocks, grid)
            if a in interior and b in interior:
                assert rep.verdict == "no-collision-found", (a, b)
                continue
            first, second = sorted((a, b), key=order.index)
            assert rep.verdict == "collision", (a, b)
            assert (rep.x.tobytes(), rep.y.tobytes()) == (X[first].tobytes(), X[second].tobytes())

    def test_an_exact_collision_reports_its_direct_gap(self, monkeypatch):
        # A 4 x 4 grid of a ReLU prior whose points are standard-normal, with
        # x_5 = x_4 but coordinate 1 negated: the same block energies, so the
        # pair collides exactly. Its Gram-form gap cancels to 1.19e-7 at
        # scale 3.11, 1.2e-8 of s^2, above RESIDUAL_TOL; the report gives
        # the pair's own gap, ||m_4 - m_5|| = 0.
        N, grid = 9, 4
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 4, N), seed=0)
        X = np.random.default_rng(0).standard_normal((grid**2, N))
        X[5] = X[4]
        X[5, 1] *= -1
        monkeypatch.setattr(injectivity, "chart_walk", lambda net, lat: SimpleNamespace(x=X))
        rep = brute_force_collision_oracle(prior, np.eye(N), blocks, grid)
        assert (rep.x.tobytes(), rep.y.tobytes()) == (X[4].tobytes(), X[5].tobytes())
        Meas = separable_measurement(X[4:6], np.eye(N), blocks)
        norms2 = np.einsum("ij,ij->i", Meas, Meas)
        gram_gap = np.sqrt(max(norms2.sum() - 2 * (Meas @ Meas.T)[0, 1], 0.0))
        assert gram_gap > injectivity.RESIDUAL_TOL * rep.scale**2
        assert rep.residual == np.linalg.norm(Meas[0] - Meas[1]) == 0.0
        assert rep.separation == min(np.linalg.norm(X[4] - X[5]), np.linalg.norm(X[4] + X[5]))
        assert rep.verdict == "collision"

    @pytest.mark.parametrize("kind", ["standard-basis", "generic-orthonormal"])
    def test_verdict_does_not_depend_on_the_chunks(self, monkeypatch, kind):
        # P = 15 supports x 9^2 grid points = 1215, small enough for one chunk
        N = 6
        if kind == "standard-basis":
            prior, A = sparse_prior(N, 2, "standard-basis"), np.eye(N)
            expected = "collision"
        else:
            prior = sparse_prior(N, 2, seed=3)
            A = sample_mixing(N, "special-orthogonal", 4)
            expected = "no-collision-found"
        blocks = block_structure_for_power_spectrum(N)
        P = 15 * 9**2
        X, Meas, stop = oracle_points(prior, A, blocks, 9)
        default_rows = injectivity.ORACLE_CELLS // P
        monkeypatch.setattr(injectivity, "ORACLE_CELLS", P * P)
        one_chunk = brute_force_collision_oracle(prior, A, blocks, 9)
        assert one_chunk.verdict == expected
        for rows in (5, default_rows):
            monkeypatch.setattr(injectivity, "ORACLE_CELLS", rows * P)
            rep = brute_force_collision_oracle(prior, A, blocks, 9)
            assert_same_report(rep, one_chunk, X, Meas, stop, rows, P)

    @pytest.mark.parametrize("name", ORACLE_INSTANCES)
    def test_scan_is_the_reference_form_bit_for_bit(self, monkeypatch, name):
        prior, A, blocks, grid = ORACLE_INSTANCES[name]
        want = brute_force_collision_oracle_reference(prior, A, blocks, grid)
        X, Meas, stop = oracle_points(prior, A, blocks, grid)
        P = len(X)
        want_rows = max(1, REFERENCE_ORACLE_CELLS // P)
        # 1 pair asks for chunks of 0 rows and gets the floor of two; the
        # reference's own size gives its chunks
        for cells in (1, 3 * P, injectivity.ORACLE_CELLS, REFERENCE_ORACLE_CELLS):
            monkeypatch.setattr(injectivity, "ORACLE_CELLS", cells)
            rep = brute_force_collision_oracle(prior, A, blocks, grid)
            rows = max(2, min(P, cells // P))
            assert_same_report(rep, want, X, Meas, stop, rows, want_rows)

    def test_a_cone_scan_keeps_the_full_scans_verdict(self, monkeypatch):
        # Each instance above, and the benchmark's thm1-gl-oracle prior at the
        # mixing seeds of its 100 draws at seed 0, with every prior taken as
        # no cone, so that every pair is scanned.
        instances = list(ORACLE_INSTANCES.values())
        prior = random_relu_network((2, 12, 9), seed=3)
        blocks = block_structure_for_power_spectrum(9)
        for mseed in range(11, 1002, 10):
            instances.append((prior, sample_mixing(9, "general-linear", seed=mseed), blocks, 41))
        cone = [brute_force_collision_oracle(*instance).verdict for instance in instances]
        monkeypatch.setattr(injectivity, "is_cone", lambda net: False)
        full = [brute_force_collision_oracle(*instance).verdict for instance in instances]
        assert cone == full
        assert cone.count("collision") == 5        # the five pair-block embeddings

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
        est = codimension_probe(x, y, "special-orthogonal", blocks, seed=0, restarts=50)
        assert est.ambient_dim == 21
        assert est.theoretical_bound == 18
        assert est.converged
        assert est.residual < 1e-9
        assert est.estimated_solution_dim == 18

    def test_gl_n8_power_spectrum(self, rng):
        blocks = block_structure_for_power_spectrum(8)
        x, y = rng.normal(size=8), rng.normal(size=8)
        est = codimension_probe(x, y, "general-linear", blocks, seed=0, restarts=50)
        assert est.ambient_dim == 64
        assert est.theoretical_bound == 59
        assert est.converged
        assert est.estimated_solution_dim == 59

    def test_gl_custom_blocks(self, rng):
        blocks = BlockStructure((1, 3, 5))
        hits = 0
        for i in range(5):
            x, y = rng.normal(size=9), rng.normal(size=9)
            est = codimension_probe(x, y, "general-linear", blocks, seed=i, restarts=50)
            assert est.theoretical_bound == 78
            if est.converged:
                assert est.estimated_solution_dim <= 78
                hits += est.estimated_solution_dim == 78
        assert hits >= 4

    def test_rejects_sign_equivalent_pair(self, rng):
        blocks = block_structure_for_power_spectrum(6)
        x = rng.normal(size=6)
        with pytest.raises(ValueError):
            codimension_probe(x, -x, "general-linear", blocks, seed=0, restarts=50)
        # scaled copies collapse to sign pairs on the rotation manifold
        with pytest.raises(ValueError):
            codimension_probe(x, 2.0 * x, "special-orthogonal", blocks, seed=0, restarts=50)

    def test_rejects_zero_restarts(self, rng):
        blocks = block_structure_for_power_spectrum(5)
        x, y = rng.normal(size=5), rng.normal(size=5)
        with pytest.raises(ValueError, match="restarts"):
            codimension_probe(x, y, "general-linear", blocks, seed=0, restarts=0)

    @pytest.mark.parametrize("max_iter, used", [(3, 3), (2, 6)])
    def test_one_solve_per_restart_used(self, monkeypatch, spy_solves, rng, max_iter, used):
        # three iterations reach the target from the third start; two never do
        blocks = block_structure_for_power_spectrum(7)
        x, y = rng.normal(size=7), rng.normal(size=7)
        solves = spy_solves(injectivity)
        monkeypatch.setattr(injectivity, "PROBE_MAX_ITER", max_iter)
        est = codimension_probe(x, y, "special-orthogonal", blocks, seed=0, restarts=6)
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
        jac, _ = probe_closures(monkeypatch, x, y, manifold, blocks)
        xn, yn = probe_normalized(x, y, manifold)
        loop = loop_gl_probe_jacobian if manifold == "general-linear" else loop_so_probe_jacobian
        for i in range(3):
            A = sample_mixing(blocks.N, manifold, i)
            np.testing.assert_array_equal(jac(A), loop(A, xn, yn, blocks))

    @pytest.mark.parametrize("blocks", [
        block_structure_for_power_spectrum(7),
        block_structure_for_power_spectrum(20),
        BlockStructure((1, 3, 5)),
        BlockStructure((4,)),
    ], ids=lambda b: str(b.dims))
    def test_so_jacobian_equals_scatter_oracle(self, monkeypatch, rng, blocks):
        # the one-hot products give every entry of the np.add.at scatter
        x, y = rng.normal(size=blocks.N), rng.normal(size=blocks.N)
        jac, _ = probe_closures(monkeypatch, x, y, "special-orthogonal", blocks)
        xn, yn = probe_normalized(x, y, "special-orthogonal")
        for i in range(3):
            A = sample_mixing(blocks.N, "special-orthogonal", i)
            np.testing.assert_array_equal(jac(A), so_probe_jacobian_scatter(A, xn, yn, blocks))

    @pytest.mark.parametrize("manifold", ["general-linear", "special-orthogonal"])
    def test_geometry_is_read_only_and_shared(self, monkeypatch, rng, manifold):
        blocks = block_structure_for_power_spectrum(9)
        geometry = injectivity._probe_geometry(manifold, blocks)
        assert injectivity._probe_geometry(manifold, BlockStructure(blocks.dims)) is geometry
        for cached in geometry:
            with pytest.raises(ValueError):
                cached[0, ...] = 0
        seen = []
        build = injectivity._probe_geometry

        def spy(*args):
            seen.append(build(*args))
            return seen[-1]

        monkeypatch.setattr(injectivity, "_probe_geometry", spy)
        for seed in (0, 1):
            x, y = rng.normal(size=9), rng.normal(size=9)
            codimension_probe(x, y, manifold, blocks, seed=seed, restarts=1)
        assert len(seen) == 2 and all(g is geometry for g in seen)

    @pytest.mark.parametrize("blocks", [
        block_structure_for_power_spectrum(7),
        block_structure_for_power_spectrum(16),
        BlockStructure((1, 3, 5)),
    ], ids=lambda b: str(b.dims))
    @pytest.mark.parametrize("manifold", ["general-linear", "special-orthogonal"])
    def test_residual_is_the_measurement_gap(
        self, monkeypatch, spy_objectives, rng, blocks, manifold
    ):
        x, y = rng.normal(size=blocks.N), rng.normal(size=blocks.N)
        seen = spy_objectives(injectivity)
        monkeypatch.setattr(injectivity, "PROBE_MAX_ITER", 1)
        codimension_probe(x, y, manifold, blocks, seed=0, restarts=1)
        residual, _, A0 = seen[0]
        xn, yn = probe_normalized(x, y, manifold)
        for A in [A0] + [sample_mixing(blocks.N, manifold, i) for i in range(3)]:
            gap = separable_measurement(xn, A, blocks) - separable_measurement(yn, A, blocks)
            np.testing.assert_array_equal(residual(A), gap)

    def test_singleton_block_factorization_at_solution(self, rng):
        # every singleton-block row of a solution is orthogonal to x - y or x + y
        blocks = block_structure_for_power_spectrum(8)
        for i in range(5):
            x = rng.normal(size=8)
            y = rng.normal(size=8)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)     # unit pair: probe normalization is a no-op
            est = codimension_probe(x, y, "general-linear", blocks, seed=i, restarts=50)
            assert est.converged and est.solution is not None
            for sl in blocks.slices():
                if sl.stop - sl.start != 1:
                    continue
                w = est.solution[sl.start]
                assert min(abs((x + y) @ w), abs((x - y) @ w)) < 1e-8


class TestCayleyRetraction:
    """The SO(N) probe's retraction: the Cayley transform of the step's skew generator."""

    @pytest.mark.parametrize("N", range(2, 21))
    def test_orthogonal_and_third_order_close_to_expm(self, monkeypatch, N):
        rng = np.random.default_rng(N)
        blocks = BlockStructure((1,) * N)
        _, retract = probe_closures(
            monkeypatch, rng.normal(size=N), rng.normal(size=N), "special-orthogonal", blocks
        )
        A = sample_mixing(N, "special-orthogonal", rng)
        for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1, 1.0, 10.0):   # spectral norm of K
            step = rng.normal(size=N * (N - 1) // 2)
            S = np.zeros((N, N))
            S[np.triu_indices(N, 1)] = step
            norm = np.linalg.norm(S - S.T, 2)
            step *= scale / norm
            K = (S - S.T) * (scale / norm)
            Q = retract(np.eye(N), step)
            assert np.max(np.abs(Q.T @ Q - np.eye(N))) <= 1e-13
            assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)
            # on each eigenvalue i theta of K the two maps turn by 2 atan(theta / 2)
            # and theta, which differ by at most theta^3 / 12
            assert np.linalg.norm(Q - expm(K), 2) <= scale**3 / 12 + 1e-14
            np.testing.assert_allclose(retract(A, step), Q @ A, rtol=0, atol=1e-14)


def test_verdict_boundaries():
    """A report's verdict is a fixed function of its residual, separation and scale."""

    def verdict(residual, separation, scale):
        x = np.zeros(2)
        return injectivity.CollisionReport(x, x, residual, separation, scale, 0).verdict

    s = 3.0
    at_residual = injectivity.RESIDUAL_TOL * s**2
    at_separation = injectivity.SEPARATION_TOL * s
    assert verdict(0.0, 0.0, 0.0) == "no-collision-found"
    assert verdict(at_residual, at_separation, s) == "collision"
    assert verdict(np.nextafter(at_residual, np.inf), at_separation, s) == "no-collision-found"
    assert verdict(at_residual, np.nextafter(at_separation, 0.0), s) == "no-collision-found"


class TestThresholdSweep:
    def test_regime_labels(self):
        def label(N, M, kind):
            return regime_label(block_structure_for_power_spectrum(N).R, M, kind)

        assert label(10, 2, "special-orthogonal") == "all-signals"
        assert label(6, 2, "special-orthogonal") == "generic-signals"
        assert label(3, 2, "special-orthogonal") == "below-threshold"
        assert label(8, 2, "general-linear") == "all-signals"
        assert label(4, 2, "general-linear") == "generic-signals"
        assert label(3, 2, "general-linear") == "below-threshold"
        assert label(10, 2, "identity") == "non-generic"

    def test_the_block_count_form_gives_the_signal_length_form_on_the_power_spectrum(self):
        # R = floor(N/2) + 1: floor(N/2) >= 2M iff N >= 4M, and so on
        for N in range(1, 301):
            R = block_structure_for_power_spectrum(N).R
            for M in range(1, N + 1):
                for kind in ("general-linear", "special-orthogonal", "identity"):
                    assert regime_label(R, M, kind) == regime_label_reference(N, M, kind)

    def test_a_custom_layout_is_labelled_by_its_block_count(self):
        # one block of 10: R = 1; ten blocks of one: R = 10, above 2M + 2
        for kind in ("general-linear", "special-orthogonal"):
            assert regime_label(BlockStructure((10,)).R, 1, kind) == "below-threshold"
            assert regime_label(BlockStructure((1,) * 10).R, 1, kind) == "all-signals"
            assert regime_label(BlockStructure((1, 1, 2, 2, 2, 2)).R, 1, kind) == "all-signals"
        # general-linear keeps all R invariants, special-orthogonal R - 1
        assert regime_label(3, 1, "general-linear") == "all-signals"
        assert regime_label(3, 1, "special-orthogonal") == "generic-signals"
        assert regime_label(2, 1, "special-orthogonal") == "below-threshold"
        assert regime_label(1, 1, "identity") == "non-generic"
        with pytest.raises(ValueError, match="unknown mixing kind"):
            regime_label(1, 1, "bogus")
