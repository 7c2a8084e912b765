import csv
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from momentlab import mra, runner
from momentlab.config import ExperimentConfig, build_mixing, build_prior
from momentlab.gaussnewton import damped_gauss_newton
from momentlab.measurements import (
    BlockStructure,
    DimensionError,
    block_structure_for_power_spectrum,
    second_moment_blocks,
    to_real_fourier,
)
from momentlab.mra import (
    _CHUNK_ROWS,
    GroupAction,
    _orbit_matrices,
    draw_ground_truth,
    exact_population_moment,
    instance_noise_amplification,
    recover,
    sample_complexity_sweep,
    select_conditioned_instance,
    simulate_invariants,
    simulate_second_moment,
)
from momentlab.presets import get_preset
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    chart_walk,
    latent_parametrizations,
    random_relu_network,
    sample_mixing,
    sparse_prior,
)
from momentlab.so3 import (
    _real_basis_transform,
    _rotation_factors,
    _y_generator_eig,
    haar_euler_angles,
    rotate_bandlimited,
)

from reference import (
    action_matrix,
    critical_angles_reference,
    extract_invariants,
    full_sample_complexity_scan,
    recover_objective,
)


@pytest.fixture
def sector_builds(monkeypatch):
    """The sector tables that ``recover`` builds, from an empty sector-search memo."""
    monkeypatch.setattr(mra, "_SEARCH_MEMO", {})
    nets = []
    build = mra.cone_sectors

    def spy(net):
        nets.append(net)
        return build(net)

    monkeypatch.setattr(mra, "cone_sectors", spy)
    return nets


def memo_instances():
    """Two sector-path instances (prior, mixing, blocks), differing in the mixing, and invariants."""
    blocks = block_structure_for_power_spectrum(8)
    prior = random_relu_network((2, 10, 8), seed=11)
    A = sample_mixing(8, "special-orthogonal", 11)
    B = sample_mixing(8, "special-orthogonal", 12)
    inv = second_moment_blocks(A @ chart_walk(prior, np.array([0.3, -0.2])).x, blocks) + 0.01
    return (prior, A, blocks), (prior, B, blocks), inv


def sector_scores(W, theta, invariants, A, blocks):
    """The best ray's score at each angle through one sector's linear map W (N, 2)."""
    U = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return mra._ray_fits(U @ W.T, invariants, A, blocks)[0]


def group_elements(group, rng, n):
    """Every element of a finite group; n Haar-random rotations for SO(3)."""
    if group.kind == "cyclic":
        return list(range(group.N))
    if group.kind == "dihedral":
        return [(s, r) for r in (0, 1) for s in range(group.N)]
    return haar_euler_angles(rng, n)


class TestGroupAction:
    def test_identity_elements(self, rng):
        for group in (GroupAction("cyclic", 7), GroupAction("dihedral", 6), GroupAction.sphere(3)):
            x = rng.normal(size=group.N)
            e = 0 if group.kind == "cyclic" else (0, 0) if group.kind == "dihedral" else (0, 0, 0)
            np.testing.assert_allclose(action_matrix(e, group) @ x, x, atol=1e-12)

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    def test_orbit_matrices_match_explicit_permutations(self, kind, N):
        # element s is the shift by s, dihedral element N + s that shift
        # after the reversal; the oracle permutes an identity, not F^T's rows
        group = GroupAction(kind, N)
        orbit = _orbit_matrices(kind, N)
        elements = group_elements(group, None, 0)
        assert orbit.shape == (len(elements), N, N)
        for g, element in enumerate(elements):
            np.testing.assert_allclose(orbit[g], action_matrix(element, group), rtol=0, atol=1e-12)

    def test_cached_matrices_are_read_only(self):
        before = _orbit_matrices("cyclic", 4).copy()
        with pytest.raises(ValueError):
            _orbit_matrices("cyclic", 4)[0, 0, 0] = 2.0
        np.testing.assert_array_equal(_orbit_matrices("cyclic", 4), before)
        with pytest.raises(ValueError):
            _orbit_matrices("dihedral", 4)[5, 0, 0] = 2.0
        for cached in (*_y_generator_eig(2), _real_basis_transform(2), *_rotation_factors(2)):
            with pytest.raises(ValueError):
                cached[0, ...] = 0.0

    def test_cyclic_inverse(self, rng):
        group = GroupAction("cyclic", 9)
        x = rng.normal(size=9)
        for s in (1, 4, 8):
            y = action_matrix(s, group) @ x
            np.testing.assert_allclose(action_matrix(9 - s, group) @ y, x, atol=1e-12)

    def test_action_matches_time_domain_shift(self, rng):
        # block-coordinate action = transform of the plain circular shift
        N = 8
        group = GroupAction("cyclic", N)
        v = rng.normal(size=N)
        for s in range(N):
            lhs = action_matrix(s, group) @ to_real_fourier(v)
            rhs = to_real_fourier(np.roll(v, s))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dihedral_reflection_matches_time_reversal(self, rng):
        N = 7
        group = GroupAction("dihedral", N)
        v = rng.normal(size=N)
        lhs = action_matrix((0, 1), group) @ to_real_fourier(v)
        # time reversal t -> -t fixes index 0; numpy reversal is the reversal
        # composed with a shift by N-1, so undo that with one more shift
        rhs = action_matrix(1, GroupAction("cyclic", N)) @ to_real_fourier(v[::-1].copy())
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matrices_orthogonal_and_block_diagonal(self, rng):
        for group in (GroupAction("cyclic", 8), GroupAction("dihedral", 5), GroupAction.sphere(2)):
            blocks = group.blocks
            for g in group_elements(group, rng, 20):
                M = action_matrix(g, group)
                np.testing.assert_allclose(M @ M.T, np.eye(group.N), atol=1e-10)
                off = M.copy()
                for sl in blocks.slices():
                    off[sl, sl] = 0.0
                assert np.max(np.abs(off)) < 1e-12

    def test_norm_and_moment_invariance(self, rng):
        for group in (GroupAction("cyclic", 9), GroupAction("dihedral", 8), GroupAction.sphere(4)):
            blocks = group.blocks
            x = rng.normal(size=group.N)
            base = second_moment_blocks(x, blocks)
            for g in group_elements(group, rng, 100):
                y = action_matrix(g, group) @ x
                assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-10
                np.testing.assert_allclose(
                    second_moment_blocks(y, blocks), base, atol=1e-10 * max(1, base.max())
                )

    def test_cyclic_and_dihedral_share_invariants(self, rng):
        # reflections preserve block energies, so both groups determine the
        # same invariant vector
        N = 8
        x = rng.normal(size=N)
        blocks = block_structure_for_power_spectrum(N)
        inv_c = extract_invariants(
            exact_population_moment(x, GroupAction("cyclic", N)), blocks
        )
        inv_d = extract_invariants(
            exact_population_moment(x, GroupAction("dihedral", N)), blocks
        )
        np.testing.assert_allclose(inv_c, inv_d, atol=1e-12)
        np.testing.assert_allclose(inv_c, second_moment_blocks(x, blocks), atol=1e-12)

    def test_so3_per_degree_energy_preserved(self, rng):
        group = GroupAction.sphere(4)
        x = rng.normal(size=25)
        base = second_moment_blocks(x, group.blocks)
        for _ in range(10):
            y = action_matrix(haar_euler_angles(rng, 1)[0], group) @ x
            np.testing.assert_allclose(
                second_moment_blocks(y, group.blocks), base, atol=1e-8
            )


def one_shot_observations(x, group, n, sigma, seed):
    """Reference form: every group element, then all the noise, in single draws."""
    rng = np.random.default_rng(seed)
    if group.kind in ("cyclic", "dihedral"):
        orbit = _orbit_matrices(group.kind, group.N) @ x
        clean = orbit[rng.integers(0, orbit.shape[0], size=n)]
    else:
        clean = rotate_bandlimited(group.L, haar_euler_angles(rng, size=n), x)
    return clean if sigma == 0 else clean + rng.normal(0.0, sigma, size=(n, group.N))


def one_shot_moment(Y, sigma):
    """Reference form: the debiased moment (1/n) sum y y^T - sigma^2 I, symmetrized."""
    M = (Y.T @ Y) / Y.shape[0] - sigma**2 * np.eye(Y.shape[1])
    return 0.5 * (M + M.T)


def streamed_observations(x, group, n, sigma, seed):
    """The observations ``simulate_second_moment`` draws, joined."""
    return np.concatenate(
        list(mra._observation_chunks(x, group, n, sigma, np.random.default_rng(seed)))
    )


STREAMED_CASES = [
    (GroupAction("cyclic", 8), 2 * _CHUNK_ROWS + 5, 0.7),
    (GroupAction("dihedral", 5), _CHUNK_ROWS + 1, 0.0),
    (GroupAction.sphere(1), _CHUNK_ROWS + 3, 0.2),
    (GroupAction.sphere(4), 2 * _CHUNK_ROWS + 7, 0.5),
]
STREAMED_IDS = ["cyclic", "dihedral", "so3", "so3-L4"]


class TestSimulate:
    @pytest.mark.parametrize("group, n, sigma", STREAMED_CASES, ids=STREAMED_IDS)
    def test_chunked_draws_equal_one_shot_draws(self, group, n, sigma):
        x = np.random.default_rng(group.N).normal(size=group.N)
        np.testing.assert_array_equal(
            streamed_observations(x, group, n, sigma, 7),
            one_shot_observations(x, group, n, sigma, 7),
        )

    @pytest.mark.parametrize("group, n, sigma", STREAMED_CASES, ids=STREAMED_IDS)
    def test_streamed_moment_matches_full_estimate(self, group, n, sigma):
        x = np.random.default_rng(group.N).normal(size=group.N)
        full = one_shot_moment(one_shot_observations(x, group, n, sigma, 7), sigma)
        streamed = simulate_second_moment(x, group, n, sigma, seed=7)
        np.testing.assert_allclose(streamed, full, rtol=1e-12, atol=1e-15)

    def test_one_chunk_is_the_plain_estimate(self, rng):
        group = GroupAction("cyclic", 6)
        x = rng.normal(size=6)
        np.testing.assert_array_equal(
            simulate_second_moment(x, group, _CHUNK_ROWS, 0.3, seed=4),
            one_shot_moment(one_shot_observations(x, group, _CHUNK_ROWS, 0.3, 4), 0.3),
        )

    def test_noiseless_orbit_preserves_energies(self, rng):
        group = GroupAction("cyclic", 8)
        x = rng.normal(size=8)
        base = second_moment_blocks(x, group.blocks)
        for row in streamed_observations(x, group, 50, 0.0, 1):
            np.testing.assert_allclose(
                second_moment_blocks(row, group.blocks), base, atol=1e-10
            )

    def test_single_observation_shape(self, rng):
        for group in (GroupAction("cyclic", 5), GroupAction.sphere(2)):
            x = rng.normal(size=group.N)
            assert streamed_observations(x, group, 1, 0.3, 0).shape == (1, group.N)
            assert simulate_second_moment(x, group, 1, 0.3, seed=0).shape == (group.N, group.N)

    def test_first_moment_matches_orbit_mean(self, rng):
        # column mean approximates the orbit average (DC component only)
        N, n, sigma = 8, 100_000, 1.0
        group = GroupAction("cyclic", N)
        x = rng.normal(size=N)
        Y = streamed_observations(x, group, n, sigma, 5)
        col_mean = Y.mean(axis=0)
        expected = np.zeros(N)
        expected[0] = x[0]          # rotation blocks average to zero
        col_std = Y.std(axis=0)
        assert np.all(np.abs(col_mean - expected) < 3.0 * col_std / np.sqrt(n) + 1e-12)

    def test_deterministic(self, rng):
        group = GroupAction.sphere(2)
        x = rng.normal(size=9)
        np.testing.assert_array_equal(
            simulate_second_moment(x, group, 20, 0.1, seed=3),
            simulate_second_moment(x, group, 20, 0.1, seed=3),
        )

    def test_so3_draws_take_bounded_memory(self):
        # The benchmark's block-scalar draw, L = 4 and n = 10^5. All n Euler
        # angles are drawn before any noise (2.3 MiB, and one 0.8 MiB draw
        # more while haar_euler_angles fills them); beyond them a chunk holds
        # a few (N, _CHUNK_ROWS) arrays of 0.8 MiB. Chunks of 16 384 rows
        # peaked at 12 MiB.
        group = GroupAction.sphere(4)
        x = np.random.default_rng(0).normal(size=group.N)
        simulate_second_moment(x, group, 10, 0.5, seed=0)     # cached factors
        tracemalloc.start()
        try:
            simulate_second_moment(x, group, 100_000, 0.5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


#: The groups whose every block the invariant law is checked on (12 blocks).
LAW_GROUPS = [GroupAction("cyclic", 8), GroupAction("dihedral", 7), GroupAction.sphere(2)]

#: Fixed before running: a per-block two-sample KS test at this level over
#: 12 blocks wrongly fails some block with probability about 1.2%.
KS_ALPHA = 1e-3


def law_signal(group):
    return np.random.default_rng(group.N).normal(size=group.N)


class TestSimulateInvariants:
    @pytest.mark.parametrize("group", LAW_GROUPS, ids=lambda g: g.kind)
    def test_noiseless_draw_is_the_block_energies(self, group):
        x = law_signal(group)
        np.testing.assert_array_equal(
            simulate_invariants(x, group, 40, 0.0, seed=3), second_moment_blocks(x, group.blocks)
        )

    @pytest.mark.parametrize(
        "length, n, sigma, error, match",
        [
            (8, 0, 0.3, ValueError, "n must be >= 1"),
            (8, 10, -0.1, ValueError, "sigma must be >= 0"),
            (7, 10, 0.3, DimensionError, "expected length 8"),
        ],
        ids=["n", "sigma", "length"],
    )
    def test_rejects_what_the_simulator_rejects(self, length, n, sigma, error, match):
        group = GroupAction("cyclic", 8)
        x = np.ones(length)
        with pytest.raises(error, match=match):
            simulate_invariants(x, group, n, sigma, seed=0)
        with pytest.raises(error, match=match):
            simulate_second_moment(x, group, n, sigma, seed=0)

    @pytest.mark.parametrize("group", LAW_GROUPS, ids=lambda g: g.kind)
    def test_same_law_as_the_simulated_moment(self, group):
        x, n, sigma, draws = law_signal(group), 50, 0.8, 600
        # seeds apart from the reference's, so the two samples are independent
        fast = np.array(
            [simulate_invariants(x, group, n, sigma, seed=10_000 + s) for s in range(draws)]
        )
        slow = np.array(
            [
                extract_invariants(simulate_second_moment(x, group, n, sigma, seed=s), group.blocks)
                for s in range(draws)
            ]
        )
        pvalues = [ks_2samp(fast[:, k], slow[:, k]).pvalue for k in range(group.blocks.R)]
        assert min(pvalues) > KS_ALPHA, pvalues

    @pytest.mark.parametrize("group", LAW_GROUPS, ids=lambda g: g.kind)
    def test_mean_and_variance(self, group):
        # m draws: the sample mean within 5 standard errors of E_k, the sample
        # variance within 5% of (4 sigma^2 E_k + 2 sigma^4 d_k) / n (5 standard
        # errors of a variance estimate, which is about sqrt(2/m) relative).
        x, n, sigma, m = law_signal(group), 30, 0.6, 20_000
        E = second_moment_blocks(x, group.blocks)
        d = np.asarray(group.blocks.dims, dtype=float)
        var = (4 * sigma**2 * E + 2 * sigma**4 * d) / n
        inv = np.array([simulate_invariants(x, group, n, sigma, seed=s) for s in range(m)])
        assert np.all(np.abs(inv.mean(axis=0) - E) <= 5 * np.sqrt(var / m))
        np.testing.assert_allclose(inv.var(axis=0, ddof=1), var, rtol=0.05)

    def test_cost_does_not_grow_with_n(self, monkeypatch):
        monkeypatch.setattr(mra, "_observation_chunks", None)
        group = GroupAction.sphere(3)
        inv = simulate_invariants(law_signal(group), group, 10**12, 0.5, seed=0)
        assert inv.shape == (group.blocks.R,) and np.all(np.isfinite(inv))


SPHERE_PRIOR = {"type": "relu-network", "widths": [2, 10, 16], "seed": 13}


@pytest.mark.parametrize(
    "parameters, full_simulator",
    [
        (
            {
                "group": {"kind": "so3-bandlimited", "L": 3},
                "prior": SPHERE_PRIOR,
                "mixing": {"kind": "special-orthogonal", "seed": 51},
                "sigma": 0.3, "n": 4000, "seed": 0,
                "recover": True, "repeats": 1, "recover_restarts": 2,
            },
            False,
        ),
        (
            {"group": {"kind": "so3-bandlimited", "L": 2}, "sigma": 0.3, "n": 4000, "seed": 0},
            False,
        ),
        (
            {
                "group": {"kind": "so3-bandlimited", "L": 2},
                "sigma": 0.0, "n": 100, "seed": 0, "block_scalar_check": True,
            },
            True,
        ),
    ],
    ids=["recover", "bare", "block-scalar"],
)
def test_only_the_block_scalar_check_simulates_observations(
    monkeypatch, tmp_path, parameters, full_simulator
):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(runner, "simulate_second_moment")
    spy(mra, "simulate_second_moment")
    spy(mra, "rotate_bandlimited")
    runner.run(ExperimentConfig("mra-sim", parameters), out_dir=tmp_path)
    if full_simulator:
        assert {"simulate_second_moment", "rotate_bandlimited"} <= set(calls)
    else:
        assert calls == []


@pytest.mark.parametrize(
    "group", [{"kind": "cyclic", "N": 8}, {"kind": "dihedral", "N": 7}], ids=lambda g: g["kind"]
)
def test_block_scalar_check_on_the_finite_groups(tmp_path, group):
    # No preset or benchmark workload reaches the finite-group orbits. Bounds
    # fixed before running: the exact moment is block scalar to 1e-12, and
    # each Monte-Carlo block is within criterion 7's relative 0.02.
    parameters = {
        "group": group, "sigma": 0.0, "n": 100_000, "seed": 0, "block_scalar_check": True,
    }
    runner.run(ExperimentConfig("mra-sim", parameters), out_dir=tmp_path)
    with open(tmp_path / "blockscalar.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == GroupAction(group["kind"], group["N"]).blocks.R
    for row in rows:
        assert float(row["exact_offblock_max"]) <= 1e-12
        assert float(row["exact_scalar_dev"]) <= 1e-12
        assert float(row["mc_rel_frobenius"]) < 0.02


class TestSimulatedMoment:
    def test_zero_signal_zero_noise(self):
        group = GroupAction("cyclic", 4)
        M = simulate_second_moment(np.zeros(4), group, 10, 0.0, seed=0)
        np.testing.assert_array_equal(M, np.zeros((4, 4)))

    def test_exact_orbit_average_of_delta(self):
        # cyclic N=4, x = delta in time domain: orbit average is I/4 in any
        # orthonormal coordinates
        N = 4
        group = GroupAction("cyclic", N)
        x = to_real_fourier(np.array([1.0, 0.0, 0.0, 0.0]))
        M = exact_population_moment(x, group)
        np.testing.assert_allclose(M, np.eye(N) / N, atol=1e-12)

    def test_symmetric(self, rng):
        group = GroupAction("cyclic", 6)
        M = simulate_second_moment(rng.normal(size=6), group, 500, 0.7, seed=2)
        assert np.max(np.abs(M - M.T)) < 1e-12

    def test_monte_carlo_error_within_three_expected(self, rng):
        N, n, sigma = 8, 200_000, 0.5
        group = GroupAction("cyclic", N)
        x = rng.normal(size=N)
        M = simulate_second_moment(x, group, n, sigma, seed=9)
        M_pop = exact_population_moment(x, group) + 0.0
        err = np.linalg.norm(M - M_pop)
        # independent plug-in estimate of the expected Monte Carlo error
        Y = streamed_observations(x, group, n, sigma, 9)
        sq = np.einsum("ni,nj->nij", Y, Y)
        ent_var = sq.var(axis=0) / n
        expected = np.sqrt(ent_var.sum())
        assert err < 3.0 * expected


class TestExtractInvariants:
    def test_population_moment_recovers_block_energies(self, rng):
        for group in (GroupAction("cyclic", 8), GroupAction("dihedral", 7), GroupAction.sphere(3)):
            x = rng.normal(size=group.N)
            M = exact_population_moment(x, group)
            np.testing.assert_allclose(
                extract_invariants(M, group.blocks),
                second_moment_blocks(x, group.blocks),
                atol=1e-6,
            )

    def test_zero_signal_with_noise_correction(self, rng):
        group = GroupAction("cyclic", 6)
        M = simulate_second_moment(np.zeros(6), group, 50_000, 0.4, seed=1)
        inv = extract_invariants(M, group.blocks)
        assert np.max(np.abs(inv)) < 0.05

    def test_single_degree_content(self, rng):
        group = GroupAction.sphere(2)
        x = np.zeros(9)
        x[4:9] = rng.normal(size=5)          # degree-2 block only
        M = exact_population_moment(x, group)
        inv = extract_invariants(M, group.blocks)
        np.testing.assert_allclose(inv[:2], [0.0, 0.0], atol=1e-6)
        assert inv[2] == pytest.approx(x @ x, abs=1e-6)


class TestBlockScalarLaw:
    def test_exact_moment_is_block_scalar(self, rng):
        group = GroupAction.sphere(4)
        x = rng.normal(size=25)
        M = exact_population_moment(x, group)
        E = second_moment_blocks(x, group.blocks)
        expected = np.zeros_like(M)
        for k, sl in enumerate(group.blocks.slices()):
            d = group.blocks.dims[k]
            expected[sl, sl] = (E[k] / d) * np.eye(d)
        np.testing.assert_allclose(M, expected, atol=1e-6)

    def test_monte_carlo_matches_per_block(self, rng):
        group = GroupAction.sphere(4)
        x = rng.normal(size=25)
        x /= np.linalg.norm(x)
        M_mc = simulate_second_moment(x, group, 100_000, 0.0, seed=3)
        E = second_moment_blocks(x, group.blocks)
        for k, sl in enumerate(group.blocks.slices()):
            d = group.blocks.dims[k]
            target = (E[k] / d) * np.eye(d)
            rel = np.linalg.norm(M_mc[sl, sl] - target) / np.linalg.norm(target)
            assert rel < 0.02


class TestRecovery:
    def test_rejects_zero_restarts(self):
        blocks = block_structure_for_power_spectrum(4)
        prior = random_relu_network((2, 6, 4), seed=0)
        with pytest.raises(ValueError, match="restarts"):
            recover(np.ones(blocks.R), prior, np.eye(4), blocks, restarts=0)

    def test_checks_mixing_and_prior_length_before_any_solve(self, spy_solves):
        # the objective runs unchecked cores, so recover checks its inputs once
        blocks = block_structure_for_power_spectrum(4)
        solves = spy_solves(mra)
        with pytest.raises(DimensionError, match="mixing has shape"):
            recover(np.ones(blocks.R), random_relu_network((2, 6, 4)), np.eye(5), blocks)
        with pytest.raises(DimensionError, match="prior signals have length 5"):
            recover(np.ones(blocks.R), random_relu_network((2, 6, 5)), np.eye(4), blocks)
        with pytest.raises(TypeError, match="unsupported prior type ndarray"):
            recover(np.ones(blocks.R), np.eye(4), np.eye(4), blocks)
        assert solves == []

    @pytest.mark.parametrize("seed, used", [(10, 10), (0, 16)])
    def test_one_solve_per_restart_used(self, spy_solves, seed, used):
        # a hardtanh network is no cone, so it takes the restarts: seed 10
        # reaches the target on its 10th start, seed 0 on none of 16
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 10, N), seed=4, activation="hardtanh(-1,1)")
        assert mra.recover_path(prior) == "multistart"
        A = sample_mixing(N, "special-orthogonal", 6)
        x_true = A @ chart_walk(prior, np.random.default_rng(3).normal(size=2)).x
        inv = second_moment_blocks(x_true, blocks)
        solves = spy_solves(mra)
        rec = recover(inv, prior, A, blocks, seed=seed, restarts=16)
        assert rec.restarts_used == used == len(solves)
        assert rec.converged == (used < 16)
        best = min(solves, key=lambda s: s.f)      # the first of the best
        assert rec.residual == np.sqrt(best.f)
        np.testing.assert_array_equal(rec.prior_point, chart_walk(prior, best.x).x)

    @pytest.mark.parametrize("seed, restarts", [(0, 1), (5, 20)])
    def test_a_2d_cone_prior_takes_one_solve(self, spy_solves, seed, restarts):
        # the sector path reads neither the seed nor the restart count
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 10, N), seed=4)
        assert mra.recover_path(prior) == "sectors"
        A = sample_mixing(N, "special-orthogonal", 6)
        inv = second_moment_blocks(A @ chart_walk(prior, np.array([0.3, -1.2])).x, blocks)
        solves = spy_solves(mra)
        rec = recover(inv, prior, A, blocks, seed=seed, restarts=restarts)
        assert rec.restarts_used == 1 == len(solves)
        assert rec.residual == np.sqrt(solves[0].f)
        ref = recover(inv, prior, A, blocks)
        np.testing.assert_array_equal(rec.x_hat, ref.x_hat)

    def test_recoveries_after_another_instance_keep_its_bits(self, sector_builds):
        # A, then B, then A again: each change of instance rebuilds the one
        # memo entry, and every recovery of A has the bits of an empty memo's
        a, b, inv = memo_instances()
        first = recover(inv, *a)
        recover(inv, *b)
        again = recover(inv, *a)
        mra._SEARCH_MEMO.clear()
        fresh = recover(inv, *a)
        assert len(sector_builds) == 4
        for rec in (first, again):
            np.testing.assert_array_equal(rec.x_hat, fresh.x_hat)
            assert rec.residual == fresh.residual

    @pytest.mark.parametrize("change", ["mixing", "layout", "network", "activation"])
    def test_a_changed_instance_rebuilds_the_sector_search(self, sector_builds, change):
        (prior, A, blocks), _, inv = memo_instances()
        recover(inv, prior, A, blocks)
        recover(inv, prior, A.copy(), blocks)            # the same content
        assert len(sector_builds) == 1
        if change == "mixing":
            A = A.copy()
            A[0, 0] = np.nextafter(A[0, 0], 1.0)
        elif change == "layout":
            blocks = BlockStructure((2, 2, 2, 1, 1))
        else:
            first, last = prior.layers
            weight = first.weight.copy()
            if change == "network":
                weight[0, 0] = -weight[0, 0]
            act = "leaky-relu(0.1)" if change == "activation" else first.activation
            prior = GeneratorNetwork((Layer(weight, act), last))
        recover(inv, prior, A, blocks)
        assert len(sector_builds) == 2

    def test_a_sweep_builds_its_sector_search_once(self, sector_builds):
        group = GroupAction("cyclic", 8)
        (prior, A, _), _, _ = memo_instances()
        res = sample_complexity_sweep(
            prior, A, group, [0.5, 1.0], 0.1, seeds=[0, 1, 2], signal_norm=0.4, n_cap=30_000
        )
        assert res.recoveries > 20 and len(sector_builds) == 1

    def test_the_sector_search_is_read_only(self):
        (prior, A, blocks), _, _ = memo_instances()
        search = mra._sector_search(prior, A, blocks)
        S = len(search.edges) - 1
        assert search.K.shape == (S, 5, blocks.R)
        assert not search.edges.flags.writeable and not search.K.flags.writeable
        assert mra._sector_search(prior, A, blocks) is search

    @pytest.mark.parametrize("sector", range(6))
    def test_every_extremum_of_a_sector_s_score_is_a_critical_angle(self, sector):
        # on one linear map the best ray's score is smooth in the angle: each
        # of its strict local extrema on a fine grid lies at a returned angle
        N = 8
        blocks = block_structure_for_power_spectrum(N)
        r = np.random.default_rng(sector)
        W = r.normal(size=(1, N, 2))
        A = sample_mixing(N, "special-orthogonal", sector)
        inv = np.abs(r.normal(size=blocks.R))
        angles = mra._stationary_angles(mra._stationarity_map(W, A, blocks) @ inv)
        theta = np.linspace(-np.pi, np.pi, 100_001)[:-1]
        score, _ = mra._ray_fits(
            np.stack([np.cos(theta), np.sin(theta)], axis=-1) @ W[0].T, inv, A, blocks
        )
        left, right = np.roll(score, 1), np.roll(score, -1)
        peak = (score > left) & (score > right)
        dip = (score < left) & (score < right) & (score > 0)
        extrema = theta[peak | dip]
        assert extrema.size >= 2
        for x in extrema:
            gap = np.abs(np.angle(np.exp(1j * (angles - x))))
            assert gap.min() < 1e-4

    def test_the_real_quartic_finds_every_root_of_the_complex_one(self):
        # 200 random sectors: each angle where the reference's z-form is
        # stationary (a root on the unit circle) is a candidate, and the
        # candidates' best ray scores no lower than the reference's best
        for i in range(200):
            r = np.random.default_rng(i)
            N = int(r.choice([4, 5, 8, 9]))
            blocks = block_structure_for_power_spectrum(N)
            W = r.normal(size=(1, N, 2))
            A = sample_mixing(N, "general-linear", i)
            inv = np.abs(r.normal(size=blocks.R))
            angles = mra._stationary_angles(mra._stationarity_map(W, A, blocks) @ inv)
            z = critical_angles_reference(W, inv, A, blocks)
            half = 0.5 * np.angle(z)
            ref = np.concatenate([half, half + np.pi])
            on_circle = np.tile(np.abs(np.abs(z) - 1.0) < 1e-6, 2)
            assert on_circle.any()
            for x in ref[on_circle]:
                assert np.abs(np.angle(np.exp(1j * (angles - x)))).min() < 1e-9
            best, ref_best = (sector_scores(W[0], th, inv, A, blocks).max() for th in (angles, ref))
            assert best >= ref_best * (1 - 1e-12)

    def test_a_stationary_angle_at_t_infinity_is_a_candidate(self):
        # invariants that are the energies at u = (0, 1) score ||b||^2 there,
        # the most any ray can: a maximum at theta = +-pi/2, where t = tan(theta)
        # is infinite, and the quartic's leading coefficient is rounding
        N = 8
        blocks = block_structure_for_power_spectrum(N)
        W = np.random.default_rng(3).normal(size=(1, N, 2))
        A = sample_mixing(N, "special-orthogonal", 3)
        inv = blocks.energies(A @ W[0, :, 1])
        C = mra._stationarity_map(W, A, blocks) @ inv
        assert abs(C[0, 0]) <= 1e-12 * np.abs(C).max()
        angles = mra._stationary_angles(C)
        score = sector_scores(W[0], angles, inv, A, blocks)
        assert score.max() == pytest.approx(inv @ inv, rel=1e-12)
        assert abs(np.cos(angles[np.argmax(score)])) < 1e-12

    def test_a_quartic_of_lower_degree_gives_its_roots(self):
        # rows of degree 4, 3, 2, and 3 under a leading coefficient that is rounding
        C = np.array([
            [1.0, 0.0, -5.0, 0.0, 4.0],     # roots -2, -1, 1, 2
            [0.0, 1.0, 0.0, -1.0, 0.0],     # -1, 0, 1
            [0.0, 0.0, 1.0, 0.0, -4.0],     # -2, 2
            [1e-20, 1.0, 0.0, -1.0, 0.0],   # -1, 0, 1
        ])
        angles = mra._stationary_angles(C)
        theta = np.arctan([-2.0, -1.0, 1.0, 2.0, -1.0, 0.0, 1.0, -2.0, 2.0, -1.0, 0.0, 1.0])
        expected = np.concatenate([theta, theta + np.pi, [-0.5 * np.pi, 0.5 * np.pi]])
        np.testing.assert_allclose(np.sort(angles), np.sort(expected), rtol=0, atol=1e-12)

    def test_a_sector_of_constant_score_gives_only_t_infinity(self):
        # identity rows on the one 2-D block make every energy constant, so
        # F = 0: the row has no root, and theta = +-pi/2 scores the constant
        N = 4
        blocks = block_structure_for_power_spectrum(N)
        assert blocks.dims == (1, 1, 2)
        W = np.zeros((1, N, 2))
        W[0, 2:] = np.eye(2)
        inv = np.array([0.5, 0.2, 1.5])
        C = mra._stationarity_map(W, np.eye(N), blocks) @ inv
        np.testing.assert_array_equal(C, np.zeros((1, 5)))
        angles = mra._stationary_angles(C)
        np.testing.assert_array_equal(angles, [-0.5 * np.pi, 0.5 * np.pi])
        np.testing.assert_allclose(
            sector_scores(W[0], angles, inv, np.eye(N), blocks), [1.5**2, 1.5**2], rtol=1e-15
        )

    @pytest.mark.parametrize("preset", ["mra-cyclic-n4", "cor-sphere-so3"])
    def test_the_sector_path_is_no_worse_than_50_random_starts(self, preset):
        # 20 noisy instances: the one solve from the sectors' best point ends
        # no higher than the best of 50 random-start solves of the reference
        # objective, and on cyclic ones that trap every start it ends lower
        p = get_preset(preset).parameters()
        spec = p["group"]
        group = (
            GroupAction.sphere(spec["L"]) if "L" in spec else GroupAction(spec["kind"], spec["N"])
        )
        prior, A = build_prior(p["prior"]), build_mixing(p["mixing"], group.N)
        true_seed = p.get("true_seed", 0)
        if true_seed == "auto-conditioned":
            true_seed = select_conditioned_instance(prior, A, group.blocks, p["signal_norm"])
        _, _, x_star = draw_ground_truth(prior, A, true_seed, p.get("signal_norm"))
        lower = 0
        for si, sigma in enumerate([0.5, 1.0]):
            for seed in range(10):
                inv = simulate_invariants(
                    x_star, group, 1000, sigma, np.random.SeedSequence((seed, si, 1000))
                )
                f = recover(inv, prior, A, group.blocks).residual ** 2
                residual, jacobian = recover_objective(prior, A, group.blocks, inv)
                f_target = (1e-10 * max(1.0, np.linalg.norm(inv))) ** 2
                starts = np.random.default_rng(seed).normal(size=(50, 2))
                best = min(
                    damped_gauss_newton(
                        residual, jacobian, z0, max_iter=mra.RECOVER_MAX_ITER, f_tol=f_target
                    ).f
                    for z0 in starts
                )
                assert f <= best * (1 + 1e-9)
                lower += f < best * (1 - 1e-6)
        assert lower >= (preset == "mra-cyclic-n4")

    @pytest.mark.parametrize(
        "kind", ["relu", "leaky-relu(0.1)", "hardtanh(-0.5,0.7)", "sparse"]
    )
    def test_objective_is_the_one_walk_per_call_form(self, monkeypatch, spy_objectives, kind):
        # the residual and the Jacobian that reuses its walk have the bits of
        # a fresh walk per call
        N = 5
        blocks = block_structure_for_power_spectrum(N)
        if kind == "sparse":
            prior = sparse_prior(N, 2, "generic-linear", seed=1)
        else:
            r = np.random.default_rng(5)
            prior = GeneratorNetwork(tuple(
                Layer(r.normal(size=(n_out, n_in)), kind, r.normal(size=n_out))
                for n_in, n_out in [(2, 7), (7, 6), (6, N)]
            ))
        A = sample_mixing(N, "general-linear", 3)
        inv = np.abs(np.random.default_rng(4).normal(size=blocks.R))
        seen = spy_objectives(mra)
        monkeypatch.setattr(mra, "RECOVER_MAX_ITER", 3)
        recover(inv, prior, A, blocks, seed=6, restarts=1)
        residual, jacobian, z0 = seen[0]
        z_ref, net = next(latent_parametrizations(prior, np.random.default_rng(6)))
        np.testing.assert_array_equal(z0, z_ref)
        ref_residual, ref_jacobian = recover_objective(net, A, blocks, inv)
        r = np.random.default_rng(7)
        for z in [r.normal(size=2) for _ in range(10)] + [np.zeros(2)]:
            np.testing.assert_array_equal(residual(z), ref_residual(z))
            np.testing.assert_array_equal(jacobian(z), ref_jacobian(z))
            with pytest.raises(ValueError, match="last residual"):
                jacobian(z.copy())

    @pytest.mark.parametrize(
        "command, parameters",
        [
            (
                "mra-sim",
                {**get_preset("cor-sphere-so3").parameters(), "n": 4000, "recover_restarts": 3},
            ),
            (
                "sweep",
                {
                    **get_preset("mra-cyclic-n4").parameters(),
                    "sigma_list": [0.25],
                    "seeds": [0, 1, 2],
                    "true_seed": 0,
                    "n_min": 64,
                    "grid_ratio": 2.0,
                    "recover_restarts": 2,
                },
            ),
        ],
    )
    def test_each_solve_gets_the_recover_budget(self, monkeypatch, tmp_path, command, parameters):
        # both callers of recover in the runner leave the budget to the module
        budgets = []
        solve = mra.damped_gauss_newton

        def spy(*args, max_iter, **kwargs):
            budgets.append(max_iter)
            return solve(*args, max_iter=max_iter, **kwargs)

        monkeypatch.setattr(mra, "damped_gauss_newton", spy)
        runner.run(ExperimentConfig(command, parameters), out_dir=tmp_path)
        assert budgets and budgets == [mra.RECOVER_MAX_ITER] * len(budgets)

    def test_noiseless_round_trip(self, rng):
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 10, N), seed=4)
        A = sample_mixing(N, "special-orthogonal", 6)

        z_true = rng.normal(size=2)
        x_true = A @ chart_walk(prior, z_true).x
        inv = second_moment_blocks(x_true, blocks)
        rec = recover(inv, prior, A, blocks, seed=0, restarts=20)
        assert rec.error_fn(x_true) < 1e-6

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_zero_image_prior(self, activation):
        N = 5
        blocks = block_structure_for_power_spectrum(N)
        prior = GeneratorNetwork((Layer(np.zeros((3, 2)), activation), Layer(np.ones((N, 3)))))
        # a RuntimeWarning fails the test (pyproject's filterwarnings)
        rec = recover(np.ones(blocks.R), prior, np.eye(N), blocks, seed=0, restarts=3)
        np.testing.assert_array_equal(rec.x_hat, np.zeros(N))
        # absolute error reported when the truth is the zero signal
        assert rec.error_fn(np.zeros(N)) == 0.0

    @pytest.mark.parametrize("activation", ["relu", "leaky-relu(0.1)"])
    def test_invariants_no_ray_reaches_give_zero(self, activation):
        # energies are >= 0, so <e, b> <= 0 on every ray: the best scale is 0
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 10, N), seed=4, activation=activation)
        A = sample_mixing(N, "special-orthogonal", 6)
        inv = -np.arange(1.0, blocks.R + 1)
        rec = recover(inv, prior, A, blocks)     # a RuntimeWarning fails the test
        np.testing.assert_array_equal(rec.x_hat, np.zeros(N))
        assert rec.residual == np.linalg.norm(inv)

    def test_perturbed_invariants_give_proportional_error(self, rng):
        N = 9
        blocks = block_structure_for_power_spectrum(N)
        prior = random_relu_network((2, 10, N), seed=4)
        A = sample_mixing(N, "special-orthogonal", 6)

        delta = 1e-3
        errs = []
        for seed in range(20):
            z_true = np.random.default_rng(seed).normal(size=2)
            x_true = A @ chart_walk(prior, z_true).x
            inv = second_moment_blocks(x_true, blocks)
            noise = np.random.default_rng(1000 + seed).normal(size=blocks.R)
            inv_noisy = inv * (1.0 + delta * noise)
            rec = recover(inv_noisy, prior, A, blocks, seed=seed, restarts=15)
            errs.append(rec.error_fn(x_true))
        assert np.median(errs) < 100 * delta


class TestSampleComplexity:
    def test_noiseless_needs_few_observations(self):
        N = 8
        group = GroupAction("cyclic", N)
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        result = sample_complexity_sweep(
            prior, A, group, [0.0], 0.1, seeds=range(3), true_seed=0, n_min=4, n_cap=64
        )
        assert result.rows[0]["n_star"] == 4

    def test_rejects_n_min_above_n_cap(self):
        N = 8
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        with pytest.raises(ValueError, match="n_min <= n_cap"):
            sample_complexity_sweep(
                prior, A, GroupAction("cyclic", N), [0.5], 0.1, seeds=[0], n_min=5000, n_cap=100
            )

    def test_median_error_decreases_along_grid(self):
        # fixed sigma: growing n must (weakly) improve the median error
        N = 8
        group = GroupAction("cyclic", N)
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        _, _, x_star = draw_ground_truth(prior, A, 0, 0.4)
        meds = []
        for n in (100, 2000, 40000):
            errs = []
            for seed in range(10):
                M = simulate_second_moment(x_star, group, n, 0.5, seed=(n, seed))
                inv = extract_invariants(M, group.blocks)
                rec = recover(inv, prior, A, group.blocks, seed=(n, seed, 1), restarts=8)
                errs.append(rec.error_fn(x_star))
            meds.append(np.median(errs))
        assert sorted(meds, reverse=True) == meds

    @pytest.mark.parametrize("seeds", [[0, 1, 2], [0, 1, 2, 3]])
    def test_early_stop_matches_the_full_scan(self, seeds, monkeypatch):
        N = 8
        group = GroupAction("cyclic", N)
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        args = (prior, A, group, [0.25, 0.5], 0.1, seeds)
        kw = dict(
            true_seed=0, signal_norm=0.4, n_min=64, grid_ratio=2.0, n_cap=10**6,
            recover_restarts=4,
        )
        rows, slope, full = full_sample_complexity_scan(*args, **kw)
        calls = []
        recover = mra.recover
        monkeypatch.setattr(mra, "recover", lambda *a, **k: calls.append(1) or recover(*a, **k))
        result = sample_complexity_sweep(*args, **kw)
        assert result.rows == rows
        assert result.fitted_slope == slope
        assert result.recoveries == len(calls) < full

    # Scripted errors, one per recover call, for a grid of n = 100, 200, 400:
    # the first cell that meets the target of 0.1 gives n_star.
    @pytest.mark.parametrize(
        "n_seeds, errors, calls, n_star",
        [
            # 3 of 4 miss: the median cannot meet the target, the 4th seed is skipped
            (4, [0.5, 0.5, 0.5] + [0.01] * 4, 7, 200),
            # exactly 2 of 4 miss: evaluated in full, and the median 0.255 fails
            (4, [0.5, 0.01, 0.5, 0.01] + [0.01] * 4, 8, 200),
            # exactly 2 of 4 miss, and the median 0.08 meets the target
            (4, [0.15, 0.01, 0.15, 0.01], 4, 100),
            # 2 of 3 miss: the cell stops after its second miss, wherever it falls
            (3, [0.01, 0.5, 0.5] + [0.5, 0.5] + [0.01] * 3, 8, 400),
        ],
    )
    def test_a_cell_stops_once_more_than_half_its_seeds_miss(
        self, n_seeds, errors, calls, n_star, monkeypatch
    ):
        N = 8
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        _, _, x_star = draw_ground_truth(prior, A, 0, 0.4)
        script = iter(errors)

        def scripted_recover(*args, **kwargs):
            x_hat = (1.0 + next(script)) * x_star     # error_fn reads the scripted error
            return mra.RecoveryResult(x_hat, x_hat, 0.0, False, 1)

        monkeypatch.setattr(mra, "recover", scripted_recover)
        seeds = range(n_seeds)
        result = sample_complexity_sweep(
            prior, A, GroupAction("cyclic", N), [0.5], 0.1, seeds,
            signal_norm=0.4, n_min=100, n_cap=400, grid_ratio=2.0,
        )
        assert result.recoveries == calls
        assert next(script, None) is None
        assert result.rows[0]["n_star"] == n_star
        assert result.rows[0]["seeds_used"] == len(seeds)

    def test_no_seeds_raise(self):
        N = 8
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        with pytest.raises(ValueError, match="seeds"):
            sample_complexity_sweep(prior, A, GroupAction("cyclic", N), [0.5], 0.1, seeds=[])

    def test_amplification_screen(self):
        N = 8
        group = GroupAction("cyclic", N)
        prior = random_relu_network((2, 10, N), seed=11)
        A = sample_mixing(N, "special-orthogonal", 11)
        amp = instance_noise_amplification(prior, A, group.blocks, 0, 0.4)
        assert np.isfinite(amp) and amp > 0


def hardtanh_prior(seed):
    return random_relu_network((2, 10, 8), seed=seed, activation="hardtanh(-0.5,0.5)")


class TestGroundTruth:
    def test_rescaling_stays_in_the_prior(self):
        prior = random_relu_network((2, 10, 8), seed=11)
        A = sample_mixing(8, "special-orthogonal", 11)
        net, z, x_star = draw_ground_truth(prior, A, 0, 0.4)
        np.testing.assert_array_equal(x_star, A @ chart_walk(net, z).x)
        assert np.linalg.norm(x_star) == pytest.approx(0.4, rel=1e-12)

    def test_unreachable_norm_raises(self):
        # the hardtanh prior's image has norm <= 5.4: no latent rescaling reaches 50
        with pytest.raises(ValueError, match="not positively homogeneous"):
            draw_ground_truth(hardtanh_prior(11), np.eye(8), 0, 50.0)
        # with every seed skipped, the scan blames the norm, not the threshold
        blocks = GroupAction("cyclic", 8).blocks
        with pytest.raises(ValueError, match="no ground truth could be drawn in 256 seeds"):
            select_conditioned_instance(hardtanh_prior(11), np.eye(8), blocks, 50.0)

    def test_auto_conditioned_skips_unreachable_seeds(self):
        prior = hardtanh_prior(3)
        with pytest.raises(ValueError):
            draw_ground_truth(prior, np.eye(8), 0, 1.0)
        seed = select_conditioned_instance(prior, np.eye(8), GroupAction("cyclic", 8).blocks, 1.0)
        assert seed > 0
        _, _, x_star = draw_ground_truth(prior, np.eye(8), seed, 1.0)
        assert np.linalg.norm(x_star) == pytest.approx(1.0, rel=1e-8)
