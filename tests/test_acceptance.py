"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are fixed here and must not be loosened.
"""

import numpy as np
import pytest

from momentlab.config import ExperimentConfig, build_prior
from momentlab.injectivity import (
    brute_force_collision_oracle,
    codimension_probe,
    collision_search,
)
from momentlab.measurements import (
    BlockStructure,
    block_structure_for_power_spectrum,
    second_moment_blocks,
    separable_measurement,
    to_real_fourier,
)
from momentlab.mra import (
    GroupAction,
    exact_population_moment,
    simulate_second_moment,
)
from momentlab.presets import PRESETS, get_preset
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    estimate_image_dimension,
    random_relu_network,
    sample_mixing,
)
from momentlab.runner import build_mixing, run
from momentlab.so3 import band_limit_blocks, haar_euler_angles

from reference import (
    dft_block_energy_oracle,
    euler_from_rotation_3d,
    rotation_matrix_3d,
    wigner_block,
    wigner_degree_block,
)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_separability_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(2, 33))
        blocks = block_structure_for_power_spectrum(N)
        x = rng.normal(size=N)
        A = rng.normal(size=(N, N))
        lhs = separable_measurement(x, A, blocks)
        rhs = second_moment_blocks(A @ x, blocks)
        scale = max(np.max(np.abs(rhs)), 1e-300)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    report(1, worst < 1e-10, f"separability max relative gap {worst:.2e} < 1e-10")


def test_criterion_2_dft_consistency():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(1, 33))
        v = rng.normal(size=N)
        blocks = block_structure_for_power_spectrum(N)
        got = second_moment_blocks(to_real_fourier(v), blocks)
        want = dft_block_energy_oracle(v)
        scale = max(np.max(np.abs(want)), 1e-300)
        worst = max(worst, np.max(np.abs(got - want)) / scale)
    report(2, worst < 1e-10, f"DFT-oracle max relative gap {worst:.2e} < 1e-10")


@pytest.mark.slow
def test_criterion_3_empirical_injectivity():
    # positive claim: thm2-so preset, 200 restarts x 5 generic rotations
    preset = get_preset("thm2-so")
    p = preset.config.parameters
    prior = build_prior(p["prior"])
    assert estimate_image_dimension(prior) == 2, (
        "preset prior must have image dimension 2"
    )
    blocks = block_structure_for_power_spectrum(10)
    verdicts = []
    for mseed in p["mixing_seeds"]:
        A = sample_mixing(10, "special-orthogonal", mseed)
        rep = collision_search(prior, A, blocks, restarts=200, seed=p["seed"])
        verdicts.append(rep.verdict)
    no_collisions = all(v == "no-collision-found" for v in verdicts)

    # negative control 1: identity mixing on all of R^8 (torus orbits)
    torus = collision_search(
        build_prior({"type": "ambient", "N": 8}),
        np.eye(8),
        block_structure_for_power_spectrum(8),
        restarts=50,
        seed=0,
    )
    # negative control 2: standard-basis sparsity, shifted supports
    sparse = collision_search(
        build_prior({"type": "sparse", "kind": "standard-basis", "N": 8, "M": 2}),
        np.eye(8),
        block_structure_for_power_spectrum(8),
        restarts=100,
        seed=0,
    )
    controls_ok = (
        torus.verdict == "collision"
        and torus.residual < 1e-12
        and sparse.verdict == "collision"
        and sparse.residual < 1e-12
    )
    report(
        3,
        no_collisions and controls_ok,
        f"thm2-so verdicts {verdicts}; torus residual {torus.residual:.1e}, "
        f"sparse-shift residual {sparse.residual:.1e}",
    )


@pytest.mark.slow
def test_criterion_4_oracle_agreement():
    N = 9
    blocks = block_structure_for_power_spectrum(N)
    agreements = []
    # five injective instances: ReLU prior, generic mixing, N >= 4M
    for seed in range(5):
        prior = random_relu_network((2, 12, N), seed=seed)
        A = sample_mixing(N, "general-linear", seed=100 + seed)
        s = collision_search(prior, A, blocks, restarts=60, seed=seed)
        o = brute_force_collision_oracle(prior, A, blocks, grid_points_per_axis=41)
        agreements.append(s.verdict == o.verdict)
    # five colliding instances: latent plane embedded in one rotation block
    for i in range(5):
        W = np.zeros((N, 2))
        start = 1 + 2 * (i % 4)
        W[start, 0] = 1.0
        W[start + 1, 1] = 1.0
        prior = GeneratorNetwork((Layer(W, "identity"),))
        s = collision_search(prior, np.eye(N), blocks, restarts=60, seed=i)
        o = brute_force_collision_oracle(
            prior, np.eye(N), blocks, grid_points_per_axis=41
        )
        agreements.append(s.verdict == o.verdict)
    report(4, all(agreements), f"verdict agreement on {sum(agreements)}/10 instances")


@pytest.mark.slow
def test_criterion_5_codimension_bounds():
    cases = [
        ("general-linear", block_structure_for_power_spectrum(8), 59),
        ("special-orthogonal", block_structure_for_power_spectrum(7), 18),
        ("general-linear", BlockStructure((1, 3, 5)), 78),
        ("special-orthogonal", BlockStructure((1, 3, 5)), 34),
    ]
    lines = []
    ok = True
    rng = np.random.default_rng(777)
    for manifold, blocks, bound in cases:
        equal = 0
        converged = 0
        for _ in range(20):
            x = rng.normal(size=blocks.N)
            y = rng.normal(size=blocks.N)
            est = codimension_probe(x, y, manifold, blocks, seed=rng, restarts=50)
            assert est.theoretical_bound == bound
            if est.converged:
                converged += 1
                assert est.residual < 1e-9
                if est.estimated_solution_dim > bound:
                    ok = False
                equal += est.estimated_solution_dim == bound
        if converged == 0 or equal < 0.8 * converged:
            ok = False
        lines.append(f"{manifold} N={blocks.N} bound={bound}: {equal}/{converged} equal")
    report(5, ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_6_sample_complexity_slope(tmp_path):
    result = run(get_preset("mra-cyclic-n4").config, out_dir=tmp_path)
    slope = result.results["fitted_slope"]
    sat = result.results["saturated_sigmas"]
    ok = slope is not None and not sat and abs(slope - 4.0) <= 0.7
    report(6, ok, f"fitted log-log slope {slope} within 4.0 +- 0.7 (saturated: {sat})")


@pytest.mark.slow
def test_criterion_7_block_scalar_law():
    L = 4
    group = GroupAction.sphere(L)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(L + 1) ** 2)
    x /= np.linalg.norm(x)
    blocks = group.blocks
    M = exact_population_moment(x, group)
    E = second_moment_blocks(x, blocks)
    expected = np.zeros_like(M)
    for k, sl in enumerate(blocks.slices()):
        expected[sl, sl] = (E[k] / blocks.dims[k]) * np.eye(blocks.dims[k])
    exact_dev = float(np.max(np.abs(M - expected)))

    M_mc = simulate_second_moment(x, group, 100_000, 0.0, seed=0)
    mc_rel = max(
        float(
            np.linalg.norm(M_mc[sl, sl] - expected[sl, sl])
            / np.linalg.norm(expected[sl, sl])
        )
        for sl in blocks.slices()
    )
    ok = exact_dev < 1e-6 and mc_rel < 0.02
    report(
        7,
        ok,
        f"quadrature deviation {exact_dev:.2e} < 1e-6; Monte Carlo per-block "
        f"relative error {mc_rel:.3f} < 0.02",
    )


def test_criterion_8_wigner_correctness():
    rng = np.random.default_rng(8)
    ortho = comp = deg1 = energy = 0.0
    for L in range(1, 5):
        N = (L + 1) ** 2
        blocks = band_limit_blocks(L)
        x = rng.normal(size=N)
        base = second_moment_blocks(x, blocks)
        for _ in range(5):
            g1, g2 = haar_euler_angles(rng, 1)[0], haar_euler_angles(rng, 1)[0]
            D1, D2 = wigner_block(L, *g1), wigner_block(L, *g2)
            ortho = max(ortho, np.max(np.abs(D1 @ D1.T - np.eye(N))))
            g12 = euler_from_rotation_3d(rotation_matrix_3d(*g1) @ rotation_matrix_3d(*g2))
            comp = max(comp, np.max(np.abs(D1 @ D2 - wigner_block(L, *g12))))
            energy = max(
                energy, np.max(np.abs(second_moment_blocks(D1 @ x, blocks) - base))
            )
    perm = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for _ in range(20):
        g = haar_euler_angles(rng, 1)[0]
        R = rotation_matrix_3d(*g)
        deg1 = max(
            deg1, np.max(np.abs(wigner_degree_block(1, *g) - perm @ R @ perm.T))
        )
    ok = ortho < 1e-10 and comp < 1e-8 and deg1 < 1e-8 and energy < 1e-8
    report(
        8,
        ok,
        f"orthogonality {ortho:.1e} < 1e-10; composition {comp:.1e} < 1e-8; "
        f"degree-1 {deg1:.1e} < 1e-8; energy invariance {energy:.1e} < 1e-8",
    )


@pytest.mark.slow
def test_criterion_9_estimator_consistency():
    N, sigma = 8, 0.5
    group = GroupAction("cyclic", N)
    rng = np.random.default_rng(9)
    x = rng.normal(size=N)
    M_pop = exact_population_moment(x, group)
    ns = [10**3, 10**4, 10**5, 10**6]
    errs = []
    for n in ns:
        trial_errors = []
        for rep in range(4):
            M = simulate_second_moment(x, group, n, sigma, seed=(n, rep))
            trial_errors.append(np.linalg.norm(M - M_pop))
        errs.append(np.mean(trial_errors))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = abs(slope - (-0.5)) <= 0.1
    report(9, ok, f"Frobenius-error slope {slope:.3f} within -0.5 +- 0.1")


# reduced-scale overrides keep the determinism check fast; seeds stay fixed
_DETERMINISM_OVERRIDES = {
    "thm1-gl": {"restarts": 8, "mixing_seeds": [11]},
    "thm2-so": {"restarts": 8, "mixing_seeds": [21]},
    "cor-deepnet": {"restarts": 8, "mixing_seeds": [31]},
    "cor-sparse": {"restarts": 8, "mixing_seeds": [41]},
    "ctrl-torus": {"restarts": 5},
    "ctrl-sparse-shift": {"restarts": 20},
    "lemma-codim-gl": {"pairs": 3},
    "prop-codim-so": {"pairs": 3},
    "lemma-codim-gl-blocks": {"pairs": 3},
    "lemma-codim-so-blocks": {"pairs": 3},
    "mra-cyclic-n4": {
        "sigma_list": [0.5],
        "seeds": [0, 1, 2],
        "n_cap": 30000,
        "true_seed": 0,
    },
    "cor-sphere-so3": {"n": 4000, "repeats": 1, "recover_restarts": 6},
    "appendixB-blockscalar": {"n": 20000},
}


@pytest.mark.slow
def test_criterion_10_preset_determinism(tmp_path):
    mismatches = []
    for name, preset in PRESETS.items():
        params = dict(preset.config.parameters)
        params.update(_DETERMINISM_OVERRIDES.get(name, {}))
        cfg = ExperimentConfig(command=preset.config.command, parameters=params)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            run(cfg, out_dir=out)
            outs.append(
                {
                    f.name: f.read_bytes()
                    for f in sorted(out.iterdir())
                    if f.suffix == ".csv"
                }
            )
        if outs[0] != outs[1]:
            mismatches.append(name)
    report(
        10,
        not mismatches,
        f"byte-identical CSV bodies for all {len(PRESETS)} presets"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
