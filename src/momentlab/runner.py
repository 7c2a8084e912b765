"""Config-driven experiment runner: dispatch, CSV/JSON artifacts, reports.

CSV bodies are deterministic functions of the config (fixed float format,
'\\n' line endings, no locale, no timestamps); wall time and other
run-specific metadata live only in the JSON report's provenance block.
Scientific non-convergence is recorded in result rows and summary flags,
never raised as an error.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    build_blocks,
    build_prior,
    check_memory,
    n_grid,
    threshold_cell_widths,
    with_defaults,
)
from .injectivity import (
    brute_force_collision_oracle,
    codimension_probe,
    collision_search,
    regime_label,
)
from .measurements import (
    block_structure_for_power_spectrum,
    second_moment_blocks,
    separable_measurement,
    to_real_fourier,
)
from .mra import (
    GroupAction,
    draw_ground_truth,
    exact_population_moment,
    instance_noise_amplification,
    recover,
    recover_path,
    simulate_invariants,
    simulate_second_moment,
)
from .priors import SparsePrior, cone_sectors, estimate_image_dimension, sample_mixing

__all__ = ["RunReport", "run"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    cols = header.split(",")
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _collect_seeds(obj, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if "seed" in k and isinstance(v, (int, list)):
                out.extend(v if isinstance(v, list) else [v])
            else:
                _collect_seeds(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _collect_seeds(v, out)


@dataclass
class RunReport:
    config_echo: dict
    results: dict
    provenance: dict
    csv_files: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config_echo,
                "results": self.results,
                "provenance": self.provenance,
                "csv_files": self.csv_files,
            },
            indent=2,
            sort_keys=True,
        )


def run(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Execute one experiment config and write its artifacts to out_dir. The command's loop
    reads its parameters with their defaults filled in, the report as the config gives them."""
    t0 = time.perf_counter()
    out = Path(out_dir if out_dir is not None else (config.output_dir or "."))
    out.mkdir(parents=True, exist_ok=True)

    runner = {
        "measure": _run_measure,
        "collide": _run_collide,
        "probe-dim": _run_probe_dim,
        "mra-sim": _run_mra_sim,
        "sweep": _run_sweep,
    }[config.command]
    results, csv_files = runner(with_defaults(config.command, config.parameters), out)

    seeds: list[int] = []
    _collect_seeds(config.parameters, seeds)
    report = RunReport(
        config_echo=config.to_dict(),
        results=results,
        provenance={
            "seed_list": seeds,
            "config_sha256": config.content_hash(),
            "wall_time_s": round(time.perf_counter() - t0, 3),
        },
        csv_files=[str(p) for p in csv_files],
    )
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def build_mixing(spec: dict, N: int) -> np.ndarray:
    """The (N, N) mixing a spec names: ``np.eye(N)`` or a seeded draw."""
    if spec["kind"] == "identity":
        return np.eye(N)
    return sample_mixing(N, spec["kind"], seed=int(spec["seed"]))


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def _run_measure(p: dict, out: Path):
    if "signal" in p:
        sig = np.asarray(p["signal"], dtype=float)
    else:
        try:
            text = Path(p["signal_path"]).read_text("utf-8")
            # loadtxt's own comment rule; it warns instead of raising on no data
            lines = [line.split("#")[0] for line in text.splitlines()]
            sig = np.loadtxt(lines).reshape(-1) if any(map(str.strip, lines)) else None
        except ValueError as e:
            raise ConfigError(f"parameters.signal_path: not a list of numbers ({e})") from None
        if sig is None:
            raise ConfigError("parameters.signal_path: the file holds no numbers")
        if not np.isfinite(sig).all():
            raise ConfigError("parameters.signal_path: the file holds a value that is not finite")
        check_memory("measure", p, sig)
    if p["domain"] == "time":
        sig = to_real_fourier(sig)
    blocks = build_blocks(p, sig.shape[0])
    if p["mixing"]["kind"] == "identity":   # I x has the energies of x, to the bit
        values = second_moment_blocks(sig, blocks)
    else:
        values = separable_measurement(sig, build_mixing(p["mixing"], blocks.N), blocks)
    path = out / "measurement.csv"
    row = {f"b{k + 1}": v for k, v in enumerate(values)}
    write_csv(path, ",".join(row), [row])
    return {"values": [float(v) for v in values], "blocks": list(blocks.dims)}, [path]


# ---------------------------------------------------------------------------
# collide
# ---------------------------------------------------------------------------

SWEEP_CSV_HEADER = "N,M,regime,kind,seed,verdict,residual,separation"


def _collision_row(N, M, regime, kind, seed, report) -> dict:
    """One row of SWEEP_CSV_HEADER for a collision search's report."""
    return {
        "N": N,
        "M": M,
        "regime": regime,
        "kind": kind,
        "seed": seed,
        "verdict": report.verdict,
        "residual": report.residual,
        "separation": report.separation,
    }


def _prior_dimension_summary(prior) -> int:
    if isinstance(prior, SparsePrior):
        return prior.sparsity
    return estimate_image_dimension(prior)


def _load_prior(p: dict, command: str, N: int | None = None, recovers: bool = False):
    """The prior of ``p``, of signal length N if given, checked against the memory budget
    with its built shape and, where it ``recovers``, a deep 2-D cone's sector count."""
    prior = build_prior(p["prior"])
    if N is not None and prior.output_dim != N:
        raise ConfigError(f"parameters.prior: its signals have length {prior.output_dim}, "
                          f"the group acts on length {N}")
    deep = recovers and recover_path(prior) == "sectors" and len(prior.layers) > 2
    check_memory(command, p, prior, len(cone_sectors(prior)[0]) - 1 if deep else None)
    return prior


def _run_collide(p: dict, out: Path):
    prior = _load_prior(p, "collide")
    N = prior.output_dim
    blocks = build_blocks(p, N)
    kind = p["mixing"]["kind"]
    mixing_seeds = p.get("mixing_seeds") or [p["mixing"].get("seed", 0)]
    M = _prior_dimension_summary(prior)
    regime = regime_label(blocks.R, M, kind)

    def mixing(mseed):
        return build_mixing({"kind": kind, "seed": mseed}, N)

    # The oracle draws no randomness, so running it first changes no result; its latent
    # dimension and point cap were checked with the memory budget (config.check_memory).
    oracle = None
    if p["oracle_check"]:
        oracle = brute_force_collision_oracle(
            prior, mixing(mixing_seeds[0]), blocks, grid_points_per_axis=p["oracle_grid"]
        )
    reports = [
        (mseed, collision_search(prior, mixing(mseed), blocks, p["restarts"], p["seed"]))
        for mseed in mixing_seeds
    ]
    rows = [_collision_row(N, M, regime, kind, mseed, rep) for mseed, rep in reports]
    path = out / "collisions.csv"
    write_csv(path, SWEEP_CSV_HEADER, rows)
    collisions = sum(r["verdict"] == "collision" for r in rows)
    results = {
        "N": N,
        "M": M,
        "regime": regime,
        "collisions_found": collisions,
        "searches": len(rows),
        "all_converged": all(rep.converged for _, rep in reports),
        "restarts_used": [rep.restarts_used for _, rep in reports],
        "solves_at_budget": [rep.solves_at_budget for _, rep in reports],
    }
    if oracle is not None:
        results["oracle_verdict"] = oracle.verdict
        results["oracle_residual"] = oracle.residual
        results["oracle_separation"] = oracle.separation
        results["oracle_scale"] = oracle.scale
    return results, [path]


# ---------------------------------------------------------------------------
# probe-dim
# ---------------------------------------------------------------------------

PROBE_CSV_HEADER = (
    "pair,N,manifold,ambient_dim,estimated_solution_dim,theoretical_bound,"
    "converged,residual"
)


def _run_probe_dim(p: dict, out: Path):
    N = int(p["N"])
    blocks = build_blocks(p, N)
    manifold = p["manifold"]
    pairs = int(p["pairs"])
    base_seed = int(p["seed"])

    def one(i):
        rng = np.random.default_rng(np.random.SeedSequence((base_seed, i)))
        x = rng.normal(size=N)
        y = rng.normal(size=N)
        seed = np.random.SeedSequence((base_seed, i, 0xB))
        est = codimension_probe(x, y, manifold, blocks, seed, p["restarts"])
        return i, replace(est, solution=None)      # a pair keeps no (N, N) mixing

    probes = [one(i) for i in range(pairs)]
    rows = [
        {
            "pair": i,
            "N": N,
            "manifold": manifold,
            "ambient_dim": est.ambient_dim,
            "estimated_solution_dim": est.estimated_solution_dim,
            "theoretical_bound": est.theoretical_bound,
            "converged": est.converged,
            "residual": est.residual,
        }
        for i, est in probes
    ]
    path = out / "probes.csv"
    write_csv(path, PROBE_CSV_HEADER, rows)
    converged = [est for _, est in probes if est.converged]
    within = [est for est in converged if est.estimated_solution_dim <= est.theoretical_bound]
    equal = [est for est in converged if est.estimated_solution_dim == est.theoretical_bound]
    results = {
        "pairs": pairs,
        "converged": len(converged),
        "within_bound": len(within),
        "equal_to_bound": len(equal),
        "theoretical_bound": rows[0]["theoretical_bound"],
        "ambient_dim": rows[0]["ambient_dim"],
    }
    return results, [path]


# ---------------------------------------------------------------------------
# mra-sim
# ---------------------------------------------------------------------------

MRA_CSV_HEADER = "repeat,sigma,n,invariant_rmse,recovery_error,recovery_converged"
BLOCKSCALAR_CSV_HEADER = (
    "block,dim,energy,exact_offblock_max,exact_scalar_dev,mc_rel_frobenius"
)


def _build_group(spec: dict) -> GroupAction:
    if spec["kind"] == "so3-bandlimited":
        return GroupAction.sphere(int(spec["L"]))
    return GroupAction(spec["kind"], int(spec["N"]))


def _ground_truth(prior, A, true_seed, signal_norm) -> np.ndarray:
    """The ground-truth signal x*; a draw ``signal_norm`` cannot rescale is a config error."""
    try:
        return draw_ground_truth(prior, A, true_seed, signal_norm)[2]
    except ValueError as e:
        raise ConfigError(f"parameters.signal_norm: {e}") from None


def _run_mra_sim(p: dict, out: Path):
    group = _build_group(p["group"])
    blocks = group.blocks
    N = group.N
    sigma = float(p["sigma"])
    n = int(p["n"])
    base_seed = int(p["seed"])

    prior = A = None
    if "prior" in p:
        prior = _load_prior(p, "mra-sim", N, recovers=p["recover"])
        A = build_mixing(p["mixing"], N)
        x_star = _ground_truth(prior, A, p["true_seed"], p.get("signal_norm"))
    else:
        rng = np.random.default_rng(int(p["signal_seed"]))
        x_star = rng.normal(size=N)
        x_star /= np.linalg.norm(x_star)

    csv_files = []
    results: dict = {"group": group.kind, "N": N, "sigma": sigma, "n": n}

    if p["block_scalar_check"]:
        M_exact = exact_population_moment(x_star, group)
        energies = second_moment_blocks(x_star, blocks)
        M_mc = simulate_second_moment(x_star, group, n, sigma, seed=base_seed)
        rows = []
        off_mask = np.ones((N, N), dtype=bool)
        for sl in blocks.slices():
            off_mask[sl, sl] = False
        off_max = float(np.max(np.abs(M_exact[off_mask]))) if off_mask.any() else 0.0
        for k, sl in enumerate(blocks.slices()):
            d = blocks.dims[k]
            target = (energies[k] / d) * np.eye(d)
            exact_dev = float(np.max(np.abs(M_exact[sl, sl] - target)))
            mc_rel = float(
                np.linalg.norm(M_mc[sl, sl] - target) / np.linalg.norm(target)
            )
            rows.append(
                {
                    "block": k,
                    "dim": d,
                    "energy": float(energies[k]),
                    "exact_offblock_max": off_max,
                    "exact_scalar_dev": exact_dev,
                    "mc_rel_frobenius": mc_rel,
                }
            )
        path = out / "blockscalar.csv"
        write_csv(path, BLOCKSCALAR_CSV_HEADER, rows)
        csv_files.append(path)
        results["exact_scalar_dev_max"] = max(r["exact_scalar_dev"] for r in rows)
        results["mc_rel_frobenius_max"] = max(r["mc_rel_frobenius"] for r in rows)

    if p["recover"]:
        repeats = int(p["repeats"])
        true_inv = second_moment_blocks(x_star, blocks)

        def one(rep):
            inv = simulate_invariants(
                x_star, group, n, sigma, seed=np.random.SeedSequence((base_seed, rep))
            )
            seed = np.random.SeedSequence((base_seed, rep, 0xC))
            rec = recover(inv, prior, A, blocks, seed, p["recover_restarts"])
            rmse = float(np.sqrt(np.mean((inv - true_inv) ** 2)))
            return {
                "repeat": rep,
                "sigma": sigma,
                "n": n,
                "invariant_rmse": rmse,
                "recovery_error": rec.error_fn(x_star),
                "recovery_converged": rec.converged,
            }

        rows = [one(rep) for rep in range(repeats)]
        path = out / "mra.csv"
        write_csv(path, MRA_CSV_HEADER, rows)
        csv_files.append(path)
        results["median_recovery_error"] = float(
            np.median([r["recovery_error"] for r in rows])
        )
        results["all_recoveries_converged"] = all(r["recovery_converged"] for r in rows)
        results["recover_path"] = recover_path(prior)

    if not csv_files:
        # bare simulation: report invariant estimates only
        inv = simulate_invariants(x_star, group, n, sigma, seed=base_seed)
        rows = [
            {"repeat": 0, "sigma": sigma, "n": n, "invariant_rmse": float(
                np.sqrt(np.mean((inv - second_moment_blocks(x_star, blocks)) ** 2))
            ), "recovery_error": None, "recovery_converged": None}
        ]
        path = out / "mra.csv"
        write_csv(path, MRA_CSV_HEADER, rows)
        csv_files.append(path)

    return results, csv_files


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SAMPLE_COMPLEXITY_CSV_HEADER = "sigma,n_star,median_error,seeds_used"


def _cell_prior(spec: dict, N: int, M: int, seed: int):
    """The prior of threshold-sweep cell (N, M) for ``seed``, from its ``prior_family`` spec."""
    if spec["type"] == "sparse":
        return build_prior({**spec, "N": N, "M": M, "seed": seed})
    widths = threshold_cell_widths(spec, N, M)
    return build_prior({"type": "relu-network", "widths": widths, "seed": seed})


def _run_threshold(p: dict, out: Path):
    """Collision fractions over the (N, M) grid: one search per cell (M <= N) and seed.

    Each search draws its mixing from the stream (seed, 0xA), apart from its
    own starts, which come from ``seed``. Regimes are labeled from the mixing
    kind's thresholds; below-threshold cells are reported without any
    expectation attached.
    """
    kind = p["mixing_kind"]
    family = p["prior_family"]
    rows, cells = [], []
    for N in p["N_range"]:
        blocks = block_structure_for_power_spectrum(N)
        for M in p["M_range"]:
            if M > N:
                continue
            regime = regime_label(blocks.R, M, kind)
            cell = []
            for seed in p["seeds"]:
                prior = _cell_prior(family, N, M, seed)
                A = sample_mixing(N, kind, np.random.SeedSequence((seed, 0xA)))
                report = collision_search(prior, A, blocks, restarts=p["restarts"], seed=seed)
                del prior, A        # the next cell draws without this one's arrays
                cell.append(_collision_row(N, M, regime, kind, seed, report))
            hits = sum(r["verdict"] == "collision" for r in cell)
            cells.append(
                {"N": N, "M": M, "regime": regime, "collisions_found_fraction": hits / len(cell)}
            )
            rows += cell
    path = out / "sweep.csv"
    write_csv(path, SWEEP_CSV_HEADER, rows)
    return {
        "cells": cells,
        "collisions_found": sum(r["verdict"] == "collision" for r in rows),
        "searches": len(rows),
    }, [path]


#: ``true_seed: "auto-conditioned"`` scans ground-truth seeds 0 .. _MAX_SCAN - 1.
_MAX_SCAN = 256


def _conditioned_seed(prior, A, blocks, signal_norm, amp_threshold) -> int:
    """The first ground-truth seed whose noise amplification is at most ``amp_threshold``.

    Deterministic: scans seeds 0, 1, 2, ... and returns the first acceptable
    one, so configs recording only the policy stay reproducible. A seed whose
    ground truth cannot be drawn (see ``draw_ground_truth``) is skipped. If
    every seed is skipped, the error names ``signal_norm`` and gives the last
    seed's reason; if some were screened and none passed, ``amp_threshold``.
    """
    skipped = 0
    for seed in range(_MAX_SCAN):
        try:
            amp = instance_noise_amplification(prior, A, blocks, seed, signal_norm)
        except ValueError as e:
            skipped, last = skipped + 1, e
            continue
        if amp <= amp_threshold:
            return seed
    if skipped == _MAX_SCAN:
        raise ConfigError(
            f"parameters.signal_norm: no ground truth could be drawn in {_MAX_SCAN} seeds ({last})"
        )
    raise ConfigError(
        f"parameters.amp_threshold: no instance with amplification <= {amp_threshold} "
        f"in {_MAX_SCAN} seeds"
    )


def _run_sample_complexity(p: dict, out: Path):
    """Smallest observation count n* reaching a target median recovery error, per sigma.

    For each sigma, walks an ascending geometric grid of n, from ``n_min`` by
    n <- min(ceil(n * grid_ratio), n_cap) up to ``n_cap``, and records the
    first n whose median sign-aligned relative error over the seeds meets
    the target; a sigma that never meets it is saturated (n_star empty). The
    fitted slope is the least-squares slope of log n_star against log sigma
    over the sigmas that are not saturated.

    A cell stops early: once more than half of its seeds' errors exceed the
    target, its median cannot meet it, so the remaining seeds are skipped and
    the walk moves to the next n. That changes no result. Each seed draws
    from its own streams (below), so a skipped seed alters no other seed's
    draws; a cell that meets the target evaluates every seed, so its
    ``median_error`` is exact; and ``seeds_used`` is always the number of
    seeds, the sample the median is taken over. ``recoveries`` counts the
    ``recover`` calls actually made.

    The ground-truth signal is one fixed draw from the mixed prior
    (optionally rescaled to ``signal_norm``), shared by every cell. Seeding
    is keyed by position: the invariants and the recovery starts of one seed
    in one cell come from ``SeedSequence``s keyed by (true_seed, i, j, seed)
    and that key plus 0xC, with i the index of sigma in ``sigma_list`` and j
    the index of n along the grid. The same sigma at another index of another
    list therefore gets other draws, and so may get another n_star.
    """
    group = _build_group(p["group"])
    blocks = group.blocks
    prior = _load_prior(p, "sweep", group.N, recovers=True)
    A = build_mixing(p["mixing"], group.N)
    signal_norm = p.get("signal_norm")
    true_seed = p["true_seed"]
    if true_seed == "auto-conditioned":
        true_seed = _conditioned_seed(prior, A, blocks, signal_norm, p["amp_threshold"])
    x_star = _ground_truth(prior, A, true_seed, signal_norm)
    sigma_list = [float(s) for s in p["sigma_list"]]
    target_error = p["target_error"]
    seeds = p["seeds"]

    def cell_error(key, n, sigma):
        inv = simulate_invariants(
            x_star, group, n, sigma, np.random.default_rng(np.random.SeedSequence(key))
        )
        seed = np.random.SeedSequence(key + (0xC,))
        rec = recover(inv, prior, A, blocks, seed, p["recover_restarts"])
        return rec.error_fn(x_star)

    rows = []
    recoveries = 0
    for si, sigma in enumerate(sigma_list):
        n_star = median_err = None
        for ni, n in enumerate(n_grid(p)):
            errs, misses = [], 0
            for s in seeds:
                errs.append(cell_error((true_seed, si, ni, s), n, sigma))
                misses += errs[-1] > target_error
                if misses > len(seeds) // 2:    # the median misses too
                    break
            recoveries += len(errs)
            if len(errs) == len(seeds) and np.median(errs) <= target_error:
                n_star, median_err = n, float(np.median(errs))
                break
        rows.append(
            {"sigma": sigma, "n_star": n_star, "median_error": median_err, "seeds_used": len(seeds)}
        )

    solved = [(r["sigma"], r["n_star"]) for r in rows if r["n_star"] is not None]
    slope = None
    if len(solved) >= 2:
        sig, ns = zip(*solved)
        slope = float(np.polyfit(np.log(sig), np.log(ns), 1)[0])
    path = out / "samplecomplexity.csv"
    write_csv(path, SAMPLE_COMPLEXITY_CSV_HEADER, rows)
    return {
        "fitted_slope": slope,
        "resolved_true_seed": true_seed,
        "saturated_sigmas": [r["sigma"] for r in rows if r["n_star"] is None],
        "recoveries": recoveries,
        "recover_path": recover_path(prior),
        "rows": rows,
    }, [path]


def _run_sweep(p: dict, out: Path):
    if p["sweep_kind"] == "threshold":
        return _run_threshold(p, out)
    return _run_sample_complexity(p, out)
