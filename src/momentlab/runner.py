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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    build_blocks,
    build_mixing,
    build_prior,
    check_signal_length,
    given,
    threshold_cell_widths,
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
    recover,
    recover_path,
    sample_complexity_sweep,
    select_conditioned_instance,
    simulate_invariants,
    simulate_second_moment,
)
from .priors import SparsePrior, estimate_image_dimension, sample_mixing

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
    """Execute one experiment config and write its artifacts to out_dir."""
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
    results, csv_files = runner(config.parameters, out)

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
        check_signal_length(sig.shape[0], "parameters.signal_path")
    if p.get("domain", "block") == "time":
        sig = to_real_fourier(sig)
    N = sig.shape[0]
    blocks = build_blocks(p, N)
    A = build_mixing(p.get("mixing", {"kind": "identity"}), N)
    values = separable_measurement(sig, A, blocks)
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


def _run_collide(p: dict, out: Path):
    prior = build_prior(p["prior"])
    if p.get("oracle_check") and prior.latent_dim > 2:
        raise ConfigError(
            "parameters.oracle_check: the grid oracle needs a prior of latent "
            f"dimension <= 2, this one has {prior.latent_dim}"
        )
    N = prior.output_dim
    blocks = build_blocks(p, N)
    kind = p["mixing"]["kind"]
    mixing_seeds = p.get("mixing_seeds") or [p["mixing"].get("seed", 0)]
    M = _prior_dimension_summary(prior)
    regime = regime_label(blocks.R, M, kind)
    search_kwargs = given(p, "restarts", "seed")

    def mixing(mseed):
        return build_mixing({"kind": kind, "seed": mseed}, N)

    # The oracle draws no randomness, so running it first changes no result
    # and rejects an oversized grid before the searches spend their time.
    oracle = None
    if p.get("oracle_check"):
        try:
            grid = given(p, grid_points_per_axis="oracle_grid")
            oracle = brute_force_collision_oracle(prior, mixing(mixing_seeds[0]), blocks, **grid)
        except ValueError as e:
            raise ConfigError(f"parameters.oracle_grid: {e}") from None
    reports = [
        (mseed, collision_search(prior, mixing(mseed), blocks, **search_kwargs))
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
    pairs = int(p.get("pairs", 20))
    base_seed = int(p["seed"])

    def one(i):
        rng = np.random.default_rng(np.random.SeedSequence((base_seed, i)))
        x = rng.normal(size=N)
        y = rng.normal(size=N)
        est = codimension_probe(
            x,
            y,
            manifold,
            blocks,
            seed=np.random.SeedSequence((base_seed, i, 0xB)),
            **given(p, "restarts"),
        )
        return i, est

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


def _build_group_prior(spec: dict, group: GroupAction):
    prior = build_prior(spec)
    if prior.output_dim != group.N:
        raise ConfigError(
            f"parameters.prior: its signals have length {prior.output_dim}, "
            f"the group acts on length {group.N}"
        )
    return prior


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
        prior = _build_group_prior(p["prior"], group)
        A = build_mixing(p.get("mixing", {"kind": "identity"}), N)
        x_star = _ground_truth(prior, A, p.get("true_seed", 0), p.get("signal_norm"))
    else:
        rng = np.random.default_rng(int(p.get("signal_seed", 0)))
        x_star = rng.normal(size=N)
        x_star /= np.linalg.norm(x_star)

    csv_files = []
    results: dict = {"group": group.kind, "N": N, "sigma": sigma, "n": n}

    if p.get("block_scalar_check"):
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

    if p.get("recover"):
        repeats = int(p.get("repeats", 1))
        true_inv = second_moment_blocks(x_star, blocks)

        def one(rep):
            inv = simulate_invariants(
                x_star, group, n, sigma, seed=np.random.SeedSequence((base_seed, rep))
            )
            rec = recover(
                inv,
                prior,
                A,
                blocks,
                seed=np.random.SeedSequence((base_seed, rep, 0xC)),
                **given(p, restarts="recover_restarts"),
            )
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
    family = p.get("prior_family", {"type": "relu-network"})
    restarts = p.get("restarts", 50)
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
                report = collision_search(prior, A, blocks, restarts=restarts, seed=seed)
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


def _run_sweep(p: dict, out: Path):
    if p["sweep_kind"] == "threshold":
        return _run_threshold(p, out)

    # sample-complexity
    group = _build_group(p["group"])
    prior = _build_group_prior(p["prior"], group)
    A = build_mixing(p["mixing"], group.N)
    true_seed = p.get("true_seed", 0)
    if true_seed == "auto-conditioned":
        try:
            true_seed = select_conditioned_instance(
                prior, A, group.blocks, **given(p, "signal_norm", "amp_threshold")
            )
        except ValueError as e:
            raise ConfigError(f"parameters.signal_norm: {e}") from None
        except RuntimeError as e:
            raise ConfigError(f"parameters.amp_threshold: {e}") from None
    _ground_truth(prior, A, true_seed, p.get("signal_norm"))
    result = sample_complexity_sweep(
        prior,
        A,
        group,
        [float(s) for s in p["sigma_list"]],
        float(p["target_error"]),
        [int(s) for s in p["seeds"]],
        true_seed=int(true_seed),
        **given(p, "signal_norm", "n_min", "n_cap", "grid_ratio", "recover_restarts"),
    )
    path = out / "samplecomplexity.csv"
    write_csv(path, SAMPLE_COMPLEXITY_CSV_HEADER, result.rows)
    saturated = [r["sigma"] for r in result.rows if r["n_star"] is None]
    return {
        "fitted_slope": result.fitted_slope,
        "resolved_true_seed": int(true_seed),
        "saturated_sigmas": saturated,
        "recoveries": result.recoveries,
        "recover_path": recover_path(prior),
        "rows": result.rows,
    }, [path]
