"""The benchmark's workloads: momentlab experiment configs and their output checks.

Each workload is a list of configs that the benchmark passes to
``momentlab.runner.run``. Every seed that draws part of an experiment is
derived from the workload seed, and seed 0 gives the configs written below.
One operation is one CSV row, and each row is checked against the acceptance
suite's own thresholds (``tests/test_acceptance.py``).

This module imports nothing from momentlab, so that building the configs is
not part of the measured set-up time.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Draw d of workload seed s moves every top-level config seed by
#: s * SEED_STRIDE + d * DRAW_STRIDE, so draws of one seed never share a seed.
SEED_STRIDE = 1000
DRAW_STRIDE = 10
MAX_DRAWS = SEED_STRIDE // DRAW_STRIDE

#: Bound on the sign-aligned relative recovery error of cor-sphere-so3 rows,
#: which stayed below 1.3e-3 over 32 draws at n = 1e5 and sigma = 0.3.
SPHERE_RECOVERY_MAX = 0.05

#: Bound on the invariant RMSE of the bare dihedral simulation, which stayed
#: below 1e-3 over 32 draws at n = 1e6 and sigma = 0.5.
DIHEDRAL_INVARIANT_RMSE_MAX = 0.01


@dataclass(frozen=True)
class Item:
    """One config of a workload, with the number of CSV rows it must write."""

    name: str
    command: str
    parameters: dict
    rows: int
    check: Callable[[Path], list[bool]]

    def config_dict(self) -> dict:
        return {"schema_version": 1, "command": self.command, "parameters": self.parameters}


def _read_rows(out: Path, csv_name: str) -> list[dict]:
    with open(out / csv_name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Output checks: each returns one boolean per CSV row
# ---------------------------------------------------------------------------

def _no_collision(out: Path) -> list[bool]:
    return [r["verdict"] == "no-collision-found" for r in _read_rows(out, "collisions.csv")]


def _collision(out: Path) -> list[bool]:
    return [
        r["verdict"] == "collision" and float(r["residual"]) < 1e-12
        for r in _read_rows(out, "collisions.csv")
    ]


def _no_collision_matching_oracle(out: Path) -> list[bool]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    oracle = report["results"]["oracle_verdict"]
    return [ok and oracle == "no-collision-found" for ok in _no_collision(out)]


def _probes_within_bound(out: Path) -> list[bool]:
    rows = _read_rows(out, "probes.csv")
    oks = [
        r["converged"] == "true"
        and int(r["estimated_solution_dim"]) <= int(r["theoretical_bound"])
        for r in rows
    ]
    equal = [
        ok and int(r["estimated_solution_dim"]) == int(r["theoretical_bound"])
        for ok, r in zip(oks, rows)
    ]
    if sum(equal) < 0.8 * len(rows):
        return equal        # the rows short of the bound are the failures
    return oks


def _slope_rows(target_error: float):
    def check(out: Path) -> list[bool]:
        return [
            r["n_star"] != "" and float(r["median_error"]) <= target_error
            for r in _read_rows(out, "samplecomplexity.csv")
        ]

    return check


def _block_scalar(out: Path) -> list[bool]:
    return [
        float(r["exact_scalar_dev"]) < 1e-6 and float(r["mc_rel_frobenius"]) < 0.02
        for r in _read_rows(out, "blockscalar.csv")
    ]


def _recovered(out: Path) -> list[bool]:
    return [
        float(r["recovery_error"]) <= SPHERE_RECOVERY_MAX for r in _read_rows(out, "mra.csv")
    ]


def _invariants_close(out: Path) -> list[bool]:
    return [
        float(r["invariant_rmse"]) <= DIHEDRAL_INVARIANT_RMSE_MAX
        for r in _read_rows(out, "mra.csv")
    ]


# ---------------------------------------------------------------------------
# Workloads at seed 0
# ---------------------------------------------------------------------------

def _collide() -> list[Item]:
    return [
        Item(
            "thm2-so",
            "collide",
            {
                "prior": {"type": "relu-network", "widths": [2, 12, 10], "seed": 5},
                "mixing": {"kind": "special-orthogonal", "seed": 21},
                "mixing_seeds": [21],
                "restarts": 20,
                "seed": 0,
            },
            1,
            _no_collision,
        ),
        Item(
            "cor-sparse",
            "collide",
            {
                "prior": {
                    "type": "sparse",
                    "kind": "generic-orthonormal",
                    "N": 12,
                    "M": 2,
                    "seed": 9,
                },
                "mixing": {"kind": "special-orthogonal", "seed": 41},
                "mixing_seeds": [41],
                "restarts": 10,
                "seed": 0,
            },
            1,
            _no_collision,
        ),
        Item(
            "ctrl-torus",
            "collide",
            {
                "prior": {"type": "ambient", "N": 8},
                "mixing": {"kind": "identity"},
                "restarts": 50,
                "seed": 0,
            },
            1,
            _collision,
        ),
        Item(
            "ctrl-sparse-shift",
            "collide",
            {
                "prior": {"type": "sparse", "kind": "standard-basis", "N": 8, "M": 2},
                "mixing": {"kind": "identity"},
                "restarts": 100,
                "seed": 0,
            },
            1,
            _collision,
        ),
        Item(
            "thm1-gl-oracle",
            "collide",
            {
                "prior": {"type": "relu-network", "widths": [2, 12, 9], "seed": 3},
                "mixing": {"kind": "general-linear", "seed": 11},
                "mixing_seeds": [11],
                "restarts": 6,
                "seed": 0,
                "oracle_check": True,
            },
            1,
            _no_collision_matching_oracle,
        ),
    ]


def _mra_slope() -> list[Item]:
    target_error = 0.1
    return [
        Item(
            "mra-cyclic-n4",
            "sweep",
            {
                "sweep_kind": "sample-complexity",
                "group": {"kind": "cyclic", "N": 8},
                "prior": {"type": "relu-network", "widths": [2, 10, 8], "seed": 11},
                "mixing": {"kind": "special-orthogonal", "seed": 11},
                "sigma_list": [0.5, 1.0],
                "target_error": target_error,
                "seeds": [0, 1, 2],
                "true_seed": "auto-conditioned",
                "signal_norm": 0.4,
                "n_min": 256,
                "grid_ratio": 4.0,
                "n_cap": 1000000,
            },
            2,
            _slope_rows(target_error),
        ),
    ]


def _mra_sim() -> list[Item]:
    return [
        Item(
            "so3-blockscalar-L4",
            "mra-sim",
            {
                "group": {"kind": "so3-bandlimited", "L": 4},
                "signal_seed": 2,
                "sigma": 0.0,
                "n": 100000,
                "seed": 0,
                "block_scalar_check": True,
            },
            5,
            _block_scalar,
        ),
        Item(
            "cor-sphere-so3",
            "mra-sim",
            {
                "group": {"kind": "so3-bandlimited", "L": 3},
                "prior": {"type": "relu-network", "widths": [2, 10, 16], "seed": 13},
                "mixing": {"kind": "special-orthogonal", "seed": 51},
                "sigma": 0.3,
                "n": 100000,
                "seed": 0,
                "recover": True,
                "repeats": 2,
            },
            2,
            _recovered,
        ),
        Item(
            "dihedral-n16",
            "mra-sim",
            {
                "group": {"kind": "dihedral", "N": 16},
                "signal_seed": 0,
                "sigma": 0.5,
                "n": 1000000,
                "seed": 0,
            },
            1,
            _invariants_close,
        ),
    ]


def _probe() -> list[Item]:
    return [
        Item(
            "probe-gl-n16",
            "probe-dim",
            {"N": 16, "manifold": "general-linear", "pairs": 30, "seed": 0},
            30,
            _probes_within_bound,
        ),
        Item(
            "probe-so-n20",
            "probe-dim",
            {"N": 20, "manifold": "special-orthogonal", "pairs": 30, "seed": 0},
            30,
            _probes_within_bound,
        ),
    ]


WORKLOADS: dict[str, Callable[[], list[Item]]] = {
    "collide": _collide,
    "mra-slope": _mra_slope,
    "mra-sim": _mra_sim,
    "probe": _probe,
}


def _shift_seeds(parameters: dict, offset: int) -> dict:
    """Copy of the parameters with every top-level '*seed*' integer moved by offset.

    Top-level seeds draw the random parts of an experiment: restart streams,
    mixings to search, probe pairs, signals and noise. Seeds inside the
    ``prior`` and ``mixing`` specs fix the instance that an experiment is
    about and stay put; a derived prior may, for example, have no
    well-conditioned ground truth for ``true_seed: auto-conditioned``.
    """

    def shift(v):
        if isinstance(v, bool) or not isinstance(v, (int, list)):
            return v                    # a policy such as "auto-conditioned"
        return v + offset if isinstance(v, int) else [shift(x) for x in v]

    return {k: shift(v) if "seed" in k else v for k, v in parameters.items()}


def build(workload: str, seed: int, draw: int = 0) -> list[Item]:
    """Draw ``draw`` of the workload's configs, with its seeds derived from ``seed``."""
    if seed < 0 or not 0 <= draw < MAX_DRAWS:
        raise ValueError(f"need seed >= 0 and 0 <= draw < {MAX_DRAWS}, got {seed}, {draw}")
    offset = seed * SEED_STRIDE + draw * DRAW_STRIDE
    return [
        Item(it.name, it.command, _shift_seeds(it.parameters, offset), it.rows, it.check)
        for it in WORKLOADS[workload]()
    ]
