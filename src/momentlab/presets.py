"""Preset experiment configurations, one per verified claim.

Each preset is a ready-to-run :class:`~momentlab.config.ExperimentConfig`
whose ``claim`` string states the quantitative regime it exercises. Presets
with positive controls (constructions that must collide) and negative
expectations (regimes where no collision may exist) are both included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError, ExperimentConfig

__all__ = ["Preset", "PRESETS", "get_preset", "list_presets"]


@dataclass(frozen=True)
class Preset:
    name: str
    claim: str
    config: ExperimentConfig

    def parameters(self) -> dict:
        return self.config.parameters


def _cfg(command: str, parameters: dict) -> ExperimentConfig:
    return ExperimentConfig(command=command, parameters=parameters)


_PRESET_LIST = [
    Preset(
        "thm1-gl",
        "general-linear mixing, N >= 4M: collision search over a ReLU prior "
        "with image dimension M=2 at N=9 expects verdict no-collision-found",
        _cfg(
            "collide",
            {
                "prior": {"type": "relu-network", "widths": [2, 12, 9], "seed": 3},
                "mixing": {"kind": "general-linear", "seed": 11},
                "mixing_seeds": [11, 12, 13, 14, 15],
                "restarts": 200,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "thm2-so",
        "rotation mixing, N >= 4M+2: collision search over a ReLU prior with "
        "image dimension M=2 at N=10 expects verdict no-collision-found",
        _cfg(
            "collide",
            {
                "prior": {"type": "relu-network", "widths": [2, 12, 10], "seed": 5},
                "mixing": {"kind": "special-orthogonal", "seed": 21},
                "mixing_seeds": [21, 22, 23, 24, 25],
                "restarts": 200,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "cor-deepnet",
        "deep generator (3 hidden layers), "
        "N >= 4M with M=2 at N=12: expects verdict no-collision-found",
        _cfg(
            "collide",
            {
                "prior": {"type": "relu-network", "widths": [2, 8, 6, 8, 12], "seed": 7},
                "mixing": {"kind": "general-linear", "seed": 31},
                "mixing_seeds": [31, 32, 33],
                "restarts": 200,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "cor-sparse",
        "N >= 4M+2 regime: M=2-sparse signals in a generic orthonormal basis "
        "under rotation mixing at N=12 expect verdict no-collision-found",
        _cfg(
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
                "mixing_seeds": [41, 42, 43],
                "restarts": 200,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "ctrl-torus",
        "positive control: identity mixing on all of R^8 leaves whole torus "
        "orbits indistinguishable, so a collision must be found",
        _cfg(
            "collide",
            {
                "prior": {"type": "ambient", "N": 8},
                "mixing": {"kind": "identity"},
                "restarts": 50,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "ctrl-sparse-shift",
        "positive control: standard-basis sparsity (M=2, N=8) under identity "
        "mixing collides across cyclically shifted supports",
        _cfg(
            "collide",
            {
                "prior": {"type": "sparse", "kind": "standard-basis", "N": 8, "M": 2},
                "mixing": {"kind": "identity"},
                "restarts": 100,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "lemma-codim-gl",
        "mixings confusing a fixed generic pair form a set of dimension at "
        "most N^2 - (N/2 + 1) = 59 in the general-linear case at N=8",
        _cfg(
            "probe-dim",
            {"N": 8, "manifold": "general-linear", "pairs": 20, "seed": 0},
        ),
    ),
    Preset(
        "prop-codim-so",
        "rotations confusing a fixed generic pair form a set of dimension at "
        "most dim SO(7) - (7-1)/2 = 18",
        _cfg(
            "probe-dim",
            {"N": 7, "manifold": "special-orthogonal", "pairs": 20, "seed": 0},
        ),
    ),
    Preset(
        "lemma-codim-gl-blocks",
        "with blocks (1,3,5) at N=9 the confusing general-linear mixings have "
        "dimension at most N^2 - R = 78",
        _cfg(
            "probe-dim",
            {
                "N": 9,
                "blocks": [1, 3, 5],
                "manifold": "general-linear",
                "pairs": 20,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "lemma-codim-so-blocks",
        "with blocks (1,3,5) at N=9 the confusing rotations have dimension at "
        "most dim SO(9) - (R-1) = 34",
        _cfg(
            "probe-dim",
            {
                "N": 9,
                "blocks": [1, 3, 5],
                "manifold": "special-orthogonal",
                "pairs": 20,
                "seed": 0,
            },
        ),
    ),
    Preset(
        "mra-cyclic-n4",
        "sample complexity n* ~ sigma^4: smallest observation count reaching "
        "10% median recovery error fits a log-log slope of 4 over sigma "
        "in {0.5, 1, 2} (cyclic N=8, ReLU prior)",
        _cfg(
            "sweep",
            {
                "sweep_kind": "sample-complexity",
                "group": {"kind": "cyclic", "N": 8},
                "prior": {"type": "relu-network", "widths": [2, 10, 8], "seed": 11},
                "mixing": {"kind": "special-orthogonal", "seed": 11},
                "sigma_list": [0.5, 1.0, 2.0],
                "target_error": 0.1,
                "seeds": list(range(10)),
                "true_seed": "auto-conditioned",
                "signal_norm": 0.4,
                "n_cap": 10000000,
            },
        ),
    ),
    Preset(
        "cor-sphere-so3",
        "band-limited sphere, L=3 > M=2: rotation-mixed generator signals are "
        "recovered from second-moment invariants of rotated noisy copies",
        _cfg(
            "mra-sim",
            {
                "group": {"kind": "so3-bandlimited", "L": 3},
                "prior": {"type": "relu-network", "widths": [2, 10, 16], "seed": 13},
                "mixing": {"kind": "special-orthogonal", "seed": 51},
                "sigma": 0.3,
                "n": 200000,
                "seed": 0,
                "recover": True,
                "repeats": 3,
            },
        ),
    ),
    Preset(
        "appendixB-blockscalar",
        "population second moment is block-scalar: diagonal block l equals "
        "(block energy / (2l+1)) x identity; checked by exact quadrature and "
        "Monte Carlo at L=4",
        _cfg(
            "mra-sim",
            {
                "group": {"kind": "so3-bandlimited", "L": 4},
                "signal_seed": 2,
                "sigma": 0.0,
                "n": 100000,
                "seed": 0,
                "block_scalar_check": True,
            },
        ),
    ),
]

PRESETS: dict[str, Preset] = {p.name: p for p in _PRESET_LIST}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"--preset: unknown preset {name!r}; known presets: {known}") from None


def list_presets() -> list[dict]:
    """Rows of (name, claim, default parameters) for every preset."""
    return [
        {"name": p.name, "claim": p.claim, "parameters": p.parameters()}
        for p in _PRESET_LIST
    ]
