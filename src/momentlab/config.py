"""Experiment configs: a versioned JSON envelope plus per-command parameters.

All randomness flows through explicit seeds in the config (never wall-clock),
so re-running a config reproduces its results bit for bit. Prior and mixing
specifications are small tagged dicts; priors may also be loaded from the
JSON wire formats in :mod:`momentlab.priors`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .measurements import BlockStructure, MixingMatrix, block_structure_for_power_spectrum
from .priors import (
    GeneratorNetwork,
    SparsePrior,
    ambient_network,
    generic_linear_sparse_prior,
    generic_orthonormal_sparse_prior,
    network_from_json,
    perturb_final_layer,
    random_relu_network,
    sample_mixing,
    sparse_prior_from_json,
    standard_basis_sparse_prior,
)

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "validate_config"]

SCHEMA_VERSION = 1

COMMANDS = ("measure", "collide", "probe-dim", "mra-sim", "sweep")

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "parameters"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": list(COMMANDS)},
        "parameters": {"type": "object"},
        "output_dir": {"type": "string"},
    },
    "additionalProperties": False,
}


class ConfigError(ValueError):
    """Invalid configuration; message carries a field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict
    output_dir: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        d = {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": self.parameters,
        }
        if self.output_dir is not None:
            d["output_dir"] = self.output_dir
        return d

    def content_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _require(params: dict, key: str, where: str):
    if key not in params:
        raise ConfigError(f"parameters.{where}{key}: required field missing")
    return params[key]


_PRIOR_TYPES = ("relu-network", "network-file", "sparse", "sparse-file", "ambient")
_MIXING_KINDS = ("general-linear", "special-orthogonal", "identity")


def _check_prior_spec(spec, where: str):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"parameters.{where}: prior spec must be an object with a 'type'")
    t = spec["type"]
    if t not in _PRIOR_TYPES:
        raise ConfigError(f"parameters.{where}.type: unknown prior type {t!r}")
    if t == "relu-network" and "widths" not in spec:
        raise ConfigError(f"parameters.{where}.widths: required for relu-network")
    if t in ("network-file", "sparse-file"):
        path = spec.get("path")
        if not path:
            raise ConfigError(f"parameters.{where}.path: required for {t}")
        if not Path(path).exists():
            raise ConfigError(f"parameters.{where}.path: file not found: {path}")
    if t == "sparse":
        for k in ("N", "M"):
            if k not in spec:
                raise ConfigError(f"parameters.{where}.{k}: required for sparse prior")
    if t == "ambient" and "N" not in spec:
        raise ConfigError(f"parameters.{where}.N: required for ambient prior")


def _check_mixing_spec(spec, where: str):
    if not isinstance(spec, dict) or spec.get("kind") not in _MIXING_KINDS:
        raise ConfigError(
            f"parameters.{where}.kind: must be one of {_MIXING_KINDS}"
        )
    if spec["kind"] != "identity" and "seed" not in spec:
        raise ConfigError(f"parameters.{where}.seed: explicit seed required")


def build_prior(spec: dict):
    t = spec["type"]
    if t == "relu-network":
        net = random_relu_network(
            tuple(int(w) for w in spec["widths"]),
            seed=int(spec.get("seed", 0)),
            activation=spec.get("activation", "relu"),
        )
        if spec.get("perturb_final_layer"):
            net = perturb_final_layer(
                net,
                rel_scale=float(spec.get("perturb_scale", 1e-2)),
                seed=int(spec.get("perturb_seed", 0)),
            )
        return net
    if t == "network-file":
        return network_from_json(Path(spec["path"]).read_text())
    if t == "sparse-file":
        return sparse_prior_from_json(Path(spec["path"]).read_text())
    if t == "ambient":
        return ambient_network(int(spec["N"]))
    # sparse
    kind = spec.get("kind", "generic-orthonormal")
    N, M = int(spec["N"]), int(spec["M"])
    if kind == "standard-basis":
        return standard_basis_sparse_prior(N, M)
    if kind == "generic-orthonormal":
        return generic_orthonormal_sparse_prior(N, M, seed=int(spec.get("seed", 0)))
    if kind == "generic-linear":
        return generic_linear_sparse_prior(N, M, seed=int(spec.get("seed", 0)))
    raise ConfigError(f"unknown sparse prior kind {kind!r}")


def prior_output_dim(prior) -> int:
    if isinstance(prior, GeneratorNetwork):
        return prior.output_dim
    if isinstance(prior, SparsePrior):
        return prior.N
    raise TypeError(type(prior).__name__)


def build_mixing(spec: dict, N: int) -> MixingMatrix:
    if spec["kind"] == "identity":
        return MixingMatrix.identity(N)
    return sample_mixing(N, spec["kind"], seed=int(spec["seed"]))


def build_blocks(params: dict, N: int) -> BlockStructure:
    if "blocks" not in params:
        return block_structure_for_power_spectrum(N)
    blocks = BlockStructure(tuple(params["blocks"]))
    if blocks.N != N:
        raise ConfigError(f"parameters.blocks: dims sum to {blocks.N}, the signal has length {N}")
    return blocks


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_count(v) -> bool:
    return _is_int(v) and v >= 1


def _is_seed(v) -> bool:
    return _is_int(v) and v >= 0


def _non_empty_list_of(item_ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(item_ok(x) for x in v)


#: (check, description) of each parameter the runner reads as a number or a
#: list of numbers, applied under whichever command carries the key.
_PARAMETER_RULES = {
    **dict.fromkeys(
        ("restarts", "pairs", "repeats", "n", "recover_restarts", "n_min", "n_cap", "N"),
        (_is_count, "an integer >= 1"),
    ),
    **dict.fromkeys(("seed", "signal_seed"), (_is_seed, "an integer >= 0")),
    **dict.fromkeys(
        ("seeds", "mixing_seeds"),
        (_non_empty_list_of(_is_seed), "a non-empty list of integers >= 0"),
    ),
    **dict.fromkeys(
        ("blocks", "N_range", "M_range"),
        (_non_empty_list_of(_is_count), "a non-empty list of integers >= 1"),
    ),
    **dict.fromkeys(
        ("residual_tol", "separation_tol", "residual_target", "rank_rtol", "amp_threshold"),
        (lambda v: _is_number(v) and v > 0, "a number > 0"),
    ),
    "penalty": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "oracle_grid": (lambda v: _is_int(v) and 1 <= v <= 200, "an integer in [1, 200]"),
    "sigma": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "grid_ratio": (lambda v: _is_number(v) and v > 1, "a number > 1"),
    "target_error": (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "sigma_list": (
        lambda v: _non_empty_list_of(lambda x: _is_number(x) and x > 0)(v) and v == sorted(v),
        "a non-empty ascending list of numbers > 0",
    ),
}


def _check_parameter_ranges(p: dict):
    for key, value in p.items():
        rule = _PARAMETER_RULES.get(key)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"parameters.{key}: must be {rule[1]}, got {value!r}")


def _check_command_parameters(command: str, p: dict):
    if command == "measure":
        if "signal" not in p and "signal_path" not in p:
            raise ConfigError("parameters.signal: inline signal or signal_path required")
        if "signal_path" in p and not Path(p["signal_path"]).exists():
            raise ConfigError(
                f"parameters.signal_path: file not found: {p['signal_path']}"
            )
    elif command == "collide":
        _check_prior_spec(_require(p, "prior", ""), "prior")
        _check_mixing_spec(_require(p, "mixing", ""), "mixing")
        if "seed" not in p:
            raise ConfigError("parameters.seed: explicit seed required")
    elif command == "probe-dim":
        if "N" not in p:
            raise ConfigError("parameters.N: required")
        if p.get("manifold") not in ("general-linear", "special-orthogonal"):
            raise ConfigError(
                "parameters.manifold: must be general-linear or special-orthogonal"
            )
        if p["manifold"] == "special-orthogonal" and p["N"] < 2:
            raise ConfigError("parameters.N: special-orthogonal probes need N >= 2")
        if "seed" not in p:
            raise ConfigError("parameters.seed: explicit seed required")
    elif command == "mra-sim":
        group = p.get("group", {})
        if group.get("kind") not in ("cyclic", "dihedral", "so3-bandlimited"):
            raise ConfigError("parameters.group.kind: unknown group kind")
        if group["kind"] == "so3-bandlimited" and "L" not in group:
            raise ConfigError("parameters.group.L: band limit required")
        if group["kind"] != "so3-bandlimited" and "N" not in group:
            raise ConfigError("parameters.group.N: dimension required")
        if "sigma" not in p:
            raise ConfigError("parameters.sigma: required")
        if "n" not in p:
            raise ConfigError("parameters.n: required")
        if "seed" not in p:
            raise ConfigError("parameters.seed: explicit seed required")
        if "prior" in p:
            _check_prior_spec(p["prior"], "prior")
        if "mixing" in p:
            _check_mixing_spec(p["mixing"], "mixing")
    elif command == "sweep":
        kind = p.get("sweep_kind")
        if kind == "threshold":
            for k in ("N_range", "M_range", "mixing_kind", "seeds"):
                if k not in p:
                    raise ConfigError(f"parameters.{k}: required for threshold sweep")
            if p["mixing_kind"] not in ("general-linear", "special-orthogonal"):
                raise ConfigError("parameters.mixing_kind: bad value")
        elif kind == "sample-complexity":
            for k in ("sigma_list", "target_error", "seeds", "prior", "mixing", "group"):
                if k not in p:
                    raise ConfigError(f"parameters.{k}: required for sample-complexity sweep")
            _check_prior_spec(p["prior"], "prior")
            _check_mixing_spec(p["mixing"], "mixing")
        else:
            raise ConfigError(
                "parameters.sweep_kind: must be 'threshold' or 'sample-complexity'"
            )


def validate_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object; raises ConfigError with a field path."""
    try:
        jsonschema.validate(data, ENVELOPE_SCHEMA)
    except jsonschema.ValidationError as e:
        path = ".".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"{path}: {e.message}") from None
    _check_parameter_ranges(data["parameters"])
    _check_command_parameters(data["command"], data["parameters"])
    return ExperimentConfig(
        command=data["command"],
        parameters=data["parameters"],
        output_dir=data.get("output_dir"),
        schema_version=data["schema_version"],
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file; parse errors carry line/column info."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    return validate_config(data)
