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
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .measurements import BlockStructure, MixingMatrix, block_structure_for_power_spectrum
from .priors import (
    ambient_network,
    generic_linear_sparse_prior,
    generic_orthonormal_sparse_prior,
    network_from_json,
    parse_activation,
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


def _require(d: dict, keys, where: str, why: str = "required"):
    for key in keys:
        if key not in d:
            raise ConfigError(f"{where}{key}: {why}")


#: The fields each prior type requires.
_PRIOR_FIELDS = {
    "relu-network": ("widths",),
    "network-file": ("path",),
    "sparse": ("N", "M"),
    "sparse-file": ("path",),
    "ambient": ("N",),
}
_MIXING_KINDS = ("general-linear", "special-orthogonal", "identity")
_GROUP_KINDS = ("cyclic", "dihedral", "so3-bandlimited")


def _check_prior_spec(spec, where: str):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{where}: prior spec must be an object with a 'type'")
    t = spec["type"]
    if t not in _PRIOR_FIELDS:
        raise ConfigError(f"{where}.type: unknown prior type {t!r}")
    _require(spec, _PRIOR_FIELDS[t], f"{where}.", f"required for {t}")
    _check_fields(spec, _SPEC_RULES, f"{where}.")
    if "path" in spec and not Path(spec["path"]).exists():
        raise ConfigError(f"{where}.path: file not found: {spec['path']}")
    if t == "sparse" and spec["M"] > spec["N"]:
        raise ConfigError(f"{where}.M: must be <= N = {spec['N']}")


def _check_mixing_spec(spec, where: str):
    if not isinstance(spec, dict) or spec.get("kind") not in _MIXING_KINDS:
        raise ConfigError(f"{where}.kind: must be one of {_MIXING_KINDS}")
    if spec["kind"] != "identity":
        _require(spec, ("seed",), f"{where}.", "explicit seed required")
    _check_fields(spec, _SPEC_RULES, f"{where}.")


def _check_group_spec(spec, where: str):
    if not isinstance(spec, dict) or spec.get("kind") not in _GROUP_KINDS:
        raise ConfigError(f"{where}.kind: must be one of {_GROUP_KINDS}")
    _require(spec, ("L" if spec["kind"] == "so3-bandlimited" else "N",), f"{where}.")
    _check_fields(spec, _SPEC_RULES, f"{where}.")


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
    if t in ("network-file", "sparse-file"):
        text = Path(spec["path"]).read_text()
        load = network_from_json if t == "network-file" else sparse_prior_from_json
        try:
            return load(text)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(
                f"parameters.prior.path: {spec['path']} is not a {t} prior "
                f"({type(e).__name__}: {e})"
            ) from None
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


def _is_natural(v) -> bool:
    return _is_int(v) and v >= 0


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0


def _is_activation(v) -> bool:
    if not isinstance(v, str):
        return False
    try:
        parse_activation(v)
    except ValueError:
        return False
    return True


def _non_empty_list_of(item_ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(item_ok(x) for x in v)


#: (check, description) of each parameter the runner reads that has a type or
#: range to respect, applied under whichever command carries the key.
_PARAMETER_RULES = {
    **dict.fromkeys(
        ("restarts", "pairs", "repeats", "n", "recover_restarts", "n_min", "n_cap", "N"),
        (_is_count, "an integer >= 1"),
    ),
    **dict.fromkeys(("seed", "signal_seed"), (_is_natural, "an integer >= 0")),
    "true_seed": (
        lambda v: _is_natural(v) or v == "auto-conditioned",
        'an integer >= 0 or "auto-conditioned"',
    ),
    **dict.fromkeys(
        ("seeds", "mixing_seeds"),
        (_non_empty_list_of(_is_natural), "a non-empty list of integers >= 0"),
    ),
    **dict.fromkeys(
        ("blocks", "N_range", "M_range"),
        (_non_empty_list_of(_is_count), "a non-empty list of integers >= 1"),
    ),
    **dict.fromkeys(
        (
            "residual_tol",
            "separation_tol",
            "residual_target",
            "rank_rtol",
            "amp_threshold",
            "signal_norm",
        ),
        (_is_positive, "a number > 0"),
    ),
    **dict.fromkeys(
        ("oracle_check", "block_scalar_check", "recover"),
        (lambda v: isinstance(v, bool), "true or false"),
    ),
    "signal": (_non_empty_list_of(_is_number), "a non-empty list of numbers"),
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

#: The same for the fields of a prior, mixing or group spec.
_SPEC_RULES = {
    "widths": (
        lambda v: _non_empty_list_of(_is_count)(v) and len(v) >= 2,
        "a list of at least two integers >= 1",
    ),
    "hidden_widths": (
        lambda v: isinstance(v, list) and all(_is_count(w) for w in v),
        "a list of integers >= 1",
    ),
    **dict.fromkeys(("N", "M"), (_is_count, "an integer >= 1")),
    **dict.fromkeys(("seed", "perturb_seed", "L"), (_is_natural, "an integer >= 0")),
    "perturb_scale": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "perturb_final_layer": (lambda v: isinstance(v, bool), "true or false"),
    "activation": (
        _is_activation,
        "an activation tag: relu, identity, leaky-relu(slope) or hardtanh(lo,hi)",
    ),
    "path": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
}


def _check_fields(d: dict, rules: dict, where: str):
    for key, value in d.items():
        rule = rules.get(key)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{where}{key}: must be {rule[1]}, got {value!r}")


def _check_command_parameters(command: str, p: dict):
    if command == "measure":
        if "signal" not in p and "signal_path" not in p:
            raise ConfigError("parameters.signal: inline signal or signal_path required")
        if "signal_path" in p and not Path(p["signal_path"]).exists():
            raise ConfigError(
                f"parameters.signal_path: file not found: {p['signal_path']}"
            )
    elif command == "collide":
        _require(p, ("prior", "mixing", "seed"), "parameters.")
        _check_prior_spec(p["prior"], "parameters.prior")
        _check_mixing_spec(p["mixing"], "parameters.mixing")
    elif command == "probe-dim":
        _require(p, ("N", "seed"), "parameters.")
        if p.get("manifold") not in ("general-linear", "special-orthogonal"):
            raise ConfigError(
                "parameters.manifold: must be general-linear or special-orthogonal"
            )
        if p["manifold"] == "special-orthogonal" and p["N"] < 2:
            raise ConfigError("parameters.N: special-orthogonal probes need N >= 2")
    elif command == "mra-sim":
        _require(p, ("group", "sigma", "n", "seed"), "parameters.")
        _check_group_spec(p["group"], "parameters.group")
        if "prior" in p:
            _check_prior_spec(p["prior"], "parameters.prior")
        if "mixing" in p:
            _check_mixing_spec(p["mixing"], "parameters.mixing")
        if p.get("true_seed") == "auto-conditioned":
            raise ConfigError(
                "parameters.true_seed: auto-conditioned applies to sample-complexity sweeps"
            )
    elif command == "sweep":
        kind = p.get("sweep_kind")
        if kind == "threshold":
            _require(p, ("N_range", "M_range", "mixing_kind", "seeds"), "parameters.")
            if p["mixing_kind"] not in ("general-linear", "special-orthogonal"):
                raise ConfigError("parameters.mixing_kind: bad value")
            fam = p.get("prior_family", {"type": "relu-network"})
            if not isinstance(fam, dict) or fam.get("type") not in ("relu-network", "sparse"):
                raise ConfigError("parameters.prior_family.type: must be relu-network or sparse")
            _check_fields(fam, _SPEC_RULES, "parameters.prior_family.")
        elif kind == "sample-complexity":
            _require(
                p,
                ("sigma_list", "target_error", "seeds", "prior", "mixing", "group"),
                "parameters.",
            )
            _check_prior_spec(p["prior"], "parameters.prior")
            _check_mixing_spec(p["mixing"], "parameters.mixing")
            _check_group_spec(p["group"], "parameters.group")
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
    _check_fields(data["parameters"], _PARAMETER_RULES, "parameters.")
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
