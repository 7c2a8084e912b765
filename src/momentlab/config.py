"""Experiment configs: a versioned JSON envelope plus per-command parameters.

All randomness flows through explicit seeds in the config (never wall-clock),
so re-running a config reproduces its results bit for bit. Prior and mixing
specifications are small tagged dicts; priors may also be loaded from the
JSON wire formats in :mod:`momentlab.priors`.

Validation reads two tables: the fields each level of a config may carry,
and the values each field takes. A key that the run would not read is
rejected, so a config never describes an experiment other than the one run.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .injectivity import MAX_PROBE_N
from .measurements import BlockStructure, block_structure_for_power_spectrum
from .mra import MAX_ORBIT_N, MAX_STREAMED_N, sample_complexity_sweep
from .priors import (
    ambient_network,
    network_from_json,
    parse_activation,
    random_relu_network,
    sample_mixing,
    sparse_prior,
    sparse_prior_from_json,
)
from .so3 import MAX_BAND_LIMIT

__all__ = [
    "ExperimentConfig", "ConfigError", "load_config", "validate_config", "given", "check_output_dir"
]

SCHEMA_VERSION = 1

#: A relu-network layer holds widths[i] * widths[i + 1] float weights; configs
#: cap that count at MAX_LAYER_WEIGHTS, 128 MiB of weights per layer.
MAX_LAYER_WEIGHTS = 2**24

#: An ambient or sparse prior holds an N x N basis, and a run with a mixing (a
#: threshold-sweep cell, or the signal of a relu-network prior or of a cyclic
#: or dihedral group) an N x N mixing, so configs cap those signal lengths at
#: MAX_SIGNAL_N, whose square is MAX_LAYER_WEIGHTS.
MAX_SIGNAL_N = math.isqrt(MAX_LAYER_WEIGHTS)


class ConfigError(ValueError):
    """Invalid configuration; message carries a field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    parameters: dict
    output_dir: str | None = None

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
        }
        if self.output_dir is not None:
            d["output_dir"] = self.output_dir
        return d

    def content_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def given(d: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the fields that a config dict sets.

    ``keys`` pass under their own names; ``renamed`` maps a library argument
    to its field. A field left out is not passed, so each default lives in
    one place: the signature of the library function.
    """
    names = {**dict(zip(keys, keys)), **renamed}
    return {arg: d[key] for arg, key in names.items() if key in d}


def check_output_dir(path, field: str) -> None:
    """Raise a ConfigError naming ``field`` unless ``path`` is or can become a directory."""
    for part in (Path(path), *Path(path).parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"{field}: not a directory: {part}")
            return


def threshold_cell_widths(family: dict, N: int, M: int) -> list[int]:
    """The widths of threshold-sweep cell (N, M)'s prior, of the ``relu-network`` family."""
    return [M, *family.get("hidden_widths", [max(2 * M, 6)]), N]


def build_prior(spec: dict):
    t = spec["type"]
    if t == "relu-network":
        return random_relu_network(
            tuple(int(w) for w in spec["widths"]), **given(spec, "seed", "activation")
        )
    if t in ("network-file", "sparse-file"):
        load = network_from_json if t == "network-file" else sparse_prior_from_json
        try:
            return load(Path(spec["path"]).read_text("utf-8"))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(
                f"parameters.prior.path: {spec['path']} is not a {t} prior "
                f"({type(e).__name__}: {e})"
            ) from None
    if t == "ambient":
        return ambient_network(int(spec["N"]))
    return sparse_prior(int(spec["N"]), int(spec["M"]), **given(spec, "kind", "seed"))


def build_mixing(spec: dict, N: int) -> np.ndarray:
    """The (N, N) mixing a spec names: ``np.eye(N)`` or a seeded draw."""
    if spec["kind"] == "identity":
        return np.eye(N)
    return sample_mixing(N, spec["kind"], seed=int(spec["seed"]))


def build_blocks(params: dict, N: int) -> BlockStructure:
    if "blocks" not in params:
        return block_structure_for_power_spectrum(N)
    blocks = BlockStructure(tuple(params["blocks"]))
    if blocks.N != N:
        raise ConfigError(f"parameters.blocks: dims sum to {blocks.N}, the signal has length {N}")
    return blocks


# ---------------------------------------------------------------------------
# The fields of each level
# ---------------------------------------------------------------------------

#: Each level of a config is ``(tag, variants)``: the field whose value picks
#: the variant (None for a level without one) and, for each value of the tag,
#: the fields that variant requires and the fields it may also carry. Every
#: other key is rejected. ``tests/test_layout.py`` checks the parameters of
#: each command against the keys its runner reads.
_PARAMETERS = {
    "measure": (None, {None: ((), ("signal", "signal_path", "domain", "blocks", "mixing"))}),
    "collide": (None, {None: (
        ("prior", "mixing", "seed"),
        ("blocks", "mixing_seeds", "restarts", "oracle_check", "oracle_grid"),
    )}),
    "probe-dim": (None, {None: (
        ("N", "manifold", "seed"),
        ("blocks", "pairs", "restarts"),
    )}),
    "mra-sim": (None, {None: (
        ("group", "sigma", "n", "seed"),
        ("prior", "mixing", "true_seed", "signal_norm", "signal_seed", "block_scalar_check",
         "recover", "repeats", "recover_restarts"),
    )}),
    "sweep": ("sweep_kind", {
        "threshold": (("N_range", "M_range", "mixing_kind", "seeds"), ("prior_family", "restarts")),
        "sample-complexity": (
            ("group", "prior", "mixing", "sigma_list", "target_error", "seeds"),
            ("true_seed", "signal_norm", "amp_threshold", "n_min", "n_cap", "grid_ratio",
             "recover_restarts"),
        ),
    }),
}

_ENVELOPE = (
    "command",
    dict.fromkeys(_PARAMETERS, (("schema_version", "parameters"), ("output_dir",))),
)

#: The levels below the parameters, by the field that holds them.
_SPECS = {
    "prior": ("type", {
        "relu-network": (("widths",), ("seed", "activation")),
        "network-file": (("path",), ()),
        "sparse": (("N", "M"), ("kind", "seed")),
        "sparse-file": (("path",), ()),
        "ambient": (("N",), ()),
    }),
    "mixing": ("kind", {
        "general-linear": (("seed",), ()),
        "special-orthogonal": (("seed",), ()),
        "identity": ((), ()),
    }),
    "group": ("kind", {
        "cyclic": (("N",), ()),
        "dihedral": (("N",), ()),
        "so3-bandlimited": (("L",), ()),
    }),
    "prior_family": ("type", {"relu-network": ((), ("hidden_widths",)), "sparse": ((), ("kind",))}),
}

#: Fields that a run reads on one of its paths only, by level: the parameters
#: of a command or ``sweep_kind``, or a spec as (its field, its tag value).
#: Each field maps to (does the run read it, given the level's dict; what it
#: needs).
_PREREQUISITES = {
    "collide": {
        "oracle_grid": (lambda p: p.get("oracle_check") is True, "needs oracle_check: true"),
    },
    "mra-sim": {
        **dict.fromkeys(
            ("recover", "mixing", "true_seed", "signal_norm"),
            (lambda p: "prior" in p, "needs a prior"),
        ),
        **dict.fromkeys(
            ("repeats", "recover_restarts"),
            (lambda p: p.get("recover") is True, "needs recover: true"),
        ),
        "signal_seed": (lambda p: "prior" not in p, "unread when a prior draws the signal"),
    },
    "sample-complexity": {
        "amp_threshold": (
            lambda p: p.get("true_seed") == "auto-conditioned",
            'needs true_seed: "auto-conditioned"',
        ),
    },
    ("prior", "sparse"): {
        "seed": (
            lambda spec: spec.get("kind") != "standard-basis",
            "unread by a standard-basis prior",
        ),
    },
}


# ---------------------------------------------------------------------------
# The values of each field
# ---------------------------------------------------------------------------

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


def _layers_fit(widths) -> bool:
    """Whether each layer of a network of these widths holds at most MAX_LAYER_WEIGHTS weights."""
    return all(a * b <= MAX_LAYER_WEIGHTS for a, b in zip(widths, widths[1:]))


def _non_empty_list_of(item_ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(item_ok(x) for x in v)


def _one_of(*values):
    return (lambda v: isinstance(v, str) and v in values), "one of " + ", ".join(values)


_MANIFOLD = _one_of("general-linear", "special-orthogonal")

#: (check, description) of each field, at whichever level it appears.
_RULES = {
    "schema_version": (lambda v: _is_int(v) and v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    **dict.fromkeys(
        ("output_dir", "path", "signal_path"),
        (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    ),
    **dict.fromkeys(
        ("restarts", "pairs", "repeats", "n", "recover_restarts", "n_min", "n_cap", "N", "M"),
        (_is_count, "an integer >= 1"),
    ),
    **dict.fromkeys(("seed", "signal_seed"), (_is_natural, "an integer >= 0")),
    "L": (
        lambda v: _is_int(v) and 0 <= v <= MAX_BAND_LIMIT,
        f"an integer in [0, {MAX_BAND_LIMIT}]",
    ),
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
        ("amp_threshold", "signal_norm"),
        (_is_positive, "a number > 0"),
    ),
    **dict.fromkeys(
        ("oracle_check", "block_scalar_check", "recover"),
        (lambda v: isinstance(v, bool), "true or false"),
    ),
    "signal": (_non_empty_list_of(_is_number), "a non-empty list of numbers"),
    "sigma": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "oracle_grid": (lambda v: _is_int(v) and 1 <= v <= 200, "an integer in [1, 200]"),
    "grid_ratio": (lambda v: _is_number(v) and v > 1, "a number > 1"),
    "target_error": (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "sigma_list": (
        lambda v: _non_empty_list_of(lambda x: _is_number(x) and x > 0)(v) and v == sorted(v),
        "a non-empty ascending list of numbers > 0",
    ),
    "widths": (
        lambda v: _non_empty_list_of(_is_count)(v) and len(v) >= 2 and _layers_fit(v),
        "a list of at least two integers >= 1 whose neighbours' products, each "
        f"layer's weight count, are <= {MAX_LAYER_WEIGHTS}",
    ),
    "hidden_widths": (
        lambda v: isinstance(v, list) and all(_is_count(w) for w in v),
        "a list of integers >= 1",
    ),
    "activation": (
        _is_activation,
        "an activation tag: relu, identity, leaky-relu(slope) or hardtanh(lo,hi)",
    ),
    "domain": _one_of("block", "time"),
    "manifold": _MANIFOLD,
    "mixing_kind": _MANIFOLD,
    "kind": _one_of("standard-basis", "generic-orthonormal", "generic-linear"),
}


def _check(d, level, where: str):
    """Check one level of a config and, recursively, the levels inside it."""
    tag, variants = level
    if not isinstance(d, dict):
        with_tag = f" with a field {where}{tag}" if tag else ""
        raise ConfigError(f"{where[:-1] or '(root)'}: must be an object{with_tag}")
    if d.get(tag) not in tuple(variants):     # a tuple: the value may be unhashable
        raise ConfigError(f"{where}{tag}: must be one of {', '.join(variants)}")
    required, optional = variants[d.get(tag)]
    for key in required:
        if key not in d:
            raise ConfigError(f"{where}{key}: required")
    for key, value in d.items():
        if key == tag:
            continue
        if key not in required and key not in optional:
            known = ", ".join((*required, *optional)) or "no field"
            raise ConfigError(f"{where}{key}: unknown field; this level takes {known}")
        rule = _RULES.get(key)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{where}{key}: must be {rule[1]}, got {value!r}")
        inner = _PARAMETERS[d[tag]] if key == "parameters" else _SPECS.get(key)
        if inner is not None:
            _check(value, inner, f"{where}{key}.")
    for key in ("path", "signal_path"):
        if key in d and not Path(d[key]).is_file():
            raise ConfigError(f"{where}{key}: file not found: {d[key]}")
    if "output_dir" in d:
        check_output_dir(d["output_dir"], f"{where}output_dir")
    if "M" in d and d["M"] > d["N"]:
        raise ConfigError(f"{where}M: must be <= N = {d['N']}")


def validate_config(data: dict) -> ExperimentConfig:
    """Validate a parsed JSON object; raises ConfigError with a field path."""
    _check(data, _ENVELOPE, "")
    command, p = data["command"], data["parameters"]
    levels = [("parameters.", p, p.get("sweep_kind", command))]
    levels += [
        (f"parameters.{field}.", p[field], (field, p[field][tag]))
        for field, (tag, _) in _SPECS.items()
        if field in p
    ]
    for where, d, level in levels:
        for key, (taken, needs) in _PREREQUISITES.get(level, {}).items():
            if key in d and not taken(d):
                raise ConfigError(f"{where}{key}: {needs}")
    if command == "measure" and ("signal" in p) == ("signal_path" in p):
        raise ConfigError("parameters.signal: give exactly one of signal and signal_path")
    if command == "mra-sim" and p.get("true_seed") == "auto-conditioned":
        raise ConfigError(
            "parameters.true_seed: auto-conditioned applies to sample-complexity sweeps"
        )
    if p.get("block_scalar_check") and p["n"] > MAX_STREAMED_N:
        raise ConfigError(
            f"parameters.n: the block-scalar check streams observations, "
            f"so n must be <= {MAX_STREAMED_N}, got {p['n']}"
        )
    if command == "probe-dim" and p["N"] > MAX_PROBE_N:
        raise ConfigError(
            f"parameters.N: a probe holds arrays of N^3 floats, so N must be "
            f"<= {MAX_PROBE_N}, got {p['N']}"
        )
    prior = p.get("prior", {})
    if prior.get("type") in ("ambient", "sparse") and prior["N"] > MAX_SIGNAL_N:
        raise ConfigError(
            f"parameters.prior.N: the prior holds an N x N basis, so N must be "
            f"<= {MAX_SIGNAL_N}, got {prior['N']}"
        )
    if prior.get("type") == "relu-network" and prior["widths"][-1] > MAX_SIGNAL_N:
        raise ConfigError(
            f"parameters.prior.widths: the last width is the signal length N, and the "
            f"run holds an N x N mixing, so it must be <= {MAX_SIGNAL_N}, "
            f"got {prior['widths'][-1]}"
        )
    group = p.get("group", {})
    finite = group.get("kind") in ("cyclic", "dihedral")
    if finite and group["N"] > MAX_SIGNAL_N:
        raise ConfigError(
            f"parameters.group.N: N is the signal length, and the run may hold an N x N "
            f"mixing, so N must be <= {MAX_SIGNAL_N}, got {group['N']}"
        )
    if p.get("block_scalar_check") and finite and group["N"] > MAX_ORBIT_N:
        raise ConfigError(
            f"parameters.group.N: the block-scalar check holds the group's N x N "
            f"element matrices, so N must be <= {MAX_ORBIT_N}, got {group['N']}"
        )
    if p.get("manifold") == "special-orthogonal" and p["N"] < 2:
        raise ConfigError("parameters.N: special-orthogonal probes need N >= 2")
    if p.get("sweep_kind") == "threshold":
        N = max(p["N_range"])
        if min(p["M_range"]) > N:
            raise ConfigError(
                f"parameters.M_range: every M exceeds every N (at most {N}), "
                "so the sweep has no cell"
            )
        if N > MAX_SIGNAL_N:
            raise ConfigError(
                f"parameters.N_range: each cell holds an N x N mixing, so every N must "
                f"be <= {MAX_SIGNAL_N}, got {N}"
            )
        family = p.get("prior_family", {"type": "relu-network"})
        if family["type"] == "relu-network":
            # the largest cell has the largest layers: its widths grow with N and M
            M = max(m for m in p["M_range"] if m <= N)
            widths = threshold_cell_widths(family, N, M)
            if not _layers_fit(widths):
                field = "prior_family.hidden_widths" if "hidden_widths" in family else "M_range"
                raise ConfigError(
                    f"parameters.{field}: cell (N, M) = ({N}, {M}) has widths {widths}, "
                    f"and a layer may hold at most {MAX_LAYER_WEIGHTS} weights"
                )
    if p.get("sweep_kind") == "sample-complexity":
        defaults = inspect.signature(sample_complexity_sweep).parameters
        n_min, n_cap = (p.get(k, defaults[k].default) for k in ("n_min", "n_cap"))
        if n_min > n_cap:
            field = "n_min" if "n_min" in p else "n_cap"
            raise ConfigError(f"parameters.{field}: n_min = {n_min} exceeds n_cap = {n_cap}")
    return ExperimentConfig(command, p, data.get("output_dir"))


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file; parse errors carry line/column info."""
    try:
        text = Path(path).read_text("utf-8")
    except OSError as e:
        raise ConfigError(f"--config: cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(
            f"--config: {path} is not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    return validate_config(data)
