"""Experiment configs: a versioned JSON envelope plus per-command parameters.

All randomness flows through explicit seeds in the config (never wall-clock),
so re-running a config reproduces its results bit for bit. Prior and mixing
specifications are small tagged dicts; priors may also be loaded from the
JSON wire formats in :mod:`momentlab.priors`.

Validation reads two tables: the fields each level of a config may carry,
and the values each field takes. A key that the run would not read is
rejected, so a config never describes an experiment other than the one run.
The first table is also the one home of each default of a command's parameters:
the memory rule and the runner read them filled in (:func:`with_defaults`), and a
report echoes the config as written.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .injectivity import ORACLE_CELLS, ORACLE_POINTS
from .measurements import BlockStructure, block_structure_for_power_spectrum
from .mra import CHUNK_ROWS
from .priors import (
    IMAGE_DIMENSION_TRIALS,
    ambient_network,
    network_from_json,
    parse_activation,
    random_relu_network,
    sparse_prior,
    sparse_prior_from_json,
)
from .so3 import MAX_BAND_LIMIT

__all__ = [
    "ExperimentConfig", "ConfigError", "load_config", "validate_config", "check_output_dir"
]

SCHEMA_VERSION = 1

#: The bytes of arrays one run may hold at once; read at each check, so tests can lower it.
MEMORY_BUDGET = 2**30

#: A sample-complexity sweep's n grid has at most this many cells per sigma, each at least
#: one ``recover`` call: about 65 s per sigma with 10 seeds, at 0.65 ms a call.
MAX_GRID_CELLS = 10_000


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
    # a spec passes only the fields it sets, so their defaults are the builders' own
    given = {key: value for key, value in spec.items() if key in ("seed", "activation", "kind")}
    if t == "relu-network":
        return random_relu_network(tuple(int(w) for w in spec["widths"]), **given)
    if t in ("network-file", "sparse-file"):
        load = network_from_json if t == "network-file" else sparse_prior_from_json
        try:
            prior = load(Path(spec["path"]).read_text("utf-8"))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(
                f"parameters.prior.path: {spec['path']} is not a {t} prior "
                f"({type(e).__name__}: {e})"
            ) from None
        return prior
    if t == "ambient":
        return ambient_network(int(spec["N"]))
    return sparse_prior(int(spec["N"]), int(spec["M"]), **given)


def build_blocks(p: dict, N: int) -> BlockStructure:
    if "blocks" not in p:
        return block_structure_for_power_spectrum(N)
    blocks = BlockStructure(tuple(p["blocks"]))
    if blocks.N != N:
        raise ConfigError(f"parameters.blocks: dims sum to {blocks.N}, the signal has length {N}")
    return blocks


# ---------------------------------------------------------------------------
# The fields of each level
# ---------------------------------------------------------------------------

#: Each level of a config is ``(tag, variants)``: the field whose value picks
#: the variant (None for a level without one) and, for each value of the tag,
#: the fields that variant requires and the fields it may also carry. Every
#: other key is rejected. A command's optional fields map to their defaults,
#: None where the field's absence is itself the setting. ``tests/test_layout.py``
#: checks the parameters of each command against the keys its runner reads.
_PARAMETERS = {
    "measure": (None, {None: ((), {"signal": None, "signal_path": None, "domain": "block",
                                   "blocks": None, "mixing": {"kind": "identity"}})}),
    "collide": (None, {None: (("prior", "mixing", "seed"), {
        "blocks": None, "mixing_seeds": None, "restarts": 200, "oracle_check": False,
        "oracle_grid": 41})}),
    "probe-dim": (
        None, {None: (("N", "manifold", "seed"), {"blocks": None, "pairs": 20, "restarts": 50})}
    ),
    "mra-sim": (None, {None: (("group", "sigma", "n", "seed"), {
        "prior": None, "mixing": {"kind": "identity"}, "true_seed": 0, "signal_norm": None,
        "signal_seed": 0, "block_scalar_check": False, "recover": False, "repeats": 1,
        "recover_restarts": 20})}),
    "sweep": ("sweep_kind", {
        "threshold": (("N_range", "M_range", "mixing_kind", "seeds"),
                      {"prior_family": {"type": "relu-network"}, "restarts": 50}),
        "sample-complexity": (("group", "prior", "mixing", "sigma_list", "target_error", "seeds"), {
            "true_seed": 0, "signal_norm": None, "amp_threshold": 6.0, "n_min": 8,
            "n_cap": 10_000_000, "grid_ratio": 2.0**0.25, "recover_restarts": 10}),
    }),
}


def with_defaults(command: str, p: dict) -> dict:
    """A copy of a command's parameters with each absent field that has a default set to it."""
    tag, variants = _PARAMETERS[command]
    return {**{k: v for k, v in variants[p.get(tag)][1].items() if v is not None}, **p}


def n_grid(p: dict):
    """A sample-complexity sweep's n grid: from n_min by n <- min(ceil(n * grid_ratio), n_cap)."""
    n = p["n_min"]
    yield n
    while n < p["n_cap"]:
        n = p["n_cap"] if n * p["grid_ratio"] >= p["n_cap"] else math.ceil(n * p["grid_ratio"])
        yield n


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
        lambda v: _non_empty_list_of(_is_count)(v) and len(v) >= 2,
        "a list of at least two integers >= 1",
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
    levels = [("parameters.", p, p["sweep_kind"] if command == "sweep" else command)]
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
    if p.get("manifold") == "special-orthogonal" and p["N"] < 2:
        raise ConfigError("parameters.N: special-orthogonal probes need N >= 2")
    if p.get("sweep_kind") == "threshold" and min(p["M_range"]) > max(p["N_range"]):
        raise ConfigError(
            f"parameters.M_range: every M exceeds every N (at most {max(p['N_range'])}), "
            "so the sweep has no cell"
        )
    full = with_defaults(command, p)
    if p.get("sweep_kind") == "sample-complexity":
        n_min, n_cap = full["n_min"], full["n_cap"]
        if n_min > n_cap:
            field = "n_min" if "n_min" in p else "n_cap"
            raise ConfigError(f"parameters.{field}: n_min = {n_min} exceeds n_cap = {n_cap}")
        if any(cells == MAX_GRID_CELLS for cells, _ in enumerate(n_grid(full))):
            raise ConfigError(f"parameters.grid_ratio: the n grid from {n_min} to {n_cap} "
                              f"has more than {MAX_GRID_CELLS} cells")
    check_memory(command, full)
    return ExperimentConfig(command, p, data.get("output_dir"))


# ---------------------------------------------------------------------------
# The memory budget
# ---------------------------------------------------------------------------

def check_memory(command: str, p: dict, read=None, sectors: int | None = None) -> None:
    """Exit 2 naming the largest term's field unless a run's arrays, and 256 KiB of its own
    objects, fit in MEMORY_BUDGET; the runner adds a file's signal or prior and ``sectors``.
    A grid oracle past ORACLE_POINTS points or latent dimension 2 exits 2 here too."""
    terms = _memory_terms(command, p, read, sectors)
    total = 2**18 + 8 * sum(floats for floats, _ in terms)
    if total > MEMORY_BUDGET:
        field = max(terms, default=(0, "parameters"))[1]
        raise ConfigError(f"{field}: the run would hold about {total} bytes of arrays "
                          f"at its peak, above the memory budget of {MEMORY_BUDGET} bytes")


def _memory_terms(command: str, p: dict, read=None, sectors=None) -> list[tuple[int, str]]:
    """(8-byte entries, field) terms of what a run holds throughout and its largest stage,
    bounding tracemalloc's peak over ``runner.run``; a file not read yet adds nothing."""
    if command == "measure":
        N = len(p["signal"]) if "signal" in p else read.shape[0] if read is not None else 0
        text = Path(p["signal_path"]).stat().st_size // 2 if read is not None else 0
        mixed = p["mixing"]["kind"] != "identity"
        # 100 a sample (signal, energies, row, report); file text; Fourier matrix; a mixing
        size = 100 * N + text + ((p["domain"] == "time") + 5 * mixed) * N * N
        return [(size, "parameters.signal" + "_path" * ("signal" not in p))]
    if command == "probe-dim":
        N, R = p["N"], len(p["blocks"]) if "blocks" in p else p["N"] // 2 + 1
        T = N * N if p["manifold"] == "general-linear" else N * (N - 1) // 2
        # three (R, T) Jacobians (the solver's two, the rank's copy), (N, N) products
        # and the Cayley solve, the SO(N) indexes; a 1 KiB row a pair
        pairs = (128 * p["pairs"], "parameters.pairs")
        return [(3 * R * T + 16 * N * N + 7 * T, "parameters.N"), pairs]
    sweep = p.get("sweep_kind")
    group = {} if command == "collide" or sweep == "threshold" else p["group"]
    spec = p["prior_family"] if sweep == "threshold" else p.get("prior")    # None: no prior
    sparse = spec is not None and spec["type"] in ("sparse", "sparse-file")
    if sweep == "threshold":            # its largest cell holds the most
        N = max(p["N_range"])
        M = max(m for m in p["M_range"] if m <= N)
        widths = [M, N] if sparse else threshold_cell_widths(spec, N, M)
        n_field = "parameters.N_range"
        w_field = "parameters.prior_family.hidden_widths" if "hidden_widths" in spec else n_field
    else:                               # widths from the latent dimension to N
        widths, w_field = [], "parameters.prior"
        if spec is not None:
            widths = spec.get("widths") or "N" in spec and [spec.get("M", spec["N"]), spec["N"]]
            w_field += "." + next(k for k in ("path", "widths", "N") if k in spec)
        if read is not None:
            widths = [read.sparsity, read.output_dim] if sparse else [
                read.latent_dim, *(layer.weight.shape[0] for layer in read.layers)]
        n_field = "parameters.group." + ("L" if "L" in group else "N") if group else w_field
        if not (group or widths):
            return []                   # collide with a prior file not read yet
        N = (group["L"] + 1) ** 2 if "L" in group else group.get("N") or widths[-1]
    R = len(p["blocks"]) if "blocks" in p else group["L"] + 1 if "L" in group else N // 2 + 1
    held, stages = [(16 * N, n_field)], [[]]        # the signal, energies, block layout
    if widths:
        K, wide, units = widths[0], max(widths[1:]), sum(widths)
        weights = N * N if sparse else sum(a * b + b for a, b in zip(widths, widths[1:]))
        held += [(weights, w_field), (N * N, n_field)]      # the prior and the mixing
        stages.append([(4 * N * N, n_field)])   # a draw: the Gaussian, QR's copy and factors
        if "path" in spec:                      # a file's text and its JSON's floats
            stages.append([(Path(spec["path"]).stat().st_size // 4 + 5 * weights, w_field)])
        # a solve: a two-lane walk, its (2, N, K) Jacobians, the energy Jacobian's products
        solve = [(2 * N * N + 2 * R * N + (6 * K + 32) * wide + 2 * units + 2 * N * K, n_field)]
        stages.append(solve)
    if command == "collide" and not sparse:
        # estimate_image_dimension's (trials, width, K) Jacobians, two past the first layer
        jac = K * (wide if len(widths) == 2 else 2 * wide)
        stages.append([(IMAGE_DIMENSION_TRIALS * (jac + 4 * units) + 2 * N * K, w_field)])
    if command == "collide" and p["oracle_check"]:
        if K > 2:
            raise ConfigError("parameters.oracle_check: the grid oracle needs a prior of latent "
                              f"dimension <= 2, this one has {K}")
        # P points over the charts: walks, copies, mixed signals, squares, energies;
        # seven max(ORACLE_CELLS, 2P) chunk buffers; C(N, M) sparse chart objects
        charts = math.comb(N, K) if sparse else 1
        grid_points = p["oracle_grid"]
        P = charts * grid_points**K
        if P > ORACLE_POINTS:           # a bound on the oracle's time, checked before any chart
            raise ConfigError(
                f"parameters.oracle_grid: {charts} charts x {grid_points}^{K} grid = {P} points, "
                f"above the cap of {ORACLE_POINTS}"
            )
        grid = P * (3 * N + R + units) + 6 * max(ORACLE_CELLS, 2 * P)
        stages.append([(grid + sparse * charts * (N * K + 128), "parameters.oracle_grid")])
    if command == "mra-sim" and p["block_scalar_check"]:
        n, chunk = p["n"], min(p["n"], CHUNK_ROWS)
        if "L" in group:
            # the exact moment: two (N, Q) arrays over Q = (2L+1)^2 (L+2) quadrature nodes;
            # n Euler angles and a draw; a chunk's arrays and noise
            L = group["L"]
            exact = (2 * N + 2 * L + 15) * (2 * L + 1) ** 2 * (L + 2) + 8 * N * N + 128 * R
            stages.append([(exact, n_field), (4 * n + (3 * N + 2 * L + 1) * chunk, "parameters.n")])
        else:
            # a finite group's orbit, |G| rows of N: the exact moment builds it from the Fourier
            # matrix, its indexes and their gather; the draw holds it beside that moment, four
            # more N x N arrays at most (its own moment, a chunk's product, the sums that
            # update it), n indexes and three chunks (the last, the next and its noise)
            G = N * (1 + (group["kind"] == "dihedral"))
            stages.append([(N * N + 3 * G * N + 128 * R, n_field)])
            draws = (n + 3 * N * chunk, "parameters.n")
            stages.append([(5 * N * N + G * N + 128 * R, n_field), draws])
    recovers = sweep == "sample-complexity" or command == "mra-sim" and p["recover"]
    if widths and recovers and K == 2 and not sparse:
        # a 2-D cone's sectors, each: its map, A times it, their products and quartics, or a
        # call's 9 rows walked and mixed; and the memo's key. A hidden unit cuts the circle
        # twice, so one hidden layer makes at most 1 + 2h; the runner counts a deeper one's.
        S = sectors or 1 + 2 * sum(widths[1:-1])
        per_sector = max(10 * N + 45 * R, 9 * (units + 2 * wide), 27 * N + 9 * R) + 4 * wide
        stages.append(solve + [(S * (per_sector + 70), w_field), (weights + N * N, n_field)])
    return held + max(stages, key=lambda terms: sum(size for size, _ in terms))


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
