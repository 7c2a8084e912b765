"""Tests of the benchmark's tracer.

Run from the repository root:

    python3 -m pytest perfbench/test_tracer.py -q
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import momentlab  # noqa: E402
from momentlab.config import validate_config  # noqa: E402
from momentlab.runner import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# One small config per multi-start caller of damped_gauss_newton.
SMALL_CONFIGS = {
    "collide": (
        "collide",
        {
            "prior": {"type": "relu-network", "widths": [2, 12, 10], "seed": 5},
            "mixing": {"kind": "special-orthogonal", "seed": 21},
            "mixing_seeds": [21, 22],
            "restarts": 3,
            "seed": 0,
        },
    ),
    "control": (
        "collide",
        {
            "prior": {"type": "ambient", "N": 8},
            "mixing": {"kind": "identity"},
            "restarts": 5,
            "seed": 0,
        },
    ),
    "probe": (
        "probe-dim",
        {"N": 7, "manifold": "special-orthogonal", "pairs": 2, "seed": 0},
    ),
    "recover": (
        "mra-sim",
        {
            "group": {"kind": "so3-bandlimited", "L": 3},
            "prior": {"type": "relu-network", "widths": [2, 10, 16], "seed": 13},
            "mixing": {"kind": "special-orthogonal", "seed": 51},
            "sigma": 0.3,
            "n": 2000,
            "seed": 0,
            "recover": True,
            "repeats": 1,
            "recover_restarts": 4,
        },
    ),
    "sweep": (
        "sweep",
        {
            "sweep_kind": "sample-complexity",
            "group": {"kind": "cyclic", "N": 8},
            "prior": {"type": "relu-network", "widths": [2, 10, 8], "seed": 11},
            "mixing": {"kind": "special-orthogonal", "seed": 11},
            "sigma_list": [0.5],
            "target_error": 0.5,
            "seeds": [0],
            "true_seed": 0,
            "signal_norm": 0.4,
            "n_min": 256,
            "grid_ratio": 4.0,
            "n_cap": 4096,
            "recover_restarts": 3,
        },
    ),
}


def _config(name):
    command, parameters = SMALL_CONFIGS[name]
    return validate_config({"schema_version": 1, "command": command, "parameters": parameters})


def _function_bindings():
    return {
        (mod_name, attr): obj
        for mod_name, module in list(sys.modules.items())
        if mod_name == "momentlab" or mod_name.startswith("momentlab.")
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


def _csv_bodies(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_solves_equal_restarts_used(name, tmp_path):
    with Tracer() as tr:
        run(_config(name), out_dir=tmp_path)
    solves = tr.counts["gaussnewton.solves"]
    assert solves > 0
    assert solves == tr.restarts_used()
    m = tr.metrics()
    assert m["gaussnewton.residual_evals"] >= solves + m["gaussnewton.rejected_steps"]
    assert m["gaussnewton.jacobian_evals"] == m["gaussnewton.iterations"]


def test_bindings_restored_and_outputs_unchanged(tmp_path):
    import momentlab.runner

    before = _function_bindings()
    run(_config("collide"), out_dir=tmp_path / "plain")
    with Tracer() as tr:
        during = _function_bindings()
        momentlab.runner.run(_config("collide"), out_dir=tmp_path / "traced")
    after = _function_bindings()

    patched = [key for key, obj in before.items() if during[key] is not obj]
    assert ("momentlab.injectivity", "separable_measurement") in patched
    assert ("momentlab.mra", "damped_gauss_newton") in patched
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert momentlab.separable_measurement is before[("momentlab", "separable_measurement")]
    assert tr.metrics()["injectivity.collision_search.calls"] == 2
    assert _csv_bodies(tmp_path / "traced") == _csv_bodies(tmp_path / "plain")


def test_every_layer_is_traced(tmp_path):
    with Tracer() as tr:
        for name in SMALL_CONFIGS:
            run(_config(name), out_dir=tmp_path / name)
    traced_layers = {name.partition(".")[0] for name in tr.by_name()}
    assert set(LAYERS) <= traced_layers
    assert tr.metrics()["runner.csv_bytes"] == sum(
        p.stat().st_size for p in tmp_path.glob("*/*.csv")
    )


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == [*Tracer().metrics(), "trace.overhead_s"]
