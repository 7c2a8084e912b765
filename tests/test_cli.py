import importlib.util
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import mra, runner
from momentlab.cli import main
from momentlab.config import (
    MAX_LAYER_WEIGHTS,
    MAX_SIGNAL_N,
    ConfigError,
    load_config,
    validate_config,
)
from momentlab.injectivity import (
    MAX_PROBE_N,
    brute_force_collision_oracle,
    collision_search,
    regime_label,
)
from momentlab.measurements import block_structure_for_power_spectrum, second_moment_blocks
from momentlab.presets import PRESETS, get_preset, list_presets
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    random_relu_network,
    sample_mixing,
    sparse_prior,
)
from momentlab.runner import run
from reference import network_to_json, sparse_prior_to_json


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def hidden(width):
    """A threshold sweep's relu-network prior family with one hidden layer of this width."""
    return {"type": "relu-network", "hidden_widths": [width]}


MEASURE_CONFIG = {
    "schema_version": 1,
    "command": "measure",
    "parameters": {"signal": [1, 1, 2, 2, 3]},
}


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path, MEASURE_CONFIG)
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = {"schema_version": 1, "command": "frobnicate", "parameters": {}}
        path = write_config(tmp_path, bad)
        assert main(["validate", "--config", str(path)]) == 2
        assert "command" in capsys.readouterr().err

    def test_json_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}')
        assert main(["validate", "--config", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_field_path_in_message(self):
        with pytest.raises(ConfigError, match="parameters.seed"):
            validate_config(
                {
                    "schema_version": 1,
                    "command": "probe-dim",
                    "parameters": {"N": 7, "manifold": "special-orthogonal"},
                }
            )

    def test_missing_referenced_file(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "measure",
            "parameters": {"signal_path": str(tmp_path / "absent.txt")},
        }
        with pytest.raises(ConfigError, match="not found"):
            validate_config(payload)

    def test_amp_threshold_needs_an_auto_conditioned_truth(self):
        params = {**get_preset("mra-cyclic-n4").parameters(), "true_seed": 0, "amp_threshold": 3.0}
        with pytest.raises(ConfigError, match="parameters.amp_threshold"):
            validate_config({"schema_version": 1, "command": "sweep", "parameters": params})

    def test_the_block_scalar_check_caps_n(self, capsys, monkeypatch):
        # it draws all n group elements up front; a bare simulation draws its
        # invariants in O(R) and takes any n. Validation only: nothing runs.
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = get_preset("appendixB-blockscalar").parameters()
        config = {"schema_version": 1, "command": "mra-sim"}
        validate_config({**config, "parameters": {**params, "n": mra.MAX_STREAMED_N}})
        too_many = {**params, "n": mra.MAX_STREAMED_N + 1}
        with pytest.raises(ConfigError, match="parameters.n: "):
            validate_config({**config, "parameters": too_many})
        validate_config({**config, "parameters": {**too_many, "block_scalar_check": False}})
        n = f"n={mra.MAX_STREAMED_N + 1}"
        assert main(["run", "--preset", "appendixB-blockscalar", "--set", n]) == 2
        err = capsys.readouterr().err
        assert "parameters.n: " in err and "Traceback" not in err

    def test_the_probe_caps_n(self, capsys, monkeypatch):
        # its arrays grow as N^3: validation stops an N that cannot be held
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        config = {"schema_version": 1, "command": "probe-dim"}
        for preset in ("lemma-codim-gl", "prop-codim-so"):
            params = get_preset(preset).parameters()
            validate_config({**config, "parameters": {**params, "N": MAX_PROBE_N}})
            with pytest.raises(ConfigError, match="parameters.N: "):
                validate_config({**config, "parameters": {**params, "N": MAX_PROBE_N + 1}})
        assert main(["run", "--preset", "lemma-codim-gl", "--set", "N=10000000"]) == 2
        err = capsys.readouterr().err
        assert "parameters.N: " in err and "Traceback" not in err

    def test_a_relu_network_caps_each_layer_s_weights(self, capsys, monkeypatch):
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = get_preset("thm1-gl").parameters()
        config = {"schema_version": 1, "command": "collide"}
        widest = {**params["prior"], "widths": [2, MAX_LAYER_WEIGHTS // 2, 2, 9]}
        validate_config({**config, "parameters": {**params, "prior": widest}})
        for widths in ([2, MAX_LAYER_WEIGHTS // 2 + 1, 9], [2, 3000000, 3000000]):
            prior = {**params["prior"], "widths": widths}
            with pytest.raises(ConfigError, match="parameters.prior.widths: "):
                validate_config({**config, "parameters": {**params, "prior": prior}})
        prior = json.dumps({"type": "relu-network", "widths": [2, 3000000, 3000000]})
        assert main(["run", "--preset", "cor-sphere-so3", "--set", f"prior={prior}"]) == 2
        err = capsys.readouterr().err
        assert "parameters.prior.widths: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "prior",
        [{"type": "ambient"}, {"type": "sparse", "M": 2, "kind": "generic-linear", "seed": 0}],
        ids=["ambient", "sparse"],
    )
    def test_an_ambient_or_sparse_prior_caps_n(self, capsys, monkeypatch, prior):
        # each holds an N x N basis
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = get_preset("ctrl-torus").parameters()
        config = {"schema_version": 1, "command": "collide"}
        validate_config({**config, "parameters": {**params, "prior": {**prior, "N": MAX_SIGNAL_N}}})
        too_long = {**params, "prior": {**prior, "N": MAX_SIGNAL_N + 1}}
        with pytest.raises(ConfigError, match="parameters.prior.N: "):
            validate_config({**config, "parameters": too_long})
        prior = json.dumps({**prior, "N": 10_000_000})
        assert main(["run", "--preset", "ctrl-torus", "--set", f"prior={prior}"]) == 2
        err = capsys.readouterr().err
        assert "parameters.prior.N: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "cap, past, field",
        [
            ({"N_range": [MAX_SIGNAL_N], "M_range": [1]}, {"N_range": [4, MAX_SIGNAL_N + 1]},
             "N_range"),
            ({"N_range": [2], "M_range": [2], "prior_family": hidden(MAX_LAYER_WEIGHTS // 2)},
             {"prior_family": hidden(MAX_LAYER_WEIGHTS // 2 + 1)}, "prior_family.hidden_widths"),
            # the default hidden width is 2M, so cell (N, N) holds 2 N^2 weights a layer
            ({"N_range": [2896], "M_range": [2896]}, {"N_range": [2897], "M_range": [2897]},
             "M_range"),
            ({"N_range": [MAX_SIGNAL_N], "M_range": [2], "prior_family": {"type": "sparse"}},
             {"N_range": [MAX_SIGNAL_N + 1]}, "N_range"),
        ],
        ids=["N_range", "hidden_widths", "default-hidden-width", "sparse-N_range"],
    )
    def test_the_threshold_sweep_caps_its_cells(
        self, tmp_path, capsys, monkeypatch, cap, past, field
    ):
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = {"sweep_kind": "threshold", "mixing_kind": "general-linear", "seeds": [0], **cap}
        config = {"schema_version": 1, "command": "sweep", "parameters": params}
        validate_config(config)
        config = {**config, "parameters": {**params, **past}}
        with pytest.raises(ConfigError, match=f"parameters.{field}: "):
            validate_config(config)
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
        err = capsys.readouterr().err
        assert f"parameters.{field}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    def test_the_block_scalar_check_caps_a_finite_group_s_n(self, capsys, monkeypatch, kind):
        # it holds the group's element matrices, up to 2 N^3 floats; a bare
        # simulation holds none and takes any N up to MAX_SIGNAL_N
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = get_preset("appendixB-blockscalar").parameters()
        config = {"schema_version": 1, "command": "mra-sim"}
        group = {"kind": kind, "N": mra.MAX_ORBIT_N}
        validate_config({**config, "parameters": {**params, "group": group}})
        too_long = {**params, "group": {**group, "N": mra.MAX_ORBIT_N + 1}}
        with pytest.raises(ConfigError, match="parameters.group.N: "):
            validate_config({**config, "parameters": too_long})
        validate_config({**config, "parameters": {**too_long, "block_scalar_check": False}})
        group = json.dumps({"kind": kind, "N": 3000})
        assert main(["run", "--preset", "appendixB-blockscalar", "--set", f"group={group}"]) == 2
        err = capsys.readouterr().err
        assert "parameters.group.N: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, params",
        [
            ("collide", get_preset("thm1-gl").parameters()),
            ("sweep", get_preset("mra-cyclic-n4").parameters()),
        ],
        ids=["collide", "sample-complexity"],
    )
    def test_a_relu_network_caps_its_signal_length(self, tmp_path, capsys, command, params):
        # the last width is the signal length N, and the run holds an N x N mixing
        config = {"schema_version": 1, "command": command}

        def with_last_width(n):
            prior = {**params["prior"], "widths": [2, 2, n]}
            group = {"group": {"kind": "cyclic", "N": n}} if "group" in params else {}
            return {**config, "parameters": {**params, "prior": prior, **group}}

        path = write_config(tmp_path, with_last_width(MAX_SIGNAL_N))
        assert main(["validate", "--config", str(path)]) == 0
        path = write_config(tmp_path, with_last_width(MAX_SIGNAL_N + 1))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parameters.prior.widths: " in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    @pytest.mark.parametrize("preset", ["mra-cyclic-n4", "appendixB-blockscalar"])
    def test_a_finite_group_caps_its_signal_length(self, tmp_path, capsys, preset, kind):
        # with or without the block-scalar check: a run may hold an N x N mixing
        config = get_preset(preset).config.to_dict()
        params = {k: v for k, v in config["parameters"].items() if k != "block_scalar_check"}

        def with_n(n):
            return {**config, "parameters": {**params, "group": {"kind": kind, "N": n}}}

        path = write_config(tmp_path, with_n(MAX_SIGNAL_N))
        assert main(["validate", "--config", str(path)]) == 0
        path = write_config(tmp_path, with_n(MAX_SIGNAL_N + 1))
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parameters.group.N: " in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["signal", "signal_path"])
    def test_a_measured_signal_caps_its_length(self, tmp_path, capsys, monkeypatch, field):
        # the measurement holds an N x N mixing, the identity when none is
        # given; the cap is read at each call, so a lowered one applies
        monkeypatch.setattr("momentlab.config.MAX_SIGNAL_N", 8)
        monkeypatch.chdir(tmp_path)

        def measure(n):
            if field == "signal":
                params = {"signal": [1.0] * n}
            else:
                Path(f"signal{n}.txt").write_text("1\n" * n)
                params = {"signal_path": f"signal{n}.txt"}
            path = write_config(tmp_path, {**MEASURE_CONFIG, "parameters": params}, f"{n}.json")
            return main(["run", "--config", str(path), "--out", f"out{n}"])

        assert measure(8) == 0
        assert measure(9) == 2
        err = capsys.readouterr().err
        assert f"parameters.{field}: the signal has length 9" in err and "Traceback" not in err
        assert not Path("out9", "report.json").exists()

    @pytest.mark.parametrize("prior_type", ["network-file", "sparse-file"])
    def test_a_prior_file_caps_its_signal_length(self, tmp_path, capsys, monkeypatch, prior_type):
        # its signal length is known once the file is read, and the run holds
        # an N x N mixing
        monkeypatch.setattr("momentlab.config.MAX_SIGNAL_N", 8)
        monkeypatch.chdir(tmp_path)

        def collide(n):
            if prior_type == "network-file":
                text = network_to_json(GeneratorNetwork([Layer(np.eye(n, 2), "identity")]))
            else:
                text = sparse_prior_to_json(sparse_prior(n, 1, "standard-basis"))
            Path(f"prior{n}.json").write_text(text)
            params = {
                "prior": {"type": prior_type, "path": f"prior{n}.json"},
                "mixing": {"kind": "general-linear", "seed": 0},
                "seed": 0,
                "restarts": 1,
            }
            cfg = {"schema_version": 1, "command": "collide", "parameters": params}
            path = write_config(tmp_path, cfg, f"{n}.json")
            return main(["run", "--config", str(path), "--out", f"out{n}"])

        assert collide(8) == 0
        assert collide(9) == 2
        err = capsys.readouterr().err
        assert "parameters.prior.path: the signal has length 9" in err and "Traceback" not in err
        assert not Path("out9", "report.json").exists()

    @pytest.mark.parametrize("subcommand", ["run", "validate"])
    @pytest.mark.parametrize(
        "name, message",
        [
            ("absent.json", "No such file or directory"),
            ("adir", "Is a directory"),
            ("latin1.json", "is not UTF-8 text"),
        ],
    )
    def test_an_unreadable_config_exits_2(self, tmp_path, capsys, subcommand, name, message):
        (tmp_path / "adir").mkdir()
        text = json.dumps({**MEASURE_CONFIG, "output_dir": "caf\u00e9"}, ensure_ascii=False)
        (tmp_path / "latin1.json").write_bytes(text.encode("latin-1"))
        assert main([subcommand, "--config", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and message in err

    def test_every_readme_config_validates(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert len(blocks) >= 2
        for block in blocks:
            validate_config(json.loads(block))


class TestMeasureCommand:
    def test_example_row(self, tmp_path, capsys):
        path = write_config(tmp_path, MEASURE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        body = (out / "measurement.csv").read_text().splitlines()
        assert body[1] == "1,5,13"
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"values": [1.0, 5.0, 13.0], "blocks": [1, 2, 2]}

    @pytest.mark.parametrize(
        "override, field",
        [
            ('mixing={"kind":"general-linear"}', "parameters.mixing.seed"),
            ('domain="bogus"', "parameters.domain"),
            ('signal_path="ragged.txt"', "parameters.signal"),
            ('mixing={"kind":"identity","seed":1}', "parameters.mixing.seed: unknown field"),
            ('signal_path="adir"', "parameters.signal_path"),
        ],
    )
    def test_bad_override_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, override, field
    ):
        (tmp_path / "ragged.txt").write_text("1 2\n3\n")
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, MEASURE_CONFIG)
        assert main(["run", "--config", str(path), "--out", str(tmp_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "text",
        ["1 2\n3\n", "", "# no data\n\n", "1 nan 2 3\n", "inf 1\n"],
        ids=["ragged", "empty", "comments-only", "nan", "inf"],
    )
    def test_malformed_signal_file_exits_2(self, tmp_path, capsys, text):
        signal = tmp_path / "signal.txt"
        signal.write_text(text)
        cfg = {**MEASURE_CONFIG, "parameters": {"signal_path": str(signal)}}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "parameters.signal_path" in err and "Traceback" not in err

    def test_no_mixing_measures_as_an_identity_mixing(self, tmp_path):
        # the block energies of the unmixed signal, to the bit
        signal = [1.0, -0.0, 1e-300, 2.5, -3.0, 0.0, 1e-300]
        expected = second_moment_blocks(np.array(signal), block_structure_for_power_spectrum(7))
        bodies = []
        for extra in ({}, {"mixing": {"kind": "identity"}}):
            params = {"signal": signal, **extra}
            out = tmp_path / str(len(bodies))
            report = run(validate_config({**MEASURE_CONFIG, "parameters": params}), out_dir=out)
            assert report.results["values"] == expected.tolist()
            bodies.append((out / "measurement.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_time_domain_measure(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "command": "measure",
            "parameters": {"signal": [2.0, 2.0, 2.0, 2.0], "domain": "time"},
        }
        out = tmp_path / "out"
        report = run(load_config(write_config(tmp_path, cfg)), out_dir=out)
        values = report.results["values"]
        assert values[0] == pytest.approx(16.0, abs=1e-12)
        assert max(values[1:]) < 1e-12


class TestPresets:
    def test_registry_contains_required_names(self):
        required = {
            "thm1-gl",
            "thm2-so",
            "cor-deepnet",
            "cor-sparse",
            "lemma-codim-gl",
            "prop-codim-so",
            "mra-cyclic-n4",
            "cor-sphere-so3",
            "appendixB-blockscalar",
        }
        assert required <= set(PRESETS)
        assert len(PRESETS) >= 9

    def test_cor_sparse_maps_to_4m_plus_2_regime(self):
        rows = {r["name"]: r for r in list_presets()}
        assert "4M+2" in rows["cor-sparse"]["claim"]

    def test_mra_preset_maps_to_slope_4(self):
        rows = {r["name"]: r for r in list_presets()}
        claim = rows["mra-cyclic-n4"]["claim"]
        assert "sigma^4" in claim and "slope of 4" in claim

    def test_listing_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_every_preset_config_validates(self):
        for name, preset in PRESETS.items():
            validate_config(preset.config.to_dict())

    def test_every_benchmark_config_validates(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        items = [item for build in workloads.WORKLOADS.values() for item in build()]
        assert len(items) >= 4
        for item in items:
            validate_config(item.config_dict())


class TestProbeDimCommand:
    def test_so_n7_bound_column(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "command": "probe-dim",
            "parameters": {
                "N": 7,
                "manifold": "special-orthogonal",
                "pairs": 2,
                "seed": 0,
            },
        }
        out = tmp_path / "out"
        report = run(load_config(write_config(tmp_path, cfg)), out_dir=out)
        assert report.results["theoretical_bound"] == 18
        lines = (out / "probes.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("theoretical_bound")
        assert all(line.split(",")[col] == "18" for line in lines[1:])


class TestCollideCommand:
    def test_thm1_preset_reports_no_collision(self, tmp_path):
        preset = get_preset("thm1-gl")
        params = dict(preset.config.parameters)
        params["restarts"] = 40
        params["mixing_seeds"] = [11]
        cfg = type(preset.config)(command="collide", parameters=params)
        report = run(cfg, out_dir=tmp_path / "out")
        assert report.results["collisions_found"] == 0
        body = (tmp_path / "out" / "collisions.csv").read_text().splitlines()
        assert body[0] == "N,M,regime,kind,seed,verdict,residual,separation"
        assert "no-collision-found" in body[1]

    @pytest.mark.parametrize(
        "blocks, regime", [([10], "below-threshold"), ([1, 1, 2, 2, 2, 2], "all-signals")]
    )
    def test_a_custom_layout_is_labelled_by_its_block_count(self, tmp_path, blocks, regime):
        # special-orthogonal, M = 2: R - 1 = 0 and 5 = 2M + 1 invariants
        params = {
            **get_preset("thm2-so").parameters(),
            "restarts": 2,
            "mixing_seeds": [21],
            "blocks": blocks,
        }
        cfg = validate_config({"schema_version": 1, "command": "collide", "parameters": params})
        report = run(cfg, out_dir=tmp_path)
        assert report.results["regime"] == regime
        _, row = (tmp_path / "collisions.csv").read_text().splitlines()
        assert row.split(",")[:5] == ["10", "2", regime, "special-orthogonal", "21"]

    @pytest.mark.parametrize(
        "blocks, regime, verdict",
        [([4, 5], "below-threshold", "collision"),
         ([1, 1, 1, 1, 5], "all-signals", "no-collision-found")],
    )
    def test_a_custom_layout_s_regime_reads_as_its_searches_do(
        self, tmp_path, blocks, regime, verdict
    ):
        # thm1-gl's prior (M = 2, N = 9) under two general-linear mixings:
        # R = 2 < M + 1 collides, R = 5 = 2M + 1 finds no collision
        params = {**get_preset("thm1-gl").parameters(), "mixing_seeds": [11, 12], "blocks": blocks}
        cfg = validate_config({"schema_version": 1, "command": "collide", "parameters": params})
        run(cfg, out_dir=tmp_path)
        _, *rows = (tmp_path / "collisions.csv").read_text().splitlines()
        assert [row.split(",")[2:6] for row in rows] == [
            [regime, "general-linear", seed, verdict] for seed in ("11", "12")
        ]

    def test_report_gives_the_restarts_of_each_search_in_seed_order(self, tmp_path, monkeypatch):
        # each search reports a different count, so the order is visible
        counts = iter([5, 2, 7])

        def search(*args, **kwargs):
            rep = collision_search(*args, **kwargs)
            rep.restarts_used = next(counts)
            return rep

        monkeypatch.setattr(runner, "collision_search", search)
        params = {**get_preset("thm2-so").parameters(), "restarts": 1, "mixing_seeds": [21, 3, 8]}
        cfg = validate_config({"schema_version": 1, "command": "collide", "parameters": params})
        report = run(cfg, out_dir=tmp_path)
        assert report.results["restarts_used"] == [5, 2, 7]
        assert report.results["searches"] == 3

    def test_report_gives_the_solves_at_budget_of_each_search_in_seed_order(self, tmp_path):
        # with mixing seed 31 one solve of the 20 runs to the budget, with 3 none
        params = {
            **get_preset("thm2-so").parameters(),
            "restarts": 20,
            "seed": 10,
            "mixing_seeds": [31, 3],
        }
        cfg = validate_config({"schema_version": 1, "command": "collide", "parameters": params})
        run(cfg, out_dir=tmp_path)
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["solves_at_budget"] == [1, 0]
        assert results["restarts_used"] == [20, 20]

    def test_oracle_receives_only_its_grid(self, tmp_path, monkeypatch):
        seen = []

        def oracle(*args, **kwargs):
            seen.append((len(args), kwargs))
            return SimpleNamespace(
                verdict="no-collision-found", residual=1.0, separation=1.0, scale=1.0
            )

        monkeypatch.setattr(runner, "brute_force_collision_oracle", oracle)
        params = {
            **get_preset("thm1-gl").parameters(),
            "restarts": 2,
            "mixing_seeds": [11],
            "oracle_check": True,
            "oracle_grid": 5,
        }
        cfg = validate_config({"schema_version": 1, "command": "collide", "parameters": params})
        report = run(cfg, out_dir=tmp_path)
        assert report.results["oracle_verdict"] == "no-collision-found"
        # prior, mixing and layout; the verdict thresholds are the module's
        assert seen == [(3, {"grid_points_per_axis": 5})]

    def test_report_gives_the_oracle_floats(self, tmp_path):
        # CI's oracle step: the report holds the oracle's pair floats to the bit
        params = {
            **get_preset("thm1-gl").parameters(),
            "restarts": 2,
            "mixing_seeds": [11],
            "oracle_check": True,
            "oracle_grid": 21,
        }
        config = {"schema_version": 1, "command": "collide", "parameters": params}
        path = write_config(tmp_path, config)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        prior = random_relu_network((2, 12, 9), seed=3)
        A = sample_mixing(9, "general-linear", seed=11)
        oracle = brute_force_collision_oracle(prior, A, block_structure_for_power_spectrum(9), 21)
        assert results["oracle_verdict"] == oracle.verdict == "no-collision-found"
        assert results["oracle_residual"] == oracle.residual
        assert results["oracle_separation"] == oracle.separation
        assert results["oracle_scale"] == oracle.scale


THRESHOLD_CONFIG = {
    "schema_version": 1,
    "command": "sweep",
    "parameters": {
        "sweep_kind": "threshold",
        "N_range": [4, 6],
        "M_range": [1],
        "mixing_kind": "general-linear",
        "seeds": [0],
        "restarts": 2,
    },
}


def run_threshold(tmp_path, params):
    """Run a threshold sweep with these parameters: its results and its CSV rows as dicts."""
    cfg = validate_config({**THRESHOLD_CONFIG, "parameters": params})
    report = run(cfg, out_dir=tmp_path)
    header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
    return report.results, [dict(zip(header.split(","), line.split(","))) for line in lines]


def spy_searches(monkeypatch) -> list:
    """Replace the runner's collision search; the list fills with (prior, kwargs) per call."""
    seen = []

    def search(prior, A, blocks, **kwargs):
        seen.append((prior, kwargs))
        return SimpleNamespace(verdict="no-collision-found", residual=1.0, separation=1.0)

    monkeypatch.setattr(runner, "collision_search", search)
    return seen


class TestSweepCommand:
    def test_small_sweep_no_collisions_above_threshold(self, tmp_path):
        params = {
            **THRESHOLD_CONFIG["parameters"],
            "N_range": [10],
            "M_range": [2],
            "mixing_kind": "special-orthogonal",
            "seeds": [0, 1, 2, 3, 4],
            "restarts": 25,
            "prior_family": {"type": "relu-network", "hidden_widths": [8]},
        }
        results, rows = run_threshold(tmp_path, params)
        (cell,) = results["cells"]
        assert cell["regime"] == "all-signals"
        assert cell["collisions_found_fraction"] == 0.0
        assert len(rows) == 5
        assert all(r["verdict"] == "no-collision-found" for r in rows)

    def test_below_threshold_reported_not_asserted(self, tmp_path):
        params = {
            **THRESHOLD_CONFIG["parameters"],
            "N_range": [3],
            "M_range": [2],
            "mixing_kind": "special-orthogonal",
            "seeds": [0, 1],
            "restarts": 10,
        }
        results, _ = run_threshold(tmp_path, params)
        (cell,) = results["cells"]
        assert cell["regime"] == "below-threshold"
        assert 0.0 <= cell["collisions_found_fraction"] <= 1.0

    def test_each_search_draws_its_prior_mixing_and_starts_from_its_seed(self, tmp_path):
        N, M, kind, restarts = 6, 1, "general-linear", 3
        params = {
            **THRESHOLD_CONFIG["parameters"],
            "N_range": [N],
            "M_range": [M],
            "seeds": [2, 5],
            "restarts": restarts,
        }
        _, rows = run_threshold(tmp_path, params)
        assert [row["seed"] for row in rows] == ["2", "5"]
        for row in rows:
            seed = int(row["seed"])
            report = collision_search(
                random_relu_network((M, 6, N), seed=seed),
                sample_mixing(N, kind, np.random.SeedSequence((seed, 0xA))),
                block_structure_for_power_spectrum(N),
                restarts=restarts,
                seed=seed,
            )
            assert row["regime"] == regime_label(block_structure_for_power_spectrum(N).R, M, kind)
            assert row["verdict"] == report.verdict
            assert float(row["residual"]) == report.residual
            assert float(row["separation"]) == report.separation

    def test_restarts_default_to_50(self, tmp_path, monkeypatch):
        seen = spy_searches(monkeypatch)
        params = {k: v for k, v in THRESHOLD_CONFIG["parameters"].items() if k != "restarts"}
        run_threshold(tmp_path, params)
        assert [kwargs["restarts"] for _, kwargs in seen] == [50, 50]

    def test_no_hidden_widths_give_a_linear_prior(self, tmp_path, monkeypatch):
        seen = spy_searches(monkeypatch)
        family = {"type": "relu-network", "hidden_widths": []}
        run_threshold(tmp_path, {**THRESHOLD_CONFIG["parameters"], "prior_family": family})
        assert [p.layers[0].weight.shape for p, _ in seen] == [(4, 1), (6, 1)]
        assert [len(p.layers) for p, _ in seen] == [1, 1]

    def test_threshold_sweep_prints_a_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, THRESHOLD_CONFIG)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["searches"] == 2
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert summary["collisions_found"] == sum(",collision," in row for row in rows)

    @pytest.mark.parametrize(
        "bounds, field",
        [
            ({"n_min": 5000, "n_cap": 100}, "parameters.n_min"),
            ({"n_min": 20_000_000}, "parameters.n_min"),    # n_cap at its library default
            ({"n_cap": 4}, "parameters.n_cap"),             # n_min at its library default
        ],
    )
    def test_n_min_above_n_cap_exits_2(self, tmp_path, capsys, bounds, field):
        params = dict(get_preset("mra-cyclic-n4").parameters())
        del params["n_cap"]
        cfg = {"schema_version": 1, "command": "sweep", "parameters": {**params, **bounds}}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "family, field",
        [
            (3, "parameters.prior_family.type"),
            (
                {"type": "relu-network", "hidden_widths": ["a"]},
                "parameters.prior_family.hidden_widths",
            ),
            (
                {"type": "relu-network", "activation": "identity"},
                "parameters.prior_family.activation",
            ),
        ],
    )
    def test_bad_prior_family_exits_2(self, tmp_path, capsys, family, field):
        params = {**THRESHOLD_CONFIG["parameters"], "prior_family": family}
        cfg = {**THRESHOLD_CONFIG, "parameters": params}
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    def test_report_counts_the_recoveries_and_the_csv_does_not(self, tmp_path, monkeypatch):
        params = {
            **get_preset("mra-cyclic-n4").parameters(),
            "sigma_list": [0.25],
            "seeds": [0, 1, 2],
            "true_seed": 0,
            "n_min": 64,
            "grid_ratio": 2.0,
            "recover_restarts": 4,
        }
        calls = []
        recover = mra.recover
        monkeypatch.setattr(mra, "recover", lambda *a, **k: calls.append(1) or recover(*a, **k))
        run(validate_config({"schema_version": 1, "command": "sweep", "parameters": params}),
            out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["recoveries"] == len(calls) > 0
        header = (tmp_path / "samplecomplexity.csv").read_text().splitlines()[0]
        assert header == "sigma,n_star,median_error,seeds_used"

    @pytest.mark.parametrize(
        "activation, path", [("relu", "sectors"), ("hardtanh(-1,1)", "multistart")]
    )
    @pytest.mark.parametrize("command", ["sweep", "mra-sim"])
    def test_report_gives_the_recover_path(self, tmp_path, command, activation, path):
        if command == "sweep":
            params = {
                **get_preset("mra-cyclic-n4").parameters(),
                "sigma_list": [0.25], "seeds": [0], "true_seed": 0, "n_min": 64, "n_cap": 64,
            }
        else:
            params = {**get_preset("cor-sphere-so3").parameters(), "n": 4000, "repeats": 1}
        params["prior"] = {**params["prior"], "activation": activation}
        run(validate_config({"schema_version": 1, "command": command, "parameters": params}),
            out_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["recover_path"] == path

    def test_a_sweep_with_no_cell_exits_2(self, tmp_path, capsys):
        # every M exceeds every N, so no (N, M) cell would be searched
        params = {**THRESHOLD_CONFIG["parameters"], "N_range": [2], "M_range": [3]}
        path = write_config(tmp_path, {**THRESHOLD_CONFIG, "parameters": params})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "parameters.M_range" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


# Its image has norm <= 5.4, so no rescaling of a latent draw reaches norm 50.
HARDTANH_PRIOR = {
    "type": "relu-network",
    "widths": [2, 10, 8],
    "seed": 11,
    "activation": "hardtanh(-0.5,0.5)",
}


@pytest.mark.parametrize(
    "command, params",
    [
        (
            "mra-sim",
            {
                "group": {"kind": "cyclic", "N": 8},
                "prior": HARDTANH_PRIOR,
                "sigma": 0.0,
                "n": 1000,
                "seed": 0,
                "recover": True,
                "signal_norm": 50,
            },
        ),
        (
            "sweep",
            {
                **get_preset("mra-cyclic-n4").parameters(),
                "prior": HARDTANH_PRIOR,
                "true_seed": 0,
                "signal_norm": 50,
            },
        ),
    ],
)
def test_unreachable_signal_norm_exits_2(tmp_path, capsys, command, params):
    path = write_config(tmp_path, {"schema_version": 1, "command": command, "parameters": params})
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "parameters.signal_norm" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


class TestDeterminism:
    def test_byte_identical_csv_bodies(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "command": "probe-dim",
            "parameters": {
                "N": 7,
                "manifold": "special-orthogonal",
                "pairs": 3,
                "seed": 5,
            },
        }
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(load_config(path), out_dir=out1)
        run(load_config(path), out_dir=out2)
        assert (out1 / "probes.csv").read_bytes() == (out2 / "probes.csv").read_bytes()


#: Activation tags whose parameters are no finite numbers.
NON_FINITE_TAGS = ("leaky-relu(nan)", "leaky-relu(inf)", "hardtanh(nan,1)")


class TestOverrides:
    def test_set_flag_overrides_parameters(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "--preset",
                "ctrl-torus",
                "--out",
                str(tmp_path / "out"),
                "--set",
                "restarts=5",
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["collisions_found"] == 1

    @pytest.mark.parametrize(
        "override, field",
        [
            ("prior=3", "parameters.prior"),
            ("restarts=0", "parameters.restarts"),
            ('restarts="x"', "parameters.restarts"),
            ("mixing_seeds=5", "parameters.mixing_seeds"),
            ("pairs=-1", "parameters.pairs"),
            ("n_min=0", "parameters.n_min"),
            ("grid_ratio=1", "parameters.grid_ratio"),
            ("seed=-1", "parameters.seed"),
            ("residual_tol=1e-6", "parameters.residual_tol: unknown field"),
            ("separation_tol=1e-2", "parameters.separation_tol: unknown field"),
            ("penalty=100", "parameters.penalty"),
            ("oracle_grid=500", "parameters.oracle_grid"),
            ("sigma_list=[2,1]", "parameters.sigma_list"),
            ("N_range=[]", "parameters.N_range"),
            ('true_seed="x"', "parameters.true_seed"),
            ('signal_norm="x"', "parameters.signal_norm"),
            ("oracle_check=1", "parameters.oracle_check"),
            ("signal=[]", "parameters.signal"),
            ('prior={"type":"ambient","N":"x"}', "parameters.prior.N"),
            ('prior={"type":"relu-network","widths":[2]}', "parameters.prior.widths"),
            ('prior={"type":"relu-network","widths":[2,8,10],"seed":-1}', "parameters.prior.seed"),
            ('prior={"type":"sparse","N":4,"M":5}', "parameters.prior.M"),
            ('mixing={"kind":"general-linear","seed":"x"}', "parameters.mixing.seed"),
            (
                'prior={"type":"relu-network","widths":[2,8,10],"activation":"bogus"}',
                "parameters.prior.activation",
            ),
            ('prior={"type":"network-file","path":"bad.json"}', "parameters.prior.path"),
            ('prior={"type":"sparse-file","path":"bad.json"}', "parameters.prior.path"),
            ('prior={"type":"network-file","path":"adir"}', "parameters.prior.path"),
            ("restartz=5", "parameters.restartz"),
            ('prior={"type":["ambient"],"N":10}', "parameters.prior.type"),
            ("sigma=0.3", "parameters.sigma"),
            ('prior={"type":"relu-network","widths":[2,12,10],"sed":5}', "parameters.prior.sed"),
            ('mixing={"kind":"special-orthogonal","seed":21,"sead":1}', "parameters.mixing.sead"),
            ('prior={"type":"sparse","kind":"bogus","N":10,"M":2}', "parameters.prior.kind"),
            ("oracle_grid=21", "parameters.oracle_grid"),
            *(
                (
                    f'prior={{"type":"relu-network","widths":[2,12,10],"{key}":{value}}}',
                    f"parameters.prior.{key}: unknown field",
                )
                for key, value in [
                    ("perturb_final_layer", "true"), ("perturb_scale", 0.5), ("perturb_seed", 3)
                ]
            ),
            (
                'mixing={"kind":"identity","seed":3}',
                "parameters.mixing.seed: unknown field; this level takes no field",
            ),
            ('prior={"type":"network-file","path":"latin1.json"}', "parameters.prior.path"),
            (
                'prior={"type":"sparse","kind":"standard-basis","N":10,"M":2,"seed":4}',
                "parameters.prior.seed",
            ),
            *(
                (
                    'prior={"type":"relu-network","widths":[2,12,10],"seed":5,'
                    f'"activation":"{tag}"}}',
                    "parameters.prior.activation",
                )
                for tag in NON_FINITE_TAGS
            ),
            *(
                (
                    f'prior={{"type":"network-file","path":"nonfinite{i}.json"}}',
                    "parameters.prior.path",
                )
                for i in range(len(NON_FINITE_TAGS))
            ),
        ],
    )
    def test_bad_override_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, override, field
    ):
        (tmp_path / "bad.json").write_text("{}")      # a prior file of the wrong shape
        latin1 = '{"layers": [], "note": "caf\u00e9"}'.encode("latin-1")   # not UTF-8
        (tmp_path / "latin1.json").write_bytes(latin1)
        (tmp_path / "adir").mkdir()
        for i, tag in enumerate(NON_FINITE_TAGS):     # well-formed but for the activation
            layers = [
                {"rows": 12, "cols": 2, "data": [0.5] * 24, "activation": tag},
                {"rows": 10, "cols": 12, "data": [0.25] * 120},
            ]
            (tmp_path / f"nonfinite{i}.json").write_text(json.dumps({"layers": layers}))
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--preset", "thm2-so", "--out", str(tmp_path), "--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "kind, value, where",
        [
            ("network-file", math.nan, "layers[1].data"),
            ("network-file", math.inf, "layers[0].bias"),
            ("sparse-file", math.nan, "basis"),
            ("sparse-file", -math.inf, "basis"),
        ],
    )
    def test_non_finite_prior_file_exits_2(
        self, tmp_path, capsys, monkeypatch, kind, value, where
    ):
        # json writes and reads NaN and Infinity, so the loaders check finiteness
        if kind == "network-file":
            layers = [
                {"rows": 12, "cols": 2, "data": [0.5] * 24, "bias": [0.1] * 12},
                {"rows": 10, "cols": 12, "data": [0.25] * 120},
            ]
            field, _, key = where.partition(".")
            target = layers[int(field[len("layers["):-1])][key]
            payload = {"layers": layers}
        else:
            target = np.eye(10).ravel().tolist()
            payload = {"n": 10, "basis": target, "sparsity": 2, "kind": "generic-linear"}
        target[3] = value
        (tmp_path / "prior.json").write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)
        argv = [
            "run", "--preset", "thm2-so", "--out", str(tmp_path / "out"),
            "--set", f'prior={{"type":"{kind}","path":"prior.json"}}',
            "--set", "restarts=2", "--set", "mixing_seeds=[21]",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "parameters.prior.path" in err and f"{where} has a non-finite entry" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("ctrl-torus", "oracle_check=true", "parameters.oracle_check"),
            ("cor-sphere-so3", 'true_seed="x"', "parameters.true_seed"),
            ("cor-sphere-so3", 'true_seed="auto-conditioned"', "parameters.true_seed"),
            ("cor-sphere-so3", 'prior={"type":"ambient","N":4}', "parameters.prior"),
            ("mra-cyclic-n4", 'group={"kind":"cyclic","N":"x"}', "parameters.group.N"),
            ("mra-cyclic-n4", "amp_threshold=0.001", "parameters.amp_threshold"),
            (
                "mra-cyclic-n4",
                (f"prior={json.dumps(HARDTANH_PRIOR)}", "signal_norm=50"),
                "parameters.signal_norm",
            ),
            ("cor-sparse", "oracle_check=true", "parameters.oracle_grid"),
            ("mra-cyclic-n4", "n_min=20000000", "parameters.n_min"),
            ("lemma-codim-gl", "residual_target=1e-11", "parameters.residual_target"),
            ("lemma-codim-gl", "rank_rtol=1e-6", "parameters.rank_rtol"),
            ("appendixB-blockscalar", "recover=true", "parameters.recover"),
            ("appendixB-blockscalar", "repeats=2", "parameters.repeats"),
            ("cor-sphere-so3", "recover=false", "parameters.repeats"),
            ("cor-sphere-so3", "signal_seed=1", "parameters.signal_seed"),
            (
                "cor-sphere-so3",
                'mixing={"kind":"identity","seed":3}',
                "parameters.mixing.seed: unknown field",
            ),
            (
                "mra-cyclic-n4",
                'mixing={"kind":"identity","seed":3}',
                "parameters.mixing.seed: unknown field",
            ),
            (
                "appendixB-blockscalar",
                'group={"kind":"so3-bandlimited","L":1000000}',
                "parameters.group.L",
            ),
        ],
    )
    def test_bad_override_of_a_preset_exits_2(self, tmp_path, capsys, preset, override, field):
        argv = ["run", "--preset", preset, "--out", str(tmp_path)]
        for item in (override,) if isinstance(override, str) else override:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "--preset", "ctrl-torus", "--out", "F"], "--out"),
            (["run", "--preset", "ctrl-torus", "--out", "F/sub"], "--out"),
            (["run", "--config", "in_F.json"], "output_dir"),
            (["validate", "--config", "in_F.json"], "output_dir"),
        ],
    )
    def test_an_output_path_through_a_file_exits_2(
        self, tmp_path, capsys, monkeypatch, argv, field
    ):
        monkeypatch.chdir(tmp_path)
        Path("F").write_text("")
        config = {**get_preset("ctrl-torus").config.to_dict(), "output_dir": "F"}
        write_config(tmp_path, config, name="in_F.json")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "not a directory" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "in_F.json"]

    def test_identity_mixing_seed_labels_the_collide_row(self, tmp_path, capsys):
        argv = ["run", "--preset", "ctrl-torus", "--out", str(tmp_path), "--set", "restarts=1"]
        assert main([*argv, "--set", "mixing_seeds=[3]"]) == 0
        header, row = (tmp_path / "collisions.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["seed"] == "3"

    def test_an_unknown_preset_exits_2_with_its_message_unquoted(self, capsys):
        assert main(["run", "--preset", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --preset: unknown preset 'nope'; known presets: ")

    def test_blocks_not_matching_the_signal_exit_2(self, tmp_path, capsys):
        argv = ["run", "--preset", "lemma-codim-gl-blocks", "--out", str(tmp_path)]
        assert main([*argv, "--set", "blocks=[1,2]"]) == 2
        assert "parameters.blocks" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "ctrl-torus", "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2


# "restartz" is no key at all and "sigma" a key of another command: both exit 2.
_UNREAD_KEYS = {"restartz", "sigma"}
_FUZZ_KEYS = {
    "ctrl-torus": ["prior", "mixing", "restarts", "seed", "mixing_seeds", "restartz"],
    "lemma-codim-gl": ["N", "manifold", "pairs", "seed", "restarts", "sigma"],
}

# Values valid for some key are drawn as often as invalid ones, so that
# both exit codes occur.
_FUZZ_VALUES = st.one_of(
    st.integers(1, 6),
    st.lists(st.integers(0, 6), min_size=1, max_size=3),
    st.sampled_from(
        ["general-linear", "special-orthogonal", {"kind": "identity"}, {"type": "ambient", "N": 4}]
    ),
    st.none() | st.booleans() | st.integers(-2, 6),
    st.floats(-3.0, 3.0) | st.sampled_from([math.nan, math.inf]),
    st.text(max_size=3) | st.lists(st.integers(-1, 6), max_size=3),
)


@pytest.mark.parametrize("preset", sorted(_FUZZ_KEYS))
@settings(max_examples=60)
@given(data=st.data())
def test_fuzzed_overrides_run_or_exit_2(preset, data):
    overrides = data.draw(
        st.dictionaries(st.sampled_from(_FUZZ_KEYS[preset]), _FUZZ_VALUES, min_size=1, max_size=2)
    )
    argv = ["run", "--preset", preset]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    with tempfile.TemporaryDirectory() as out:
        code = main([*argv, "--out", out])
    assert code == 2 if _UNREAD_KEYS & set(overrides) else code in (0, 2)
