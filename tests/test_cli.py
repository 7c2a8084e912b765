import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import runner
from momentlab.cli import main
from momentlab.config import ConfigError, load_config, validate_config
from momentlab.presets import PRESETS, get_preset, list_presets
from momentlab.runner import run


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


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
            ('mixing={"kind":"identity","seed":1}', "parameters.mixing.seed"),
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

    def test_oracle_uses_the_search_thresholds(self, tmp_path, monkeypatch):
        seen = {}

        def oracle(*args, **kwargs):
            seen.update(kwargs)
            return SimpleNamespace(verdict="no-collision-found")

        monkeypatch.setattr(runner, "brute_force_collision_oracle", oracle)
        thresholds = {"residual_tol": 1e-6, "separation_tol": 1e-2}
        params = {
            **get_preset("thm1-gl").parameters(),
            "restarts": 2,
            "mixing_seeds": [11],
            "oracle_check": True,
            "oracle_grid": 5,
            **thresholds,
        }
        cfg = validate_config({"schema_version": 1, "command": "collide", "parameters": params})
        report = run(cfg, out_dir=tmp_path)
        assert report.results["oracle_verdict"] == "no-collision-found"
        assert seen == {"grid_points_per_axis": 5, **thresholds}


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


class TestSweepCommand:
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
            ("residual_tol=0", "parameters.residual_tol"),
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
            (
                'prior={"type":"relu-network","widths":[2,12,10],"perturb_scale":0.5}',
                "parameters.prior.perturb_scale",
            ),
            (
                'prior={"type":"relu-network","widths":[2,12,10],"perturb_seed":3}',
                "parameters.prior.perturb_seed",
            ),
            (
                'prior={"type":"sparse","kind":"standard-basis","N":10,"M":2,"seed":4}',
                "parameters.prior.seed",
            ),
        ],
    )
    def test_bad_override_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, override, field
    ):
        (tmp_path / "bad.json").write_text("{}")      # a prior file of the wrong shape
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--preset", "thm2-so", "--out", str(tmp_path), "--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

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
            ("cor-sphere-so3", 'mixing={"kind":"identity","seed":3}', "parameters.mixing.seed"),
            ("mra-cyclic-n4", 'mixing={"kind":"identity","seed":3}', "parameters.mixing.seed"),
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

    def test_identity_mixing_seed_labels_the_collide_row(self, tmp_path, capsys):
        argv = ["run", "--preset", "ctrl-torus", "--out", str(tmp_path), "--set", "restarts=1"]
        assert main([*argv, "--set", 'mixing={"kind":"identity","seed":3}']) == 0
        header, row = (tmp_path / "collisions.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["seed"] == "3"

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
