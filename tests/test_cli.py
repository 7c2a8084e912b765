import importlib.util
import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentlab import config, injectivity, mra, runner, so3
from momentlab.cli import main
from momentlab.config import (
    ConfigError,
    build_prior,
    check_memory,
    load_config,
    validate_config,
)
from momentlab.injectivity import (
    brute_force_collision_oracle,
    collision_search,
    regime_label,
)
from momentlab.measurements import block_structure_for_power_spectrum, second_moment_blocks
from momentlab.presets import PRESETS, get_preset, list_presets
from momentlab.priors import (
    GeneratorNetwork,
    Layer,
    cone_sectors,
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


def rule_total(command, params, read=None, sectors=None):
    """The memory rule's estimate of a run's peak in bytes, from its message at a zero budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config, "MEMORY_BUDGET", 0)
        with pytest.raises(ConfigError) as err:
            check_memory(command, config.with_defaults(command, params), read, sectors)
    return int(re.search(r"about (\d+) bytes", str(err.value)).group(1))


def lower_budget_to(monkeypatch, command, params, read=None, sectors=None):
    """Set MEMORY_BUDGET to the rule's estimate for this run: it fits, a byte more would not."""
    monkeypatch.setattr(config, "MEMORY_BUDGET", rule_total(command, params, read, sectors))


def envelope(command, params):
    return {"schema_version": 1, "command": command, "parameters": params}


def with_prior(preset, prior):
    return {**get_preset(preset).parameters(), "prior": prior}


def relu(*widths, **extra):
    return {"type": "relu-network", "widths": list(widths), "seed": 0, **extra}


def threshold(**params):
    return {"sweep_kind": "threshold", "mixing_kind": "general-linear", "seeds": [0], **params}


def block_scalar(**params):
    return {**get_preset("appendixB-blockscalar").parameters(), **params}


def sample_complexity(**params):
    return {**get_preset("mra-cyclic-n4").parameters(), **params}


#: Each size the memory budget bounds: (command, parameters at the budget, the
#: parameters one step past it, the field named). At each, that field's terms
#: are the largest.
BUDGET_CASES = {
    "block-scalar-n": ("mra-sim", block_scalar(n=10**6), block_scalar(n=10**6 + 1), "n"),
    "probe-gl-N": (
        "probe-dim",
        {**get_preset("lemma-codim-gl").parameters(), "N": 64},
        {**get_preset("lemma-codim-gl").parameters(), "N": 65},
        "N",
    ),
    "probe-so-N": (
        "probe-dim",
        {**get_preset("prop-codim-so").parameters(), "N": 64},
        {**get_preset("prop-codim-so").parameters(), "N": 65},
        "N",
    ),
    "probe-blocks": (
        "probe-dim",
        {**get_preset("lemma-codim-gl").parameters(), "N": 40, "blocks": [1] * 40},
        {**get_preset("lemma-codim-gl").parameters(), "N": 41, "blocks": [1] * 41},
        "N",
    ),
    "probe-pairs": (
        "probe-dim",
        {**get_preset("lemma-codim-gl").parameters(), "pairs": 10**4},
        {**get_preset("lemma-codim-gl").parameters(), "pairs": 10**4 + 1},
        "pairs",
    ),
    "relu-layer-weights": (
        "collide",
        with_prior("thm1-gl", relu(2, 1000, 1000, 9)),
        with_prior("thm1-gl", relu(2, 1001, 1000, 9)),
        "prior.widths",
    ),
    "relu-signal-length": (
        "collide",
        with_prior("thm1-gl", relu(2, 2, 300)),
        with_prior("thm1-gl", relu(2, 2, 301)),
        "prior.widths",
    ),
    "ambient-N": (
        "collide",
        with_prior("ctrl-torus", {"type": "ambient", "N": 100}),
        with_prior("ctrl-torus", {"type": "ambient", "N": 101}),
        "prior.N",
    ),
    "sparse-N": (
        "collide",
        with_prior("ctrl-torus", {"type": "sparse", "N": 300, "M": 2, "kind": "generic-linear"}),
        with_prior("ctrl-torus", {"type": "sparse", "N": 301, "M": 2, "kind": "generic-linear"}),
        "prior.N",
    ),
    "oracle-grid": (
        "collide",
        {**get_preset("thm1-gl").parameters(), "oracle_check": True, "oracle_grid": 150},
        {**get_preset("thm1-gl").parameters(), "oracle_check": True, "oracle_grid": 151},
        "oracle_grid",
    ),
    "threshold-N_range": (
        "sweep",
        threshold(N_range=[4, 300], M_range=[1]),
        threshold(N_range=[4, 301], M_range=[1]),
        "N_range",
    ),
    "threshold-hidden_widths": (
        "sweep",
        threshold(N_range=[8], M_range=[2], prior_family={**hidden(1000), "hidden_widths": [1000, 1000]}),
        threshold(N_range=[8], M_range=[2], prior_family={**hidden(1000), "hidden_widths": [1001, 1000]}),
        "prior_family.hidden_widths",
    ),
    "threshold-sparse-N_range": (
        "sweep",
        threshold(N_range=[300], M_range=[2], prior_family={"type": "sparse"}),
        threshold(N_range=[301], M_range=[2], prior_family={"type": "sparse"}),
        "N_range",
    ),
    "cyclic-block-scalar-N": (
        "mra-sim",
        block_scalar(group={"kind": "cyclic", "N": 60}, n=10),
        block_scalar(group={"kind": "cyclic", "N": 61}, n=10),
        "group.N",
    ),
    "dihedral-block-scalar-N": (
        "mra-sim",
        block_scalar(group={"kind": "dihedral", "N": 60}, n=10),
        block_scalar(group={"kind": "dihedral", "N": 61}, n=10),
        "group.N",
    ),
    "so3-block-scalar-L": (
        "mra-sim",
        block_scalar(group={"kind": "so3-bandlimited", "L": 8}, n=100),
        block_scalar(group={"kind": "so3-bandlimited", "L": 9}, n=100),
        "group.L",
    ),
    "sample-complexity-group-N": (
        "sweep",
        sample_complexity(group={"kind": "cyclic", "N": 300}),
        sample_complexity(group={"kind": "cyclic", "N": 301}),
        "group.N",
    ),
    "recover-sectors": (
        "mra-sim",
        with_prior("cor-sphere-so3", relu(2, 2000, 16)),
        with_prior("cor-sphere-so3", relu(2, 2001, 16)),
        "prior.widths",
    ),
}


class TestMemoryBudget:
    """One rule bounds every size: the arrays a run holds at its peak must fit in MEMORY_BUDGET."""

    def test_the_ambient_reproducer_exits_2_before_any_array(self, tmp_path, capsys, monkeypatch):
        # its image-dimension estimate alone would stack 32 Jacobians of N^2 floats
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = {
            "prior": {"type": "ambient", "N": 4096},
            "mixing": {"kind": "general-linear", "seed": 0},
            "seed": 0,
        }
        path = write_config(tmp_path, envelope("collide", params))
        for subcommand in ("validate", "run"):
            assert main([subcommand, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "parameters.prior.N: the run would hold about" in err
            assert f"memory budget of {2**30} bytes" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", BUDGET_CASES)
    def test_each_size_is_held_to_the_budget(self, monkeypatch, case):
        command, at, past, field = BUDGET_CASES[case]
        lower_budget_to(monkeypatch, command, at)
        validate_config(envelope(command, at))
        with pytest.raises(ConfigError, match=f"^parameters\\.{re.escape(field)}: the run would"):
            validate_config(envelope(command, past))

    @pytest.mark.parametrize(
        "preset, override, field",
        [
            ("lemma-codim-gl", "N=10000000", "parameters.N"),
            ("prop-codim-so", "N=10000000", "parameters.N"),
            ("ctrl-torus", 'prior={"type":"ambient","N":10000000}', "parameters.prior.N"),
            (
                "ctrl-torus",
                'prior={"type":"sparse","N":10000000,"M":2,"kind":"generic-linear"}',
                "parameters.prior.N",
            ),
            (
                "cor-sphere-so3",
                'prior={"type":"relu-network","widths":[2,3000000,3000000]}',
                "parameters.prior.widths",
            ),
            ("thm1-gl", 'prior={"type":"relu-network","widths":[2,2,20000]}', "parameters.prior.widths"),
            ("appendixB-blockscalar", 'group={"kind":"dihedral","N":4000}', "parameters.group.N"),
            ("appendixB-blockscalar", "n=100000000", "parameters.n"),
            ("mra-cyclic-n4", 'group={"kind":"cyclic","N":20000}', "parameters.group.N"),
        ],
    )
    def test_a_size_past_the_budget_exits_2_from_the_cli(
        self, capsys, monkeypatch, preset, override, field
    ):
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        overrides = [override] if isinstance(override, str) else list(override)
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert main(["run", "--preset", preset, *sets]) == 2
        err = capsys.readouterr().err
        assert f"{field}: the run would hold about" in err and "Traceback" not in err

    def test_a_bare_simulation_holds_no_n_or_n_squared_array(self):
        # it draws its invariants in O(R): any n, and an N whose N x N arrays
        # the block-scalar check could not hold
        params = {**block_scalar(n=10**12), "block_scalar_check": False}
        validate_config(envelope("mra-sim", params))
        validate_config(envelope("mra-sim", {**params, "group": {"kind": "dihedral", "N": 10**6}}))
        with pytest.raises(ConfigError, match="parameters.n: "):
            validate_config(envelope("mra-sim", {**params, "block_scalar_check": True}))

    @pytest.mark.parametrize("field", ["signal", "signal_path"])
    def test_a_measured_signal_is_held_to_the_budget(self, tmp_path, capsys, monkeypatch, field):
        # an inline signal's length is known at validation, a file's once the
        # runner reads it; either way no report is written past the budget
        monkeypatch.chdir(tmp_path)

        def measure(n):
            if field == "signal":
                params = {"signal": [1.0] * n, "mixing": {"kind": "general-linear", "seed": 0}}
            else:
                Path(f"signal{n}.txt").write_text("1\n" * n)
                params = {"signal_path": f"signal{n}.txt", "mixing": {"kind": "general-linear", "seed": 0}}
            return params, write_config(tmp_path, envelope("measure", params), f"{n}.json")

        params, _ = measure(60)
        read = np.ones(60) if field == "signal_path" else None
        lower_budget_to(monkeypatch, "measure", params, read)
        assert main(["run", "--config", str(measure(60)[1]), "--out", "out60"]) == 0
        assert main(["run", "--config", str(measure(61)[1]), "--out", "out61"]) == 2
        err = capsys.readouterr().err
        assert f"parameters.{field}: the run would hold about" in err and "Traceback" not in err
        assert not Path("out61", "report.json").exists()

    @pytest.mark.parametrize("prior_type", ["network-file", "sparse-file"])
    def test_a_prior_file_is_held_to_the_budget(self, tmp_path, capsys, monkeypatch, prior_type):
        # its shape is known once the runner reads it, before any N x N array
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
            return params, write_config(tmp_path, envelope("collide", params), f"{n}.json")

        params, _ = collide(40)
        lower_budget_to(monkeypatch, "collide", params, build_prior(params["prior"]))
        assert main(["run", "--config", str(collide(40)[1]), "--out", "out40"]) == 0
        assert main(["run", "--config", str(collide(41)[1]), "--out", "out41"]) == 2
        err = capsys.readouterr().err
        assert "parameters.prior.path: the run would hold about" in err and "Traceback" not in err
        assert not Path("out41", "report.json").exists()

    def test_a_deep_cone_prior_s_sectors_are_counted_before_recovery(self, tmp_path, monkeypatch):
        # validation counts 1 + 2 * (hidden units) sectors; this network has
        # more, which the runner counts once the prior is built
        params = with_prior("cor-sphere-so3", relu(2, 20, 20, 16, seed=2))
        net = build_prior(params["prior"])
        sectors = len(cone_sectors(net)[0]) - 1
        assert sectors > 1 + 2 * 40
        params = {**params, "n": 1000, "repeats": 1}
        lower_budget_to(monkeypatch, "mra-sim", params, net, sectors)
        run(validate_config(envelope("mra-sim", params)), tmp_path / "fits")
        monkeypatch.setattr(config, "MEMORY_BUDGET", config.MEMORY_BUDGET - 1)
        config_ = validate_config(envelope("mra-sim", params))
        with pytest.raises(ConfigError, match="parameters.prior.widths: the run would"):
            run(config_, tmp_path / "past")


#: The budget of the drawn runs below, and a seed for the files they read.
DRAWN_BUDGET = 2**22


def _signal_file(n, seed):
    path = Path(f"signal{n}.txt")
    path.write_text("\n".join(map(repr, np.random.default_rng(seed).normal(size=n).tolist())) + "\n")
    return str(path)


def _network_file(widths, seed):
    path = Path(f"net{'-'.join(map(str, widths))}.json")
    path.write_text(network_to_json(random_relu_network(tuple(widths), seed)))
    return str(path)


def _sparse_file(N, M, seed):
    path = Path(f"sparse{N}-{M}.json")
    path.write_text(sparse_prior_to_json(sparse_prior(N, M, "generic-orthonormal", seed)))
    return str(path)


GL = {"kind": "general-linear", "seed": 0}
SO = {"kind": "special-orthogonal", "seed": 0}


def _collide(prior, mixing=GL, **params):
    return "collide", {"prior": prior, "mixing": mixing, "seed": 0, "restarts": 1, **params}


def _probe(manifold):
    return lambda N: ("probe-dim", {"N": N, "manifold": manifold, "pairs": 1, "seed": 0, "restarts": 2})


def _block_scalar(kind):
    return lambda N, n: ("mra-sim", {
        "group": {"kind": kind, "N": N}, "sigma": 0.5, "n": n, "seed": 0, "block_scalar_check": True,
    })


def _recover(prior, N):
    return "mra-sim", {
        "group": {"kind": "cyclic", "N": N}, "prior": prior, "mixing": SO,
        "sigma": 0.3, "n": 1000, "seed": 0, "recover": True, "repeats": 1,
    }


#: Each family makes a (command, parameters) pair from integers drawn from
#: these ranges, which straddle DRAWN_BUDGET. Every run is small: one restart,
#: one pair, one repeat, one seed.
DRAWN_RUNS = {
    "measure-signal": (lambda n: ("measure", {"signal": [0.5] * n}), (2000, 14000)),
    "measure-time": (
        lambda n: ("measure", {"signal": [0.5] * n, "domain": "time"}), (300, 1000)
    ),
    "measure-mixing": (lambda n: ("measure", {"signal": [0.5] * n, "mixing": SO}), (150, 450)),
    "measure-file": (lambda n: ("measure", {"signal_path": _signal_file(n, 0)}), (2000, 14000)),
    "collide-ambient": (lambda N: _collide({"type": "ambient", "N": N}), (40, 160)),
    "collide-relu": (lambda K, h, N: _collide(relu(K, h, N), SO), (2, 4), (50, 400), (50, 400)),
    "collide-sparse": (
        lambda N, M: _collide({"type": "sparse", "N": N, "M": M, "kind": "generic-linear"}, SO),
        (100, 400),
        (1, 3),
    ),
    "collide-oracle": (
        lambda N, grid: _collide(relu(2, 12, N), oracle_check=True, oracle_grid=grid),
        (8, 80),
        (10, 60),
    ),
    "collide-network-file": (
        lambda h, N: _collide({"type": "network-file", "path": _network_file((2, h, N), 0)}),
        (50, 400),
        (50, 400),
    ),
    "collide-sparse-file": (
        lambda N: _collide({"type": "sparse-file", "path": _sparse_file(N, 2, 0)}, SO), (80, 300)
    ),
    "probe-gl": (_probe("general-linear"), (30, 90)),
    "probe-so": (_probe("special-orthogonal"), (40, 110)),
    "mra-sim-cyclic": (_block_scalar("cyclic"), (8, 80), (1000, 400000)),
    "mra-sim-dihedral": (_block_scalar("dihedral"), (8, 60), (1000, 400000)),
    "mra-sim-so3": (
        lambda L, n: ("mra-sim", {
            "group": {"kind": "so3-bandlimited", "L": L}, "sigma": 0.5, "n": n, "seed": 0,
            "block_scalar_check": True,
        }),
        (1, 9),
        (1000, 150000),
    ),
    "mra-sim-recover": (lambda N, h: _recover(relu(2, h, N), N), (8, 300), (4, 60)),
    "mra-sim-recover-deep": (lambda N, h: _recover(relu(2, h, h, N), N), (8, 300), (4, 40)),
    "mra-sim-recover-file": (
        lambda N, h: _recover({"type": "network-file", "path": _network_file((2, h, h, N), 1)}, N),
        (8, 200),
        (4, 200),
    ),
    "threshold-relu": (
        lambda N, M: ("sweep", threshold(N_range=[N], M_range=[M], restarts=1)), (80, 400), (1, 3)
    ),
    "threshold-sparse": (
        lambda N, M: ("sweep", threshold(
            N_range=[N], M_range=[M], prior_family={"type": "sparse"}, restarts=1,
        )),
        (80, 400),
        (1, 3),
    ),
    "sample-complexity": (
        lambda N, h: ("sweep", sample_complexity(
            group={"kind": "cyclic", "N": N}, prior=relu(2, h, N), sigma_list=[0.5], seeds=[0],
            true_seed=0, n_min=100, n_cap=1000, grid_ratio=4.0,
        )),
        (8, 300),
        (4, 100),
    ),
}


def _clear_caches():
    """Drop what earlier runs cached, so that a traced run builds its own."""
    injectivity._probe_geometry.cache_clear()
    mra._SEARCH_MEMO.clear()
    so3._rotation_factors.cache_clear()


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """One run of every drawn family first: modules that a run imports lazily are not its arrays."""
    out = tmp_path_factory.mktemp("warm")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        for make, *ranges in DRAWN_RUNS.values():
            command, params = make(*(low for low, _ in ranges))
            run(validate_config(envelope(command, params)), out / command)


class TestTheRuleBoundsThePeak:
    """With the budget lowered, configs drawn around it exit 2 or peak within the rule's estimate."""

    @pytest.mark.parametrize("family", DRAWN_RUNS)
    def test_a_drawn_run_fits_its_estimate_or_exits_2(self, family, warmed, tmp_path):
        make, *ranges = DRAWN_RUNS[family]
        peaks = []     # (peak, estimate) of each run that fitted the budget

        @settings(max_examples=6, deadline=None, derandomize=True, database=None)
        @given(st.tuples(*(st.integers(low, high) for low, high in ranges)))
        def check(size):
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(tmp_path)
                mp.setattr(config, "MEMORY_BUDGET", DRAWN_BUDGET)
                command, params = make(*size)
                try:
                    cfg = validate_config(envelope(command, params))
                except ConfigError:
                    return                          # exit 2
                estimates = [rule_total(command, params)]

                def recorded(command, p, read=None, sectors=None):
                    estimates.append(rule_total(command, p, read, sectors))
                    return check_memory(command, p, read, sectors)

                mp.setattr(runner, "check_memory", recorded)
                _clear_caches()
                tracemalloc.start()
                try:
                    run(cfg, tmp_path / "out")
                except ConfigError:
                    return                          # exit 2, at a file's shape
                else:
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= estimates[-1], (family, size, peak, estimates)
                peaks.append((peak, estimates[-1]))

        check()
        assert peaks        # the family's draws are not all past the budget


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

    def test_an_oracle_above_latent_dimension_2_exits_2_at_validation(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        params = {"prior": relu(3, 12, 10), "mixing": GL, "seed": 0, "oracle_check": True}
        path = write_config(tmp_path, envelope("collide", params))
        for subcommand in ("validate", "run"):
            assert main([subcommand, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "parameters.oracle_check: the grid oracle needs a prior of latent" in err
            assert "dimension <= 2, this one has 3" in err and "Traceback" not in err

    @pytest.mark.parametrize("prior_type", ["sparse", "sparse-file"])
    def test_a_sparse_oracle_past_its_point_cap_exits_2_before_any_chart(
        self, tmp_path, capsys, monkeypatch, prior_type
    ):
        # C(300, 2) = 44 850 supports of one grid point each, past the oracle's
        # cap of 200^2 points: validation rejects it, or the runner once it has
        # read the prior's file, and no chart is built
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(injectivity, "prior_charts", lambda *a: pytest.fail("built charts"))
        prior = {"type": "sparse", "N": 300, "M": 2, "seed": 9}
        if prior_type == "sparse-file":
            prior = {"type": "sparse-file", "path": _sparse_file(300, 2, 9)}
        params = {"prior": prior, "mixing": GL, "seed": 0, "oracle_check": True, "oracle_grid": 1}
        path = write_config(tmp_path, envelope("collide", params))
        assert main(["validate", "--config", str(path)]) == (2 if prior_type == "sparse" else 0)
        assert main(["run", "--config", str(path), "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert "parameters.oracle_grid: 44850 charts x 1^2 grid" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()


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

    def test_a_grid_past_its_cell_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # n_min 1 and a ratio of 1 + 1e-7 step n by one up to 10^7: 10^7 cells per sigma
        monkeypatch.setattr("momentlab.cli.run_experiment", lambda *a, **k: pytest.fail("ran"))
        bounds = {"n_min": 1, "n_cap": 10_000_000, "grid_ratio": 1.0000001}
        params = {**get_preset("mra-cyclic-n4").parameters(), **bounds}
        path = write_config(tmp_path, envelope("sweep", params))
        for subcommand in ("validate", "run"):
            assert main([subcommand, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "parameters.grid_ratio: the n grid from 1 to 10000000 has more than" in err
            assert "Traceback" not in err

    def test_a_step_past_the_float_range_is_n_cap(self):
        # 8 * 1e308 overflows to inf, which no ceil turns into an int
        assert list(config.n_grid({"n_min": 8, "n_cap": 100, "grid_ratio": 1e308})) == [8, 100]

    def test_a_grid_of_max_grid_cells_validates(self):
        # from 1 by steps of one (n * 1.00001 < n + 1 up to 10^5): n_cap cells
        bounds = {"n_min": 1, "grid_ratio": 1.00001}
        params = {**get_preset("mra-cyclic-n4").parameters(), **bounds}
        validate_config(envelope("sweep", {**params, "n_cap": config.MAX_GRID_CELLS}))
        with pytest.raises(ConfigError, match="^parameters.grid_ratio: "):
            validate_config(envelope("sweep", {**params, "n_cap": config.MAX_GRID_CELLS + 1}))

    @pytest.mark.parametrize(
        "bounds, field",
        [
            ({"n_min": 5000, "n_cap": 100}, "parameters.n_min"),
            ({"n_min": 20_000_000}, "parameters.n_min"),    # n_cap at its default
            ({"n_cap": 4}, "parameters.n_cap"),             # n_min at its default
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
        recover = runner.recover
        monkeypatch.setattr(runner, "recover", lambda *a, **k: calls.append(1) or recover(*a, **k))
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


#: 2-sparse signals in the standard basis, whose shifted supports collide unmixed.
SHIFTED_SUPPORTS = {"type": "sparse", "kind": "standard-basis", "N": 4, "M": 2}
IDENTITY = {"kind": "identity"}

#: A small config of each command (and of each path that reads other defaults), with no
#: optional field that has a default in config's field table.
MINIMAL_CONFIGS = {
    "measure": ("measure", {"signal": [1.0, 1.0, 2.0, 2.0, 3.0]}),
    "collide": ("collide", {"prior": SHIFTED_SUPPORTS, "mixing": IDENTITY, "seed": 0}),
    "collide-oracle": ("collide", {"prior": SHIFTED_SUPPORTS, "mixing": IDENTITY, "seed": 0,
                                   "oracle_check": True}),
    "probe-dim": ("probe-dim", {"N": 4, "manifold": "general-linear", "seed": 0}),
    "mra-sim": ("mra-sim", {"group": {"kind": "cyclic", "N": 8}, "sigma": 0.5, "n": 1000,
                            "seed": 0}),
    "mra-sim-recover": ("mra-sim", {"group": {"kind": "cyclic", "N": 8}, "sigma": 0.1,
                                    "n": 1000, "seed": 0, "prior": HARDTANH_PRIOR,
                                    "recover": True}),
    "threshold": ("sweep", {"sweep_kind": "threshold", "N_range": [4], "M_range": [2],
                            "mixing_kind": "general-linear", "seeds": [0]}),
    "sample-complexity": ("sweep", {
        "sweep_kind": "sample-complexity", "group": {"kind": "cyclic", "N": 8},
        "prior": relu(2, 10, 8, seed=11), "mixing": {"kind": "special-orthogonal", "seed": 11},
        "sigma_list": [0.25], "target_error": 0.3, "seeds": [0, 1],
    }),
    "sample-complexity-auto": ("sweep", {
        "sweep_kind": "sample-complexity", "group": {"kind": "cyclic", "N": 8},
        "prior": relu(2, 10, 8, seed=11), "mixing": {"kind": "special-orthogonal", "seed": 11},
        "sigma_list": [0.25], "target_error": 0.3, "seeds": [0, 1],
        "true_seed": "auto-conditioned", "signal_norm": 0.4,
    }),
}


class TestDefaults:
    """Each default has one home, config's field table: a config that writes it out runs
    the same experiment as one that leaves it to the table."""

    @pytest.mark.parametrize("case", MINIMAL_CONFIGS)
    def test_writing_out_every_default_changes_no_byte(self, tmp_path, case):
        command, minimal = MINIMAL_CONFIGS[case]
        written = dict(minimal)
        for key, value in config.with_defaults(command, minimal).items():
            try:
                validate_config(envelope(command, {**minimal, key: value}))
            except ConfigError:
                continue        # unread on this path, as oracle_grid is without oracle_check
            written[key] = value
        assert len(written) > len(minimal)
        reports = {
            name: run(validate_config(envelope(command, params)), tmp_path / name)
            for name, params in (("minimal", minimal), ("written", written))
        }
        assert reports["minimal"].results == reports["written"].results
        assert reports["minimal"].provenance["config_sha256"] != (
            reports["written"].provenance["config_sha256"]
        )
        for path in map(Path, reports["minimal"].csv_files):
            assert path.read_bytes() == (tmp_path / "written" / path.name).read_bytes()

    def test_the_report_echoes_the_config_as_written(self, tmp_path):
        # the filled copy would add signal_seed 0 to both
        command, minimal = MINIMAL_CONFIGS["mra-sim"]
        report = run(validate_config(envelope(command, minimal)), tmp_path)
        assert report.config_echo["parameters"] == minimal
        assert report.provenance["seed_list"] == [0]


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
            ("mra-cyclic-n4", "seeds=[]", "parameters.seeds"),
            ("mra-cyclic-n4", "target_error=0", "parameters.target_error"),
            ("mra-cyclic-n4", "target_error=1", "parameters.target_error"),
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
