import copy
import dataclasses
import errno
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdsde_lab.cli as cli
import bdsde_lab.envelope as envelope
import bdsde_lab.gluing as gluing
import bdsde_lab.tree as tree
from bdsde_lab.errors import (CapacityError, CatalogError, ConfigError,
                              ContractViolation)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def _base_cfg(**overrides):
    cfg = {
        "scenario": "solve",
        "grid": {"horizon": 1.0, "steps": 4},
        "driver": {"f": {"name": "f_linear", "params": [1.0, 0.0]},
                   "g": {"name": "g_zero", "params": []}},
        "terminal": {"name": "constant", "params": [1.0]},
        "backend": "tree",
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


class TestRunScenario:
    def test_bundled_envelope_config(self, tmp_path):
        out = tmp_path / "out"
        status = cli.run_scenario(CONFIG_DIR / "sqrt_envelope.json",
                                  out=str(out))
        assert status == 0
        lines = (out / "envelope_max.csv").read_text().strip().splitlines()
        y0 = [float(line.split(",")[3]) for line in lines[1:]]
        assert len(y0) == 7
        assert all(b <= a + 1e-9 for a, b in zip(y0, y0[1:]))
        assert 0.95 <= y0[-1] <= 1.0
        assert (out / "manifest.json").exists()
        assert (out / "run.log").exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = _base_cfg()
        path = _write(tmp_path, cfg)
        cli.run_scenario(path, out=str(tmp_path / "a"))
        cli.run_scenario(path, out=str(tmp_path / "b"))
        for name in ("solve.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_contraction_violation_exits_2(self, tmp_path):
        cfg = _base_cfg(driver={"f": {"name": "zero", "params": []},
                                "g": {"name": "g_linear", "params": [1.0]}})
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _base_cfg(extra_block={"x": 1})
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 2

    def test_unknown_catalog_name(self, tmp_path):
        cfg = _base_cfg(terminal={"name": "digital", "params": [1.0]})
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 2

    def test_capacity_error_exits_3(self, tmp_path):
        cfg = _base_cfg(grid={"horizon": 1.0, "steps": 2 ** 19})
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 3

    def test_premise_violation_exits_1(self, tmp_path):
        cfg = _base_cfg(
            scenario="compare",
            driver={"f": {"name": "zero", "params": []},
                    "g": {"name": "g_zero", "params": []}},
            terminal={"name": "constant", "params": [0.0]},
            compare={"driver2": {"f": {"name": "f_constant", "params": [0.5]},
                                 "g": {"name": "g_zero", "params": []}},
                     "terminal2": {"name": "constant", "params": [0.0]}},
        )
        out = tmp_path / "o"
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 1
        assert not out.exists()

    def test_solve_dump_and_outputs_contained(self, tmp_path):
        out = tmp_path / "only_here"
        status = cli.run_scenario(CONFIG_DIR / "tree_solve.json", out=str(out))
        assert status == 0
        assert (out / "solution.bin").exists()
        produced = {p.name for p in out.iterdir()}
        assert produced == {"solve.csv", "solution.bin", "manifest.json",
                            "run.log"}
        assert {p.name for p in tmp_path.iterdir()} == {"only_here"}

    def test_manifest_round_trip(self, tmp_path):
        out1 = tmp_path / "r1"
        cli.run_scenario(CONFIG_DIR / "linear_convergence.json", out=str(out1))
        manifest = json.loads((out1 / "manifest.json").read_text())
        replay = _write(tmp_path, manifest["config"], "replay.json")
        out2 = tmp_path / "r2"
        assert cli.run_scenario(replay, out=str(out2)) == 0
        assert (out1 / "convergence.csv").read_bytes() == \
            (out2 / "convergence.csv").read_bytes()

    def test_backend_override(self, tmp_path):
        cfg = _base_cfg()   # config says tree; override runs the scalar path
        path = _write(tmp_path, cfg)
        out = tmp_path / "scalar_out"
        assert cli.run_scenario(path, out=str(out), backend="scalar") == 0
        header = (out / "solve.csv").read_text().splitlines()[0]
        assert header == "step,t,y"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["backend"] == "scalar"

    def test_seed_override_changes_mc_output(self, tmp_path):
        cfg = _base_cfg(backend="mc",
                        terminal={"name": "w_terminal", "params": []},
                        solve={"m_outer": 2, "m_inner": 64,
                               "basis_degree": 1})
        path = _write(tmp_path, cfg)
        cli.run_scenario(path, out=str(tmp_path / "s0"), seed=1)
        cli.run_scenario(path, out=str(tmp_path / "s1"), seed=2)
        a = (tmp_path / "s0" / "solve.csv").read_text()
        b = (tmp_path / "s1" / "solve.csv").read_text()
        assert a != b

    def test_compare_scenario_passes(self, tmp_path):
        out = tmp_path / "cmp"
        assert cli.run_scenario(CONFIG_DIR / "ordered_pair_compare.json",
                                out=str(out)) == 0
        text = (out / "compare.csv").read_text()
        assert "true,true" in text

    def test_continuum_scenario(self, tmp_path):
        out = tmp_path / "kn"
        assert cli.run_scenario(CONFIG_DIR / "sqrt_continuum.json",
                                out=str(out)) == 0
        lines = (out / "continuum.csv").read_text().strip().splitlines()
        assert len(lines) == 12
        assert all(line.endswith("true") for line in lines[1:])


class TestMain:
    def test_catalog_listing(self, capsys):
        assert cli.main(["catalog"]) == 0
        text = capsys.readouterr().out
        assert "f_sqrt_pos  (params: 1)" in text
        assert "w_terminal_sq" in text
        assert "linear_ode" in text
        cli.main(["catalog"])
        assert capsys.readouterr().out == text

    def test_run_subcommand(self, tmp_path):
        assert cli.main(["run", "--config",
                         str(CONFIG_DIR / "linear_convergence.json"),
                         "--out", str(tmp_path / "o")]) == 0

    def test_missing_config(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def _envelope_cfg(**block):
    return _base_cfg(scenario="envelope", backend="scalar",
                     grid={"horizon": 1.0, "steps": 16},
                     driver={"f": {"name": "f_sqrt_pos", "params": [2.0]},
                             "g": {"name": "g_zero", "params": []}},
                     terminal={"name": "constant", "params": [0.0]},
                     envelope={"schedule": [2, 4], "conv_tol": 0.1, **block})


class TestMalformedConfigs:
    """Malformed configs are configuration errors (exit 2) found before any
    computation, never a traceback."""

    def test_params_not_a_list(self, tmp_path):
        cfg = _base_cfg(driver={"f": {"name": "f_linear", "params": 5},
                                "g": {"name": "g_zero", "params": []}})
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 2

    def test_schedule_not_a_list(self, tmp_path):
        cfg = _envelope_cfg(schedule="abc")
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 2

    def test_array_as_config_root(self, tmp_path):
        path = _write(tmp_path, [_base_cfg()])
        assert cli.run_scenario(path, out=str(tmp_path / "o")) == 2
        assert cli.run_scenario(path, seed=3, backend="tree") == 2
        assert cli.main(["run", "--config", str(path), "--seed", "3"]) == 2
        assert not (tmp_path / "o").exists()

    def test_nested_and_block_types(self, tmp_path):
        bad = [
            _base_cfg(solve=[1, 2]),
            _base_cfg(grid={"horizon": 1.0, "steps": [4]}),
            _base_cfg(grid={"horizon": 1.0, "steps": 4.7}),
            _base_cfg(terminal={"name": ["constant"], "params": [1.0]}),
            _envelope_cfg(schedule=[]),
            _envelope_cfg(conv_tol="0.1"),
            _base_cfg(scenario="compare", compare={
                "driver2": {"f": {"name": "f_linear", "params": {"a": 1}}},
                "terminal2": {"name": "constant", "params": [0.0]}}),
        ]
        for k, cfg in enumerate(bad):
            out = tmp_path / f"o{k}"
            assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 2, cfg
            assert not out.exists()

    def test_null_optional_keys_mean_defaults(self, tmp_path):
        runs = []
        for k, cfg in enumerate((_envelope_cfg(), _envelope_cfg(
                tol=None, conv_radius=None))):
            out = tmp_path / f"o{k}"
            assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 0
            runs.append((out / "envelope_max.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_solve_keys_of_another_backend(self, tmp_path):
        bad = [("tree", {"m_outer": 8}), ("tree", {"m_inner": 64}),
               ("tree", {"basis_degree": 1}), ("mc", {"dump": True})]
        bad += [("scalar", {key: 1}) for key in
                ("m_outer", "m_inner", "basis_degree", "dump")]
        for k, (backend, block) in enumerate(bad):
            cfg = _base_cfg(backend=backend, solve=block)
            out = tmp_path / f"o{k}"
            assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 2, cfg
            assert not (out / "solve.csv").exists()

    def test_fractional_step_counts_rejected(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "linear_convergence.json").read_text())
        cfg["convergence"]["Ns"] = [64.5, 128]
        out = tmp_path / "o"
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 2
        assert not out.exists()
        cfg["convergence"]["Ns"] = [64.0, 128]
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 0


# every CSV artifact of each bundled config: (header line, data rows)
_ENVELOPE_CSV = ("k,n_k,supDistPrev,Y0_mean,converged", 7)
_DEMO_CSVS = {
    "linear_convergence": {"convergence.csv": ("N,error,ratio", 4)},
    "ordered_pair_compare": {"compare.csv": (
        "case,premise_ok,dominance_ok,worst_margin,tol,stability_margin", 1)},
    "sqrt_continuum": {"continuum.csv": (
        "lambda,Y0,tauMean,residualOffSplice,spliceMismatch,sandwichPass", 11)},
    "sqrt_envelope": {"envelope_max.csv": _ENVELOPE_CSV,
                      "envelope_min.csv": _ENVELOPE_CSV},
    "tree_solve": {"solve.csv": ("step,t,mean,min,max,mean_square", 9)},
}
_DEMO_DUMPS = {"tree_solve": {"solution.bin"}}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_demo_config_artifacts(tmp_path, name):
    out = tmp_path / "o"
    assert cli.run_scenario(CONFIG_DIR / f"{name}.json", out=str(out)) == 0
    csvs = _DEMO_CSVS[name]
    assert {p.name for p in out.iterdir()} == {
        *csvs, *_DEMO_DUMPS.get(name, ()), "manifest.json", "run.log"}
    for file, (header, rows) in csvs.items():
        lines = (out / file).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1


def _demo_cfg(name, **block):
    """A bundled config with keys of its scenario block replaced."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg[cfg["scenario"]].update(block)
    return cfg


def _kneser_cfg(backend, t0):
    """sqrt_continuum.json glued at ``t0``: at 256 scalar steps, or at 8 tree
    steps with an invertible noise coefficient."""
    cfg = _demo_cfg("sqrt_continuum", t0=t0)
    if backend == "scalar":
        cfg["grid"]["steps"] = 256
    else:
        cfg.update(backend="tree", grid={"horizon": 1.0, "steps": 8})
        cfg["driver"]["g"] = {"name": "g_linear", "params": [0.5]}
        cfg["kneser"].update(schedule=[2, 4], snap_tol=None, h_inv_slope=2.0)
    return cfg


_UNKNOWN_F = {"f": {"name": "f_cubic", "params": []}}
# the toy lattice_glue and tree_oracle workloads of perfbench/workloads.py
_TOY_GLUE = {
    "scenario": "kneser", "grid": {"horizon": 1.0, "steps": 8},
    "driver": {"f": {"name": "f_sqrt_pos", "params": [2.0]},
               "g": {"name": "g_linear", "params": [0.9]}},
    "terminal": {"name": "constant", "params": [0.0]}, "backend": "tree",
    "seed": 0,
    "kneser": {"t0": 0.5, "lambdas": [0.0, 0.5, 1.0], "snap_tol": 0.01,
               "schedule": [2, 4], "conv_tol": 0.05, "h_inv_slope": 1.0 / 0.9},
}
_TOY_ORACLE = {
    "scenario": "solve", "grid": {"horizon": 1.0, "steps": 10},
    "driver": {"f": {"name": "f_sqrt_pos", "params": [2.0]},
               "g": {"name": "g_sine", "params": [0.5, 0.3]}},
    "terminal": {"name": "call", "params": [0.1]}, "backend": "tree",
    "seed": 0, "solve": {"dump": True},
}


@pytest.mark.parametrize("cfg", [
    _base_cfg(solve={"m_outer": 8}),
    _base_cfg(scenario="kneser", kneser={"t0": 0.5, "lambdas": [0.0, 1.0]}),
    _base_cfg(driver=_UNKNOWN_F),
    _base_cfg(scenario="compare", compare={
        "driver2": _UNKNOWN_F, "terminal2": {"name": "constant", "params": [1.0]}}),
    _base_cfg(grid={"horizon": 1.0, "steps": 0}),
    _base_cfg(seed=True),
    _base_cfg(solve={"dump": "no"}),
    # refused while the scenario runs
    _demo_cfg("sqrt_envelope", schedule=[4, 2]),
    _demo_cfg("linear_convergence", case="no_such_case"),
    _demo_cfg("sqrt_continuum", t0=0.50001),
    _kneser_cfg("scalar", 2.0),
    _kneser_cfg("scalar", -0.5),
    _kneser_cfg("tree", 0.51),
    _kneser_cfg("scalar", math.inf),
    _kneser_cfg("tree", math.inf),
    _base_cfg(backend="scalar", terminal={"name": "w_terminal", "params": []}),
    # a scenario on a backend it does not run on
    {**_envelope_cfg(), "backend": "mc"},
    {**_kneser_cfg("scalar", 0.5), "backend": "mc"},
    {**_demo_cfg("ordered_pair_compare"), "backend": "mc"},
    {**_demo_cfg("ordered_pair_compare"), "backend": "scalar"},
    {**_demo_cfg("ordered_pair_compare", mode="separating", eps_bar=1.0),
     "backend": "scalar"},
    # non-finite numbers, which json parses
    {**_TOY_GLUE, "kneser": {**_TOY_GLUE["kneser"], "snap_tol": math.nan}},
    {**_TOY_ORACLE, "terminal": {"name": "call", "params": [math.nan]}},
], ids=["tree_solve_m_outer", "tree_kneser_without_h_inv_slope",
        "unknown_driver", "unknown_driver2", "zero_steps", "bool_seed",
        "string_dump", "decreasing_schedule", "unknown_convergence_case",
        "t0_off_grid",
        "scalar_t0_past_horizon", "scalar_t0_negative", "tree_t0_off_grid",
        "scalar_t0_infinite", "tree_t0_infinite",
        "scalar_solve_stochastic_terminal", "mc_envelope", "mc_kneser",
        "mc_compare", "scalar_compare_direct", "scalar_compare_separating",
        "nan_snap_tol", "nan_strike"])
def test_refused_config_writes_nothing(tmp_path, cfg):
    out = tmp_path / "o"
    assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 2
    assert not out.exists()


def test_refused_config_keeps_an_existing_directory(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    for cfg in (_base_cfg(grid={"horizon": 1.0, "steps": 0}),
                _demo_cfg("linear_convergence", case="no_such_case")):
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 2
        assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_out_naming_an_existing_file_exits_2(tmp_path):
    out = tmp_path / "o"
    out.write_text("kept")
    assert cli.run_scenario(CONFIG_DIR / "linear_convergence.json",
                            out=str(out)) == 2
    assert out.read_text() == "kept"


# --------------------------------------------------------------------------
# the lattice dump, staged while the scenario computes
# --------------------------------------------------------------------------

def _staged(where):
    """The staged dumps left in the directory ``where``."""
    return [p.name for p in where.iterdir()
            if p.name.startswith(".solution.bin.")]


def test_staged_dump_is_moved_into_place(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    assert cli.run_scenario(CONFIG_DIR / "tree_solve.json", out=str(out)) == 0
    assert _staged(out) == [] and _staged(tmp_path) == []
    # the staged file takes the permissions of a file the run creates
    assert (out / "solution.bin").stat().st_mode == \
        (out / "solve.csv").stat().st_mode


def test_numeric_error_mid_sweep_removes_the_staged_dump(tmp_path, monkeypatch):
    # f goes non-finite at t_4 of 8 steps, when steps 8..4 are in the dump
    build = cli._build_driver
    t_bad = cli.make_grid(1.0, 8).time(4)
    seen = []

    def poisoned(block):
        driver = build(block)

        def f(t, y, z):
            if t == t_bad:
                seen.append(_staged(tmp_path))
                return np.full(np.shape(y), np.nan)
            return driver.f(t, y, z)

        return dataclasses.replace(driver, f=f)

    monkeypatch.setattr(cli, "_build_driver", poisoned)
    out = tmp_path / "o"
    assert cli.run_scenario(CONFIG_DIR / "tree_solve.json", out=str(out)) == 3
    assert len(seen[0]) == 1
    assert not out.exists()
    assert _staged(tmp_path) == []


def test_dump_over_an_existing_file_exits_2(tmp_path):
    out = tmp_path / "o"
    out.write_text("kept")
    assert cli.run_scenario(CONFIG_DIR / "tree_solve.json", out=str(out)) == 2
    assert out.read_text() == "kept"
    assert _staged(tmp_path) == []


def test_dump_that_cannot_be_staged_exits_2(tmp_path, caplog):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "o"
    assert cli.run_scenario(CONFIG_DIR / "tree_solve.json", out=str(out)) == 2
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert "cannot write the output directory" in caplog.records[0].getMessage()
    assert blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_dump_write_error_mid_sweep_exits_2(tmp_path, monkeypatch, caplog):
    # the disk fills after the header and two arrays are written
    written = []

    def pwrite(fd, data, offset):
        if len(written) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        written.append(offset)

    monkeypatch.setattr(tree, "_pwrite", pwrite)
    out = tmp_path / "o"
    assert cli.run_scenario(CONFIG_DIR / "tree_solve.json", out=str(out)) == 2
    assert "No space left on device" in caplog.text
    assert not out.exists()
    assert _staged(tmp_path) == []


def test_dump_above_the_lattice_cap_is_refused_before_staging(tmp_path,
                                                              monkeypatch):
    cfg = json.loads((CONFIG_DIR / "tree_solve.json").read_text())
    cfg["grid"]["steps"] = 21
    path, out = _write(tmp_path, cfg), tmp_path / "o"
    staged = []
    monkeypatch.setattr(cli._Staging, "stage",
                        lambda self, name: staged.append(name))
    tracemalloc.start()
    try:
        code = cli.run_scenario(path, out=str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2 ** 20
    assert staged == []
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_glue_above_the_byte_cap_exits_3(tmp_path):
    # at N = 13 and t0 = 0 one float64 array over the glue nodes takes
    # 512 MiB; the run's arrays would take 10 GB, above the 2 GiB cap
    cfg = _kneser_cfg("tree", 0.0)
    cfg["grid"]["steps"] = 13
    out = tmp_path / "o"
    assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 3
    assert not out.exists()


def test_glue_run_above_the_memory_cap_is_refused_before_computing(tmp_path):
    # N = 12, t0 = 0, two weights: each glued solution keeps about 0.65 GiB
    # and a glue works on 14 arrays of 128 MiB, 3.25 GB in all
    cfg = _kneser_cfg("tree", 0.0)
    cfg["grid"]["steps"] = 12
    cfg["kneser"]["lambdas"] = [0.25, 0.75]
    path, out = _write(tmp_path, cfg), tmp_path / "o"
    tracemalloc.start()
    try:
        started = time.perf_counter()
        code = cli.run_scenario(path, out=str(out))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert elapsed < 1.0
    assert peak < 2 ** 20
    assert not out.exists()
    with pytest.raises(CapacityError, match="3254714368 bytes, cap is 2147483648"):
        gluing._check_glue_bytes(12, 0, 2)


def test_regression_above_the_byte_cap_is_refused_before_sampling(tmp_path):
    # lsmc._state_rows(64) = 23 rows of design states and two design
    # matrices of 200,000 x 1,001 floats take 3.2 GB; the check runs before
    # the 102 MB of increments are drawn
    cfg = _base_cfg(backend="mc", grid={"horizon": 1, "steps": 64},
                    solve={"m_outer": 2, "m_inner": 200000, "basis_degree": 1000})
    path, out = _write(tmp_path, cfg), tmp_path / "o"
    tracemalloc.start()
    try:
        started = time.perf_counter()
        code = cli.run_scenario(path, out=str(out))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert elapsed < 1.0
    assert peak < 2 ** 20
    assert not out.exists()


def test_regression_blocks_above_the_byte_cap_are_refused_before_sampling(
        tmp_path):
    # 200,000 outer paths: their 104 MB of increments fit under the cap, the
    # sweep's seven blocks of 256 x 200,000 floats (2.9 GB) do not
    cfg = _base_cfg(backend="mc", grid={"horizon": 1, "steps": 64},
                    solve={"m_outer": 200000, "m_inner": 4096})
    path, out = _write(tmp_path, cfg), tmp_path / "o"
    tracemalloc.start()
    try:
        code = cli.run_scenario(path, out=str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2 ** 20
    assert not out.exists()


def test_glue_at_twelve_steps_and_half_horizon_runs(tmp_path):
    # the lattice_glue benchmark config at N = 12 (t0 = 0.5, five weights)
    cfg = _kneser_cfg("tree", 0.5)
    cfg["grid"]["steps"] = 12
    cfg["kneser"]["lambdas"] = [0.06, 0.23, 0.52, 0.83, 0.95]
    out = tmp_path / "o"
    assert cli.run_scenario(_write(tmp_path, cfg), out=str(out)) == 0
    assert (out / "continuum.csv").exists()


@pytest.mark.parametrize("backend", ["scalar", "tree"])
@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_glue_at_both_ends_of_the_horizon(tmp_path, backend, t0):
    out = tmp_path / "o"
    assert cli.run_scenario(_write(tmp_path, _kneser_cfg(backend, t0)),
                            out=str(out)) == 0
    assert (out / "continuum.csv").exists()


def test_invariant_failure_exits_4(tmp_path, monkeypatch):
    # a negative tolerance makes the envelope's monotonicity and lower-bound
    # checks fail on every iterate
    monkeypatch.setattr(envelope, "MONOTONE_TOL", -1.0)
    out = tmp_path / "o"
    assert cli.run_scenario(_write(tmp_path, _envelope_cfg()), out=str(out)) == 4
    assert not (out / "envelope_max.csv").exists()


# --------------------------------------------------------------------------
# config fuzzing
# --------------------------------------------------------------------------

def _leaf_paths(value, prefix=()):
    """Paths of every key in a config, blocks included."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield prefix + (key,)
            yield from _leaf_paths(sub, prefix + (key,))


_FUZZ_BASES = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
_FUZZ_BASES += [_base_cfg(), _envelope_cfg()]
_FUZZ_PATHS = [(k, path) for k, cfg in enumerate(_FUZZ_BASES)
               for path in _leaf_paths(cfg)]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# the errors the runner maps to exit 2, plus CapacityError (exit 3) for a
# well-formed grid beyond the documented step cap
_CONFIG_ERRORS = (ConfigError, CatalogError, ContractViolation, ValueError,
                  CapacityError)


def _check_and_build(cfg):
    cli._validate_config(cfg, {})
    cli._build_grid(cfg["grid"])
    cli._build_driver(cfg.get("driver", {}))
    cli._build_terminal(cfg.get("terminal", {"name": "constant", "params": [0.0]}))
    cli._scenario_block(cfg, cfg.get("backend", "tree"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_PATHS), _JSON)
def test_fuzzed_config_values_raise_config_errors(target, value):
    base, path = target
    cfg = copy.deepcopy(_FUZZ_BASES[base])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        _check_and_build(cfg)
    except _CONFIG_ERRORS:
        pass


@settings(max_examples=50, deadline=None)
@given(_JSON)
def test_fuzzed_config_root_raises_config_error(value):
    if isinstance(value, dict):
        with pytest.raises(_CONFIG_ERRORS):
            _check_and_build(value)
    else:
        with pytest.raises(ConfigError):
            cli._validate_config(value, {})
