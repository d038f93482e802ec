import json
from pathlib import Path

import bdsde_lab.cli as cli

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
        assert cli.run_scenario(_write(tmp_path, cfg), out=str(tmp_path / "o")) == 1

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

    def test_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BDSDE_LAB_THREADS", "junk")
        assert cli.main(["run", "--config",
                         str(CONFIG_DIR / "linear_convergence.json"),
                         "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setenv("BDSDE_LAB_THREADS", "4")
        assert cli.main(["run", "--config",
                         str(CONFIG_DIR / "linear_convergence.json"),
                         "--out", str(tmp_path / "o"), "--threads", "2"]) == 0

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
