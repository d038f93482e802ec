"""The benchmark's own code run against the package: the traced benchmark
(perfbench/spans.py) wraps package functions by attribute name, and its
workload checks (perfbench/workloads.py) judge a scenario's output;
breaking either must fail the tests, not only the benchmark's smoke run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_trace_instrumentation_finds_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.instrument(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _toy_check(workload, seed, tmp_path, monkeypatch):
    """The failures the benchmark's own check finds in ``workload``'s
    output on the smoke check's toy size."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    import workloads

    from bdsde_lab import cli

    cfg = workloads.make_config(workload, seed, toy=True)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.run_scenario(path, out=str(out)) == 0
    return workloads.CHECKS[workload](cfg, out, spans.NullTracer())


@pytest.mark.parametrize("seed", [0, 1])
def test_toy_lsmc_sweep_passes_the_benchmark_check(tmp_path, monkeypatch, seed):
    # the closed-form CI check the benchmark applies to every lsmc_sweep run
    assert _toy_check("lsmc_sweep", seed, tmp_path, monkeypatch) == []


@pytest.mark.parametrize("seed", [0, 1])
def test_toy_tree_oracle_passes_the_benchmark_check(tmp_path, monkeypatch, seed):
    # the dump-size check and the reloaded dump's residual, which the
    # benchmark applies to every tree_oracle run
    assert _toy_check("tree_oracle", seed, tmp_path, monkeypatch) == []
