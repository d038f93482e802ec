"""The traced benchmark (perfbench/spans.py) wraps package functions by
attribute name; renaming or deleting one of them must fail the tests, not
only the benchmark's smoke run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trace_instrumentation_finds_every_wrapped_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.instrument(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
