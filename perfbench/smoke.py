"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of the checkout.  Runs every workload at toy size, once
untraced and once traced, and checks that the last line of each run is a
correct result naming exactly the metrics and units ``BENCHMARK.json``
declares.  Then checks that the benchmark refuses to run, without printing
a result, in a directory holding only ``BENCHMARK.json`` and the benchmark.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _check_run(spec: dict, workload: str, trace: int, root: Path) -> list:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "toy"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    result = _result(proc.stdout)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {proc.stdout[-1500:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result.get("metrics", {})
    if set(printed) != set(declared):
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(declared))}")
    for name, entry in printed.items():
        value = entry.get("value")
        if entry.get("unit") != declared.get(name):
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}, "
                            f"declared {declared.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def _check_bare(spec: dict, root: Path) -> list:
    """Without the package beside it the benchmark must fail cleanly."""
    bare = root / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(root / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", workloads.WORKLOADS[0],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: exit code 0")
    if proc.stdout.strip():
        problems.append(f"bare directory: printed {proc.stdout[-500:]!r}")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from "
                        f"{list(workloads.WORKLOADS)}")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            found = _check_run(spec, workload, trace, root)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = _check_bare(spec, root)
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
