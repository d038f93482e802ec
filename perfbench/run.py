"""The bdsde-lab benchmark: one scenario workload, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|toy]

Run from the root of a source checkout (the package is imported from
``src``).  The workload's scenario config is generated from the seed and
run through ``bdsde_lab.cli.run_scenario`` in a closed loop, one scenario
at a time, each sample in a fresh child process.  Outputs are checked
after timing.  The last line of standard output is the result object; the
line before it records the samples and the run environment.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced samples alternate and the result holds
the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}
# set-up-only children: a few first, then a few before every sample, so
# the set-up median spans the whole window like the samples do
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_SAMPLE = 2
RUN_LIMIT_S = 170.0         # a run must end within 180 s
# BLAS thread setting of every child: one thread per process keeps the
# regression sweep's timings steady on a small shared machine
BLAS_THREADS = "1"


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


class Runner:
    """Spawns the children of one run and keeps what they report."""

    def __init__(self, src: Path, config: Path, workdir: Path, deadline: float,
                 spans_out: Path):
        self.src, self.config, self.workdir = src, config, workdir
        self.spans_out = spans_out
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def child(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        out = self.workdir / f"out{self.count}"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(self.src),
               "--config", str(self.config), "--out", str(out), "--mode", mode]
        if trace:
            cmd += ["--trace", "--spans-out", str(self.spans_out)]
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"timed out after {timeout:.0f} s",
                    "out": out, "trace": trace}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False, "out": out, "trace": trace,
                    "error": f"child exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}"}
        report = json.loads(lines[-1])
        report.update(ok=report.get("status", 0) == 0, out=out, trace=trace,
                      setup_s=report["ready"] - spawned,
                      wall_s=time.monotonic() - spawned)
        if not report["ok"]:
            report["error"] = f"scenario exit {report['status']}: " \
                              f"{proc.stderr.strip()[-2000:]}"
        return report


def _environment(root: Path) -> dict:
    import numpy as np

    sha = None
    if (root / ".git").exists():      # never report an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: BLAS_THREADS for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2),
            "value": sorted(values)[n - 11]}


def run(args, root: Path, workdir: Path) -> tuple[dict, dict]:
    cfg = workloads.make_config(args.workload, args.seed, toy=args.size == "toy")
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    started = time.monotonic()
    # the spans of the last traced sample stay next to the work directory
    runner = Runner(root / "src", config, workdir, started + RUN_LIMIT_S,
                    workdir.parent / f"spans-{args.workload}.json")

    warm = runner.child("setup")          # fills the bytecode cache
    if not warm["ok"]:
        raise RuntimeError(f"set-up failed: {warm['error']}")
    window_end = time.monotonic() + args.seconds
    setups = []

    def probe_setup(count):
        for _ in range(count):
            probe = runner.child("setup")
            if not probe["ok"]:
                raise RuntimeError(f"set-up failed: {probe['error']}")
            setups.append(probe["setup_s"])

    probe_setup(SETUP_PROBES_FIRST)
    samples, reference = [], None
    while True:
        probe_setup(SETUP_PROBES_PER_SAMPLE)
        # traced runs alternate untraced and traced samples
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = runner.child("run", trace=traced)
        samples.append(sample)
        if "setup_s" in sample:
            setups.append(sample["setup_s"])
        if sample["out"].is_dir():
            sample["digest"] = workloads.artifact_digest(sample["out"])
            if reference is None and sample["ok"]:
                reference = sample        # its artifacts are checked below
            else:
                shutil.rmtree(sample["out"])
        if not sample["ok"] and "status" not in sample:
            break                         # the child itself broke
        need_both = args.trace and len(samples) < 2
        est = statistics.median(s.get("wall_s", 0.0) for s in samples) \
            + SETUP_PROBES_PER_SAMPLE * statistics.median(setups)
        if not need_both and time.monotonic() + est > window_end:
            break

    # checks, after timing: the artifacts are checked once, and every other
    # sample must have written the same bytes
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    problems = []
    if reference is not None:
        problems = workloads.CHECKS[args.workload](cfg, reference["out"], tracer)
    for sample in samples:
        if not sample["ok"]:
            continue
        if reference is None or sample.get("digest") != reference["digest"]:
            sample.update(ok=False, error="artifacts differ between runs "
                                          "of one config and seed")
        elif problems:
            sample.update(ok=False, error="; ".join(problems))

    untraced = [s for s in samples if not s["trace"] and "solve_s" in s]
    traced = [s for s in samples if "layers" in s]
    if not untraced or (args.trace and not traced):
        raise RuntimeError("no sample finished: " + "; ".join(
            sorted({s["error"] for s in samples if "error" in s})))
    failed = sum(1 for s in samples if not s["ok"])
    solve = [s["solve_s"] for s in untraced]
    if args.trace:
        values = {key: statistics.median(s["layers"][key] for s in traced)
                  for key in spans.LAYER_METRICS}
        checked = spans.layer_metrics(tracer)      # the output check's calls
        for key in ("tree.residual_s", "tree.load_s"):
            values[key] = checked[key]
        values["trace.overhead_s"] = (
            statistics.median(s["solve_s"] for s in traced)
            - statistics.median(solve))
        units = spans.LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solve),
            "peak_rss_mib": statistics.median(s["rss_mib"] for s in untraced),
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    summary = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "loop": "closed, one client, one scenario per fresh child process",
        "samples": len(samples),
        "solve_s": {"median": statistics.median(solve),
                    "tail": _tail_percentile(solve), "count": len(solve),
                    "values": solve},
        "setup_s": {"count": len(setups), "values": setups},
        "fail_ratio": failed / len(samples),
        "errors": sorted({s["error"] for s in samples if "error" in s}),
        "elapsed_s": time.monotonic() - started,
        "environment": _environment(root),
    }
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    return summary, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")

    root = Path.cwd()
    if not (root / "src" / "bdsde_lab" / "__init__.py").is_file():
        print("run from the root of a bdsde-lab checkout: src/bdsde_lab "
              "not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        summary, result = run(args, root, workdir)
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
