"""One benchmark sample in a fresh process.

    python3 child.py --src SRC --config CFG --out DIR --mode {setup,run}
                     [--trace] [--spans-out FILE]

Prints one JSON line: ``ready`` (CLOCK_MONOTONIC when numpy and
``bdsde_lab`` are imported and the config is loaded and validated), and for
``--mode run`` the scenario's wall time, exit status and the peak resident
memory of this process.  With ``--trace`` the package is instrumented
after set-up and the per-layer metrics are added.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mib() -> float:
    # VmHWM belongs to this process image; ru_maxrss can carry the peak of
    # the parent that forked it
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy  # noqa: F401  (set-up cost users pay)
    from bdsde_lab import builtin_terminal, cli, driver_pair, make_grid

    cfg = json.loads(Path(args.config).read_text())
    make_grid(cfg["grid"]["horizon"], cfg["grid"]["steps"])
    drv = cfg["driver"]
    driver_pair(drv["f"]["name"], drv["f"]["params"],
                drv["g"]["name"], drv["g"]["params"])
    builtin_terminal(cfg["terminal"]["name"], cfg["terminal"]["params"])
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "run":
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.instrument(tracer)
        run_scenario = cli.run_scenario if tracer is None else \
            tracer.wrap("cli", "run_scenario", cli.run_scenario)
        start = time.perf_counter()
        status = run_scenario(args.config, out=args.out)
        result["solve_s"] = time.perf_counter() - start
        result["status"] = status
        result["rss_mib"] = _peak_rss_mib()
        if tracer is not None:
            from workloads import artifact_bytes

            layers = spans.layer_metrics(tracer)
            layers["cli.artifact_bytes"] = artifact_bytes(Path(args.out))
            result["layers"] = layers
            if args.spans_out:
                tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
