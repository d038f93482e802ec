"""Scenario runner and catalog browser.

A scenario is a JSON config naming a grid, a driver pair, a terminal, a
backend, and one scenario block; the runner executes it and writes CSV
artifacts plus a manifest into the output directory.  Exit codes: 0 success,
1 property-suite failure, 2 configuration error, 3 numeric/capacity error.

Determinism contract: with the same config and seed, every CSV and the
manifest are byte-identical across runs; wall-clock timing goes to
``run.log`` only.  Numbers are printed with 17 significant digits so the
CSVs round-trip to the exact binary values.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    CatalogError,
    builtin_terminal,
    catalog_listing,
    driver_pair,
    make_grid,
)
from .envelope import compute_envelope, write_envelope_csv
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolation,
    InversionError,
    NumericError,
    PremiseViolation,
    RegressionError,
    StabilityError,
)
from .gluing import continuum_sample, write_continuum_csv
from .harness import (
    CLOSED_FORM_CASE_NAMES,
    ComparisonCase,
    compare_solutions,
    convergence_study,
    write_comparison_csv,
    write_error_table_csv,
)
from .lsmc import BasisSpec, sample_paths, solve_lsmc
from .tree import expectation_at, save_tree_solution, solve_tree

log = logging.getLogger("bdsde_lab")

_SCENARIOS = ("solve", "envelope", "kneser", "compare", "convergence")
_TOP_KEYS = {"scenario", "grid", "driver", "terminal", "backend", "seed",
             "out", *_SCENARIOS}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _build_driver(block) -> object:
    _require(isinstance(block, dict), "driver must be an object")
    _check_keys(block, {"f", "g"}, "driver")
    f_block = block.get("f", {"name": "zero", "params": []})
    g_block = block.get("g", {"name": "g_zero", "params": []})
    for sub, where in ((f_block, "driver.f"), (g_block, "driver.g")):
        _require(isinstance(sub, dict), f"{where} must be an object")
        _check_keys(sub, {"name", "params"}, where)
        _require("name" in sub, f"{where} needs a catalog name")
    return driver_pair(f_block["name"], f_block.get("params", []),
                       g_block["name"], g_block.get("params", []))


def _build_terminal(block):
    _require(isinstance(block, dict), "terminal must be an object")
    _check_keys(block, {"name", "params"}, "terminal")
    _require("name" in block, "terminal needs a catalog name")
    return builtin_terminal(block["name"], block.get("params", []))


def _build_grid(block):
    _require(isinstance(block, dict), "grid must be an object")
    _check_keys(block, {"horizon", "steps"}, "grid")
    _require("horizon" in block and "steps" in block,
             "grid needs horizon and steps")
    return make_grid(float(block["horizon"]), int(block["steps"]))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# value type of each typed key wherever it appears in a config; null in an
# optional tolerance or schedule means its default
_KINDS = {
    "a number": _is_number,
    "an integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "a number or null": lambda v: v is None or _is_number(v),
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a non-empty list of numbers or null": lambda v: v is None or (
        isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))),
    "a string": lambda v: isinstance(v, str),
}
_KEY_KINDS = {
    **dict.fromkeys(("horizon", "t0", "eps_bar", "delta", "h_inv_slope"),
                    "a number"),
    **dict.fromkeys(("steps", "m_outer", "m_inner", "basis_degree"),
                    "an integer"),
    **dict.fromkeys(("tol", "conv_tol", "conv_radius", "snap_tol"),
                    "a number or null"),
    **dict.fromkeys(("params", "lambdas", "Ns"), "a list of numbers"),
    "schedule": "a non-empty list of numbers or null",
    **dict.fromkeys(("name", "mode", "case", "out"), "a string"),
}


def _check_types(block: dict, where: str) -> None:
    for key, value in block.items():
        if key in _KEY_KINDS:
            kind = _KEY_KINDS[key]
            _require(_KINDS[kind](value), f"{where}.{key} must be {kind}")
        elif isinstance(value, dict):
            _check_types(value, f"{where}.{key}")


def _validate_config(cfg, overrides: dict) -> None:
    """Check the config, with the non-None command-line ``overrides``
    applied to it in place, before any computation."""
    _require(isinstance(cfg, dict), "config root must be an object")
    cfg.update((k, v) for k, v in overrides.items() if v is not None)
    _check_keys(cfg, _TOP_KEYS, "config root")
    _require("scenario" in cfg, "config needs a scenario")
    _require(cfg["scenario"] in _SCENARIOS,
             f"scenario must be one of {_SCENARIOS}")
    for key in _SCENARIOS:
        if key in cfg and key != cfg["scenario"]:
            raise ConfigError(
                f"block {key!r} does not match scenario {cfg['scenario']!r}"
            )
    for key in ("grid", "driver", "terminal", cfg["scenario"]):
        _require(isinstance(cfg.get(key, {}), dict), f"{key} must be an object")
    _check_types(cfg, "config")
    _require("grid" in cfg, "config needs a grid")
    backend = cfg.get("backend", "tree")
    _require(backend in ("tree", "scalar", "mc"),
             "backend must be tree, scalar, or mc")
    seed = cfg.get("seed", 0)
    _require(isinstance(seed, int) and 0 <= seed < 2 ** 64,
             "seed must be an unsigned 64-bit integer")


def _write_manifest(outdir: Path, cfg: dict) -> None:
    manifest = {
        "config": cfg,
        "versions": {
            "bdsde_lab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _fmt(x) -> str:
    return f"{x:.17g}"


def _run_solve(cfg, grid, driver, terminal, backend, seed, outdir) -> int:
    block = dict(cfg.get("solve", {}))
    _check_keys(block, {"m_outer", "m_inner", "basis_degree", "dump"}, "solve")
    if backend == "tree":
        sol = solve_tree(driver, terminal, grid)
        with open(outdir / "solve.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "t", "mean", "min", "max", "mean_square"])
            for i in range(grid.steps + 1):
                summary = expectation_at(sol, i)
                writer.writerow([i, _fmt(grid.time(i)), _fmt(summary["mean"]),
                                 _fmt(summary["min"]), _fmt(summary["max"]),
                                 _fmt(summary["mean_square"])])
        if block.get("dump"):
            save_tree_solution(outdir / "solution.bin", sol)
        return 0
    if backend == "mc":
        m_outer = int(block.get("m_outer", 16))
        m_inner = int(block.get("m_inner", 4096))
        degree = int(block.get("basis_degree", 2))
        paths = sample_paths(grid, (1, 1), (m_outer, m_inner), seed)
        sol = solve_lsmc(driver, terminal, grid, BasisSpec("poly", degree), paths)
        with open(outdir / "solve.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outer_path", "y0"])
            for k, y0 in enumerate(sol.y0):
                writer.writerow([k, _fmt(y0)])
        return 0
    from .envelope import _check_scalar_applicable, _scalar_solve

    xi = _check_scalar_applicable(driver, terminal, grid)
    y = _scalar_solve(driver.f, grid, xi)
    with open(outdir / "solve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "y"])
        for i in range(grid.steps + 1):
            writer.writerow([i, _fmt(grid.time(i)), _fmt(y[i])])
    return 0


def _run_envelope(cfg, grid, driver, terminal, backend, seed, outdir) -> int:
    block = dict(cfg.get("envelope", {}))
    _check_keys(block, {"schedule", "tol", "conv_tol", "conv_radius"}, "envelope")
    env = compute_envelope(
        driver, terminal, grid,
        schedule=block.get("schedule"),
        tol=float(block.get("tol") or 0.0),
        backend=backend if backend != "mc" else "scalar",
        conv_tol=block.get("conv_tol"),
        conv_radius=block.get("conv_radius"),
    )
    write_envelope_csv(outdir / "envelope_max.csv", env.maximal)
    write_envelope_csv(outdir / "envelope_min.csv", env.minimal)
    return 0


def _run_kneser(cfg, grid, driver, terminal, backend, seed, outdir) -> int:
    block = dict(cfg.get("kneser", {}))
    _check_keys(block, {"t0", "lambdas", "snap_tol", "schedule", "conv_tol",
                        "h_inv_slope"}, "kneser")
    _require("t0" in block and "lambdas" in block,
             "kneser block needs t0 and lambdas")
    inv_pair = None
    if backend == "tree":
        from .gluing import InvertiblePair

        slope = block.get("h_inv_slope")
        _require(slope is not None,
                 "tree-backend kneser needs h_inv_slope (linear inverse)")
        slope = float(slope)
        inv_pair = InvertiblePair(
            driver=driver,
            h_inv=lambda t, y, zt: zt * slope,
            h_lip_z_sq=slope * slope,
        ).validated()
    report = continuum_sample(
        driver, terminal, grid,
        t0=float(block["t0"]),
        lambdas=[float(x) for x in block["lambdas"]],
        backend="scalar" if backend in ("scalar", "mc") else "tree",
        inv_pair=inv_pair,
        snap_tol=block.get("snap_tol"),
        schedule=block.get("schedule"),
        conv_tol=block.get("conv_tol"),
    )
    write_continuum_csv(outdir / "continuum.csv", report)
    return 0 if report.all_sandwich_ok else 1


def _run_compare(cfg, grid, driver, terminal, backend, seed, outdir) -> int:
    block = dict(cfg.get("compare", {}))
    _check_keys(block, {"driver2", "terminal2", "mode", "tol", "eps_bar",
                        "delta", "schedule", "conv_tol"}, "compare")
    _require("driver2" in block and "terminal2" in block,
             "compare block needs driver2 and terminal2")
    case = ComparisonCase(
        grid=grid,
        driver1=driver, terminal1=terminal,
        driver2=_build_driver(block["driver2"]),
        terminal2=_build_terminal(block["terminal2"]),
        premise="config case",
        backend=backend if backend != "mc" else "tree",
        mode=block.get("mode", "direct"),
        tol=block.get("tol"),
        seed=seed,
        eps_bar=block.get("eps_bar"),
        delta=float(block.get("delta", 0.1)),
        schedule=tuple(block["schedule"]) if block.get("schedule") else None,
        conv_tol=block.get("conv_tol"),
    )
    report = compare_solutions(case)
    write_comparison_csv(outdir / "compare.csv", [report])
    return 0 if report.ok else 1


def _run_convergence(cfg, grid, driver, terminal, backend, seed, outdir) -> int:
    block = dict(cfg.get("convergence", {}))
    _check_keys(block, {"case", "Ns", "m_inner"}, "convergence")
    _require("case" in block and "Ns" in block,
             "convergence block needs case and Ns")
    table = convergence_study(
        block["case"], [int(n) for n in block["Ns"]],
        backend=backend, horizon=grid.horizon,
        m_inner=int(block.get("m_inner", 2000)), seed=seed,
    )
    write_error_table_csv(outdir / "convergence.csv", table)
    return 0


def run_scenario(config_path, seed: int | None = None, out: str | None = None,
                 backend: str | None = None) -> int:
    """Execute one scenario config; returns the process exit status."""
    started = time.monotonic()
    try:
        raw = Path(config_path).read_text()
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        log.error("cannot read config: %s", exc)
        return 2
    try:
        _validate_config(cfg, {"seed": seed, "backend": backend, "out": out})
        outdir = Path(cfg.get("out", "bdsde_out"))
        outdir.mkdir(parents=True, exist_ok=True)
        grid = _build_grid(cfg["grid"])
        driver = _build_driver(cfg.get("driver", {}))
        terminal = _build_terminal(cfg.get("terminal",
                                           {"name": "constant", "params": [0.0]}))
        runner = {
            "solve": _run_solve,
            "envelope": _run_envelope,
            "kneser": _run_kneser,
            "compare": _run_compare,
            "convergence": _run_convergence,
        }[cfg["scenario"]]
        effective = {k: v for k, v in cfg.items() if k != "out"}
        status = runner(cfg, grid, driver, terminal,
                        cfg.get("backend", "tree"), cfg.get("seed", 0), outdir)
        _write_manifest(outdir, effective)
        elapsed = time.monotonic() - started
        (outdir / "run.log").write_text(
            f"scenario={cfg['scenario']} status={status} "
            f"wall_time_s={elapsed:.3f}\n"
        )
        log.info("scenario %s finished with status %d in %.3fs",
                 cfg["scenario"], status, elapsed)
        return status
    except PremiseViolation as exc:
        log.error("premise violation: %s (witness: %s)", exc, exc.witness)
        return 1
    except (ConfigError, CatalogError, ContractViolation, ValueError) as exc:
        log.error("config error: %s", exc)
        return 2
    except (CapacityError, NumericError, StabilityError, InversionError,
            RegressionError) as exc:
        log.error("numeric/capacity error: %s", exc)
        return 3


def list_catalog() -> str:
    lines = [catalog_listing(), "closed-form cases:"]
    for name in CLOSED_FORM_CASE_NAMES:
        lines.append(f"  {name}")
    return "\n".join(lines)


def _resolve_threads(flag_value: int | None) -> int:
    env = os.environ.get("BDSDE_LAB_THREADS")
    if flag_value is not None:
        return max(1, flag_value)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"BDSDE_LAB_THREADS={env!r} is not an integer") from exc
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bdsde-lab",
        description="scenario runner for the doubly stochastic backward "
                    "equation laboratory",
    )
    parser.add_argument("--log-level", default="warn",
                        choices=["error", "warn", "info", "debug"])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (unsigned 64-bit)")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--backend", default=None,
                       choices=["tree", "scalar", "mc"],
                       help="override the config backend")
    run_p.add_argument("--threads", type=int, default=None,
                       help="worker cap (also BDSDE_LAB_THREADS; flag wins)")
    sub.add_parser("catalog", help="list drivers, terminals, and cases")
    args = parser.parse_args(argv)
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}[args.log_level]
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    if args.command == "catalog":
        print(list_catalog())
        return 0
    try:
        threads = _resolve_threads(args.threads)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    log.info("worker cap %d (computation is vectorised single-process)", threads)
    return run_scenario(args.config, seed=args.seed, out=args.out,
                        backend=args.backend)


if __name__ == "__main__":
    sys.exit(main())
