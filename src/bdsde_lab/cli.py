"""Scenario runner and catalog browser.

A scenario is a JSON config naming a grid, a driver pair, a terminal, a
backend, and one scenario block.  The scenario computes first; only then
is the output directory created and are its artifacts, the manifest and
``run.log`` written, so a run that raises writes nothing.  The one
artifact written while the scenario computes, the lattice dump, is staged
as a hidden file beside the output directory and moved into place with
the others; a run that raises removes it.  Exit codes:
0 success, 1 property-suite failure, 2 configuration error (an output
path that cannot be created or written included), 3 numeric/capacity
error, 4 failed internal invariant.

Determinism contract: with the same config and seed, every CSV and the
manifest are byte-identical across runs; wall-clock timing goes to
``run.log`` only.  This module formats every CSV cell (``_cell``): numbers
with 17 significant digits, so the CSVs round-trip to the exact binary
values.  Binary dumps are written by the module that loads them.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
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
from .envelope import _check_scalar_applicable, _scalar_solve, compute_envelope
from .errors import (
    CapacityError,
    ConfigError,
    ContractViolation,
    InversionError,
    InvariantError,
    NumericError,
    PremiseViolation,
    RegressionError,
    StabilityError,
)
from .gluing import continuum_sample
from .harness import (
    CLOSED_FORM_CASE_NAMES,
    ComparisonCase,
    compare_solutions,
    convergence_study,
)
from .lsmc import BasisSpec, check_regression_bytes, sample_paths, solve_lsmc
from .tree import solve_tree_steps, stream_tree_solution

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
    # json parses NaN and +-Infinity, which no key takes
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


# value type of each typed key wherever it appears in a config; null in an
# optional tolerance or schedule means its default
_KINDS = {
    "a number": _is_number,
    "an integer": _is_integer,
    "a number or null": lambda v: v is None or _is_number(v),
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_integer, v)),
    "a non-empty list of numbers or null": lambda v: v is None or (
        isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
}
_KEY_KINDS = {
    **dict.fromkeys(("horizon", "t0", "eps_bar", "delta", "h_inv_slope"),
                    "a number"),
    **dict.fromkeys(("steps", "m_outer", "m_inner", "basis_degree"),
                    "an integer"),
    **dict.fromkeys(("tol", "conv_tol", "conv_radius", "snap_tol"),
                    "a number or null"),
    **dict.fromkeys(("params", "lambdas"), "a list of numbers"),
    "Ns": "a list of integers",
    "schedule": "a non-empty list of numbers or null",
    **dict.fromkeys(("name", "mode", "case", "out"), "a string"),
    "dump": "a boolean",
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
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and 0 <= seed < 2 ** 64,
             "seed must be an unsigned 64-bit integer")


def _write_manifest(outdir: Path, cfg: dict) -> None:
    manifest = {
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "versions": {
            "bdsde_lab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


# keys each scenario block may hold, and those it must hold; a solve block
# takes only the keys its backend reads
_SOLVE_KEYS = {"tree": {"dump"}, "mc": {"m_outer", "m_inner", "basis_degree"},
               "scalar": set()}
_BLOCK_KEYS = {
    "envelope": {"schedule", "tol", "conv_tol", "conv_radius"},
    "kneser": {"t0", "lambdas", "snap_tol", "schedule", "conv_tol",
               "h_inv_slope"},
    "compare": {"driver2", "terminal2", "mode", "tol", "eps_bar", "delta",
                "schedule", "conv_tol"},
    "convergence": {"case", "Ns", "m_inner"},
}
_NEEDED_KEYS = {"kneser": ("t0", "lambdas"), "compare": ("driver2", "terminal2"),
                "convergence": ("case", "Ns")}
# the backends each scenario runs on, a compare by its mode; a runner gets
# the config's backend unchanged, and any other pair is refused
_BACKENDS = {"solve": ("tree", "scalar", "mc"), "envelope": ("tree", "scalar"),
             "kneser": ("tree", "scalar"), "compare direct": ("tree",),
             "compare envelopes": ("tree", "scalar"),
             "compare separating": ("tree",),
             "convergence": ("tree", "scalar", "mc")}


def _scenario_block(cfg: dict, backend: str) -> dict:
    """The checked scenario block, with the second driver and terminal of a
    compare block built."""
    scenario = cfg["scenario"]
    block = dict(cfg.get(scenario, {}))
    runs = scenario if scenario != "compare" else \
        f"compare {block.get('mode', 'direct')}"
    _require(backend in _BACKENDS.get(runs, ()),
             f"{runs!r} does not run on the {backend} backend")
    if scenario == "solve":
        _check_keys(block, _SOLVE_KEYS[backend], f"solve (backend {backend})")
        return block
    _check_keys(block, _BLOCK_KEYS[scenario], scenario)
    needed = _NEEDED_KEYS.get(scenario, ())
    _require(all(key in block for key in needed),
             f"{scenario} block needs {' and '.join(needed)}")
    if scenario == "kneser" and backend == "tree":
        _require(block.get("h_inv_slope") is not None,
                 "tree-backend kneser needs h_inv_slope (linear inverse)")
    if scenario == "compare":
        block["driver2"] = _build_driver(block["driver2"])
        block["terminal2"] = _build_terminal(block["terminal2"])
    return block


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def _csv(header: list, rows: list):
    """Writer of one CSV artifact; every cell is formatted by ``_cell``."""
    def write(path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([_cell(v) for v in row] for row in rows)
    return write


class _Staging:
    """Artifacts written while the scenario computes.  Each goes to a hidden
    temporary file in the nearest existing ancestor of the output
    directory, so on its filesystem, and is moved into place by its
    writer; ``discard`` removes every staged file not moved."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.paths = {}

    def stage(self, name: str) -> Path:
        """A new empty staged file for the artifact ``name``."""
        ancestor = next((p for p in (self.outdir, *self.outdir.parents)
                         if p.exists()), self.outdir)
        path = ancestor / f".{name}.{os.urandom(6).hex()}"
        # O_EXCL: never an existing file; the mode is that of open(path, "w")
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        self.paths[name] = path
        return path

    def writer(self, name: str):
        """The writer that moves the staged ``name`` to its path."""
        def move(path: Path) -> None:
            os.replace(self.paths[name], path)
            del self.paths[name]
        return move

    def discard(self) -> None:
        for path in self.paths.values():
            try:
                os.unlink(path)
            except OSError as exc:
                log.warning("cannot remove the staged file %s: %s", path, exc)


# a runner only computes, staging any artifact it writes meanwhile; it
# returns (exit status, {file name: writer})

def _run_solve(block, grid, driver, terminal, backend, seed, staging):
    if backend == "tree":
        # the cap check comes first, before anything is staged
        steps = solve_tree_steps(driver, terminal, grid)
        dump = staging.stage("solution.bin") if block.get("dump") else None
        summaries = stream_tree_solution(
            driver, steps, grid, dump,
            (driver.descriptor, terminal.descriptor))
        # the columns after step and t are the keys of the summaries
        header = ["step", "t", "mean", "min", "max", "mean_square"]
        rows = [[i, grid.time(i), *map(summary.get, header[2:])]
                for i, summary in enumerate(summaries)]
        artifacts = {"solve.csv": _csv(header, rows)}
        if dump is not None:
            artifacts["solution.bin"] = staging.writer("solution.bin")
        return 0, artifacts
    if backend == "mc":
        m_outer = int(block.get("m_outer", 16))
        m_inner = int(block.get("m_inner", 4096))
        basis = BasisSpec("poly", int(block.get("basis_degree", 2)))
        # before sampling: a polynomial design has degree + 1 columns
        check_regression_bytes(m_inner, [basis.degree + 1] * grid.steps,
                               m_outer)
        paths = sample_paths(grid, (m_outer, m_inner), seed)
        sol = solve_lsmc(driver, terminal, grid, basis, paths)
        return 0, {"solve.csv": _csv(["outer_path", "y0"],
                                     list(enumerate(sol.y0)))}
    xi = _check_scalar_applicable(driver, terminal, grid)
    y = _scalar_solve(driver.f, grid, xi)
    rows = [[i, grid.time(i), y[i]] for i in range(grid.steps + 1)]
    return 0, {"solve.csv": _csv(["step", "t", "y"], rows)}


def _envelope_rows(side) -> list:
    last = len(side.iterates) - 1
    return [[k, rec.n, rec.sup_dist_prev, rec.y0_mean,
             side.converged and k == last]
            for k, rec in enumerate(side.iterates)]


def _run_envelope(block, grid, driver, terminal, backend, seed, staging):
    env = compute_envelope(
        driver, terminal, grid,
        schedule=block.get("schedule"),
        tol=float(block.get("tol") or 0.0),
        backend=backend,
        conv_tol=block.get("conv_tol"),
        conv_radius=block.get("conv_radius"),
    )
    header = ["k", "n_k", "supDistPrev", "Y0_mean", "converged"]
    return 0, {"envelope_max.csv": _csv(header, _envelope_rows(env.maximal)),
               "envelope_min.csv": _csv(header, _envelope_rows(env.minimal))}


def _run_kneser(block, grid, driver, terminal, backend, seed, staging):
    slope = float(block["h_inv_slope"]) if backend == "tree" else None
    report = continuum_sample(
        driver, terminal, grid,
        t0=float(block["t0"]),
        lambdas=[float(x) for x in block["lambdas"]],
        backend=backend,
        h_inv=None if slope is None else (lambda t, y, zt: zt * slope),
        snap_tol=block.get("snap_tol"),
        schedule=block.get("schedule"),
        conv_tol=block.get("conv_tol"),
    )
    rows = [[r.lam, r.y0, r.tau_mean, r.residual_off_splice,
             r.splice_mismatch, r.sandwich_ok] for r in report.records]
    return (0 if report.all_sandwich_ok else 1), {"continuum.csv": _csv(
        ["lambda", "Y0", "tauMean", "residualOffSplice", "spliceMismatch",
         "sandwichPass"], rows)}


def _run_compare(block, grid, driver, terminal, backend, seed, staging):
    case = ComparisonCase(
        grid=grid,
        driver1=driver, terminal1=terminal,
        driver2=block["driver2"], terminal2=block["terminal2"],
        premise="config case",
        backend=backend,
        mode=block.get("mode", "direct"),
        tol=block.get("tol"),
        seed=seed,
        eps_bar=block.get("eps_bar"),
        delta=float(block.get("delta", 0.1)),
        schedule=tuple(block["schedule"]) if block.get("schedule") else None,
        conv_tol=block.get("conv_tol"),
    )
    report = compare_solutions(case)
    row = [report.case_premise, report.premise_ok, report.dominance_ok,
           report.worst_margin, report.tol,
           report.details.get("stability_margin", float("nan"))]
    return (0 if report.ok else 1), {"compare.csv": _csv(
        ["case", "premise_ok", "dominance_ok", "worst_margin", "tol",
         "stability_margin"], [row])}


def _run_convergence(block, grid, driver, terminal, backend, seed, staging):
    table = convergence_study(
        block["case"], [int(n) for n in block["Ns"]],
        backend=backend, horizon=grid.horizon,
        m_inner=int(block.get("m_inner", 2000)), seed=seed,
    )
    return 0, {"convergence.csv": _csv(["N", "error", "ratio"], table.rows)}


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
    staging = None
    try:
        _validate_config(cfg, {"seed": seed, "backend": backend, "out": out})
        outdir = Path(cfg.get("out", "bdsde_out"))
        staging = _Staging(outdir)
        backend = cfg.get("backend", "tree")
        grid = _build_grid(cfg["grid"])
        driver = _build_driver(cfg.get("driver", {}))
        terminal = _build_terminal(cfg.get("terminal",
                                           {"name": "constant", "params": [0.0]}))
        block = _scenario_block(cfg, backend)
        runner = {
            "solve": _run_solve,
            "envelope": _run_envelope,
            "kneser": _run_kneser,
            "compare": _run_compare,
            "convergence": _run_convergence,
        }[cfg["scenario"]]
        status, artifacts = runner(block, grid, driver, terminal, backend,
                                   cfg.get("seed", 0), staging)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, write in artifacts.items():
            write(outdir / name)
        _write_manifest(outdir, cfg)
        elapsed = time.monotonic() - started
        (outdir / "run.log").write_text(
            f"scenario={cfg['scenario']} status={status} "
            f"wall_time_s={elapsed:.3f}\n"
        )
        log.info("scenario %s finished with status %d in %.3fs",
                 cfg["scenario"], status, elapsed)
        return status
    except OSError as exc:
        # staging an artifact, writing it while computing, or writing the
        # output directory
        log.error("cannot write the output directory: %s", exc)
        return 2
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
    except InvariantError as exc:
        log.error("internal invariant failed: %s", exc)
        return 4
    finally:
        if staging is not None:
            staging.discard()


def list_catalog() -> str:
    lines = [catalog_listing(), "closed-form cases:"]
    for name in CLOSED_FORM_CASE_NAMES:
        lines.append(f"  {name}")
    return "\n".join(lines)


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
    sub.add_parser("catalog", help="list drivers, terminals, and cases")
    args = parser.parse_args(argv)
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}[args.log_level]
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    if args.command == "catalog":
        print(list_catalog())
        return 0
    return run_scenario(args.config, seed=args.seed, out=args.out,
                        backend=args.backend)


if __name__ == "__main__":
    sys.exit(main())
