"""Scenario configs the benchmark generates from a workload seed, and the
checks every output must pass after timing.

Each workload is one ``bdsde-lab`` scenario config.  The seed only draws
the inputs named below; the program under test sees nothing but the
generated config.  Sizes come in two flavours: ``full`` (what the
benchmark measures) and ``toy`` (what the smoke check runs).
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import struct
from pathlib import Path

WORKLOADS = ("scalar_continuum", "lattice_glue", "lsmc_sweep", "tree_oracle")

# lsmc_sweep: y0 must sit within this many inner CI half-widths of the
# closed form (the inner-sample error is common to every outer path)
LSMC_CI_MULTIPLE = 3.0
LSMC_GAMMA = 0.5

# artifacts the determinism contract covers; run.log carries wall time
TIMING_ONLY = {"run.log"}


def _grid(steps: int) -> dict:
    return {"horizon": 1.0, "steps": steps}


def _scalar_continuum(rng: random.Random, toy: bool) -> dict:
    # the envelope sides (weights 0 and 1) plus nine interior weights
    inner = rng.sample(range(1, 1000), 9)
    lambdas = [0.0, 1.0] + [k / 1000 for k in inner]
    return {
        "scenario": "kneser",
        "grid": _grid(256 if toy else 4096),
        "driver": {"f": {"name": "f_sqrt_pos", "params": [2.0]},
                   "g": {"name": "g_zero", "params": []}},
        "terminal": {"name": "constant", "params": [0.0]},
        "backend": "scalar",
        "seed": 0,
        "kneser": {"t0": 0.5, "lambdas": sorted(lambdas), "snap_tol": 0.0,
                   "schedule": [2, 4, 8, 16, 32, 64, 128], "conv_tol": 0.02},
    }


def _lattice_glue(rng: random.Random, toy: bool) -> dict:
    lambdas = sorted(k / 100 for k in rng.sample(range(0, 101), 5))
    return {
        "scenario": "kneser",
        # N = 8 is the smallest grid on which slope 4 keeps dt * n <= 0.5
        "grid": _grid(8 if toy else 10),
        "driver": {"f": {"name": "f_sqrt_pos", "params": [2.0]},
                   "g": {"name": "g_linear", "params": [0.9]}},
        "terminal": {"name": "constant", "params": [0.0]},
        "backend": "tree",
        "seed": 0,
        "kneser": {"t0": 0.5, "lambdas": lambdas, "snap_tol": 0.01,
                   "schedule": [2, 4], "conv_tol": 0.05,
                   "h_inv_slope": 1.0 / 0.9},
    }


def _lsmc_sweep(seed: int, toy: bool) -> dict:
    return {
        "scenario": "solve",
        "grid": _grid(16 if toy else 64),
        "driver": {"f": {"name": "f_linear", "params": [1.0, 0.0]},
                   "g": {"name": "g_constant", "params": [LSMC_GAMMA]}},
        "terminal": {"name": "w_terminal", "params": []},
        "backend": "mc",
        "seed": seed,
        "solve": {"m_outer": 8 if toy else 64,
                  "m_inner": 2000 if toy else 20000, "basis_degree": 2},
    }


def _tree_oracle(rng: random.Random, toy: bool) -> dict:
    strike = rng.randrange(-500, 501) / 1000
    return {
        "scenario": "solve",
        "grid": _grid(10 if toy else 20),
        "driver": {"f": {"name": "f_sqrt_pos", "params": [2.0]},
                   "g": {"name": "g_sine", "params": [0.5, 0.3]}},
        "terminal": {"name": "call", "params": [strike]},
        "backend": "tree",
        "seed": 0,
        "solve": {"dump": True},
    }


def make_config(workload: str, seed: int, toy: bool = False) -> dict:
    """The scenario config of ``workload`` for ``seed``; same seed, same
    config."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scalar_continuum":
        return _scalar_continuum(rng, toy)
    if workload == "lattice_glue":
        return _lattice_glue(rng, toy)
    if workload == "lsmc_sweep":
        return _lsmc_sweep(seed, toy)
    if workload == "tree_oracle":
        return _tree_oracle(rng, toy)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

def artifact_digest(outdir: Path) -> dict:
    """sha256 of every artifact the determinism contract covers."""
    digest = {}
    for path in sorted(outdir.iterdir()):
        if path.name in TIMING_ONLY:
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 22), b""):
                h.update(block)
        digest[path.name] = h.hexdigest()
    return digest


def artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir()
               if p.name not in TIMING_ONLY)


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------
# output checks; each returns a list of failure messages (empty = pass)
# --------------------------------------------------------------------------

def _check_scalar_continuum(cfg: dict, outdir: Path, tracer) -> list:
    rows = _rows(outdir / "continuum.csv")
    steps = cfg["grid"]["steps"]
    dt = cfg["grid"]["horizon"] / steps
    lambdas = cfg["kneser"]["lambdas"]
    problems = []
    if [float(r["lambda"]) for r in rows] != lambdas:
        problems.append("continuum rows do not match the requested weights")
    y0 = [float(r["Y0"]) for r in rows]
    # closed forms for y' = -2 sqrt(y+), y(1) = 0, target (1 - lam) Ymax(1/2)
    # at t0 = 1/2: Y0 = (1 + sqrt(1 - lam))^2 / 4 while the target is
    # positive, so the maximal side (lam = 0) is 1; the minimal side
    # (lam = 1) stays at 0.  Besides the time step, the envelope carries the
    # convolution-grid error: a drift error of conv_tol over [0, T].
    tol = 10.0 * dt + cfg["kneser"]["conv_tol"] * cfg["grid"]["horizon"]
    for lam, y in zip(lambdas, y0):
        exact = 0.0 if lam == 1.0 else 0.25 * (1.0 + math.sqrt(1.0 - lam)) ** 2
        if abs(y - exact) > tol:
            problems.append(f"Y0({lam}) = {y!r}, closed form {exact!r}, tol {tol}")
    closed_tol = 1e-9 * (1.0 + max(abs(v) for v in y0))
    for r in rows:
        if r["sandwichPass"] != "true":
            problems.append(f"sandwich check failed at lambda {r['lambda']}")
        if not float(r["residualOffSplice"]) <= closed_tol:
            problems.append(f"off-splice residual {r['residualOffSplice']} "
                            f"above closedness tolerance {closed_tol}")
    return problems


def _check_lattice_glue(cfg: dict, outdir: Path, tracer) -> list:
    rows = _rows(outdir / "continuum.csv")
    problems = []
    if [float(r["lambda"]) for r in rows] != cfg["kneser"]["lambdas"]:
        problems.append("continuum rows do not match the requested weights")
    tol = 1e-10 * (1.0 + max(abs(float(r["Y0"])) for r in rows))
    for r in rows:
        if r["sandwichPass"] != "true":
            problems.append(f"sandwich check failed at lambda {r['lambda']}")
        if not float(r["residualOffSplice"]) <= tol:
            problems.append(f"off-splice residual {r['residualOffSplice']} "
                            f"above {tol}")
    return problems


def _philox_normals(seed: int, stream: int, path: int, count: int):
    """Independent regeneration of the solver's counter-based draws:
    one Philox key per (seed, stream, path)."""
    import numpy as np

    key = np.array([np.uint64(seed), np.uint64((stream << 48) | path)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(count)


def _check_lsmc_sweep(cfg: dict, outdir: Path, tracer) -> list:
    import numpy as np

    n = cfg["grid"]["steps"]
    dt = cfg["grid"]["horizon"] / n
    block = cfg["solve"]
    seed, m_outer, m_inner = cfg["seed"], block["m_outer"], block["m_inner"]
    sq = math.sqrt(dt)
    growth = (1.0 + dt) ** np.arange(n)
    db = np.array([sq * _philox_normals(seed, 0, k, n) for k in range(m_outer)])
    w_end = np.array([sq * _philox_normals(seed, 1, p, n).sum()
                      for p in range(m_inner)])
    # discrete Y0 for f = y, g = gamma, xi = W_T on one outer path:
    # gamma * sum_j (1 + dt)^j dB_j; the inner sample adds
    # (1 + dt)^N mean(W_T), whose 95 % half-width is the CI used here
    exact = LSMC_GAMMA * (db * growth).sum(axis=1)
    half_width = 1.96 * (1.0 + dt) ** n * float(np.std(w_end)) / math.sqrt(m_inner)
    rows = _rows(outdir / "solve.csv")
    problems = []
    if len(rows) != m_outer:
        problems.append(f"{len(rows)} outer paths in solve.csv, expected {m_outer}")
        return problems
    y0 = np.array([float(r["y0"]) for r in rows])
    worst = float(np.max(np.abs(y0 - exact)))
    if not worst <= LSMC_CI_MULTIPLE * half_width:
        problems.append(f"y0 off the closed form by {worst}, above "
                        f"{LSMC_CI_MULTIPLE} x CI half-width {half_width}")
    return problems


def _dump_expected_size(path: Path) -> int:
    """Byte length the BDLTREE1 header implies."""
    with open(path, "rb") as fh:
        head = fh.read(28)
        if head[:8] != b"BDLTREE1" or len(head) < 28:
            return -1
        (n,) = struct.unpack("<I", head[8:12])
        size = 28
        for _ in range(2):
            (ln,) = struct.unpack("<I", fh.read(4))
            fh.seek(ln, 1)
            size += 4 + ln
    return size + (n + 1) * 2 * 8 * 2 ** n


def _check_tree_oracle(cfg: dict, outdir: Path, tracer) -> list:
    from bdsde_lab import builtin_terminal, driver_pair
    from bdsde_lab import tree

    dump = outdir / "solution.bin"
    problems = []
    actual = dump.stat().st_size
    expected = _dump_expected_size(dump)
    if actual != expected:
        return [f"dump holds {actual} bytes, header implies {expected}"]
    drv, term = cfg["driver"], cfg["terminal"]
    driver = driver_pair(drv["f"]["name"], drv["f"]["params"],
                         drv["g"]["name"], drv["g"]["params"])
    terminal = builtin_terminal(term["name"], term["params"])
    sol = tracer.wrap("tree", "load_tree_solution", tree.load_tree_solution)(dump)
    residual = tracer.wrap("tree", "tree_residual", tree.tree_residual)(
        sol, driver, terminal)
    tol = 1e-10 * (1.0 + sol.max_abs_y())
    if not residual <= tol:
        problems.append(f"reloaded dump residual {residual} above {tol}")
    if sol.steps != cfg["grid"]["steps"]:
        problems.append(f"dump holds {sol.steps} steps")
    return problems


CHECKS = {
    "scalar_continuum": _check_scalar_continuum,
    "lattice_glue": _check_lattice_glue,
    "lsmc_sweep": _check_lsmc_sweep,
    "tree_oracle": _check_tree_oracle,
}
