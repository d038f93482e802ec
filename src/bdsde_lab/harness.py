"""Executable property suites: solution comparisons under ordered data,
convergence studies against closed forms, and closedness of limits.

Comparison conclusions are discrete statements: the continuum ordering
theorems can be violated at order dt on a lattice, so every dominance
assertion carries the additive tolerance ``1e-9 + 10 dt (1 + sup |Y|)``
and is only claimed under the explicit-scheme step-size guard.  A case
whose ordering premise fails an empirical probe never reaches the
conclusion; it raises with a witness instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fields as fld
from .core import (
    DriverSpec,
    TerminalSpec,
    TimeGrid,
    builtin_terminal,
    driver_pair,
    make_grid,
    scalar_drift,
    shifted_driver,
)
from .envelope import _scalar_solve, compute_envelope
from .errors import PremiseViolation
from .lsmc import BasisSpec, sample_paths, solve_lsmc
from .regularize import separating_mollified_driver
from .tree import solve_tree, stability_margin


def shifted_terminal(base: TerminalSpec, offset: float) -> TerminalSpec:
    """Terminal functional raised by a constant."""
    return TerminalSpec(
        evaluate=lambda w, _b=base.evaluate, _o=offset: _b(w) + _o,
        descriptor=f"({base.descriptor}) + {offset!r}",
        bound_c0=None if base.bound_c0 is None else base.bound_c0 + abs(offset),
    )


# --------------------------------------------------------------------------
# comparison cases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonCase:
    """Two full problems whose data are ordered by construction.

    ``mode``:
      * ``direct``      - solve both, assert nodewise dominance;
      * ``envelopes``   - compare minimal sides and maximal sides;
      * ``separating``  - additionally solve the problem driven by the
        mollified midpoint drift and assert the two-link chain through it.
    """

    grid: TimeGrid
    driver1: DriverSpec
    terminal1: TerminalSpec
    driver2: DriverSpec
    terminal2: TerminalSpec
    premise: str = ""
    backend: str = "tree"
    mode: str = "direct"
    tol: float | None = None
    probe_count: int = 10_000
    seed: int = 0
    eps_bar: float | None = None
    delta: float = 0.1
    schedule: tuple | None = None
    conv_tol: float | None = None


@dataclass(frozen=True)
class ComparisonReport:
    case_premise: str
    premise_ok: bool
    dominance_ok: bool
    worst_margin: float          # min nodewise Y1 - Y2 (negative = violation)
    tol: float
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.premise_ok and self.dominance_ok


def _check_premise(case: ComparisonCase) -> None:
    rng = np.random.default_rng(case.seed)
    n = case.grid.steps
    sq = np.sqrt(case.grid.dt)
    w_probe = np.vstack([
        rng.standard_normal((case.probe_count // 2, n)) * sq,
        rng.choice([-sq, sq], size=(case.probe_count - case.probe_count // 2, n)),
    ])
    xi1 = np.asarray(case.terminal1.evaluate(w_probe), dtype=float)
    xi2 = np.asarray(case.terminal2.evaluate(w_probe), dtype=float)
    slack = 1e-12 * (1.0 + float(np.max(np.abs(xi1))) + float(np.max(np.abs(xi2))))
    bad = xi1 < xi2 - slack
    if np.any(bad):
        i = int(np.argmax(xi2 - xi1))
        raise PremiseViolation(
            "terminal ordering violated",
            witness={"w_increments": w_probe[i].tolist(),
                     "xi1": float(xi1[i]), "xi2": float(xi2[i])},
        )
    # the drift premise is probed at (y, z) drawn from [-5, 5]^2
    y = rng.uniform(-5.0, 5.0, size=case.probe_count)
    z = rng.uniform(-5.0, 5.0, size=case.probe_count)
    for t in rng.uniform(0.0, case.grid.horizon, size=4):
        f1 = np.asarray(case.driver1.f(t, y, z), dtype=float)
        f2 = np.asarray(case.driver2.f(t, y, z), dtype=float)
        slack = 1e-12 * (1.0 + float(np.max(np.abs(f1))) + float(np.max(np.abs(f2))))
        bad = f1 < f2 - slack
        if np.any(bad):
            i = int(np.argmax(f2 - f1))
            raise PremiseViolation(
                "drift ordering violated",
                witness={"t": float(t), "y": float(y[i]), "z": float(z[i]),
                         "f1": float(f1[i]), "f2": float(f2[i])},
            )
        g1 = np.asarray(case.driver1.g(t, y, z), dtype=float)
        g2 = np.asarray(case.driver2.g(t, y, z), dtype=float)
        if float(np.max(np.abs(g1 - g2))) > 1e-12:
            raise PremiseViolation(
                "the two problems must share one noise coefficient",
                witness={"t": float(t)},
            )


def _dominance(y1, y2, tol):
    worst_violation, step = fld.worst_excess(y2, y1)
    margin = -worst_violation
    return margin >= -tol, margin, step


def _default_tol(grid: TimeGrid, *fields_) -> float:
    scale = 1.0 + max(fld.max_abs(f) for f in fields_)
    return 1e-9 + 10.0 * grid.dt * scale


def compare_solutions(case: ComparisonCase) -> ComparisonReport:
    """Verify the ordering premise empirically, solve, and assert nodewise
    dominance of the first solution over the second."""
    _check_premise(case)
    grid = case.grid
    margin_guard = max(stability_margin(case.driver1, grid.dt),
                       stability_margin(case.driver2, grid.dt))
    details: dict = {"stability_margin": margin_guard}
    if case.mode == "direct":
        s1 = solve_tree(case.driver1, case.terminal1, grid)
        s2 = solve_tree(case.driver2, case.terminal2, grid)
        tol = case.tol if case.tol is not None else _default_tol(grid, s1.ys, s2.ys)
        ok, margin, step = _dominance(s1.ys, s2.ys, tol)
        details["violation_step"] = step
        return ComparisonReport(case.premise, True, ok, margin, tol, details)
    if case.mode == "envelopes":
        e1 = compute_envelope(case.driver1, case.terminal1, grid,
                              schedule=case.schedule, tol=0.0,
                              backend=case.backend, conv_tol=case.conv_tol)
        e2 = compute_envelope(case.driver2, case.terminal2, grid,
                              schedule=case.schedule, tol=0.0,
                              backend=case.backend, conv_tol=case.conv_tol)
        tol = case.tol if case.tol is not None else _default_tol(
            grid, e1.y_max, e2.y_max)
        ok_min, margin_min, _ = _dominance(e1.y_min, e2.y_min, tol)
        ok_max, margin_max, _ = _dominance(e1.y_max, e2.y_max, tol)
        details.update(margin_minimal=margin_min, margin_maximal=margin_max)
        return ComparisonReport(case.premise, True, ok_min and ok_max,
                                min(margin_min, margin_max), tol, details)
    if case.mode == "separating":
        if case.eps_bar is None:
            raise ValueError("separating mode needs the drift gap eps_bar")
        b_part = separating_mollified_driver(case.driver2.f, case.eps_bar,
                                             case.delta)
        k2 = case.driver2.growth_k or 0.0
        mid_driver = case.driver2.with_f(
            b_part,
            growth_d=(case.driver2.growth_d or 0.0) + 0.5 * case.eps_bar
            + k2 * case.delta,
            f_lipschitz=None,
            descriptor=f"mollified midpoint of [{case.driver2.descriptor}]",
        )
        s1 = solve_tree(case.driver1, case.terminal1, grid)
        sb = solve_tree(mid_driver, case.terminal2, grid)
        s2 = solve_tree(case.driver2, case.terminal2, grid)
        tol = case.tol if case.tol is not None else _default_tol(
            grid, s1.ys, sb.ys, s2.ys)
        ok_hi, margin_hi, _ = _dominance(s1.ys, sb.ys, tol)
        ok_lo, margin_lo, _ = _dominance(sb.ys, s2.ys, tol)
        details.update(margin_upper_link=margin_hi, margin_lower_link=margin_lo)
        return ComparisonReport(case.premise, True, ok_hi and ok_lo,
                                min(margin_hi, margin_lo), tol, details)
    raise ValueError(f"unknown comparison mode {case.mode!r}")


def randomized_ordered_cases(count: int, grid: TimeGrid, seed: int = 2024):
    """Randomized Lipschitz case family: f1 = f2 + positive offset, terminal
    raised by a nonnegative constant, shared contraction noise."""
    rng = np.random.default_rng(seed)
    terminals = ["w_terminal", "w_terminal_pos", "constant", "call"]
    cases = []
    for k in range(count):
        a_y = rng.uniform(-0.5, 0.5)
        a_z = rng.uniform(-0.5, 0.5)
        beta = rng.uniform(0.0, 0.6)
        offset = rng.uniform(0.05, 1.0)
        lift = rng.uniform(0.0, 1.0)
        t_name = terminals[k % len(terminals)]
        t_params = [rng.uniform(-1.0, 1.0)] if t_name in ("constant", "call") else []
        base = builtin_terminal(t_name, t_params)
        d2 = driver_pair("f_linear", [a_y, a_z], "g_linear", [beta])
        d1 = shifted_driver(d2, offset)
        cases.append(ComparisonCase(
            grid=grid,
            driver1=d1, terminal1=shifted_terminal(base, lift),
            driver2=d2, terminal2=base,
            premise=(f"case {k}: drift offset {offset:.3f}, "
                     f"terminal lift {lift:.3f}"),
            seed=seed + k,
            probe_count=2000,
        ))
    return cases


# --------------------------------------------------------------------------
# convergence studies
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorTable:
    case: str
    backend: str
    rows: list            # (N, error, ratio-to-previous or nan)

    def ratios(self):
        return [r[2] for r in self.rows[1:]]


def _closed_form_cases():
    return {
        # drift f(y) = y, no noise term, unit terminal: value e at time 0,
        # discrete value (1 + dt)**N
        "linear_ode": {
            "driver": lambda: driver_pair("f_linear", [1.0, 0.0]),
            "terminal": lambda: builtin_terminal("constant", [1.0]),
            "reference": lambda grid: math.e,
        },
        # zero drift, unit backward noise, zero terminal: the value at step i
        # is the remaining backward-noise sum, exactly representable
        "b_integral": {
            "driver": lambda: driver_pair("zero", [], "g_constant", [1.0]),
            "terminal": lambda: builtin_terminal("constant", [0.0]),
            "reference": None,
        },
    }


CLOSED_FORM_CASE_NAMES = tuple(sorted(_closed_form_cases()))


def convergence_study(case_name: str, ns, backend: str = "scalar",
                      horizon: float = 1.0, m_inner: int = 2000,
                      seed: int = 11) -> ErrorTable:
    """Error against the registered closed form for each grid size, with
    consecutive ratios."""
    registry = _closed_form_cases()
    if case_name not in registry:
        raise ValueError(f"unknown closed-form case {case_name!r}; "
                         f"registered: {CLOSED_FORM_CASE_NAMES}")
    ns = list(ns)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    entry = registry[case_name]
    rows = []
    prev_err = None
    for n in ns:
        grid = make_grid(horizon, n)
        driver = entry["driver"]()
        terminal = entry["terminal"]()
        if case_name == "linear_ode":
            err = abs(_solve_y0(driver, terminal, grid, backend, m_inner, seed)
                      - entry["reference"](grid))
        else:
            err = _b_integral_error(driver, terminal, grid, backend, m_inner, seed)
        ratio = float("nan") if prev_err is None or prev_err == 0.0 \
            else prev_err / err if err > 0.0 else float("inf")
        rows.append((n, err, ratio))
        prev_err = err
    return ErrorTable(case=case_name, backend=backend, rows=rows)


def _solve_y0(driver, terminal, grid, backend, m_inner, seed) -> float:
    if backend == "scalar":
        return float(_scalar_solve(driver.f, grid, 1.0)[0])
    if backend == "tree":
        sol = solve_tree(driver, terminal, grid)
        return float(sol.ys[0][0, 0])
    if backend == "mc":
        paths = sample_paths(grid, (2, m_inner), seed)
        sol = solve_lsmc(driver, terminal, grid, BasisSpec("poly", 2), paths)
        return float(np.mean(sol.y0))
    raise ValueError(f"unknown backend {backend!r}")


def _b_integral_error(driver, terminal, grid, backend, m_inner, seed) -> float:
    if backend == "tree":
        sol = solve_tree(driver, terminal, grid)
        worst = 0.0
        for i in range(grid.steps + 1):
            remaining = _remaining_b_sums(grid, i)
            worst = max(worst, float(np.max(np.abs(sol.ys[i] - remaining[None, :]))))
        return worst
    if backend == "mc":
        paths = sample_paths(grid, (8, m_inner), seed)
        sol = solve_lsmc(driver, terminal, grid, BasisSpec("poly", 1), paths)
        truth = paths.b_increments.sum(axis=1)
        return float(np.max(np.abs(sol.y0 - truth)))
    raise ValueError("the b_integral case needs the tree or mc backend")


def _remaining_b_sums(grid: TimeGrid, i: int) -> np.ndarray:
    """Backward-noise tail sums per step-i column index, accumulated in the
    same floating-point order as the lattice recursion (latest increment
    innermost), so the comparison is bitwise."""
    n = grid.steps
    sq = np.sqrt(grid.dt)
    cols = np.arange(2 ** (n - i))
    out = np.zeros(2 ** (n - i))
    for j in range(n - 1, i - 1, -1):
        bit = (cols >> ((n - i - 1) - (j - i))) & 1
        out = np.where(bit, sq, -sq) + out
    return out


# --------------------------------------------------------------------------
# closedness of solution limits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosednessReport:
    residual: float
    terminal_mismatch: float
    tol: float
    ok: bool
    worst_step: int


def closedness_check(solutions, driver: DriverSpec, terminal: TerminalSpec,
                     grid: TimeGrid, tol: float | None = None) -> ClosednessReport:
    """Take the nodewise limit candidate of an ordered family of scalar
    solution paths (its last element) and test that it still solves the
    discrete equation.

    A step counts as satisfied if either endpoint convention's defect
    vanishes (glued paths legitimately mix the two), and the single worst
    step is excluded (a glued path carries one junction step); corruption
    of any interior value breaks two adjacent steps and still fails.  The
    terminal value is always enforced.
    """
    if len(solutions) < 2:
        raise ValueError("need at least two fields to take a limit")
    lengths = {len(np.asarray(s, dtype=float)) for s in solutions}
    if lengths != {grid.steps + 1}:
        raise ValueError("fields do not share the lattice of the grid")
    y = np.asarray(solutions[-1], dtype=float)
    n = grid.steps
    xi = float(np.asarray(terminal.evaluate(np.zeros((1, n)))).ravel()[0])
    terminal_mismatch = abs(y[n] - xi)
    step, dt, ys = scalar_drift(driver.f), grid.dt, y.tolist()
    fv = [step(t, v) for t, v in zip(grid.nodes.tolist(), ys)]
    defects = np.empty(n)
    for i in range(n):
        defects[i] = min(abs(ys[i] - (ys[i + 1] + dt * fv[i + 1])),
                         abs(ys[i + 1] - (ys[i] - dt * fv[i])))
    order = np.argsort(defects)
    residual = float(defects[order[-2]]) if n >= 2 else float(defects[order[-1]])
    worst_step = int(order[-2]) if n >= 2 else int(order[-1])
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(y))))
    ok = residual <= tol and terminal_mismatch <= tol
    return ClosednessReport(residual=residual,
                            terminal_mismatch=terminal_mismatch,
                            tol=tol, ok=ok, worst_step=worst_step)
