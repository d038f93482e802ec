"""Minimal and maximal solutions for continuous linear-growth drifts.

The drift is replaced by its sup-convolution (maximal side) or
inf-convolution (minimal side) over an increasing slope schedule; each
regularized problem is uniquely solvable and the solved fields are monotone
in the slope, so the last iterate is the envelope at that resolution.  A
companion problem driven by the linear lower bound
``-|f(t,0,0)| - K|y| - K|z|`` is solved once; its field bounds every
iterate from below.

Backends:

* ``scalar``: the deterministic specialisation (zero noise coefficient,
  deterministic terminal, drift free of z) collapses to a scalar backward
  recursion with Z == 0; grids up to 10**6 steps.
* ``tree``: the exact lattice solver; N <= 12.

All iterates of one schedule share a single fixed convolution grid, so the
monotonicity of the regularized drifts in the slope carries to the solved
fields exactly (the logged violations are pure round-off).

Convergence is declared in the sup-node distance between consecutive
iterates.  The slope schedule cannot outrun the time grid: the explicit
scheme needs dt * n <= 0.5, and oversized slopes raise a stability error
instructing a finer grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import fields as fld
from .core import DriverSpec, TerminalSpec, TimeGrid
from .errors import StabilityError
from .regularize import ConvGridSpec, lower_bound_driver, regularized_driver
from .tree import solve_tree

MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class IterateRecord:
    n: float
    sup_dist_prev: float
    y0_mean: float
    field: object = None


@dataclass(frozen=True)
class EnvelopeSide:
    mode: str                 # "sup" (maximal) or "inf" (minimal)
    y: object
    z: object
    u: object                 # lower-bound companion field
    iterates: list
    schedule: list
    converged: bool
    backend: str
    boundary_hits: int = 0
    final_reg_spec: DriverSpec | None = None   # driver of the last iterate

    def y0_summary(self) -> float:
        return float(np.mean(fld.step_values(self.y, 0)))


@dataclass(frozen=True)
class EnvelopeResult:
    grid: TimeGrid
    minimal: EnvelopeSide
    maximal: EnvelopeSide

    @property
    def y_min(self):
        return self.minimal.y

    @property
    def y_max(self):
        return self.maximal.y

    def band_at(self, i: int):
        return (fld.step_values(self.y_min, i), fld.step_values(self.y_max, i))


def default_schedule(driver: DriverSpec, grid: TimeGrid, doublings: int = 7) -> list:
    """Slopes K * 2**k for k = 0..doublings, dropping entries that violate
    the step-size guard dt * n <= 0.5."""
    k = max(driver.growth_k or 0.0, 1e-12)
    raw = [k * 2.0 ** j for j in range(doublings + 1)]
    kept = [n for n in raw if grid.dt * n <= 0.5]
    return kept or [raw[0]]


def _terminal_constant(terminal: TerminalSpec, n_steps: int) -> float:
    probe = np.random.default_rng(0).standard_normal((16, n_steps))
    vals = np.asarray(terminal.evaluate(probe), dtype=float)
    if float(np.max(np.abs(vals - vals.ravel()[0]))) > 0.0:
        raise ValueError("the scalar backend needs a deterministic terminal")
    return float(vals.ravel()[0])


def _check_scalar_applicable(driver: DriverSpec, terminal: TerminalSpec,
                             grid: TimeGrid) -> float:
    if not driver.f_z_independent:
        raise ValueError("the scalar backend needs a drift free of z")
    probes_y = np.array([-1.7, 0.0, 0.4, 2.3])
    probes_z = np.array([-0.9, 0.1, 1.2, -2.0])
    for t in (0.0, 0.37 * grid.horizon, grid.horizon):
        gv = np.asarray(driver.g(t, probes_y, probes_z), dtype=float)
        if float(np.max(np.abs(gv))) != 0.0:
            raise ValueError("the scalar backend needs a zero noise coefficient")
    return _terminal_constant(terminal, grid.steps)


_ZERO = np.zeros(())
_ZERO.setflags(write=False)


def scalar_step(f_part, grid: TimeGrid, y, i: int, sign: float):
    """One explicit step over [t_i, t_{i+1}] of the deterministic recursion
    (Z == 0).  Sign +1 predicts y[i] = y[i+1] + dt f(t_{i+1}, y[i+1]), the
    backward right-endpoint step; sign -1 predicts y[i+1] = y[i] -
    dt f(t_i, y[i]), the forward left-endpoint step."""
    k = i + 1 if sign > 0 else i
    fv = float(f_part(grid.time(k), np.asarray(y[k]), _ZERO))
    return y[k] + sign * grid.dt * fv


def _scalar_solve(f_part, grid: TimeGrid, xi: float,
                  start: int | None = None) -> np.ndarray:
    """Backward recursion from y[start] = xi (default: the horizon) down to
    step 0; entries after ``start`` are left unset."""
    start = grid.steps if start is None else start
    y = np.empty(grid.steps + 1)
    y[start] = xi
    for i in range(start - 1, -1, -1):
        y[i] = scalar_step(f_part, grid, y, i, 1.0)
    return y


def _estimate_y_bound(driver: DriverSpec, terminal: TerminalSpec,
                      grid: TimeGrid) -> float:
    """Crude a priori bound on |Y| from the growth constants: Gronwall with
    the worst-case lattice terminal."""
    if terminal.bound_c0 is not None:
        c0 = terminal.bound_c0
    else:
        rng = np.random.default_rng(1)
        sq = np.sqrt(grid.dt)
        probes = np.vstack([
            rng.choice([-sq, sq], size=(64, grid.steps)),
            np.full((1, grid.steps), sq),
            np.full((1, grid.steps), -sq),
        ])
        c0 = float(np.max(np.abs(terminal.evaluate(probes))))
    k = driver.growth_k or 0.0
    d = driver.growth_d or 0.0
    return (c0 + d * grid.horizon) * float(np.exp(k * grid.horizon)) + 1.0


def _conv_grid_for(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                   n_max: float, conv_tol: float,
                   conv_radius: float | None) -> ConvGridSpec:
    if conv_radius is None:
        bound = _estimate_y_bound(driver, terminal, grid)
        k = driver.growth_k or 0.0
        d = driver.growth_d or 0.0
        excursion = 2.0 * (k * bound + d) / max(n_max - k, 1.0)
        conv_radius = bound + excursion + 1.0
    return ConvGridSpec.for_tolerance(n_max, conv_tol, radius=conv_radius,
                                      probe_centered=False)


def _solve_one(spec: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
               backend: str, xi_const: float | None):
    if backend == "scalar":
        y = _scalar_solve(spec.f, grid, xi_const)
        return y, np.zeros_like(y)
    sol = solve_tree(spec, terminal, grid)
    return sol.ys, sol.zs


def _envelope_side(mode: str, driver: DriverSpec, terminal: TerminalSpec,
                   grid: TimeGrid, schedule, tol, backend,
                   conv_tol, conv_radius) -> EnvelopeSide:
    if driver.growth_k is None or driver.growth_d is None:
        raise ValueError("envelope computation needs the growth constants K, D")
    if backend not in ("scalar", "tree"):
        raise ValueError(f"unknown backend {backend!r}")
    schedule = list(schedule) if schedule is not None else default_schedule(driver, grid)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("the slope schedule must be strictly increasing")
    if schedule[0] < driver.growth_k:
        raise ValueError(
            f"schedule starts at {schedule[0]}, below the growth constant "
            f"{driver.growth_k}"
        )
    n_max = schedule[-1]
    if grid.dt * n_max > 0.5:
        raise StabilityError(
            f"dt * n = {grid.dt * n_max:.3g} > 0.5 for slope {n_max}; "
            f"use a grid with at least {int(np.ceil(2 * n_max * grid.horizon))} steps"
        )
    conv_tol = conv_tol if conv_tol is not None else max(tol, 1e-6)
    grid_spec = _conv_grid_for(driver, terminal, grid, n_max, conv_tol, conv_radius)

    xi_const = None
    if backend == "scalar":
        xi_const = _check_scalar_applicable(driver, terminal, grid)

    u_field = _scalar_solve(lower_bound_driver(driver), grid, xi_const) \
        if backend == "scalar" else None
    if backend == "tree":
        u_spec = driver.with_f(lower_bound_driver(driver),
                               f_lipschitz=driver.growth_k,
                               descriptor=f"lower bound of [{driver.descriptor}]")
        u_sol = solve_tree(u_spec, terminal, grid)
        u_field = u_sol.ys

    iterates: list[IterateRecord] = []
    prev_y = None
    y_field = z_field = None
    converged = False
    boundary_hits = 0
    reg = None
    for n in schedule:
        reg = regularized_driver(driver, n, mode, grid_spec)
        y_field, z_field = _solve_one(reg.spec, terminal, grid, backend, xi_const)
        boundary_hits += reg.operator.boundary_hits
        dist = np.nan if prev_y is None else fld.sup_distance(y_field, prev_y)
        if prev_y is not None:
            # sup-side iterates may only move down, inf-side only up
            worst, _ = fld.worst_excess(
                y_field if mode == "sup" else prev_y,
                prev_y if mode == "sup" else y_field,
            )
            if worst > MONOTONE_TOL:
                raise AssertionError(
                    f"{mode}-side iterates not monotone: violation {worst:.3e} "
                    f"at slope {n}"
                )
        ok, worst_u, _ = fld.nodewise_leq(u_field, y_field, MONOTONE_TOL)
        if not ok:
            raise AssertionError(
                f"lower-bound field exceeds the slope-{n} iterate by {worst_u:.3e}"
            )
        iterates.append(IterateRecord(
            n=n, sup_dist_prev=float(dist),
            y0_mean=float(np.mean(fld.step_values(y_field, 0))),
            field=y_field,
        ))
        if prev_y is not None and dist < tol:
            converged = True
            prev_y = y_field
            break
        prev_y = y_field
    return EnvelopeSide(mode=mode, y=y_field, z=z_field, u=u_field,
                        iterates=iterates, schedule=schedule,
                        converged=converged, backend=backend,
                        boundary_hits=boundary_hits,
                        final_reg_spec=reg.spec if reg is not None else None)


def maximal_solution(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                     schedule=None, tol: float = 1e-3, backend: str = "scalar",
                     conv_tol: float | None = None,
                     conv_radius: float | None = None) -> EnvelopeSide:
    """Largest solution: sup-convolved drifts, nonincreasing iterates.

    ``tol`` gates early stopping on the sup-node distance between
    consecutive iterates (0 always exhausts the schedule); ``conv_tol``
    bounds the convolution grid error 2 n spacing (defaults to ``tol``).
    """
    return _envelope_side("sup", driver, terminal, grid, schedule, tol,
                          backend, conv_tol, conv_radius)


def minimal_solution(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                     schedule=None, tol: float = 1e-3, backend: str = "scalar",
                     conv_tol: float | None = None,
                     conv_radius: float | None = None) -> EnvelopeSide:
    """Smallest solution: inf-convolved drifts, nondecreasing iterates."""
    return _envelope_side("inf", driver, terminal, grid, schedule, tol,
                          backend, conv_tol, conv_radius)


def compute_envelope(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                     schedule=None, tol: float = 1e-3, backend: str = "scalar",
                     conv_tol: float | None = None,
                     conv_radius: float | None = None) -> EnvelopeResult:
    """Both envelope sides on a common grid and convolution resolution."""
    mx = maximal_solution(driver, terminal, grid, schedule, tol, backend,
                          conv_tol, conv_radius)
    mn = minimal_solution(driver, terminal, grid, schedule, tol, backend,
                          conv_tol, conv_radius)
    ok, worst, where = fld.nodewise_leq(mn.y, mx.y, 10.0 * grid.dt * (1.0 + fld.max_abs(mx.y)))
    if not ok:
        raise AssertionError(
            f"minimal side exceeds maximal side by {worst:.3e} at step {where}"
        )
    return EnvelopeResult(grid=grid, minimal=mn, maximal=mx)


@dataclass(frozen=True)
class SandwichReport:
    ok: bool
    worst_violation: float
    step: int
    node: tuple
    side: str

    def __bool__(self):
        return self.ok


def sandwich_check(candidate, envelope: EnvelopeResult,
                   tol: float | None = None) -> SandwichReport:
    """Assert Ymin - tol <= candidate <= Ymax + tol nodewise.

    Candidate steps may live on the full product node space (glued
    solutions); envelope steps are expanded to match."""
    from .tree import _expand_to_product

    if len(candidate) != len(envelope.y_max):
        raise ValueError("candidate field lives on a different grid")
    if tol is None:
        tol = 10.0 * envelope.grid.dt * (1.0 + fld.max_abs(envelope.y_max))
    if fld.as_1d(candidate, envelope.y_min, envelope.y_max) is not None:
        # deterministic fields: each step is the single node 0
        over, step_over = fld.worst_excess(candidate, envelope.y_max)
        under, step_under = fld.worst_excess(envelope.y_min, candidate)
        node_over = (np.intp(0),) if step_over >= 0 else ()
        node_under = (np.intp(0),) if step_under >= 0 else ()
    else:
        n = envelope.grid.steps
        over = under = -np.inf
        step_over = step_under = -1
        node_over = node_under = ()
        for i in range(n + 1):
            cand = fld.step_values(candidate, i)
            lo = fld.step_values(envelope.y_min, i)
            hi = fld.step_values(envelope.y_max, i)
            if cand.shape != hi.shape and cand.ndim == 2:
                lo = _expand_to_product(lo, i, n)
                hi = _expand_to_product(hi, i, n)
            gap_over = cand - hi
            gap_under = lo - cand
            ex_over = float(np.max(gap_over))
            ex_under = float(np.max(gap_under))
            if ex_over > over:
                over, step_over = ex_over, i
                node_over = np.unravel_index(int(np.argmax(gap_over)),
                                             np.shape(gap_over) or (1,))
            if ex_under > under:
                under, step_under = ex_under, i
                node_under = np.unravel_index(int(np.argmax(gap_under)),
                                              np.shape(gap_under) or (1,))
    if over >= under:
        return SandwichReport(over <= tol, max(over, under), step_over,
                              tuple(node_over), "max")
    return SandwichReport(under <= tol, max(over, under), step_under,
                          tuple(node_under), "min")


def write_envelope_csv(path, side: EnvelopeSide) -> None:
    """Iterate log as CSV: (k, n_k, supDistPrev, Y0_mean, converged)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "n_k", "supDistPrev", "Y0_mean", "converged"])
        for k, rec in enumerate(side.iterates):
            writer.writerow([
                k, f"{rec.n:.17g}", f"{rec.sup_dist_prev:.17g}",
                f"{rec.y0_mean:.17g}",
                str(side.converged and k == len(side.iterates) - 1).lower(),
            ])
