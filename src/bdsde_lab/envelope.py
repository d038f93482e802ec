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
* ``tree``: the exact lattice solver; N <= 20.

All iterates of one envelope, on both sides, share a single fixed
convolution grid centred at the origin, so the monotonicity of the
regularized drifts in the slope carries to the solved fields exactly (the
logged violations are pure round-off).  The convolution tables read the
drift at t = 0, so the drift must be declared time-invariant; a drift free
of z is sampled on the grid once per envelope.

Convergence is declared in the sup-node distance between consecutive
iterates.  The slope schedule cannot outrun the time grid: the explicit
scheme needs dt * n <= 0.5, and oversized slopes raise a stability error
instructing a finer grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields as fld
from .core import DriverSpec, TerminalSpec, TimeGrid, scalar_drift
from .errors import InvariantError, StabilityError
from .regularize import ConvGridSpec, lower_bound_driver, regularized_driver
from .tree import _expand, solve_tree

MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class IterateRecord:
    n: float
    sup_dist_prev: float
    y0_mean: float


@dataclass(frozen=True)
class EnvelopeSide:
    """One envelope side: the last iterate's fields, the lower-bound
    companion, the iterate record and the convolution boundary hits summed
    over the iterates.  On the tree backend the hits count level probes
    (the lattice sweep evaluates the driver once per level of a step), not
    lattice nodes; they reach no artifact."""

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


def default_schedule(driver: DriverSpec, grid: TimeGrid) -> list:
    """Slopes K * 2**k for k = 0..7, dropping entries that violate the
    step-size guard dt * n <= 0.5."""
    k = max(driver.growth_k or 0.0, 1e-12)
    raw = [k * 2.0 ** j for j in range(8)]
    kept = [n for n in raw if grid.dt * n <= 0.5]
    return kept or [raw[0]]


def _terminal_constant(terminal: TerminalSpec, n_steps: int) -> float:
    # 16 probe rows drawn one at a time equal one (16, n_steps) block draw,
    # and only one row of 8 * n_steps bytes is alive at a time
    rng = np.random.default_rng(0)
    vals = np.concatenate([
        np.asarray(terminal.evaluate(rng.standard_normal((1, n_steps))),
                   dtype=float).ravel()
        for _ in range(16)
    ])
    if float(np.max(np.abs(vals - vals[0]))) > 0.0:
        raise ValueError("the scalar backend needs a deterministic terminal")
    return float(vals[0])


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


def _scalar_solve(f_part, grid: TimeGrid, xi: float,
                  start: int | None = None) -> np.ndarray:
    """Backward recursion y_i = y_{i+1} + dt f(t_{i+1}, y_{i+1}) (Z == 0,
    the right-endpoint step) from y[start] = xi (default: the horizon)
    down to step 0, in plain floats through the drift's step function;
    entries after ``start`` are left unset."""
    start = grid.steps if start is None else start
    step = scalar_drift(f_part)
    dt, t = grid.dt, memoryview(grid.nodes)
    y = np.empty(grid.steps + 1)
    out = memoryview(y)
    v = out[start] = float(xi)
    for i in range(start, 0, -1):
        v += dt * step(t[i], v)
        out[i - 1] = v
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
    return ConvGridSpec.for_tolerance(n_max, conv_tol, radius=conv_radius)


def _solve_one(spec: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
               backend: str, xi_const: float | None):
    if backend == "scalar":
        y = _scalar_solve(spec.f, grid, xi_const)
        return y, np.zeros_like(y)
    sol = solve_tree(spec, terminal, grid)
    return sol.ys, sol.zs


def _lower_bound_field(driver: DriverSpec, terminal: TerminalSpec,
                       grid: TimeGrid, backend: str, xi_const: float | None):
    """Y of the companion problem driven by the linear lower bound."""
    if backend == "scalar":
        return _scalar_solve(lower_bound_driver(driver), grid, xi_const)
    u_spec = driver.with_f(lower_bound_driver(driver),
                           f_lipschitz=driver.growth_k,
                           descriptor=f"lower bound of [{driver.descriptor}]")
    return solve_tree(u_spec, terminal, grid).ys


def _shared_inputs(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                   schedule, tol, backend, conv_tol, conv_radius):
    """What both sides of one envelope share, checked and computed once:
    the slope schedule, the convolution grid (which keeps the drift's
    samples for every table of the envelope), the scalar backend's terminal
    constant and the lower-bound companion's solved field."""
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
    u_field = _lower_bound_field(driver, terminal, grid, backend, xi_const)
    return schedule, grid_spec, xi_const, u_field


def _envelope_side(mode: str, driver: DriverSpec, terminal: TerminalSpec,
                   grid: TimeGrid, tol, backend, shared) -> EnvelopeSide:
    """One envelope side from the :func:`_shared_inputs` of its envelope."""
    schedule, grid_spec, xi_const, u_field = shared
    iterates: list[IterateRecord] = []
    prev_y = None
    y_field = z_field = None
    converged = False
    boundary_hits = 0
    reg = None
    for n in schedule:
        reg = regularized_driver(driver, n, mode, grid_spec)
        # only the previous iterate's y is held while the next one forms
        y_field = z_field = None
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
                raise InvariantError(
                    f"{mode}-side iterates not monotone: violation {worst:.3e} "
                    f"at slope {n}"
                )
        ok, worst_u, _ = fld.nodewise_leq(u_field, y_field, MONOTONE_TOL)
        if not ok:
            raise InvariantError(
                f"lower-bound field exceeds the slope-{n} iterate by {worst_u:.3e}"
            )
        iterates.append(IterateRecord(
            n=n, sup_dist_prev=float(dist),
            y0_mean=float(np.mean(fld.step_values(y_field, 0))),
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
    return _envelope_side("sup", driver, terminal, grid, tol, backend,
                          _shared_inputs(driver, terminal, grid, schedule, tol,
                                         backend, conv_tol, conv_radius))


def minimal_solution(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                     schedule=None, tol: float = 1e-3, backend: str = "scalar",
                     conv_tol: float | None = None,
                     conv_radius: float | None = None) -> EnvelopeSide:
    """Smallest solution: inf-convolved drifts, nondecreasing iterates."""
    return _envelope_side("inf", driver, terminal, grid, tol, backend,
                          _shared_inputs(driver, terminal, grid, schedule, tol,
                                         backend, conv_tol, conv_radius))


def compute_envelope(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
                     schedule=None, tol: float = 1e-3, backend: str = "scalar",
                     conv_tol: float | None = None,
                     conv_radius: float | None = None) -> EnvelopeResult:
    """Both envelope sides on a common grid and convolution resolution,
    sharing one solve of the lower-bound companion and one sampling of the
    drift on the convolution grid."""
    shared = _shared_inputs(driver, terminal, grid, schedule, tol, backend,
                            conv_tol, conv_radius)
    mx = _envelope_side("sup", driver, terminal, grid, tol, backend, shared)
    mn = _envelope_side("inf", driver, terminal, grid, tol, backend, shared)
    ok, worst, where = fld.nodewise_leq(mn.y, mx.y, 10.0 * grid.dt * (1.0 + fld.max_abs(mx.y)))
    if not ok:
        raise InvariantError(
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


def _sandwich_tol(envelope: EnvelopeResult) -> float:
    """Default sandwich tolerance 10 dt (1 + sup |Ymax|)."""
    return 10.0 * envelope.grid.dt * (1.0 + fld.max_abs(envelope.y_max))


def _sandwich_report(over, under, tol: float) -> SandwichReport:
    """The report from the worst (excess, step, node) above Ymax and below
    Ymin; ties go to the maximal side."""
    worst = max(over[0], under[0])
    if over[0] >= under[0]:
        return SandwichReport(over[0] <= tol, worst, over[1], tuple(over[2]), "max")
    return SandwichReport(under[0] <= tol, worst, under[1], tuple(under[2]), "min")


def _first_max(best, i: int, gap):
    """``best`` = (excess, step, node) updated with step i's gaps: a strictly
    larger maximum takes over with its first node in row-major order."""
    ex = float(np.max(gap))
    if ex > best[0]:
        return ex, i, np.unravel_index(int(np.argmax(gap)), np.shape(gap) or (1,))
    return best


class SandwichScan:
    """Worst excesses of a lattice candidate over Ymax and under Ymin, fed
    one step at a time.  Each side keeps the first step attaining its
    maximum and, within it, the first node of that step's array.  A step
    array on a larger node space than the envelope's step (a glued
    solution's steps from i0 on, stored on D = (2**N, 2**(N-i0))) is
    compared with the band expanded to its shape."""

    def __init__(self, envelope: EnvelopeResult):
        self.envelope = envelope
        self.over = self.under = (-np.inf, -1, ())

    def add(self, i: int, cand: np.ndarray) -> None:
        lo = fld.step_values(self.envelope.y_min, i)
        hi = fld.step_values(self.envelope.y_max, i)
        if cand.shape != hi.shape and cand.ndim == 2:
            lo, hi = _expand(lo, cand.shape), _expand(hi, cand.shape)
        self.over = _first_max(self.over, i, cand - hi)
        self.under = _first_max(self.under, i, lo - cand)

    def report(self, tol: float) -> SandwichReport:
        return _sandwich_report(self.over, self.under, tol)


def sandwich_check(candidate, envelope: EnvelopeResult,
                   tol: float | None = None) -> SandwichReport:
    """Assert Ymin - tol <= candidate <= Ymax + tol nodewise.

    Candidate steps may live on a larger node space than the envelope's
    (a glued solution's steps from i0 on); envelope steps are expanded to
    match, and a report's node indexes the candidate's step array."""
    if len(candidate) != len(envelope.y_max):
        raise ValueError("candidate field lives on a different grid")
    if tol is None:
        tol = _sandwich_tol(envelope)
    if fld.as_1d(candidate, envelope.y_min, envelope.y_max) is not None:
        # deterministic fields: each step is the single node 0
        over, step_over = fld.worst_excess(candidate, envelope.y_max)
        under, step_under = fld.worst_excess(envelope.y_min, candidate)
        return _sandwich_report(
            (over, step_over, (np.intp(0),) if step_over >= 0 else ()),
            (under, step_under, (np.intp(0),) if step_under >= 0 else ()), tol)
    scan = SandwichScan(envelope)
    for i in range(envelope.grid.steps + 1):
        scan.add(i, fld.step_values(candidate, i))
    return scan.report(tol)
