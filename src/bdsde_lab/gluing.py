"""Construction of prescribed-value solutions by gluing at an exit time.

Given the envelope bounds on a non-unique problem, any intermediate target
value at an interior time t0 is attainable: solve backward from the target
on [0, t0], evolve forward from it with the noise roles swapped, stop the
forward segment the first time it leaves the open band between the envelope
sides, and continue with the envelope side it touched.  Sweeping the
interpolation weight of the target through [0, 1] yields a continuum of
distinct solutions whenever the band has positive width.

Residual conventions (documented contract of ``residual_off_splice``): each
segment is checked against its own defining recursion,

* backward segments (initial piece, envelope tail): right-endpoint driver
  evaluation as in the lattice solver; the tail is checked against the
  regularized drift that generated the envelope side;
* forward segment: left-endpoint evaluation as in the swapped-role solver.

Each path has a single splice step, where the forward value is replaced by
the envelope side it exited toward; the jump there is reported separately
as ``splice_mismatch`` (at most the snap tolerance plus one forward step's
overshoot).  Everywhere else the assembled field satisfies its recursion to
round-off by construction.

The snap rule exists because a discrete path generically overshoots the
band edge rather than touching it; exits are detected against the band
shrunk by ``snap_tol`` on each side.  Transversal (upper-side) exits favour
the default ``10 dt (1 + sup |Ymax|)``; tangential approaches (a path
sliding onto an absorbing lower edge) are better served by a tiny or zero
snap tolerance, which the callers of the deterministic case use.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import fields as fld
from .core import DriverSpec, TerminalSpec, TimeGrid
from .envelope import (EnvelopeResult, _scalar_solve, compute_envelope,
                       sandwich_check, scalar_step)
from .errors import InversionError
from .tree import (
    FORWARD_SIGN,
    ForwardSegment,
    _backward_sweep,
    _col_signs,
    _expand_to_product,
    solve_forward_swapped,
)

INVERSE_TOL = 1e-8


# --------------------------------------------------------------------------
# noise-coefficient inversion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InverseReport:
    max_forward_residual: float     # |g(t, y, h_inv(t, y, zt)) - zt|
    max_backward_residual: float    # |h_inv(t, y, g(t, y, z)) - z|
    estimated_h_lip_z_sq: float
    h_contraction_flagged: bool     # squared zt-slope of the inverse >= 1
    probes: int

    @property
    def ok(self) -> bool:
        return max(self.max_forward_residual, self.max_backward_residual) <= INVERSE_TOL


def validate_inverse(g_part, h_inv, probe_count: int = 1000, seed: int = 0,
                     radius: float = 5.0, t_range=(0.0, 1.0)) -> InverseReport:
    """Probe both composition directions of a declared inverse and estimate
    the inverse's squared slope in its last argument.

    Report-only; downstream constructions require ``report.ok``.  A squared
    slope >= 1 is flagged but not rejected: for a strictly monotone scalar
    coefficient the slopes of g and its inverse multiply to one, so both
    cannot be contractions at once, yet the discrete construction remains
    well defined.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(t_range[0], t_range[1], size=4)
    fwd = bwd = 0.0
    h_slope = 0.0
    for t in ts:
        y = rng.uniform(-radius, radius, size=probe_count)
        zt = rng.uniform(-radius, radius, size=probe_count)
        z = rng.uniform(-radius, radius, size=probe_count)
        back = np.asarray(h_inv(t, y, zt), dtype=float)
        fwd = max(fwd, float(np.max(np.abs(
            np.asarray(g_part(t, y, back), dtype=float) - zt))))
        image = np.asarray(g_part(t, y, z), dtype=float)
        bwd = max(bwd, float(np.max(np.abs(
            np.asarray(h_inv(t, y, image), dtype=float) - z))))
        zt2 = zt + rng.uniform(1e-6, 1.0, size=probe_count)
        dh = np.asarray(h_inv(t, y, zt2), dtype=float) - back
        h_slope = max(h_slope, float(np.max(np.abs(dh / (zt2 - zt)))))
    return InverseReport(
        max_forward_residual=fwd,
        max_backward_residual=bwd,
        estimated_h_lip_z_sq=h_slope * h_slope,
        h_contraction_flagged=h_slope * h_slope >= 1.0,
        probes=probe_count * 4,
    )


@dataclass(frozen=True)
class InvertiblePair:
    """A noise coefficient together with its declared z-inverse."""

    driver: DriverSpec
    h_inv: object
    h_lip_z_sq: float | None = None
    validation: InverseReport | None = None

    def validated(self, probe_count: int = 1000, seed: int = 0,
                  radius: float = 5.0) -> "InvertiblePair":
        report = validate_inverse(self.driver.g, self.h_inv, probe_count,
                                  seed, radius)
        declared = self.h_lip_z_sq if self.h_lip_z_sq is not None \
            else report.estimated_h_lip_z_sq
        return InvertiblePair(self.driver, self.h_inv, declared, report)

    @property
    def flagged(self) -> bool:
        if self.h_lip_z_sq is not None:
            return self.h_lip_z_sq >= 1.0
        return bool(self.validation and self.validation.h_contraction_flagged)


# --------------------------------------------------------------------------
# targets
# --------------------------------------------------------------------------

def interpolate_target(envelope: EnvelopeResult, i0: int, lam: float):
    """Nodewise target lam * Ymin(i0) + (1 - lam) * Ymax(i0).

    lam = 0 reproduces the maximal side bitwise, lam = 1 the minimal side;
    every value in between sits inside the band by convexity.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"interpolation weight {lam} outside [0, 1]")
    if not 0 <= i0 <= envelope.grid.steps:
        raise ValueError(f"step index {i0} out of range")
    y_min, y_max = envelope.band_at(i0)
    return lam * y_min + (1.0 - lam) * y_max


# --------------------------------------------------------------------------
# lattice glue
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GluedSolution:
    """Three-segment solution on the full product node space.

    ``tau_index`` and ``side_is_max`` are per-path (rows: forward-noise
    coordinates, cols: backward-noise coordinates).  ``assembled_y(i)`` and
    ``assembled_z(i)`` materialise the glued field one step at a time.
    """

    grid: TimeGrid
    i0: int
    eta: np.ndarray
    lam: float | None
    segment1_y: list
    segment1_z: list
    segment2: ForwardSegment
    envelope: EnvelopeResult
    tau_index: np.ndarray
    side_is_max: np.ndarray
    snap_tol: float
    residual_off_splice: float
    splice_mismatch: float
    ambiguous_exits: int

    @property
    def steps(self) -> int:
        return self.grid.steps

    def _tail_field(self, i: int, which: str) -> np.ndarray:
        env_max = self.envelope.maximal
        env_min = self.envelope.minimal
        n = self.steps
        fmax = _expand_to_product(
            np.asarray((env_max.y if which == "y" else env_max.z)[i]), i, n)
        fmin = _expand_to_product(
            np.asarray((env_min.y if which == "y" else env_min.z)[i]), i, n)
        return np.where(self.side_is_max, fmax, fmin)

    def assembled_y(self, i: int) -> np.ndarray:
        n = self.steps
        if i < self.i0:
            return _expand_to_product(self.segment1_y[i], i, n)
        middle = self.segment2.ys[i - self.i0]
        return np.where(self.tau_index <= i, self._tail_field(i, "y"), middle)

    def assembled_z(self, i: int) -> np.ndarray:
        n = self.steps
        if i < self.i0:
            return _expand_to_product(self.segment1_z[i], i, n)
        if i == n:
            return self._tail_field(i, "z")
        middle = self.segment2.dw_integrands[i - self.i0]
        return np.where(self.tau_index <= i, self._tail_field(i, "z"), middle)

    def assembled_fields(self):
        ys = [self.assembled_y(i) for i in range(self.steps + 1)]
        zs = [self.assembled_z(i) for i in range(self.steps + 1)]
        return ys, zs

    def tau_times(self) -> np.ndarray:
        return self.tau_index * self.grid.dt


def _expanded_band(envelope: EnvelopeResult, i: int, n: int):
    y_min = _expand_to_product(np.asarray(envelope.y_min[i]), i, n)
    y_max = _expand_to_product(np.asarray(envelope.y_max[i]), i, n)
    return y_min, y_max


def _backward_step_residual(driver: DriverSpec, grid: TimeGrid, i: int,
                            y_i, z_i, y_next, z_next) -> np.ndarray:
    """Nodewise defect of the right-endpoint backward identity on the full
    product space at step i -> i+1."""
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    t_next = grid.time(i + 1)
    fv = np.asarray(driver.f(t_next, y_next, z_next), dtype=float)
    gv = np.broadcast_to(np.asarray(driver.g(t_next, y_next, z_next),
                                    dtype=float), y_next.shape)
    r_sign = _col_signs(n, i)[None, :]
    s_sign = _col_signs(n, i)[:, None]
    rhs = y_next + dt * fv + gv * r_sign * sq - z_i * s_sign * sq
    return np.abs(y_i - rhs)


def glue_solution(driver: DriverSpec, inv_pair: InvertiblePair,
                  terminal: TerminalSpec, i0: int, eta: np.ndarray,
                  envelope: EnvelopeResult, grid: TimeGrid,
                  snap_tol: float | None = None,
                  lam: float | None = None) -> GluedSolution:
    """Glue a backward segment, a swapped-role forward segment, and an
    envelope tail into one solution hitting ``eta`` at step ``i0``.

    ``eta`` must lie inside the closed envelope band nodewise; the declared
    inverse must validate to 1e-8.  The exit index per path is the first
    step at which the forward value leaves the open band shrunk by
    ``snap_tol``; the tail follows the side the value is nearest to
    (ties go to the maximal side, and exits near both sides at once are
    counted in ``ambiguous_exits``).
    """
    from .tree import leaf_increments

    n = grid.steps
    if envelope.maximal.backend != "tree":
        raise ValueError("lattice glue needs a tree-backend envelope")
    xi = np.asarray(terminal.evaluate(leaf_increments(grid)), dtype=float)
    if float(np.max(np.abs(np.asarray(envelope.y_max[n]).ravel() - xi))) > 0.0:
        raise ValueError("envelope was built for a different terminal")
    pair = inv_pair if inv_pair.validation is not None else inv_pair.validated()
    if not pair.validation.ok:
        raise InversionError(
            "declared inverse fails validation: forward residual "
            f"{pair.validation.max_forward_residual:.3e}, backward "
            f"{pair.validation.max_backward_residual:.3e}"
        )
    eta = np.asarray(eta, dtype=float)
    y_min0, y_max0 = envelope.band_at(i0)
    scale = 1.0 + float(np.max(np.abs(y_max0)))
    slack = 1e-12 * scale
    if np.any(eta < y_min0 - slack) or np.any(eta > y_max0 + slack):
        raise ValueError("target field leaves the envelope band at step i0")
    if snap_tol is None:
        snap_tol = 10.0 * grid.dt * (1.0 + fld.max_abs(envelope.y_max))

    seg1_y, seg1_z = _backward_sweep(driver, grid, i0, eta)
    segment2 = solve_forward_swapped(driver, pair.h_inv, eta, grid, i0)

    # first exit from the shrunk open band, else the horizon
    tau = np.full((2 ** n, 2 ** n), n, dtype=np.int64)
    done = np.zeros((2 ** n, 2 ** n), dtype=bool)
    for j in range(i0, n):
        y_min_j, y_max_j = _expanded_band(envelope, j, n)
        outside = ~((segment2.ys[j - i0] > y_min_j + snap_tol)
                    & (segment2.ys[j - i0] < y_max_j - snap_tol))
        newly = outside & ~done
        tau[newly] = j
        done |= outside
    # side rule at the exit step: maximal side when the forward value sits
    # within the snap tolerance of it, else minimal
    near_max = np.zeros((2 ** n, 2 ** n), dtype=bool)
    near_min = np.zeros((2 ** n, 2 ** n), dtype=bool)
    for j in range(i0, n + 1):
        sel = tau == j
        if not np.any(sel):
            continue
        y_min_j, y_max_j = _expanded_band(envelope, j, n)
        y_j = segment2.ys[j - i0]
        near_max[sel] = y_j[sel] >= (y_max_j - snap_tol)[sel]
        near_min[sel] = y_j[sel] <= (y_min_j + snap_tol)[sel]
    side_is_max = near_max
    ambiguous = int(np.sum(near_max & near_min & (tau < n)))

    sol = GluedSolution(
        grid=grid, i0=i0, eta=eta, lam=lam,
        segment1_y=seg1_y, segment1_z=seg1_z, segment2=segment2,
        envelope=envelope, tau_index=tau, side_is_max=side_is_max,
        snap_tol=snap_tol, residual_off_splice=np.nan, splice_mismatch=np.nan,
        ambiguous_exits=ambiguous,
    )
    residual, splice = _glued_diagnostics(sol, driver)
    return GluedSolution(
        grid=grid, i0=i0, eta=eta, lam=lam,
        segment1_y=seg1_y, segment1_z=seg1_z, segment2=segment2,
        envelope=envelope, tau_index=tau, side_is_max=side_is_max,
        snap_tol=snap_tol, residual_off_splice=residual,
        splice_mismatch=splice, ambiguous_exits=ambiguous,
    )


def _glued_diagnostics(sol: GluedSolution, driver: DriverSpec):
    """Off-splice residual (each segment against its own recursion) and the
    worst per-path splice jump."""
    grid = sol.grid
    n = grid.steps
    i0 = sol.i0
    worst = 0.0
    # backward piece, checked on its own node spaces (valid for every path
    # off the splice; paths exiting immediately splice at step i0 - 1)
    for i in range(i0):
        res = _seg1_step_residual(driver, grid, i, sol.segment1_y, sol.segment1_z, n)
        worst = max(worst, float(np.max(res)))
    # forward piece between i0 and each path's exit
    sq = np.sqrt(grid.dt)
    for j in range(i0, n):
        k = j - i0
        y = sol.segment2.ys[k]
        y3 = y.reshape(2 ** j, 2, 2 ** (n - j - 1), 2 ** n)
        a = np.broadcast_to(
            (0.5 * (y3[:, 1] + y3[:, 0]))[:, None],
            (2 ** j, 2, 2 ** (n - j - 1), 2 ** n),
        ).reshape(2 ** n, 2 ** n)
        zt = sol.segment2.zt[k]
        c = sol.segment2.dw_integrands[k]
        fv = np.asarray(driver.f(grid.time(j), a, zt), dtype=float)
        s_sign = _col_signs(n, j)[:, None]
        r_sign = _col_signs(n, j)[None, :]
        rhs = a - grid.dt * fv - zt * r_sign * sq + FORWARD_SIGN * c * s_sign * sq
        res = np.abs(sol.segment2.ys[k + 1] - rhs)
        live = sol.tau_index > j          # step internal to the middle piece
        if np.any(live):
            worst = max(worst, float(np.max(res[live])))
    # envelope tail against the regularized drift that generated it
    for side, mask in ((sol.envelope.maximal, sol.side_is_max),
                       (sol.envelope.minimal, ~sol.side_is_max)):
        spec = side.final_reg_spec
        for i in range(i0, n):
            in_tail = (sol.tau_index <= i) & mask
            if not np.any(in_tail):
                continue
            y_i = _expand_to_product(np.asarray(side.y[i]), i, n)
            z_i = _expand_to_product(np.asarray(side.z[i]), i, n)
            y_n = _expand_to_product(np.asarray(side.y[i + 1]), i + 1, n)
            z_n = _expand_to_product(np.asarray(side.z[i + 1]), i + 1, n)
            res = _backward_step_residual(spec, grid, i, y_i, z_i, y_n, z_n)
            worst = max(worst, float(np.max(res[in_tail])))
    # splice jumps: forward value replaced by the tail at the exit step
    splice = 0.0
    for j in range(i0, n + 1):
        sel = sol.tau_index == j
        if not np.any(sel):
            continue
        tail = sol._tail_field(j, "y")
        mid = sol.segment2.ys[j - i0]
        splice = max(splice, float(np.max(np.abs(tail - mid)[sel])))
    return worst, splice


def _seg1_step_residual(driver, grid, i, ys, zs, n):
    dt = grid.dt
    sq = np.sqrt(dt)
    t_next = grid.time(i + 1)
    y_next, z_next = ys[i + 1], zs[i + 1]
    fv = np.asarray(driver.f(t_next, y_next, z_next), dtype=float)
    gv = np.broadcast_to(np.asarray(driver.g(t_next, y_next, z_next),
                                    dtype=float), y_next.shape)
    rhs = (y_next + dt * fv).reshape(2 ** i, 2, 1, -1) \
        + gv.reshape(2 ** i, 2, 1, -1) * sq \
        * np.array([-1.0, 1.0])[None, None, :, None]
    y_i = ys[i].reshape(2 ** i, 1, 2, -1)
    z_i = zs[i].reshape(2 ** i, 1, 2, -1)
    s_sign = np.array([-1.0, 1.0])[None, :, None, None]
    return np.abs(y_i + z_i * s_sign * sq - rhs)


# --------------------------------------------------------------------------
# deterministic specialisation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarGlued:
    """Glued scalar path for the zero-noise specialisation (Z == 0)."""

    grid: TimeGrid
    i0: int
    eta: float
    lam: float | None
    y: np.ndarray
    tau_index: int
    side_is_max: bool
    snap_tol: float
    residual_off_splice: float
    splice_mismatch: float

    @property
    def tau_time(self) -> float:
        return self.tau_index * self.grid.dt

    @property
    def y0(self) -> float:
        return float(self.y[0])


def glue_deterministic(driver: DriverSpec, terminal: TerminalSpec,
                       grid: TimeGrid, t0: float,
                       eta: float | None = None, lam: float | None = None,
                       envelope: EnvelopeResult | None = None,
                       snap_tol: float = 0.0,
                       schedule=None, tol: float = 0.0,
                       conv_tol: float | None = None) -> ScalarGlued:
    """Scalar glue for the deterministic specialisation.

    Backward piece on [0, t0] uses the right-endpoint recursion
    y_i = y_{i+1} + dt f(t_{i+1}, y_{i+1}); the forward piece runs
    y_{j+1} = y_j - dt f(t_j, y_j) until it leaves the open band; the tail
    is the envelope side hit.  Exactly one of ``eta`` and ``lam`` must be
    given.  The default snap tolerance is zero: the deterministic exits of
    interest approach the band edge tangentially.
    """
    if (eta is None) == (lam is None):
        raise ValueError("give exactly one of eta and lam")
    i0 = int(round(t0 / grid.dt))
    if abs(i0 * grid.dt - t0) > 1e-9 * max(1.0, abs(t0)):
        raise ValueError(f"t0={t0} is not a grid node")
    if envelope is None:
        envelope = compute_envelope(driver, terminal, grid, schedule=schedule,
                                    tol=tol, backend="scalar", conv_tol=conv_tol)
    y_min = np.asarray(envelope.y_min, dtype=float)
    y_max = np.asarray(envelope.y_max, dtype=float)
    if lam is not None:
        eta = float(lam * y_min[i0] + (1.0 - lam) * y_max[i0])
    scale = 1.0 + float(np.max(np.abs(y_max)))
    if not (y_min[i0] - 1e-12 * scale <= eta <= y_max[i0] + 1e-12 * scale):
        raise ValueError("target value leaves the envelope band at t0")

    n = grid.steps
    y = _scalar_solve(driver.f, grid, eta, start=i0)
    tau_index = n
    for j in range(i0, n):
        if not (y_min[j] + snap_tol < y[j] < y_max[j] - snap_tol):
            tau_index = j
            break
        y[j + 1] = scalar_step(driver.f, grid, y, j, -1.0)
    mid_at_tau = y[tau_index]
    side_is_max = bool(mid_at_tau >= y_max[tau_index] - snap_tol)
    tail = y_max if side_is_max else y_min
    splice = abs(float(tail[tau_index]) - float(mid_at_tau))
    y[tau_index:] = tail[tau_index:]

    residual = _scalar_glued_residual(driver, envelope, grid, y, i0, tau_index,
                                      side_is_max)
    return ScalarGlued(grid=grid, i0=i0, eta=float(eta), lam=lam, y=y,
                       tau_index=tau_index, side_is_max=side_is_max,
                       snap_tol=snap_tol, residual_off_splice=residual,
                       splice_mismatch=splice)


def _scalar_glued_residual(driver, envelope, grid, y, i0, tau_index,
                           side_is_max) -> float:
    """Worst off-splice defect of the scalar glued path, each regime against
    its own recursion (tail against the envelope's regularized drift)."""
    side = envelope.maximal if side_is_max else envelope.minimal
    reg_f = side.final_reg_spec.f
    worst = 0.0
    for i in range(grid.steps):
        if tau_index == i0 and i == i0 - 1:
            continue       # immediate exit: the splice sits below t0
        if i < i0:
            pred = scalar_step(driver.f, grid, y, i, 1.0)
            worst = max(worst, abs(y[i] - pred))
        elif i + 1 < tau_index:
            pred = scalar_step(driver.f, grid, y, i, -1.0)
            worst = max(worst, abs(y[i + 1] - pred))
        elif i >= tau_index:
            pred = scalar_step(reg_f, grid, y, i, 1.0)
            worst = max(worst, abs(y[i] - pred))
        # the single step entering tau_index is the splice
    return worst


# --------------------------------------------------------------------------
# continuum sampling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuumRecord:
    lam: float
    y0: float
    tau_mean: float
    residual_off_splice: float
    splice_mismatch: float
    sandwich_ok: bool


@dataclass(frozen=True)
class ContinuumReport:
    grid: TimeGrid
    records: list
    pairwise_distances: np.ndarray
    distinct_pairs: int
    distinct_threshold: float
    solutions: list

    @property
    def all_sandwich_ok(self) -> bool:
        return all(r.sandwich_ok for r in self.records)


def continuum_sample(driver: DriverSpec, terminal: TerminalSpec,
                     grid: TimeGrid, t0: float, lambdas,
                     backend: str = "scalar",
                     inv_pair: InvertiblePair | None = None,
                     envelope: EnvelopeResult | None = None,
                     snap_tol: float | None = None,
                     schedule=None, tol: float = 0.0,
                     conv_tol: float | None = None,
                     sandwich_tol: float | None = None) -> ContinuumReport:
    """Glue one solution per interpolation weight and report pairwise
    distinctness (sup-node distance beyond 10 dt) plus per-solution
    diagnostics."""
    lambdas = [float(l) for l in lambdas]
    if len(set(lambdas)) != len(lambdas):
        raise ValueError("interpolation weights must be distinct")
    if any(not 0.0 <= l <= 1.0 for l in lambdas):
        raise ValueError("interpolation weights must lie in [0, 1]")
    if envelope is None:
        envelope = compute_envelope(driver, terminal, grid, schedule=schedule,
                                    tol=tol, backend=backend, conv_tol=conv_tol)
    i0 = int(round(t0 / grid.dt))
    solutions = []
    records = []
    fields = []
    for lam in lambdas:
        if backend == "scalar":
            glued = glue_deterministic(
                driver, terminal, grid, t0, lam=lam, envelope=envelope,
                snap_tol=0.0 if snap_tol is None else snap_tol,
            )
            y_field = glued.y
            tau_mean = glued.tau_time
        else:
            if inv_pair is None:
                raise ValueError("the lattice glue needs an invertible pair")
            eta = interpolate_target(envelope, i0, lam)
            glued = glue_solution(driver, inv_pair, terminal, i0, eta,
                                  envelope, grid, snap_tol=snap_tol, lam=lam)
            y_field, _ = glued.assembled_fields()
            tau_mean = float(np.mean(glued.tau_times()))
        check = sandwich_check(y_field, envelope, tol=sandwich_tol)
        solutions.append(glued)
        fields.append(y_field)
        records.append(ContinuumRecord(
            lam=lam, y0=float(np.mean(fld.step_values(y_field, 0))),
            tau_mean=tau_mean,
            residual_off_splice=glued.residual_off_splice,
            splice_mismatch=glued.splice_mismatch,
            sandwich_ok=bool(check.ok),
        ))
    m = len(lambdas)
    distances = np.zeros((m, m))
    threshold = 10.0 * grid.dt
    distinct = 0
    for i in range(m):
        for j in range(i + 1, m):
            d = fld.sup_distance(fields[i], fields[j])
            distances[i, j] = distances[j, i] = d
            if d > threshold:
                distinct += 1
    return ContinuumReport(grid=grid, records=records,
                           pairwise_distances=distances,
                           distinct_pairs=distinct,
                           distinct_threshold=threshold,
                           solutions=solutions)


def write_continuum_csv(path, report: ContinuumReport) -> None:
    """CSV columns: (lambda, Y0, tauMean, residualOffSplice, spliceMismatch,
    sandwichPass)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "Y0", "tauMean", "residualOffSplice",
                         "spliceMismatch", "sandwichPass"])
        for r in report.records:
            writer.writerow([
                f"{r.lam:.17g}", f"{r.y0:.17g}", f"{r.tau_mean:.17g}",
                f"{r.residual_off_splice:.17g}", f"{r.splice_mismatch:.17g}",
                str(r.sandwich_ok).lower(),
            ])
