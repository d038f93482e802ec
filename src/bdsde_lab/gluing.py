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

* backward segments (initial piece, envelope tail): the lattice solver's
  one-step backward identity, with right-endpoint driver evaluation; the
  tail is checked by that identity against the envelope side's
  ``final_reg_spec``, the regularized driver that generated it;
* forward segment: left-endpoint evaluation as in the swapped-role solver.

Each path has a single splice step, where the forward value is replaced by
the envelope side it exited toward; the jump there is reported separately
as ``splice_mismatch`` and is not bounded by any check.  It can be far
larger than the snap tolerance: ``tree._forward_step`` forms its
forward-noise integrand as a difference that is exactly zero, so the
forward segment never picks up the forward noise and is not adapted, and
its exit value can land far from the side it is spliced to (with
``f_sqrt_pos(2)`` + ``g_linear(0.9)``, N = 8, t0 = 0.5 and snap 0.01 the
jump is 0.93-0.95 for ``call(0.1)`` at weights 0.3-0.7, and 1.01 for
``w_terminal`` at weight 0.52).  Everywhere else the assembled field
satisfies its recursion to round-off by construction, and a NaN defect
there makes the residual NaN.

The snap rule exists because a discrete path generically overshoots the
band edge rather than touching it; exits are detected against the band
shrunk by ``snap_tol`` on each side.  Transversal (upper-side) exits favour
the default ``10 dt (1 + sup |Ymax|)``; tangential approaches (a path
sliding onto an absorbing lower edge) are better served by a tiny or zero
snap tolerance, which the callers of the deterministic case use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import fields as fld
from .core import DriverSpec, TerminalSpec, TimeGrid, scalar_drift
from .envelope import (EnvelopeResult, SandwichReport, SandwichScan,
                       _sandwich_tol, _scalar_solve, compute_envelope,
                       sandwich_check)
from .errors import CapacityError, InversionError
from .tree import (
    ForwardSegment,
    LatticeField,
    _backward_defects,
    _backward_sweep,
    _expand,
    _forward_defects,
    _terminal_values,
    _worst,
    solve_forward_swapped,
)

INVERSE_TOL = 1e-8
# Bytes a lattice continuum run may need at once: every retained glued
# solution plus one glue's working arrays over D, checked before the
# envelope is computed.
GLUE_MAX_BYTES = 2 ** 31
# float64 arrays over D that one glue and the continuum scan hold at their
# peak besides the retained solutions (tracemalloc measured 13.6 at N = 10,
# i0 = 0 and 5)
GLUE_WORK_ARRAYS = 14


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
                     radius: float = 5.0) -> InverseReport:
    """Probe both composition directions of a declared inverse and estimate
    the inverse's squared slope in its last argument, at four times drawn
    from [0, 1].

    Report-only; downstream constructions require ``report.ok``.  A squared
    slope >= 1 is flagged but not rejected: for a strictly monotone scalar
    coefficient the slopes of g and its inverse multiply to one, so both
    cannot be contractions at once, yet the discrete construction remains
    well defined.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 1.0, size=4)
    # per probe time; folded so that a NaN anywhere reads NaN, not ok
    fwd, bwd, slopes = [], [], []
    for t in ts:
        y = rng.uniform(-radius, radius, size=probe_count)
        zt = rng.uniform(-radius, radius, size=probe_count)
        z = rng.uniform(-radius, radius, size=probe_count)
        back = np.asarray(h_inv(t, y, zt), dtype=float)
        fwd.append(float(np.max(np.abs(
            np.asarray(g_part(t, y, back), dtype=float) - zt))))
        image = np.asarray(g_part(t, y, z), dtype=float)
        bwd.append(float(np.max(np.abs(
            np.asarray(h_inv(t, y, image), dtype=float) - z))))
        zt2 = zt + rng.uniform(1e-6, 1.0, size=probe_count)
        dh = np.asarray(h_inv(t, y, zt2), dtype=float) - back
        slopes.append(float(np.max(np.abs(dh / (zt2 - zt)))))
    h_slope = _worst(slopes)
    return InverseReport(
        max_forward_residual=_worst(fwd),
        max_backward_residual=_worst(bwd),
        estimated_h_lip_z_sq=h_slope * h_slope,
        h_contraction_flagged=h_slope * h_slope >= 1.0,
        probes=probe_count * 4,
    )


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
    """Three-segment solution.

    Steps before ``i0`` hold the backward piece on the lattice node spaces.
    From ``i0`` on, the forward piece and the envelope tail depend only on
    the s coordinates and on r_{i0}..r_{N-1}, so a path is a node of
    D = ``(2**N, 2**(N-i0))``; ``tau`` (exit step) and ``side_is_max`` (tail
    side) live on D.  ``step_field(i, which)`` gives step i on the node
    space it is stored on; no array of the solution is larger than D.
    """

    grid: TimeGrid
    i0: int
    eta: np.ndarray
    lam: float | None
    segment1_y: LatticeField
    segment1_z: LatticeField
    segment2: ForwardSegment
    envelope: EnvelopeResult
    tau: np.ndarray
    side_is_max: np.ndarray
    snap_tol: float
    residual_off_splice: float
    splice_mismatch: float
    ambiguous_exits: int

    @property
    def steps(self) -> int:
        return self.grid.steps

    def step_field(self, i: int, which: str = "y") -> np.ndarray:
        """Y (``which`` "y") or Z at step i on the node space it is stored
        on: the lattice node space before ``i0``, D from ``i0`` on."""
        if i < self.i0:
            return (self.segment1_y if which == "y" else self.segment1_z)[i]
        fmax, fmin = (
            _expand(np.asarray((side.y if which == "y" else side.z)[i]),
                    self.tau.shape)
            for side in (self.envelope.maximal, self.envelope.minimal))
        tail = np.where(self.side_is_max, fmax, fmin)
        if which == "z" and i == self.steps:
            return tail
        middle = (self.segment2.ys if which == "y"
                  else self.segment2.dw_integrands)[i - self.i0]
        return np.where(self.tau <= i, tail, _expand(middle, self.tau.shape))

    def assembled_fields(self):
        """Every step of Y and of Z, each on its stored node space."""
        ys = [self.step_field(i, "y") for i in range(self.steps + 1)]
        zs = [self.step_field(i, "z") for i in range(self.steps + 1)]
        return ys, zs


def glue_solution(driver: DriverSpec, h_inv, terminal: TerminalSpec, i0: int,
                  eta: np.ndarray, envelope: EnvelopeResult, grid: TimeGrid,
                  snap_tol: float | None = None,
                  lam: float | None = None) -> GluedSolution:
    """Glue a backward segment, a swapped-role forward segment, and an
    envelope tail into one solution hitting ``eta`` at step ``i0``.

    ``eta`` must lie inside the closed envelope band nodewise; ``h_inv``
    must validate as the z-inverse of ``driver.g`` (else InversionError).
    The exit index per path is the first step at which the forward value
    leaves the open band shrunk by ``snap_tol``; the tail follows the side
    the value is nearest to (ties go to the maximal side, and exits near
    both sides at once are counted in ``ambiguous_exits``).
    """
    n = grid.steps
    if envelope.maximal.backend != "tree":
        raise ValueError("lattice glue needs a tree-backend envelope")
    xi = _terminal_values(terminal, grid)
    if float(np.max(np.abs(np.asarray(envelope.y_max[n]).ravel() - xi))) > 0.0:
        raise ValueError("envelope was built for a different terminal")
    report = validate_inverse(driver.g, h_inv)
    if not report.ok:
        raise InversionError(
            "declared inverse fails validation: forward residual "
            f"{report.max_forward_residual:.3e}, backward "
            f"{report.max_backward_residual:.3e}"
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
    segment2 = solve_forward_swapped(driver, h_inv, eta, grid, i0)

    # per path of D: the first exit from the shrunk open band (else the
    # horizon), and the side rule at the exit step: maximal side when the
    # forward value sits within the snap tolerance of it, else minimal;
    # the splice replaces the forward value by that side's value there
    d_shape = (2 ** n, 2 ** (n - i0))
    tau = np.full(d_shape, n, dtype=np.int64)
    side_is_max = np.zeros(d_shape, dtype=bool)
    near_min = np.zeros(d_shape, dtype=bool)
    splices = []
    for j in range(i0, n + 1):
        y_j = _expand(segment2.ys[j - i0], d_shape)
        lo, hi = (_expand(b, d_shape) for b in envelope.band_at(j))
        if j < n:
            outside = ~((y_j > lo + snap_tol) & (y_j < hi - snap_tol))
            tau[outside & (tau == n)] = j
        sel = tau == j
        if not np.any(sel):
            continue
        side_is_max[sel] = y_j[sel] >= (hi - snap_tol)[sel]
        near_min[sel] = y_j[sel] <= (lo + snap_tol)[sel]
        tail = np.where(side_is_max, hi, lo)
        splices.append(float(np.max(np.abs(tail - y_j)[sel])))
    # counted over whole paths (s_0..s_{N-1}, r_0..r_{N-1}): a node of D
    # stands for the 2**i0 values of r_0..r_{i0-1}, which it does not store
    ambiguous = int(np.sum(side_is_max & near_min & (tau < n))) * 2 ** i0

    # off-splice residual, each segment against its own recursion: the
    # backward piece on its own node spaces (valid for every path off the
    # splice; paths exiting immediately splice at step i0 - 1)
    defects = [float(np.max(defect)) for _, defect
               in _backward_defects(driver, grid, seg1_y, seg1_z, range(i0))]
    # the forward piece between i0 and each path's exit
    for j, defect in _forward_defects(segment2, driver):
        live = tau > j
        if np.any(live):
            defects.append(float(np.max(_expand(defect, d_shape)[live])))
    # the envelope tail against the regularized drift that generated it,
    # from the first step a path of the side is in it
    for side, mask in ((envelope.maximal, side_is_max),
                       (envelope.minimal, ~side_is_max)):
        first = int(np.min(tau, where=mask, initial=n))
        for i, defect in _backward_defects(side.final_reg_spec, grid, side.y,
                                           side.z, range(first, n)):
            in_tail = (tau <= i) & mask
            defects.append(float(np.max(_expand(defect, d_shape)[in_tail])))

    return GluedSolution(
        grid=grid, i0=i0, eta=eta, lam=lam,
        segment1_y=seg1_y, segment1_z=seg1_z, segment2=segment2,
        envelope=envelope, tau=tau, side_is_max=side_is_max,
        snap_tol=snap_tol, residual_off_splice=_worst(defects),
        splice_mismatch=_worst(splices), ambiguous_exits=ambiguous,
    )


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


def _t0_step(grid: TimeGrid, t0: float) -> int:
    """Step index of the glue time ``t0``, a finite grid node in [0, T]."""
    i0 = int(round(t0 / grid.dt)) if math.isfinite(t0) else -1
    on_node = abs(i0 * grid.dt - t0) <= 1e-9 * max(1.0, abs(t0))
    if not (0 <= i0 <= grid.steps and on_node):
        raise ValueError(f"t0={t0} is not a grid node in [0, {grid.horizon}]")
    return i0


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
    i0 = _t0_step(grid, t0)
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
    step, dt, t = scalar_drift(driver.f), grid.dt, memoryview(grid.nodes)
    lo, hi, out = memoryview(y_min), memoryview(y_max), memoryview(y)
    tau_index = n
    v = out[i0]
    for j in range(i0, n):
        if not (lo[j] + snap_tol < v < hi[j] - snap_tol):
            tau_index = j
            break
        v -= dt * step(t[j], v)
        out[j + 1] = v
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
    dt, t, at = grid.dt, memoryview(grid.nodes), memoryview(y)
    defects = []
    # backward piece (an immediate exit splices at i0 - 1), then the
    # forward piece up to the step entering tau_index, which is the
    # splice, then the tail
    regimes = ((driver.f, range(i0 - 1 if tau_index == i0 else i0), 1),
               (driver.f, range(i0, tau_index - 1), -1),
               (side.final_reg_spec.f, range(tau_index, grid.steps), 1))
    for part, steps, sign in regimes:
        step = scalar_drift(part)
        for i in steps:
            if sign > 0:
                pred = at[i + 1] + dt * step(t[i + 1], at[i + 1])
                defects.append(abs(at[i] - pred))
            else:
                pred = at[i] - dt * step(t[i], at[i])
                defects.append(abs(at[i + 1] - pred))
    return _worst(defects)


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
    sandwich: SandwichReport    # node on the stored space of its step

    @property
    def sandwich_ok(self) -> bool:
        return bool(self.sandwich.ok)


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


def _mean(arr: np.ndarray, scale: float = 1.0) -> float:
    """Mean of ``scale * arr`` as its correctly rounded sum (``math.fsum``)
    over the element count.  Repeating every value 2**k times scales the
    exact sum by 2**k, so the mean is the same on any node space the values
    are expanded to.  Rows are converted to Python floats one at a time."""
    return math.fsum(chain.from_iterable(
        (row * scale).tolist() for row in arr)) / arr.size


def _check_glue_bytes(n: int, i0: int, count: int) -> None:
    """Raise ``CapacityError`` unless ``count`` retained glued lattice
    solutions plus one glue's working arrays fit in ``GLUE_MAX_BYTES``,
    counted from the shapes they are stored on: per solution, eta and the
    backward piece (2 i0 + 2 lattice steps of 2**N values, an upper bound
    for steps stored by classes of rows), the forward
    steps i0..N and the two integrands of steps i0..N-1 (2**j rows of
    2**(N-i0) each), ``tau`` (int64) and ``side_is_max`` (bool) on D."""
    cols = 2 ** (n - i0)
    d = 2 ** n * cols
    floats = ((2 * i0 + 2) * 2 ** n + (2 ** (n + 1) - 2 ** i0) * cols
              + 2 * (2 ** n - 2 ** i0) * cols)
    kept = 8 * floats + (8 + 1) * d       # tau int64, side_is_max bool
    work = 8 * GLUE_WORK_ARRAYS * d
    need = count * kept + work
    if need > GLUE_MAX_BYTES:
        raise CapacityError(
            f"{count} glued solutions at N = {n}, i0 = {i0} keep {count * kept} "
            f"bytes and one glue works on {work} more: {need} bytes, cap is "
            f"{GLUE_MAX_BYTES}"
        )


def _lattice_scan(solutions: list, envelope: EnvelopeResult, tol: float):
    """Sandwich reports and pairwise sup-node distances of glued lattice
    solutions from one pass over the steps, each step on the node space it
    is stored on; a report's node indexes the stored array of its step."""
    n = envelope.grid.steps
    m = len(solutions)
    scans = [SandwichScan(envelope) for _ in solutions]
    distances = np.zeros((m, m))
    for i in range(n + 1):
        steps = [g.step_field(i) for g in solutions]
        for scan, y in zip(scans, steps):
            scan.add(i, y)
        for a in range(m):
            for b in range(a + 1, m):
                d = np.maximum(distances[a, b], np.max(np.abs(steps[a] - steps[b])))
                distances[a, b] = distances[b, a] = d
    return [scan.report(tol) for scan in scans], distances


def continuum_sample(driver: DriverSpec, terminal: TerminalSpec,
                     grid: TimeGrid, t0: float, lambdas,
                     backend: str = "scalar",
                     h_inv=None,
                     envelope: EnvelopeResult | None = None,
                     snap_tol: float | None = None,
                     schedule=None, tol: float = 0.0,
                     conv_tol: float | None = None,
                     sandwich_tol: float | None = None) -> ContinuumReport:
    """Glue one solution per interpolation weight and report pairwise
    distinctness (sup-node distance beyond 10 dt) plus per-solution
    diagnostics.  On the lattice, ``h_inv`` is the z-inverse of ``driver.g``
    each glue checks and runs, and a run whose glued solutions and working
    arrays would exceed ``GLUE_MAX_BYTES`` raises ``CapacityError`` before
    anything is computed."""
    lambdas = [float(l) for l in lambdas]
    if len(set(lambdas)) != len(lambdas):
        raise ValueError("interpolation weights must be distinct")
    if any(not 0.0 <= l <= 1.0 for l in lambdas):
        raise ValueError("interpolation weights must lie in [0, 1]")
    i0 = _t0_step(grid, t0)
    if backend != "scalar":
        _check_glue_bytes(grid.steps, i0, len(lambdas))
    if envelope is None:
        envelope = compute_envelope(driver, terminal, grid, schedule=schedule,
                                    tol=tol, backend=backend, conv_tol=conv_tol)
    if sandwich_tol is None:
        sandwich_tol = _sandwich_tol(envelope)
    m = len(lambdas)
    if backend == "scalar":
        solutions = [glue_deterministic(
            driver, terminal, grid, t0, lam=lam, envelope=envelope,
            snap_tol=0.0 if snap_tol is None else snap_tol,
        ) for lam in lambdas]
        fields = [glued.y for glued in solutions]
        checks = [sandwich_check(y, envelope, tol=sandwich_tol) for y in fields]
        y0s = [float(np.mean(fld.step_values(y, 0))) for y in fields]
        tau_means = [glued.tau_time for glued in solutions]
        distances = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                distances[i, j] = distances[j, i] = fld.sup_distance(fields[i], fields[j])
    else:
        if h_inv is None:
            raise ValueError("the lattice glue needs the inverse h_inv of g")
        solutions = [glue_solution(
            driver, h_inv, terminal, i0, interpolate_target(envelope, i0, lam),
            envelope, grid, snap_tol=snap_tol, lam=lam,
        ) for lam in lambdas]
        checks, distances = _lattice_scan(solutions, envelope, sandwich_tol)
        y0s = [_mean(glued.step_field(0)) for glued in solutions]
        tau_means = [_mean(glued.tau, grid.dt) for glued in solutions]
    records = [ContinuumRecord(
        lam=lam, y0=y0, tau_mean=tau_mean,
        residual_off_splice=glued.residual_off_splice,
        splice_mismatch=glued.splice_mismatch,
        sandwich=check,
    ) for lam, glued, check, y0, tau_mean
        in zip(lambdas, solutions, checks, y0s, tau_means)]
    threshold = 10.0 * grid.dt
    distinct = sum(int(distances[i, j] > threshold)
                   for i in range(m) for j in range(i + 1, m))
    return ContinuumReport(grid=grid, records=records,
                           pairwise_distances=distances,
                           distinct_pairs=distinct,
                           distinct_threshold=threshold,
                           solutions=solutions)
