"""Exact lattice solver on binary +-sqrt(dt) increments (scalar noise).

Node convention
---------------
At step i the solution is measurable with respect to the forward-noise
history s_0..s_{i-1} and the backward-noise future r_i..r_{N-1}, so the
per-step fields are arrays of shape ``(2**i, 2**(N-i))``:

* axis 0 indexes the W history; bit ``i-1-j`` of the row index is 1 exactly
  when s_j = +1 (earliest increment in the most significant bit);
* axis 1 indexes the B future; bit ``N-i-1-j`` of the column index is 1
  exactly when r_{i+j} = +1 (the increment r_i over the next interval sits
  in the most significant bit).

Every step therefore holds exactly 2**N values.

Scheme
------
Backward step from i+1 to i, with increments dW_i = s_i sqrt(dt) and
dB_i = r_i sqrt(dt): writing

    Phi(s) = Y_{i+1} + dt f(t_{i+1}, Y_{i+1}, Z_{i+1})
                + g(t_{i+1}, Y_{i+1}, Z_{i+1}) r_i sqrt(dt)

on the branch s_i = s, the pair

    Y_i = (Phi(+1) + Phi(-1)) / 2,   Z_i = (Phi(+1) - Phi(-1)) / (2 sqrt(dt))

is the unique solution of the two branch equations Y_i + Z_i s sqrt(dt) =
Phi(s); the one-step discrete equation holds pathwise to round-off, which is
what makes the lattice an oracle rather than an approximation.  The driver
is evaluated at the right endpoint with the right-endpoint pair (explicit
scheme; the backward-noise integral takes right-endpoint values), and
Z_N = 0 by convention.

Because the increments match the Brownian mean and variance exactly and the
one-step chaos space is two dimensional, no truncation error enters the
one-step identity.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DriverSpec, TerminalSpec, TimeGrid
from .errors import CapacityError, InversionError, NumericError

TREE_MAX_STEPS = 20
FORWARD_MAX_STEPS = 12
FORWARD_SIGN = 1.0     # orientation of the extracted forward-noise integrand


def stability_margin(driver: DriverSpec, dt: float) -> float:
    """Explicit-scheme step-size heuristic; above 0.5 the one-step map may
    lose monotonicity and comparison-type assertions are not claimed."""
    lip = driver.lip_bound or 0.0
    return dt * lip + np.sqrt(dt) * (driver.g_lip_y + np.sqrt(driver.g_lip_z_sq))


def leaf_increments(grid: TimeGrid) -> np.ndarray:
    """Signed forward-noise increments per leaf, shape (2**N, N)."""
    n = grid.steps
    idx = np.arange(2 ** n)
    signs = np.empty((2 ** n, n))
    for j in range(n):
        signs[:, j] = np.where((idx >> (n - 1 - j)) & 1, 1.0, -1.0)
    return signs * np.sqrt(grid.dt)


@dataclass(frozen=True)
class TreeSolution:
    """Per-step (Y, Z) fields on the binary lattice."""

    grid: TimeGrid
    ys: list          # ys[i]: (2**i, 2**(N-i))
    zs: list
    driver_descriptor: str = ""
    terminal_descriptor: str = ""

    def __post_init__(self):
        for a in (*self.ys, *self.zs):
            a.setflags(write=False)

    @property
    def steps(self) -> int:
        return self.grid.steps

    def max_abs_y(self) -> float:
        return max(float(np.max(np.abs(y))) for y in self.ys)


def _backward_sweep(driver: DriverSpec, grid: TimeGrid, start_step: int,
                    start_y: np.ndarray, start_z: np.ndarray | None = None):
    """Run the backward recursion from a field given at ``start_step`` down
    to step 0.  The z field at the start step defaults to zero."""
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    ys = [None] * (start_step + 1)
    zs = [None] * (start_step + 1)
    ys[start_step] = np.asarray(start_y, dtype=float)
    zs[start_step] = (np.zeros_like(ys[start_step]) if start_z is None
                      else np.asarray(start_z, dtype=float))
    if ys[start_step].shape != (2 ** start_step, 2 ** (n - start_step)):
        raise ValueError(
            f"start field has shape {ys[start_step].shape}, expected "
            f"{(2 ** start_step, 2 ** (n - start_step))}"
        )
    for i in range(start_step - 1, -1, -1):
        t_next = grid.time(i + 1)
        y_next, z_next = ys[i + 1], zs[i + 1]
        fv = np.asarray(driver.f(t_next, y_next, z_next), dtype=float)
        gv = np.broadcast_to(
            np.asarray(driver.g(t_next, y_next, z_next), dtype=float),
            y_next.shape,
        )
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            bad = np.argwhere(~(np.isfinite(fv) & np.isfinite(gv)))[0]
            raise NumericError(
                f"non-finite driver value at step {i + 1}", where=tuple(bad)
            )
        a = (y_next + dt * fv).reshape(2 ** i, 2, -1)
        g3 = gv.reshape(2 ** i, 2, -1)
        a_mean = 0.5 * (a[:, 1, :] + a[:, 0, :])
        a_diff = a[:, 1, :] - a[:, 0, :]
        g_mean = 0.5 * (g3[:, 1, :] + g3[:, 0, :])
        g_diff = g3[:, 1, :] - g3[:, 0, :]
        m = a.shape[2]
        y_new = np.empty((2 ** i, 2, m))
        z_new = np.empty((2 ** i, 2, m))
        y_new[:, 1, :] = a_mean + g_mean * sq
        y_new[:, 0, :] = a_mean - g_mean * sq
        z_new[:, 1, :] = (a_diff + g_diff * sq) / (2.0 * sq)
        z_new[:, 0, :] = (a_diff - g_diff * sq) / (2.0 * sq)
        ys[i] = y_new.reshape(2 ** i, 2 ** (n - i))
        zs[i] = z_new.reshape(2 ** i, 2 ** (n - i))
    return ys, zs


def solve_tree(driver: DriverSpec, terminal: TerminalSpec,
               grid: TimeGrid) -> TreeSolution:
    """Solve the equation exactly on the binary lattice.

    Requires scalar noise on both sides and N <= 20 (2**N values per step).
    Deterministic: node iteration order cannot affect the result because
    every step is a closed-form map of the previous step's arrays.
    """
    if driver.dim_d != 1 or driver.dim_l != 1:
        raise ValueError("the lattice solver handles scalar noise only")
    n = grid.steps
    if n > TREE_MAX_STEPS:
        raise CapacityError(f"steps={n} exceeds the lattice cap {TREE_MAX_STEPS}")
    margin = stability_margin(driver, grid.dt)
    if margin > 0.5:
        warnings.warn(
            f"step-size guard exceeded (margin {margin:.3g} > 0.5); "
            "ordering-type properties are not guaranteed at this resolution",
            RuntimeWarning,
            stacklevel=2,
        )
    xi = np.asarray(terminal.evaluate(leaf_increments(grid)), dtype=float)
    ys, zs = _backward_sweep(driver, grid, n, xi.reshape(2 ** n, 1))
    return TreeSolution(grid=grid, ys=ys, zs=zs,
                        driver_descriptor=driver.descriptor,
                        terminal_descriptor=terminal.descriptor)


def tree_residual(sol: TreeSolution, driver: DriverSpec,
                  terminal: TerminalSpec) -> float:
    """Worst pathwise defect of the discrete equation over all steps and
    nodes, plus the terminal mismatch.  For solver output this is pure
    round-off; a perturbed field is caught at the size of the perturbation.
    """
    grid = sol.grid
    n = grid.steps
    if len(sol.ys) != n + 1:
        raise ValueError("solution dimensions inconsistent with its grid")
    dt = grid.dt
    sq = np.sqrt(dt)
    worst = float(np.max(np.abs(
        sol.ys[n].ravel() - terminal.evaluate(leaf_increments(grid))
    )))
    for i in range(n):
        if sol.ys[i].shape != (2 ** i, 2 ** (n - i)):
            raise ValueError("solution dimensions inconsistent with its grid")
        t_next = grid.time(i + 1)
        y_next, z_next = sol.ys[i + 1], sol.zs[i + 1]
        fv = np.asarray(driver.f(t_next, y_next, z_next), dtype=float)
        gv = np.broadcast_to(
            np.asarray(driver.g(t_next, y_next, z_next), dtype=float),
            y_next.shape,
        )
        # rhs indexed by (h, s_i, r_i, b'): expand both steps to that shape
        rhs = (y_next + dt * fv).reshape(2 ** i, 2, 1, -1) \
            + gv.reshape(2 ** i, 2, 1, -1) * sq * np.array([-1.0, 1.0])[None, None, :, None]
        y_i = sol.ys[i].reshape(2 ** i, 1, 2, -1)
        z_i = sol.zs[i].reshape(2 ** i, 1, 2, -1)
        s_sign = np.array([-1.0, 1.0])[None, :, None, None]
        lhs = y_i + z_i * s_sign * sq
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def expectation_at(sol: TreeSolution, i: int) -> dict:
    """Summary of Y_i under the uniform product measure on the lattice."""
    if not 0 <= i <= sol.steps:
        raise ValueError(f"step index {i} out of range 0..{sol.steps}")
    y = sol.ys[i]
    return {
        "mean": float(np.mean(y)),
        "min": float(np.min(y)),
        "max": float(np.max(y)),
        "mean_square": float(np.mean(y * y)),
    }


# --------------------------------------------------------------------------
# forward segment with swapped noise roles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ForwardSegment:
    """Forward evolution from a start field, with the backward noise driving
    the martingale development and the forward noise carrying the extracted
    integrand.

    All fields live on the full product node space ``(2**N, 2**N)`` (rows:
    all s coordinates, cols: all r coordinates); memory grows as 4**N, which
    caps N at 12.  ``dw_integrands`` holds the realized forward-noise
    integrand per step (the z-field of the original equation on this
    segment); ``zt`` holds its image under g, the backward-noise integrand.

    Step convention (left endpoint): with a_j the s_j-average of the current
    field and c_j the extracted integrand,

        Y_{j+1} = a_j - dt f(t_j, a_j, zt_j) - zt_j r_j sqrt(dt)
                      + c_j s_j sqrt(dt),
        zt_j = g(t_j, a_j, c_j),  c_j consistent with the declared inverse.

    ``residual`` is the worst defect of that identity, ``dependence`` the
    per-step, per-coordinate sensitivity of the field (flip the coordinate,
    take the max absolute change): columns [0] for s_j, [1] for r_j.  The
    start field is measurable for the start time, yet later fields depend on
    backward-noise increments inside the segment; the diagnostic makes that
    visible without adjudicating it.
    """

    grid: TimeGrid
    start_step: int
    ys: list            # ys[k]: field at step start_step + k, (2**N, 2**N)
    zt: list            # backward-noise integrand per step, len = N - start_step
    dw_integrands: list
    residual: float
    dependence: np.ndarray = field(repr=False, default=None)

    def y_at(self, j: int) -> np.ndarray:
        return self.ys[j - self.start_step]


def _expand_to_product(arr: np.ndarray, i: int, n: int) -> np.ndarray:
    """Expand a step-i field (2**i, 2**(N-i)) to the full product space."""
    expanded = np.repeat(arr, 2 ** (n - i), axis=0)         # trailing s bits
    return np.tile(expanded, (1, 2 ** i))                   # leading r bits


def _col_signs(n: int, j: int) -> np.ndarray:
    idx = np.arange(2 ** n)
    return np.where((idx >> (n - 1 - j)) & 1, 1.0, -1.0)


def _sign_convention_case() -> float:
    """Orientation self-check on a one-step linear case (g = beta z, zero
    drift, constant start field): developing with integrand c and then
    re-extracting the forward-noise fluctuation of the developed field must
    recover c.  The shipped orientation makes this exact; the opposite sign
    would return 2|c|.  Asserted on every forward solve."""
    dt = 0.25
    sq = np.sqrt(dt)
    beta, c_true, eta = 0.5, 0.7, 1.0
    zt = beta * c_true
    branch = np.array([-1.0, 1.0])
    y_next = eta - zt * sq + c_true * branch * sq    # r = +1 branch fixed
    c_back = FORWARD_SIGN * (y_next[1] - y_next[0]) / (2.0 * sq)
    return abs(c_back - c_true)


def forward_residual(segment: ForwardSegment, driver: DriverSpec) -> float:
    """Replay the forward one-step identity from the stored arrays and
    return the worst defect (round-off for solver output)."""
    grid = segment.grid
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    worst = 0.0
    for k, j in enumerate(range(segment.start_step, n)):
        y = segment.ys[k]
        y3 = y.reshape(2 ** j, 2, 2 ** (n - j - 1), 2 ** n)
        a = np.broadcast_to(
            (0.5 * (y3[:, 1] + y3[:, 0]))[:, None],
            (2 ** j, 2, 2 ** (n - j - 1), 2 ** n),
        ).reshape(2 ** n, 2 ** n)
        zt = segment.zt[k]
        c = segment.dw_integrands[k]
        fv = np.asarray(driver.f(grid.time(j), a, zt), dtype=float)
        s_sign = _col_signs(n, j)[:, None]          # rows carry s coordinates
        r_sign = _col_signs(n, j)[None, :]
        rhs = a - dt * fv - zt * r_sign * sq + FORWARD_SIGN * c * s_sign * sq
        worst = max(worst, float(np.max(np.abs(segment.ys[k + 1] - rhs))))
    return worst


def solve_forward_swapped(driver: DriverSpec, h_inv, eta: np.ndarray,
                          grid: TimeGrid, i0: int,
                          compute_dependence: bool = True) -> ForwardSegment:
    """Evolve the start field ``eta`` (given on the step-i0 node space)
    forward to the horizon with the noise roles swapped.

    ``h_inv(t, y, zt) -> z`` must invert the noise coefficient in z; the
    extracted integrand is checked against it nodewise at 1e-8 and any
    mismatch raises with a witness.  A coefficient without an inverse
    (e.g. identically zero g) is rejected the same way.
    """
    n = grid.steps
    if n > FORWARD_MAX_STEPS:
        raise CapacityError(
            f"steps={n} exceeds the forward-segment cap {FORWARD_MAX_STEPS} "
            "(full product storage grows as 4**N)"
        )
    if not 0 <= i0 <= n:
        raise ValueError(f"start step {i0} out of range 0..{n}")
    conv = _sign_convention_case()
    if conv > 1e-10:
        raise AssertionError(
            f"forward sign convention self-check failed (residual {conv})"
        )
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2 ** i0, 2 ** (n - i0)):
        raise ValueError(
            f"eta has shape {eta.shape}, expected {(2 ** i0, 2 ** (n - i0))}"
        )
    dt = grid.dt
    sq = np.sqrt(dt)
    ys = [_expand_to_product(eta, i0, n)]
    zts, dws = [], []
    for j in range(i0, n):
        t_j = grid.time(j)
        y = ys[-1]
        y3 = y.reshape(2 ** j, 2, 2 ** (n - j - 1), 2 ** n)
        a = 0.5 * (y3[:, 1] + y3[:, 0])
        c = FORWARD_SIGN * (y3[:, 1] - y3[:, 0]) / (2.0 * sq)
        zt = np.asarray(driver.g(t_j, a, c), dtype=float)
        zt = np.broadcast_to(zt, a.shape)
        back = np.asarray(h_inv(t_j, a, zt), dtype=float)
        back = np.broadcast_to(back, a.shape)
        err = np.abs(back - c)
        bad = float(np.max(err))
        if bad > 1e-8:
            where = np.unravel_index(int(np.argmax(err)), err.shape)
            raise InversionError(
                f"inverse inconsistency {bad:.3e} at step {j}",
                witness={"step": j, "node": where,
                         "integrand": float(c[where]), "pullback": float(back[where])},
            )
        fv = np.asarray(driver.f(t_j, a, zt), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise NumericError(f"non-finite drift value at step {j}")
        base = a - dt * fv                       # (2**j, 2**(n-j-1), 2**n)
        r_sign = _col_signs(n, j)[None, None, :]
        drift_part = base - zt * r_sign * sq
        mart = c * sq
        shape4 = (2 ** j, 2, 2 ** (n - j - 1), 2 ** n)
        y_next = np.empty(shape4)
        y_next[:, 1] = drift_part + mart
        y_next[:, 0] = drift_part - mart
        ys.append(y_next.reshape(2 ** n, 2 ** n))
        zts.append(np.broadcast_to(zt[:, None], shape4).reshape(2 ** n, 2 ** n))
        dws.append(np.broadcast_to(c[:, None], shape4).reshape(2 ** n, 2 ** n))
    dependence = None
    if compute_dependence:
        dependence = np.zeros((len(ys), 2, n))
        for k, y in enumerate(ys):
            for coord in range(n):
                rows = y.reshape(2 ** coord, 2, 2 ** (n - coord - 1), 2 ** n)
                dependence[k, 0, coord] = float(np.max(np.abs(rows[:, 1] - rows[:, 0])))
                cols = y.reshape(2 ** n, 2 ** coord, 2, 2 ** (n - coord - 1))
                dependence[k, 1, coord] = float(np.max(np.abs(cols[:, :, 1] - cols[:, :, 0])))
    segment = ForwardSegment(grid=grid, start_step=i0, ys=ys, zt=zts,
                             dw_integrands=dws, residual=0.0,
                             dependence=dependence)
    return ForwardSegment(grid=grid, start_step=i0, ys=ys, zt=zts,
                          dw_integrands=dws,
                          residual=forward_residual(segment, driver),
                          dependence=dependence)


# --------------------------------------------------------------------------
# binary dump
# --------------------------------------------------------------------------
# Layout (all little-endian):
#   magic   8 bytes  b"BDLTREE1"
#   steps   uint32
#   dt      float64
#   horizon float64
#   dlen    uint32, then dlen bytes of UTF-8 driver descriptor
#   tlen    uint32, then tlen bytes of UTF-8 terminal descriptor
#   for i = 0..N: Y_i then Z_i as raw float64 arrays of length 2**N
#                 (C order, shape (2**i, 2**(N-i)))

_MAGIC = b"BDLTREE1"


def save_tree_solution(path, sol: TreeSolution) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", sol.steps))
        fh.write(struct.pack("<d", sol.grid.dt))
        fh.write(struct.pack("<d", sol.grid.horizon))
        for text in (sol.driver_descriptor, sol.terminal_descriptor):
            raw = text.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for i in range(sol.steps + 1):
            fh.write(np.ascontiguousarray(sol.ys[i], dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(sol.zs[i], dtype="<f8").tobytes())


def _read_header(fh, count: int) -> bytes:
    """The next ``count`` header bytes of a dump; a file that ends first
    raises ValueError with its size and the size the header needs."""
    raw = fh.read(count)
    if len(raw) != count:
        raise ValueError(f"dump holds {os.fstat(fh.fileno()).st_size} bytes, "
                         f"its header needs {fh.tell() - len(raw) + count}")
    return raw


def _check_dump_size(fh, payload: int) -> None:
    """Raise ValueError unless the file holds exactly the header read so far
    plus ``payload`` array bytes; called before any array is read."""
    size = os.fstat(fh.fileno()).st_size
    if size != fh.tell() + payload:
        raise ValueError(f"dump holds {size} bytes, its header implies "
                         f"{fh.tell() + payload}")


def load_tree_solution(path) -> TreeSolution:
    from .core import make_grid

    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a lattice solution dump")
        n, dt, horizon = struct.unpack("<Idd", _read_header(fh, 20))
        texts = []
        for _ in range(2):
            (ln,) = struct.unpack("<I", _read_header(fh, 4))
            texts.append(_read_header(fh, ln).decode("utf-8"))
        if n > TREE_MAX_STEPS:
            raise ValueError(f"dump header gives N = {n}, above the lattice "
                             f"cap {TREE_MAX_STEPS}")
        _check_dump_size(fh, 16 * (n + 1) * 2 ** n)
        ys, zs = [], []
        for i in range(n + 1):
            shape = (2 ** i, 2 ** (n - i))
            for target in (ys, zs):
                raw = fh.read(8 * 2 ** n)
                target.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    grid = make_grid(horizon, n)
    if abs(grid.dt - dt) > 1e-12 * max(1.0, abs(dt)):
        raise ValueError("dump header dt inconsistent with horizon/steps")
    return TreeSolution(grid=grid, ys=ys, zs=zs,
                        driver_descriptor=texts[0], terminal_descriptor=texts[1])
