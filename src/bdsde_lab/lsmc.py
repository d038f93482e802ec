"""Least-squares Monte Carlo solver.

Conditioning on an entire backward-noise path makes its increments known
constants at every step, which is exactly the measurability structure the
equation asks for; the solver therefore runs an independent backward
regression sweep over the inner forward-noise sample for each outer
backward-noise scenario.

Backward sweep, per outer path, for i = N-1..0 with state W_{t_i}:

    z target:  (Y_{i+1} + g(t_{i+1}, Y_{i+1}, Z_{i+1}) dB_i) dW_i / dt
    y target:   Y_{i+1} + dt f(t_{i+1}, Y_{i+1}, Z_{i+1})
                        + g(t_{i+1}, Y_{i+1}, Z_{i+1}) dB_i

both projected onto a basis in W_{t_i} by ridge-stabilised least squares.
The drift term is omitted from the z target; it contributes at order
dt^(3/2) and the convergence suite covers the simplification.  At i = 0 the
basis degenerates to the intercept (W_0 = 0) and Y_0 is the inner-sample
mean of the y target.

The sweep runs step-major: steps on the outside, outer paths on the inside.
It stores the design states W_{t_i} as (N, m_inner) rows, builds design
x_i from row i, and keeps only x_i and x_{i+1}; a path's Y_{i+1} and
Z_{i+1} are re-formed from x_{i+1} and its coefficients while that design
is still in cache.  The targets are formed in m_inner buffers allocated
once per solve, and one stacked solve per step gives every path's
coefficients.

Randomness is counter-based: each path owns a Philox key derived from
(seed, stream, path index), so any sub-batch reproduces identically no
matter how generation is scheduled or chunked.  One generator is re-keyed
per path, its counter reset to 0 and its buffer emptied, which draws what a
fresh generator with that key would.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .core import DriverSpec, TerminalSpec, TimeGrid
from .errors import CapacityError, NumericError, RegressionError
from .tree import (_check_dump_size, _distinct, _header_grid, _read_array,
                   _read_header)

BATCH_MEMORY_CAP = 2 ** 31  # bytes of increments per batch
WIDTH_BLOCK = 2 ** 13       # paths per block when indicator widths are counted

_STREAM_OUTER = 0
_STREAM_INNER = 1


@dataclass(frozen=True)
class PathBatch:
    """Sampled scalar-noise increments: outer backward-noise paths of shape
    (m_outer, N) and inner forward-noise paths of shape (m_inner, N), each
    increment Normal(0, dt)."""

    grid: TimeGrid
    b_increments: np.ndarray
    w_increments: np.ndarray
    seed: int | None
    antithetic: bool

    def __post_init__(self):
        self.b_increments.setflags(write=False)
        self.w_increments.setflags(write=False)

    @property
    def m_outer(self) -> int:
        return self.b_increments.shape[0]

    @property
    def m_inner(self) -> int:
        return self.w_increments.shape[0]

    @staticmethod
    def from_arrays(grid: TimeGrid, b_increments: np.ndarray,
                    w_increments: np.ndarray) -> "PathBatch":
        """Wrap explicit (paths, N) increment arrays, e.g. lattice paths."""
        b = np.asarray(b_increments, dtype=float)
        w = np.asarray(w_increments, dtype=float)
        if any(a.ndim != 2 or a.shape[1] != grid.steps for a in (b, w)):
            raise ValueError("increment arrays are not (paths, N) on the grid")
        return PathBatch(grid=grid, b_increments=b, w_increments=w,
                         seed=None, antithetic=False)


def sample_paths(grid: TimeGrid, counts: tuple[int, int], seed: int,
                 antithetic: bool = False) -> PathBatch:
    """Draw (m_outer, m_inner) = ``counts`` scalar-noise paths; same seed
    gives byte-identical batches.  With ``antithetic`` paths pair up as
    (2i, 2i+1) with negated increments.

    Raises ``CapacityError`` before drawing when the increments would take
    more than ``BATCH_MEMORY_CAP`` bytes.  ``solve_lsmc`` holds its
    design states and designs to the same cap (``check_regression_bytes``),
    which a caller can check before sampling."""
    m_outer, m_inner = counts
    if m_outer < 2 or m_inner < 2:
        raise ValueError("path counts must be >= 2")
    total_bytes = 8 * grid.steps * (m_outer + m_inner)
    if total_bytes > BATCH_MEMORY_CAP:
        raise CapacityError(
            f"batch would allocate {total_bytes} bytes of increments, "
            f"cap is {BATCH_MEMORY_CAP}"
        )
    key = np.array([seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state          # counter 0, empty buffer
    fresh["state"]["key"] = key

    def draw(stream, m):
        out = np.empty((m, grid.steps))
        for p in range(0, m, 2 if antithetic else 1):
            key[1] = (stream << 48) | p
            bitgen.state = fresh
            gen.standard_normal(out=out[p])
        if antithetic:
            np.negative(out[0:m - 1:2], out=out[1::2])
        out *= np.sqrt(grid.dt)
        return out

    return PathBatch(
        grid=grid,
        b_increments=draw(_STREAM_OUTER, m_outer),
        w_increments=draw(_STREAM_INNER, m_inner),
        seed=seed,
        antithetic=antithetic,
    )


def _levels(w: np.ndarray, dt: float) -> np.ndarray:
    """Lattice level of each state: W / sqrt(dt) rounded to an integer."""
    return np.rint(w / np.sqrt(dt)).astype(np.int64)


@dataclass(frozen=True)
class BasisSpec:
    """Regression basis in the current forward-noise value.

    ``poly``: monomials of the scale-normalised state up to ``degree``.
    ``indicator``: one column per lattice level of W (levels identified by
    rounding W / sqrt(dt) to integers), complete for +-sqrt(dt) increments.
    """

    kind: str = "poly"
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("poly", "indicator"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "poly" and self.degree < 0:
            raise ValueError("polynomial degree must be >= 0")

    def design(self, w: np.ndarray, t: float, dt: float) -> np.ndarray:
        if self.kind == "poly":
            scale = max(np.sqrt(t), np.sqrt(dt))
            return np.vander(w / scale, self.degree + 1, increasing=True)
        levels = _levels(w, dt)
        values = _distinct(levels)
        return (levels[:, None] == values[None, :]).astype(float)

    def widths(self, w_inc: np.ndarray, dt: float) -> list:
        """Columns of the design at each step i = 0..N-1 for the inner
        increments ``w_inc`` (m_inner, N): ``degree + 1`` for ``poly``; for
        ``indicator`` the number of distinct levels of W_{t_i}, formed with
        the running sums the sweep's design states use.  The levels are
        counted over blocks of ``WIDTH_BLOCK`` paths, so counting allocates
        a few block-sized arrays and no design."""
        n = w_inc.shape[1]
        if self.kind == "poly":
            return [self.degree + 1] * n
        seen = [np.empty(0, dtype=np.int64)] * n
        for start in range(0, w_inc.shape[0], WIDTH_BLOCK):
            block = w_inc[start:start + WIDTH_BLOCK]
            states = chain([np.zeros(block.shape[0])], accumulate(block.T[:-1]))
            for i, w in enumerate(states):
                seen[i] = _distinct(np.concatenate((seen[i], _levels(w, dt))))
        return [values.size for values in seen]


@dataclass(frozen=True)
class MCSolution:
    """Per-outer-path estimates plus the per-step regression record."""

    grid: TimeGrid
    basis: BasisSpec
    ridge: float
    y0: np.ndarray                    # (m_outer,)
    y_coeffs: list                    # y_coeffs[k][i]: coefficient vector
    z_coeffs: list
    cond_numbers: np.ndarray          # (m_outer, N) Gram condition numbers
    final_se: np.ndarray              # (m_outer,) inner-sample SE of y0

    @property
    def m_outer(self) -> int:
        return self.y0.shape[0]


def check_regression_bytes(m_inner: int, widths) -> None:
    """Raise ``CapacityError`` unless what ``solve_lsmc`` holds fits in
    ``BATCH_MEMORY_CAP`` bytes: the N rows of m_inner design states and the
    two designs alive at once, x_i and x_{i+1} (m_inner rows of
    ``widths[i]`` floats at step i), counted at the widest such pair."""
    states = 8 * len(widths) * m_inner
    pair = 8 * m_inner * max(a + b for a, b in zip(widths, widths[1:] + [0]))
    if states + pair > BATCH_MEMORY_CAP:
        raise CapacityError(
            f"regression design states would allocate {states} bytes and the "
            f"widest two consecutive designs {pair} more: {states + pair} "
            f"bytes, cap is {BATCH_MEMORY_CAP}"
        )


def solve_lsmc(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
               basis: BasisSpec, paths: PathBatch,
               ridge: float = 1e-8) -> MCSolution:
    """Backward regression sweep over every outer path in the batch.

    Step-major: for i = N-1..0 the design x_i serves every outer path in
    turn, and one stacked solve gives every path's two coefficient vectors.
    Each path's arithmetic is that of a sweep run path by path, so the
    estimates do not depend on the loop order; the first error raised
    does.  It is the one at the highest step where any path fails, and at
    one step a path's ``NumericError`` (lowest path first) comes before
    the step's ``RegressionError``.

    Raises ``CapacityError`` before allocating when the design states plus
    the widest two consecutive designs would take more than
    ``BATCH_MEMORY_CAP`` bytes (``check_regression_bytes``), each design
    counted at its own width (``BasisSpec.widths``)."""
    if paths.grid.steps != grid.steps or abs(paths.grid.dt - grid.dt) > 1e-15:
        raise ValueError("path batch lives on a different grid")
    n = grid.steps
    dt = grid.dt
    m_out, m_in = paths.m_outer, paths.m_inner
    if basis.kind == "poly" and m_in <= 10 * (basis.degree + 1):
        raise ValueError(
            f"m_inner={m_in} too small for degree {basis.degree}; "
            f"need more than {10 * (basis.degree + 1)} inner paths"
        )
    w_inc = paths.w_increments
    check_regression_bytes(m_in, basis.widths(w_inc, dt))
    xi = np.asarray(terminal.evaluate(w_inc), dtype=float)

    # W_{t_i}: W_0 = 0, W_1 the first increments themselves, then a running
    # sum, the additions a cumsum makes
    states = np.empty((n, m_in))
    states[0] = 0.0
    if n > 1:
        states[1] = w_inc[:, 0]
    for i in range(1, n - 1):
        np.add(states[i], w_inc[:, i], out=states[i + 1])

    conds_step = np.empty(n)
    y_coeffs = [[None] * n for _ in range(m_out)]
    z_coeffs = [[None] * n for _ in range(m_out)]
    final_se = np.empty(m_out)
    zero = np.zeros(m_in)
    dw = np.empty(m_in)
    g_b = np.empty(m_in)
    z_target = np.empty(m_in)
    y_target = np.empty(m_in)
    finite = np.empty(m_in, dtype=bool)
    x_next = None
    for i in range(n - 1, -1, -1):
        t_next = grid.time(i + 1)
        x = basis.design(states[i], grid.time(i), dt)
        gram = x.T @ x + ridge * np.eye(x.shape[1])
        conds_step[i] = np.linalg.cond(gram)
        np.copyto(dw, w_inc[:, i])
        rhs = np.empty((m_out, 2, x.shape[1]))
        for k, b_k in enumerate(paths.b_increments[:, i]):
            # y, z and the driver's outputs are only read: a driver may
            # return its own argument, and y starts as the terminal values
            if x_next is None:
                y, z = xi, zero
            else:
                y, z = x_next @ y_coeffs[k][i + 1], x_next @ z_coeffs[k][i + 1]
            gv = np.asarray(driver.g(t_next, y, z), dtype=float)
            gv = np.broadcast_to(gv, y.shape)
            fv = np.asarray(driver.f(t_next, y, z), dtype=float)
            np.multiply(gv, b_k, out=g_b)
            # (y + g dB) dW / dt and y + dt f + g dB
            np.add(y, g_b, out=z_target)
            np.multiply(z_target, dw, out=z_target)
            np.divide(z_target, dt, out=z_target)
            np.multiply(dt, fv, out=y_target)
            np.add(y, y_target, out=y_target)
            np.add(y_target, g_b, out=y_target)
            if not (np.isfinite(z_target, out=finite).all()
                    and np.isfinite(y_target, out=finite).all()):
                raise NumericError(f"non-finite regression target at step {i}")
            rhs[k, 0] = x.T @ z_target
            rhs[k, 1] = x.T @ y_target
            if i == 0:
                final_se[k] = float(np.std(y_target) / np.sqrt(m_in))
        # each right-hand side as its own column: one gesv call per vector
        # with nrhs = 1, the bits of a single solve (a two-column solve or
        # a product over a block of paths would change them)
        try:
            coeffs = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RegressionError(
                f"normal equations singular at step {i}: {exc}"
            ) from exc
        for k in range(m_out):
            z_coeffs[k][i], y_coeffs[k][i] = coeffs[k]
        x_next = x
    y0 = np.array([float(np.mean(x_next @ yc[0])) for yc in y_coeffs])
    conds = np.broadcast_to(conds_step, (m_out, n)).copy()
    return MCSolution(grid=grid, basis=basis, ridge=ridge, y0=y0,
                      y_coeffs=y_coeffs, z_coeffs=z_coeffs,
                      cond_numbers=conds, final_se=final_se)


def mc_diagnostics(sol: MCSolution) -> dict:
    """Across-outer-path summary of the Y_0 estimates."""
    if sol.m_outer < 1:
        raise ValueError("empty solution")
    y0 = sol.y0
    variance = float(np.var(y0, ddof=1)) if sol.m_outer > 1 else 0.0
    return {
        "y0_mean": float(np.mean(y0)),
        "y0_variance": variance,
        "outer_ci_half_width": (
            1.96 * np.sqrt(variance / sol.m_outer) if sol.m_outer > 1 else 0.0
        ),
        "inner_ci_half_width": float(1.96 * np.max(sol.final_se)),
        "max_condition_per_step": np.max(sol.cond_numbers, axis=0).tolist(),
    }


# --------------------------------------------------------------------------
# binary dump (same conventions as the lattice dumps: little-endian header
# then raw float64 arrays)
# --------------------------------------------------------------------------

_MAGIC = b"BDLPATH1"


def save_path_batch(path, batch: PathBatch) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IddI", batch.grid.steps, batch.grid.dt,
                             batch.grid.horizon, 1 if batch.antithetic else 0))
        fh.write(struct.pack("<qIIII",
                             -1 if batch.seed is None else batch.seed,
                             batch.m_outer, 1, batch.m_inner, 1))  # 1: scalar noise
        for a in (batch.b_increments, batch.w_increments):
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def load_path_batch(path) -> PathBatch:
    """Read a dump, checking its whole header before any array is read."""
    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a path batch dump")
        steps, dt, horizon, anti = struct.unpack("<IddI", _read_header(fh, 24))
        seed, m_outer, dim_l, m_inner, dim_d = struct.unpack(
            "<qIIII", _read_header(fh, 24))
        if (dim_l, dim_d) != (1, 1):
            raise ValueError(f"dump header gives noise dimensions ({dim_l}, "
                             f"{dim_d}), only scalar noise (1, 1) is read")
        _check_dump_size(fh, 8 * steps * (m_outer + m_inner))
        grid = _header_grid(horizon, steps, dt)
        b = _read_array(fh, (m_outer, steps))
        w = _read_array(fh, (m_inner, steps))
    return PathBatch(
        grid=grid,
        b_increments=b,
        w_increments=w,
        seed=None if seed < 0 else int(seed),
        antithetic=bool(anti),
    )
