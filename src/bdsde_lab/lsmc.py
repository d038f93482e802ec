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

The sweep reads the inner increments step-major: one (N, m_inner) copy whose
row i is dW_i for every inner path, and whose running row sum gives the
design states W_{t_i}.  The targets are formed in three m_inner buffers
that are allocated once per solve.

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
from .tree import _check_dump_size, _distinct, _read_array, _read_header

BATCH_MEMORY_CAP = 2 ** 31  # bytes of increments per batch
WIDTH_BLOCK = 2 ** 13       # paths per block when indicator widths are counted

_STREAM_OUTER = 0
_STREAM_INNER = 1


@dataclass(frozen=True)
class PathBatch:
    """Sampled increment arrays: outer backward-noise paths of shape
    (m_outer, N, l) and inner forward-noise paths of shape (m_inner, N, d),
    each increment Normal(0, dt)."""

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

    @property
    def dim_d(self) -> int:
        return self.w_increments.shape[2]

    @property
    def dim_l(self) -> int:
        return self.b_increments.shape[2]

    @staticmethod
    def from_arrays(grid: TimeGrid, b_increments: np.ndarray,
                    w_increments: np.ndarray) -> "PathBatch":
        """Wrap explicit increment arrays (e.g. enumerated lattice paths)."""
        b = np.asarray(b_increments, dtype=float)
        w = np.asarray(w_increments, dtype=float)
        if b.ndim == 2:
            b = b[:, :, None]
        if w.ndim == 2:
            w = w[:, :, None]
        if b.shape[1] != grid.steps or w.shape[1] != grid.steps:
            raise ValueError("increment arrays do not match the grid")
        return PathBatch(grid=grid, b_increments=b, w_increments=w,
                         seed=None, antithetic=False)


def sample_paths(grid: TimeGrid, dims: tuple[int, int],
                 counts: tuple[int, int], seed: int,
                 antithetic: bool = False) -> PathBatch:
    """Draw (m_outer, m_inner) = ``counts`` paths of dimensions (d, l) =
    ``dims``; same seed gives byte-identical batches.  With ``antithetic``
    paths pair up as (2i, 2i+1) with negated increments.

    Raises ``CapacityError`` before drawing when the increments would take
    more than ``BATCH_MEMORY_CAP`` bytes.  ``solve_lsmc`` holds its
    regression designs to the same cap (``check_regression_bytes``), which
    a caller can check before sampling."""
    d, l = dims
    m_outer, m_inner = counts
    if d < 1 or l < 1:
        raise ValueError("dimensions must be >= 1")
    if m_outer < 2 or m_inner < 2:
        raise ValueError("path counts must be >= 2")
    total_bytes = 8 * grid.steps * (m_outer * l + m_inner * d)
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

    def draw(stream, m, dim):
        out = np.empty((m, grid.steps, dim))
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
        b_increments=draw(_STREAM_OUTER, m_outer, l),
        w_increments=draw(_STREAM_INNER, m_inner, d),
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


def _regress(x: np.ndarray, gram: np.ndarray, target: np.ndarray, step: int):
    try:
        return np.linalg.solve(gram, x.T @ target)
    except np.linalg.LinAlgError as exc:
        raise RegressionError(
            f"normal equations singular at step {step}: {exc}"
        ) from exc


def check_regression_bytes(m_inner: int, widths) -> None:
    """Raise ``CapacityError`` unless the design matrices of ``solve_lsmc``
    (at step i, m_inner rows of ``widths[i]`` floats) plus its step-major
    copy of the inner increments fit in ``BATCH_MEMORY_CAP`` bytes."""
    designs = 8 * m_inner * sum(widths)
    copy = 8 * len(widths) * m_inner
    if designs + copy > BATCH_MEMORY_CAP:
        raise CapacityError(
            f"regression designs would allocate {designs} bytes and the "
            f"step-major increments {copy} more: {designs + copy} bytes, "
            f"cap is {BATCH_MEMORY_CAP}"
        )


def solve_lsmc(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
               basis: BasisSpec, paths: PathBatch,
               ridge: float = 1e-8) -> MCSolution:
    """Backward regression sweep over every outer path in the batch.

    Raises ``CapacityError`` before allocating when the design matrices
    plus the step-major increments would take more than
    ``BATCH_MEMORY_CAP`` bytes (``check_regression_bytes``), each design
    counted at its own width (``BasisSpec.widths``)."""
    if paths.dim_d != 1 or paths.dim_l != 1:
        raise ValueError("the regression solver handles scalar noise only")
    if paths.grid.steps != grid.steps or abs(paths.grid.dt - grid.dt) > 1e-15:
        raise ValueError("path batch lives on a different grid")
    n = grid.steps
    dt = grid.dt
    m_in = paths.m_inner
    if basis.kind == "poly" and m_in <= 10 * (basis.degree + 1):
        raise ValueError(
            f"m_inner={m_in} too small for degree {basis.degree}; "
            f"need more than {10 * (basis.degree + 1)} inner paths"
        )
    w_inc = paths.w_increments[:, :, 0]
    check_regression_bytes(m_in, basis.widths(w_inc, dt))
    xi = np.asarray(terminal.evaluate(w_inc), dtype=float)
    w_steps = np.ascontiguousarray(w_inc.T)     # row i: dW_i of every path

    # W_{t_i}: W_0 = 0, then a running sum over the rows that starts from
    # the first row itself, the additions a cumsum makes
    states = chain([np.zeros(m_in)], accumulate(w_steps[:-1]))
    designs = [basis.design(w, grid.time(i), dt) for i, w in enumerate(states)]
    grams = [x.T @ x + ridge * np.eye(x.shape[1]) for x in designs]
    conds_step = np.array([np.linalg.cond(g) for g in grams])
    conds = np.broadcast_to(conds_step, (paths.m_outer, n)).copy()

    y0 = np.empty(paths.m_outer)
    final_se = np.empty(paths.m_outer)
    y_coeffs_all, z_coeffs_all = [], []
    g_b = np.empty(m_in)
    z_target = np.empty(m_in)
    y_target = np.empty(m_in)
    for k in range(paths.m_outer):
        b_inc = paths.b_increments[k, :, 0]
        # y, z and the driver's outputs are only read: a driver may return
        # its own argument, and y starts as the terminal values themselves
        y, z = xi, np.zeros(m_in)
        yc, zc = [None] * n, [None] * n
        for i in range(n - 1, -1, -1):
            t_next = grid.time(i + 1)
            gv = np.asarray(driver.g(t_next, y, z), dtype=float)
            gv = np.broadcast_to(gv, y.shape)
            fv = np.asarray(driver.f(t_next, y, z), dtype=float)
            np.multiply(gv, b_inc[i], out=g_b)
            # (y + g dB) dW / dt and y + dt f + g dB
            np.add(y, g_b, out=z_target)
            np.multiply(z_target, w_steps[i], out=z_target)
            np.divide(z_target, dt, out=z_target)
            np.multiply(dt, fv, out=y_target)
            np.add(y, y_target, out=y_target)
            np.add(y_target, g_b, out=y_target)
            if not (np.all(np.isfinite(z_target)) and np.all(np.isfinite(y_target))):
                raise NumericError(f"non-finite regression target at step {i}")
            x = designs[i]
            z_c = _regress(x, grams[i], z_target, i)
            y_c = _regress(x, grams[i], y_target, i)
            z = x @ z_c
            y = x @ y_c
            yc[i], zc[i] = y_c, z_c
            if i == 0:
                final_se[k] = float(np.std(y_target) / np.sqrt(m_in))
        y0[k] = float(np.mean(y))
        y_coeffs_all.append(yc)
        z_coeffs_all.append(zc)
    return MCSolution(grid=grid, basis=basis, ridge=ridge, y0=y0,
                      y_coeffs=y_coeffs_all, z_coeffs=z_coeffs_all,
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
                             batch.m_outer, batch.dim_l,
                             batch.m_inner, batch.dim_d))
        for a in (batch.b_increments, batch.w_increments):
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def load_path_batch(path) -> PathBatch:
    from .core import make_grid

    with open(path, "rb") as fh:
        if fh.read(8) != _MAGIC:
            raise ValueError("not a path batch dump")
        steps, _dt, horizon, anti = struct.unpack("<IddI", _read_header(fh, 24))
        seed, m_outer, dim_l, m_inner, dim_d = struct.unpack(
            "<qIIII", _read_header(fh, 24))
        n_b, n_w = m_outer * steps * dim_l, m_inner * steps * dim_d
        _check_dump_size(fh, 8 * (n_b + n_w))
        b = _read_array(fh, (m_outer, steps, dim_l))
        w = _read_array(fh, (m_inner, steps, dim_d))
    return PathBatch(
        grid=make_grid(horizon, steps),
        b_increments=b,
        w_increments=w,
        seed=None if seed < 0 else int(seed),
        antithetic=bool(anti),
    )
