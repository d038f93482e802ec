"""Least-squares Monte Carlo solver.

Conditioning on an entire backward-noise path makes its increments known
constants at every step, which is exactly the measurability structure the
equation asks for: each outer backward-noise path gets its own regression
on the forward state W_{t_i} of the inner sample.  The sweep serves every
outer path at once, step by step.

Backward sweep, for i = N-1..0 and every outer path, with state W_{t_i}:

    z target:  (Y_{i+1} + g(t_{i+1}, Y_{i+1}, Z_{i+1}) dB_i) dW_i / dt
    y target:   Y_{i+1} + dt f(t_{i+1}, Y_{i+1}, Z_{i+1})
                        + g(t_{i+1}, Y_{i+1}, Z_{i+1}) dB_i

both projected onto a basis in W_{t_i} by ridge-stabilised least squares.
The drift term is omitted from the z target; it contributes at order
dt^(3/2) and the convergence suite covers the simplification.  At i = 0 the
basis degenerates to the intercept (W_0 = 0) and Y_0 is the inner-sample
mean of the fitted values.

Each target is linear in Y_{i+1} = x_{i+1} C_y and in the driver values
F = f(t_{i+1}, Y_{i+1}, Z_{i+1}) and G = g(...), so the sweep projects
those instead of the targets.  With D = diag(dW_i) / dt, C_y the
(w_{i+1}, m_outer) stacked y-coefficients of every outer path, F and G
(m_inner, m_outer), and dB_i scaling each path's column:

    x_i' z target = (x_i' D x_{i+1}) C_y + dB_i (x_i' D G)
    x_i' y target = (x_i' x_{i+1}) C_y + dt x_i' F + dB_i (x_i' G)

At the top step the terminal values stand in for x_{i+1} C_y (a one-column
design with coefficients 1) and Z_N = 0.

The sweep runs step-major: steps on the outside, then fixed blocks of
``BLOCK_ROWS`` inner rows, each serving every outer path at once with one
matmul each for Y_b and Z_b, one call each to f and g on (rows, m_outer),
and the products x_b' F, [x_b | D_b x_b]' G and [x_b | D_b x_b]' x_{i+1,b}
added into the step's sums.  One stacked solve per step then gives every
path's coefficients.  The design states W_{t_i} come from
``_states_descending`` in descending i, which holds a checkpoint row every
s = ceil(sqrt(N)) steps and rebuilds one segment at a time, bitwise the
running sum; the sweep builds design x_i from W_{t_i} and keeps only x_i
and x_{i+1}.

Blocks are counted in rows, not bytes, and every operation on a path's
column reads that column alone, so a path's estimates are bitwise the same
in any batch of two or more outer paths.  (A one-path batch turns the
block matmuls into matrix-vector products, which round differently.)

Randomness is counter-based: each path owns a Philox key derived from
(seed, stream, path index), so any sub-batch reproduces identically no
matter how generation is scheduled or chunked.  One generator is re-keyed
per path, its counter reset to 0 and its buffer emptied, which draws what a
fresh generator with that key would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .core import DriverSpec, TerminalSpec, TimeGrid
from .errors import CapacityError, NumericError, RegressionError

BATCH_MEMORY_CAP = 2 ** 31  # bytes of increments per batch
WIDTH_BLOCK = 2 ** 13       # paths per block when indicator widths are counted
BLOCK_ROWS = 256            # inner rows per block of the regression sweep
# (rows, m_outer) arrays the sweep holds at once: the block's Y, Z, F and G,
# and at step 0 up to three temporaries of the y target
_BLOCK_ARRAYS = 7

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

    def __post_init__(self):
        # read-only views: the caller's own arrays stay writeable
        for name in ("b_increments", "w_increments"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

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
        return PathBatch(grid=grid, b_increments=b, w_increments=w)


def sample_paths(grid: TimeGrid, counts: tuple[int, int], seed: int,
                 antithetic: bool = False) -> PathBatch:
    """Draw (m_outer, m_inner) = ``counts`` scalar-noise paths; same seed
    gives byte-identical batches.  With ``antithetic`` paths pair up as
    (2i, 2i+1) with negated increments.

    Raises ``CapacityError`` before drawing when the increments would take
    more than ``BATCH_MEMORY_CAP`` bytes (``check_increment_bytes``).
    ``solve_lsmc`` holds its design states, designs and blocks to the same
    cap (``check_regression_bytes``); a caller can check both before
    sampling."""
    m_outer, m_inner = counts
    if m_outer < 2 or m_inner < 2:
        raise ValueError("path counts must be >= 2")
    check_increment_bytes(grid.steps, counts)
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
    )


def check_increment_bytes(n: int, counts: tuple[int, int]) -> None:
    """Raise ``CapacityError`` unless the increments of (m_outer, m_inner)
    = ``counts`` paths of N = ``n`` steps, 8 N (m_outer + m_inner) bytes,
    fit in ``BATCH_MEMORY_CAP``."""
    total_bytes = 8 * n * sum(counts)
    if total_bytes > BATCH_MEMORY_CAP:
        raise CapacityError(
            f"batch would allocate {total_bytes} bytes of increments, "
            f"cap is {BATCH_MEMORY_CAP}"
        )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, in increasing order (a sort
    and one comparison; ``np.unique`` would import ``numpy.ma``)."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


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
    y_coeffs: list                    # y_coeffs[i]: (m_outer, w_i), one
    z_coeffs: list                    # coefficient row per outer path
    cond_numbers: np.ndarray          # (m_outer, N) Gram condition numbers
    final_se: np.ndarray              # (m_outer,) inner-sample SE of the
                                      # step-0 y target (``solve_lsmc``)

    @property
    def m_outer(self) -> int:
        return self.y0.shape[0]


def _segment(n: int) -> int:
    """Steps per checkpointed segment of the design states: ceil(sqrt(N))."""
    return math.isqrt(n - 1) + 1


def _state_rows(n: int) -> int:
    """Rows of m_inner floats ``_states_descending`` holds for N steps:
    ceil(N / s) checkpoints, s - 1 further states of one segment and its
    s increments, with s = ``_segment(N)``."""
    s = _segment(n)
    return -(-n // s) + 2 * s - 1


def _states_descending(w_inc: np.ndarray):
    """Yield (i, W_{t_i}, dW_i) for i = N-1..0 from the inner increments
    ``w_inc`` (m_inner, N) in ``_state_rows(N)`` rows of m_inner floats.

    A forward pass keeps W at the start of every segment of s =
    ``_segment(N)`` steps; the backward pass rebuilds each segment from its
    checkpoint.  Both form W_1 = dW_0 and W_{i+1} = W_i + dW_i with the
    additions a cumsum along the path makes, so every row is bitwise that
    cumsum.  A segment's increments are one block-transposed copy, so the
    additions and dW_i read contiguous rows.  The yielded rows are only
    read, and are overwritten when the next segment is rebuilt."""
    m, n = w_inc.shape
    s = _segment(n)
    marks = np.empty((-(-n // s), m))   # W at the start of each segment
    marks[0] = 0.0
    seg = np.empty((s - 1, m))
    inc = np.empty((s, m))

    def advance(i, w, dw, out):
        """W_i = W_{i-1} + dW_{i-1} into ``out``; W_1 is dW_0 itself."""
        if i == 1:
            np.copyto(out, dw)
        else:
            np.add(w, dw, out=out)

    def rebuild(k):
        """Segment k's first step and its states, increments in ``inc``."""
        base = k * s
        top = min(base + s, n)
        np.copyto(inc[:top - base], w_inc[:, base:top].T)
        w = [marks[k], *seg[:top - base - 1]]
        for j in range(1, top - base):
            advance(base + j, w[j - 1], inc[j - 1], w[j])
        return base, w

    for k in range(1, marks.shape[0]):
        base, w = rebuild(k - 1)
        advance(base + s, w[-1], inc[s - 1], marks[k])
    for k in range(marks.shape[0] - 1, -1, -1):
        base, w = rebuild(k)
        for j in range(len(w) - 1, -1, -1):
            yield base + j, w[j], inc[j]


def check_regression_bytes(m_inner: int, widths, m_outer: int) -> None:
    """Raise ``CapacityError`` unless what ``solve_lsmc`` holds fits in
    ``BATCH_MEMORY_CAP`` bytes: the ``_state_rows(N)`` rows of m_inner
    floats of the design states and their increments; the two designs
    alive at once, x_i and x_{i+1} (m_inner rows of ``widths[i]`` floats at
    step i), counted at the widest such pair; and the sweep's blocks of
    min(``BLOCK_ROWS``, m_inner) rows, seven of m_outer floats and one
    [x_i | D x_i] of twice the widest design."""
    states = 8 * _state_rows(len(widths)) * m_inner
    pair = 8 * m_inner * max(a + b for a, b in zip(widths, widths[1:] + [0]))
    blocks = 8 * min(BLOCK_ROWS, m_inner) * (_BLOCK_ARRAYS * m_outer
                                             + 2 * max(widths))
    total = states + pair + blocks
    if total > BATCH_MEMORY_CAP:
        raise CapacityError(
            f"regression design states would allocate {states} bytes, the "
            f"widest two consecutive designs {pair} and the sweep's blocks "
            f"{blocks} more: {total} bytes, cap is {BATCH_MEMORY_CAP}"
        )


def _dense(value, buf: np.ndarray) -> np.ndarray:
    """A driver's output as a C-contiguous float array of ``buf``'s shape:
    itself when it is one, else broadcast into ``buf`` (a matmul on the
    stride-0 broadcast of a constant runs 2.5x slower)."""
    value = np.asarray(value, dtype=float)
    if value.shape == buf.shape and value.flags.c_contiguous:
        return value
    np.copyto(buf, value)
    return buf


def _driver_blocks(driver: DriverSpec, t: float, x_next: np.ndarray,
                   c_y: np.ndarray, c_z: np.ndarray, bufs: np.ndarray):
    """For each block of ``BLOCK_ROWS`` inner rows: (lo, hi, Y, F, G) with
    Y = x_next C_y and Z = x_next C_z on rows lo:hi and the driver's values
    F = f(t, Y, Z), G = g(t, Y, Z), each (rows, m_outer).  Y and Z live in
    ``bufs[0:2]``; F and G are the driver's own arrays or ``bufs[2:4]``.
    All of them are only read, and are overwritten by the next block."""
    m_in = x_next.shape[0]
    for lo in range(0, m_in, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, m_in)
        y, z, f_buf, g_buf = bufs[:, :hi - lo]
        np.matmul(x_next[lo:hi], c_y, out=y)
        np.matmul(x_next[lo:hi], c_z, out=z)
        g = _dense(driver.g(t, y, z), g_buf)
        f = _dense(driver.f(t, y, z), f_buf)
        yield lo, hi, y, f, g


def _final_se(blocks, b: np.ndarray, dt: float, m_in: int) -> np.ndarray:
    """``final_se`` as ``solve_lsmc`` defines it, in two passes over
    ``blocks()``: the step-0 y targets' mean, then their squared
    deviations."""
    def targets():
        for _, _, y, f, g in blocks():
            yield y + dt * f + g * b

    mean = sum(t.sum(axis=0) for t in targets()) / m_in
    square = sum(((t - mean) * (t - mean)).sum(axis=0) for t in targets())
    return np.sqrt(square / m_in) / np.sqrt(m_in)


def solve_lsmc(driver: DriverSpec, terminal: TerminalSpec, grid: TimeGrid,
               basis: BasisSpec, paths: PathBatch,
               ridge: float = 1e-8) -> MCSolution:
    """Backward regression sweep over every outer path in the batch.

    Step-major: for i = N-1..0 the design x_i and the blocks of inner rows
    serve every outer path at once, projecting x_{i+1}, F and G rather than
    the targets (see the module docstring), and one stacked solve gives
    every path's two coefficient vectors.  A path's estimates are bitwise
    the same in any batch of two or more outer paths.

    ``final_se`` is the inner-sample standard error of the step-0 y target
    T = (Y_1 + dt F) + G dB_0: sqrt(S / m_inner) / sqrt(m_inner), with S
    the sum of (T - T_bar)^2 over the inner sample, from two blocked
    passes at step 0 (the first for the mean T_bar, the second for S).

    Raises ``NumericError`` ("non-finite regression target at step i") when
    a path's right-hand side at step i is not finite.  That is the case when
    f or g is non-finite anywhere in a block of the step (a non-finite value
    makes the block's products, and so the step's sums, non-finite) and
    when the terms are finite but their sum is not, as with an infinite
    dB_i and a g of 0.  The first error raised is the one at the highest
    step where any path fails, and at one step the ``NumericError`` comes
    before the step's ``RegressionError``.

    Raises ``CapacityError`` before allocating when the design states, the
    widest two consecutive designs and the sweep's blocks would take more
    than ``BATCH_MEMORY_CAP`` bytes (``check_regression_bytes``), each
    design counted at its own width (``BasisSpec.widths``)."""
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
    check_regression_bytes(m_in, basis.widths(w_inc, dt), m_out)
    xi = np.asarray(terminal.evaluate(w_inc), dtype=float)

    conds_step = np.empty(n)
    y_coeffs, z_coeffs = [None] * n, [None] * n
    rows = min(BLOCK_ROWS, m_in)
    bufs = np.empty((4, rows, m_out))
    d = np.empty(m_in)
    # the terminal values are only read: a terminal may hand out its own array
    x_next = xi.reshape(m_in, 1)
    c_y, c_z = np.ones((1, m_out)), np.zeros((1, m_out))
    for i, state, dw in _states_descending(w_inc):
        t_next = grid.time(i + 1)
        x = basis.design(state, grid.time(i), dt)
        w = x.shape[1]
        gram = x.T @ x + ridge * np.eye(w)
        conds_step[i] = np.linalg.cond(gram)
        np.divide(dw, dt, out=d)
        b = paths.b_increments[:, i]
        xd = np.empty((rows, 2 * w))
        s_f = np.zeros((w, m_out))
        s_g = np.zeros((2 * w, m_out))
        s_x = np.zeros((2 * w, x_next.shape[1]))
        for lo, hi, _, f, g in _driver_blocks(driver, t_next, x_next, c_y,
                                              c_z, bufs):
            x_b, xd_b = x[lo:hi], xd[:hi - lo]
            xd_b[:, :w] = x_b
            np.multiply(x_b, d[lo:hi, None], out=xd_b[:, w:])
            s_f += x_b.T @ f
            s_g += xd_b.T @ g
            s_x += xd_b.T @ x_next[lo:hi]
        # rows :w of each sum belong to x_i, rows w: to D x_i
        proj = s_x @ c_y
        rhs = np.empty((m_out, 2, w))
        rhs[:, 0] = (proj[w:] + b * s_g[w:]).T
        rhs[:, 1] = (proj[:w] + dt * s_f + b * s_g[:w]).T
        if not np.isfinite(rhs).all():
            raise NumericError(f"non-finite regression target at step {i}")
        if i == 0:
            final_se = _final_se(
                lambda: _driver_blocks(driver, t_next, x_next, c_y, c_z, bufs),
                b, dt, m_in)
        # each right-hand side as its own column: one gesv call per vector
        # with nrhs = 1, the bits of a single solve (a two-column solve or
        # a product over a block of paths would change them)
        try:
            coeffs = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RegressionError(
                f"normal equations singular at step {i}: {exc}"
            ) from exc
        z_coeffs[i], y_coeffs[i] = coeffs[:, 0], coeffs[:, 1]
        c_z = np.ascontiguousarray(coeffs[:, 0].T)
        c_y = np.ascontiguousarray(coeffs[:, 1].T)
        x_next = x
    y0 = np.array([float(np.mean(x_next @ yc)) for yc in y_coeffs[0]])
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
