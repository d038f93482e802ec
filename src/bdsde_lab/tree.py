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

Every step therefore has exactly 2**N nodes.

Stored form
-----------
Every catalog terminal declares its form as a function of W_T, and the
solver reads W_T = sqrt(dt) (2k - N) from the number k of up-steps of a
leaf.  Drivers are pointwise, so from such a terminal the rows of step i
with k up-steps hold the same values: the lattice recombines in the
forward noise only (Cox, Ross & Rubinstein 1979), never in the backward
noise.  A sweep from a W_T form stores step i by levels, an
(i + 1, 2**(N-i)) array whose row k is the row of every history with k
up-steps; the children of level k are levels k and k + 1.  A row-wise
start (a terminal without a W_T form, or a glue's start field) is swept
on plain rows, each step stored as itself; the children of row h are
rows 2h and 2h + 1.  A full step is built only when a caller indexes it
(:class:`LatticeField`).  A ``solve`` run keeps no stored form:
:func:`stream_tree_solution` takes each step's summary and dump bytes as
the sweep forms it.  Below step ``STREAM_SPLIT`` it forms the steps
depth-first over blocks of that step's columns: column c of step i + 1
is the only child column of columns c and c + 2**(N-i-1) of step i (the
same backward suffix r_{i+1}..r_{N-1}), so a block's columns and the
columns below them form a sub-lattice of their own.  It holds about two
steps down to the split, then the split step and one block's steps.

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

import contextlib
import os
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .core import DriverSpec, TerminalSpec, TimeGrid, make_grid
from .errors import CapacityError, InversionError, NumericError

TREE_MAX_STEPS = 20
# Bytes of one float64 array over D = (2**N, 2**(N-i0)), the largest node
# space of a forward segment and of the glue (N = 12 at i0 = 0).
FORWARD_MAX_BYTES = 8 * 2 ** 24
# Leaves per block of terminal evaluation (at N = 20 a block of increments
# takes 2.5 MiB, where the whole (2**N, N) array would take 160 MiB), and
# columns per block of a backward step.
LEAF_BLOCK = 2 ** 14
# Values per chunk of the pass that writes and summarizes a step (256 KiB,
# reduced while in cache); a power of two of at least numpy's pairwise
# summation block of 128.
CHUNK = 2 ** 15
# Below step STREAM_SPLIT a streamed solve forms the steps depth-first, over
# blocks of STREAM_BLOCK columns of that step (a power of two of at least
# 128, as CHUNK): at N = 20 a block's steps 1 and 0 take 4 MiB of Y and Z,
# where the whole steps take 32 MiB.
STREAM_SPLIT = 4
STREAM_BLOCK = 2 ** 13


def stability_margin(driver: DriverSpec, dt: float) -> float:
    """Explicit-scheme step-size heuristic; above 0.5 the one-step map may
    lose monotonicity and comparison-type assertions are not claimed."""
    lip = driver.lip_bound or 0.0
    return dt * lip + np.sqrt(dt) * (driver.g_lip_y + np.sqrt(driver.g_lip_z_sq))


def _leaf_block(grid: TimeGrid, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` .. ``stop - 1`` of :func:`leaf_increments`."""
    n = grid.steps
    sq = np.sqrt(grid.dt)
    idx = np.arange(start, stop, dtype=">u4")
    bits = np.unpackbits(idx.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - n:]
    return np.array([-sq, sq])[bits]


def leaf_increments(grid: TimeGrid) -> np.ndarray:
    """Signed forward-noise increments per leaf, shape (2**N, N): entry
    (k, j) is +sqrt(dt) exactly when bit N-1-j of the leaf index k is 1."""
    return _leaf_block(grid, 0, 2 ** grid.steps)


@cache
def _up_counts(n: int) -> np.ndarray:
    """The number of up-steps (set bits) of every leaf index below 2**n,
    uint8, read-only: the counts below 2**j, then the same counts plus one
    for the indices with bit j set.  Kept per n (2 MiB for n <= 20), since
    every step built from levels reads them."""
    ups = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        ups = np.concatenate((ups, ups + 1))
    return _read_only(ups)


def _terminal_levels(terminal: TerminalSpec, grid: TimeGrid):
    """A terminal's W_T form on the N + 1 lattice levels sqrt(dt) (2k - N),
    the value at every leaf of k up-steps; None without that form."""
    if terminal.of_w_t is None:
        return None
    n = grid.steps
    levels = np.sqrt(grid.dt) * (2.0 * np.arange(n + 1) - n)
    return np.array(np.broadcast_to(
        np.asarray(terminal.of_w_t(levels), dtype=float), levels.shape))


def _terminal_values(terminal: TerminalSpec, grid: TimeGrid) -> np.ndarray:
    """The terminal at every leaf, shape (2**N,), for the residual and the
    glue; a solve from a W_T form starts from its levels instead.

    A leaf takes the level of its k up-steps (:func:`_terminal_levels`).
    A terminal without a W_T form is evaluated on blocks of ``LEAF_BLOCK``
    leaves; it gives each leaf a value from its own row of increments
    alone (the contract of ``TerminalSpec``), so the values are those of
    one call on :func:`leaf_increments`, and no (2**N, N) array is held."""
    n = grid.steps
    levels = _terminal_levels(terminal, grid)
    if levels is not None:
        return levels[_up_counts(n)]
    size = 2 ** n
    xi = np.empty(size)
    for start in range(0, size, LEAF_BLOCK):
        stop = min(start + LEAF_BLOCK, size)
        xi[start:stop] = np.asarray(
            terminal.evaluate(_leaf_block(grid, start, stop)), dtype=float)
    return xi


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a`` (``a`` itself stays writable)."""
    view = a.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class LatticeField(Sequence):
    """The steps 0..N of one lattice field (Y or Z), stored by levels or by
    plain rows.

    With ``levels``, ``rows[i]`` has shape (i + 1, 2**(N-i)) and its row k
    holds every row of step i with k up-steps; else ``rows[i]`` is step i.
    Indexing builds step i, shape (2**i, 2**(N-i)), read-only, on demand."""

    rows: list
    levels: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", [_read_only(a) for a in self.rows])

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.build(i)

    def shape(self, i: int) -> tuple:
        """The shape of step i, read from the stored form."""
        rows = self.rows[i]
        return (2 ** i, rows.shape[1]) if self.levels else rows.shape

    def build(self, i: int) -> np.ndarray:
        """Step i, as :func:`_build` gives it from the stored form."""
        return _build(self.rows[i], self.levels)


def _build(rows: np.ndarray, levels: bool) -> np.ndarray:
    """The step stored as ``rows``: ``rows`` itself, or with ``levels`` the
    level of every row's up-step count, gathered."""
    if not levels:
        return rows
    step = np.take(rows, _up_counts(rows.shape[0] - 1), axis=0)
    step.setflags(write=False)
    return step


@dataclass(frozen=True)
class TreeSolution:
    """Per-step (Y, Z) fields on the binary lattice.

    ``ys`` and ``zs`` are :class:`LatticeField` sequences: ``ys[i]`` builds
    step i, shape (2**i, 2**(N-i)), on demand from the rows the sweep
    computed.  Lists of full step arrays (a loaded dump, a test's fields)
    are kept as they are, as plain rows."""

    grid: TimeGrid
    ys: LatticeField
    zs: LatticeField
    driver_descriptor: str = ""
    terminal_descriptor: str = ""

    def __post_init__(self):
        for name in ("ys", "zs"):
            steps = getattr(self, name)
            if not isinstance(steps, LatticeField):
                object.__setattr__(self, name, LatticeField(list(steps)))

    @property
    def steps(self) -> int:
        return self.grid.steps

    def max_abs_y(self) -> float:
        # the levels of a step hold every value of the step
        return max(float(np.max(np.abs(rows))) for rows in self.ys.rows)


def _sweep_steps(driver: DriverSpec, grid: TimeGrid, start_step: int,
                 start_y: np.ndarray, start_z: np.ndarray | None = None,
                 levels: bool = False):
    """Run the backward recursion from the fields given at ``start_step``
    down to step 0, as a generator: ``(i, y_rows, z_rows, levels)`` for i =
    start_step, ..., 0, each step in the stored form of
    :class:`LatticeField`.  The generator drops step i + 1 once step i is
    formed, so it holds two steps at most; a consumer that keeps no
    earlier step holds no more.

    ``start_y`` and ``start_z`` (zero when None) are Y and Z at the start
    step s: s + 1 levels with ``levels``, else 2**s plain rows, of m
    columns each.  With m = 2**(N-s) they are the whole step; with fewer,
    a block of its columns, whose sub-lattice the sweep forms: step i
    holds m 2**(s-i) columns, the block's once for each r_i..r_{s-1}
    (r_i most significant), as the whole step orders them.  The step is a
    pointwise map of the two children of each new row, so the driver, the
    finiteness check and the step's ufuncs run on the (levels or rows,
    columns) arrays, and these are what is yielded.  The - and + children of the new rows are the child rows
    ``[:-1]`` and ``[1:]`` on levels, and ``[0::2]`` and ``[1::2]`` on
    rows: views, no gather.

    Each step runs over blocks of at most ``LEAF_BLOCK`` child columns:
    column c of the children gives columns c and c + m of the new rows
    (r_i = -1 and +1, m child columns), and every operation is pointwise
    per column, so the blocks give the values of one pass over the step.
    The driver's values and the pair means take (rows, block) arrays, not
    whole steps; each block writes through ``out=`` into its columns of
    the two new arrays.  The driver's values and the yielded rows are only
    read, since a driver may return its own argument."""
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    two_sq = 2.0 * sq
    cy = np.asarray(start_y, dtype=float)
    cz = np.zeros(cy.shape) if start_z is None else \
        np.asarray(start_z, dtype=float)
    # held as cy and cz alone, so that a start passed as a temporary goes
    # once the next step is formed
    del start_y, start_z
    minus, plus = ((slice(None, -1), slice(1, None)) if levels
                   else (slice(0, None, 2), slice(1, None, 2)))
    yield start_step, cy, cz, levels
    for i in range(start_step - 1, -1, -1):
        t_next = grid.time(i + 1)
        count, m = cy.shape
        rows = count - 1 if levels else count // 2
        y_new, z_new = np.empty((rows, 2, m)), np.empty((rows, 2, m))
        for lo in range(0, m, LEAF_BLOCK):
            hi = min(lo + LEAF_BLOCK, m)
            fv, gv = _driver_values(driver, t_next, cy[:, lo:hi], cz[:, lo:hi])
            if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
                # the first node in C order may sit in a later block
                fv, gv = _driver_values(driver, t_next, cy, cz)
                raise NumericError(f"non-finite driver value at step {i + 1}",
                                   where=_first_non_finite(fv, gv, levels))
            y_blk, z_blk = y_new[:, :, lo:hi], z_new[:, :, lo:hi]
            # y + dt f goes to the block of the new z array (it has room for
            # the child rows); its branch difference to the - branch of the
            # new y, the g terms to the + branches
            a = z_new.reshape(-1, m)[:count, lo:hi]
            np.multiply(fv, dt, out=a)
            np.add(a, cy[:, lo:hi], out=a)
            a_mean = np.empty((rows, hi - lo))
            a_diff = y_blk[:, 0, :]
            np.add(a[plus], a[minus], out=a_mean)
            np.multiply(a_mean, 0.5, out=a_mean)
            np.subtract(a[plus], a[minus], out=a_diff)
            g_mean_sq, g_diff_sq = y_blk[:, 1, :], z_blk[:, 1, :]
            np.add(gv[plus], gv[minus], out=g_mean_sq)
            np.multiply(g_mean_sq, 0.5, out=g_mean_sq)
            np.multiply(g_mean_sq, sq, out=g_mean_sq)
            np.subtract(gv[plus], gv[minus], out=g_diff_sq)
            np.multiply(g_diff_sq, sq, out=g_diff_sq)
            np.subtract(a_diff, g_diff_sq, out=z_blk[:, 0, :])
            np.divide(z_blk[:, 0, :], two_sq, out=z_blk[:, 0, :])
            np.add(a_diff, g_diff_sq, out=z_blk[:, 1, :])
            np.divide(z_blk[:, 1, :], two_sq, out=z_blk[:, 1, :])
            np.subtract(a_mean, g_mean_sq, out=y_blk[:, 0, :])
            np.add(a_mean, g_mean_sq, out=y_blk[:, 1, :])
            del fv, gv      # free before the next driver call
        cy, cz = y_new.reshape(rows, 2 * m), z_new.reshape(rows, 2 * m)
        yield i, cy, cz, levels


def _fields(steps, last: int):
    """The Y and Z fields of steps 0..``last`` as :class:`LatticeField`
    sequences, collected from the sweep's ``steps``."""
    y_rows, z_rows = [None] * (last + 1), [None] * (last + 1)
    for i, y, z, levels in steps:
        y_rows[i], z_rows[i] = y, z
    return LatticeField(y_rows, levels), LatticeField(z_rows, levels)


def _backward_sweep(driver: DriverSpec, grid: TimeGrid, start_step: int,
                    start_y: np.ndarray):
    """The Y and Z fields of steps 0..start_step that :func:`_sweep_steps`
    forms from ``start_y``, as :class:`LatticeField` sequences:
    ``start_y`` is step ``start_step``, shape (2**s, 2**(N-s)), swept on
    plain rows, or at s = N the N + 1 levels of :func:`_terminal_levels`,
    swept on levels."""
    n = grid.steps
    shape = (2 ** start_step, 2 ** (n - start_step))
    levels = start_step == n and np.shape(start_y) == (n + 1,)
    if levels:
        start_y = np.reshape(start_y, (-1, 1))
    elif np.shape(start_y) != shape:
        raise ValueError(f"start field has shape {np.shape(start_y)}, "
                         f"expected {shape}")
    return _fields(_sweep_steps(driver, grid, start_step, start_y,
                                levels=levels), start_step)


def _driver_values(driver: DriverSpec, t: float, y: np.ndarray, z: np.ndarray):
    """f and g at (t, y, z), each as a float array of y's shape (a driver
    may return a scalar)."""
    return tuple(np.broadcast_to(np.asarray(part(t, y, z), dtype=float), y.shape)
                 for part in (driver.f, driver.g))


def _first_non_finite(fv: np.ndarray, gv: np.ndarray, levels: bool) -> tuple:
    """The first node, in C order of the full step array, whose driver
    value is not finite, from the values on the step's levels or rows: the
    first row of level k is row 2**k - 1."""
    bad = ~(np.isfinite(fv) & np.isfinite(gv))
    row = int(np.flatnonzero(np.any(bad, axis=1))[0])
    col = int(np.flatnonzero(bad[row])[0])
    return (2 ** row - 1 if levels else row, col)


def solve_tree_steps(driver: DriverSpec, terminal: TerminalSpec,
                     grid: TimeGrid):
    """The one entry of a lattice solve: check the step cap and the
    step-size guard, evaluate the terminal and return the backward sweep
    from it, the generator of :func:`_sweep_steps` (steps N down to 0).

    A terminal with a W_T form enters the sweep as its N + 1 levels, any
    other as its leaf field.

    Requires N <= 20; a larger N raises ``CapacityError`` before anything
    is allocated.  Deterministic: node iteration order cannot affect the
    result because every step is a closed-form map of the previous step's
    arrays.
    """
    n = grid.steps
    if n > TREE_MAX_STEPS:
        raise CapacityError(f"steps={n} exceeds the lattice cap {TREE_MAX_STEPS}")
    margin = stability_margin(driver, grid.dt)
    if margin > 0.5:
        # stacklevel 3: the caller of solve_tree, or of the CLI's runner
        warnings.warn(
            f"step-size guard exceeded (margin {margin:.3g} > 0.5); "
            "ordering-type properties are not guaranteed at this resolution",
            RuntimeWarning,
            stacklevel=3,
        )
    levels = _terminal_levels(terminal, grid)
    if levels is not None:
        return _sweep_steps(driver, grid, n, levels.reshape(-1, 1),
                            levels=True)
    # a temporary start field, so that a streamed sweep drops it once step
    # N - 1 is formed
    return _sweep_steps(driver, grid, n,
                        _terminal_values(terminal, grid).reshape(2 ** n, 1))


def solve_tree(driver: DriverSpec, terminal: TerminalSpec,
               grid: TimeGrid) -> TreeSolution:
    """Solve the equation exactly on the binary lattice and keep every
    step in the stored form (:func:`solve_tree_steps`)."""
    ys, zs = _fields(solve_tree_steps(driver, terminal, grid), grid.steps)
    return TreeSolution(grid=grid, ys=ys, zs=zs,
                        driver_descriptor=driver.descriptor,
                        terminal_descriptor=terminal.descriptor)


def _backward_defects(driver: DriverSpec, grid: TimeGrid, ys, zs, steps):
    """For each step i of ``steps``, ``(i, defect)``: the nodewise defect
    of the one-step identity Y_i + Z_i s_i sqrt(dt) = Y_{i+1} + dt f + g r_i
    sqrt(dt) between lattice steps i and i+1, on the nodes (s_0..s_i,
    r_i..r_{N-1}), shape (2**(i+1), 2**(N-i)).

    Formed branch by branch, (s_i, r_i) in turn, over the (history, s_i or
    r_i, remaining future) views of the two steps; a sign enters as an
    addition or a subtraction, which rounds as the product by +-1 would.
    Each branch's defect is written into its view of one buffer, so a
    defect holds until the next one is taken."""
    dt = grid.dt
    sq = np.sqrt(dt)
    size = 2 ** grid.steps
    base, g_sq = np.empty(size), np.empty(size)
    lhs, rhs = np.empty(size // 2), np.empty(size // 2)
    defect = np.empty(2 * size)
    for i in steps:
        t_next = grid.time(i + 1)
        y_next, z_next = ys[i + 1], zs[i + 1]
        fv, gv = _driver_values(driver, t_next, y_next, z_next)
        b2, g2 = base.reshape(y_next.shape), g_sq.reshape(y_next.shape)
        np.multiply(dt, fv, out=b2)
        np.add(y_next, b2, out=b2)
        np.multiply(gv, sq, out=g2)
        del fv, gv      # free before the next driver call
        # (history, s_i, future) on step i + 1, (history, r_i, future) on i
        b3, g3 = b2.reshape(2 ** i, 2, -1), g2.reshape(2 ** i, 2, -1)
        y_i, z_i = (f[i].reshape(2 ** i, 2, -1) for f in (ys, zs))
        d4 = defect.reshape(2 ** i, 2, 2, -1)     # (history, s_i, r_i, future)
        l2, r2 = lhs.reshape(2 ** i, -1), rhs.reshape(2 ** i, -1)
        for s, add_s in enumerate((np.subtract, np.add)):
            for r, add_r in enumerate((np.subtract, np.add)):
                np.multiply(z_i[:, r], sq, out=l2)
                add_s(y_i[:, r], l2, out=l2)
                add_r(b3[:, s], g3[:, s], out=r2)
                np.subtract(l2, r2, out=l2)
                np.abs(l2, out=d4[:, s, r])
        yield i, defect.reshape(2 ** (i + 1), -1)


def _worst(values) -> float:
    """Max of the floats ``values`` and 0.0, NaN if any is (unlike ``max``)."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def tree_residual(sol: TreeSolution, driver: DriverSpec,
                  terminal: TerminalSpec) -> float:
    """Worst pathwise defect of the discrete equation over all steps and
    nodes, plus the terminal mismatch.  For solver output this is pure
    round-off; a perturbed field is caught at the size of the perturbation.
    """
    grid = sol.grid
    n = grid.steps
    if len(sol.ys) != n + 1 or any(sol.ys.shape(i) != (2 ** i, 2 ** (n - i))
                                   for i in range(n)):
        raise ValueError("solution dimensions inconsistent with its grid")
    mismatch = float(np.max(np.abs(
        sol.ys[n].ravel() - _terminal_values(terminal, grid)
    )))
    return _worst([mismatch] + [
        float(np.max(defect)) for _, defect
        in _backward_defects(driver, grid, sol.ys, sol.zs, range(n))])


def expectation_at(sol: TreeSolution, i: int) -> dict:
    """Summary of Y_i under the uniform product measure on the lattice
    (:func:`_pass`)."""
    if not 0 <= i <= sol.steps:
        raise ValueError(f"step index {i} out of range 0..{sol.steps}")
    return _pass(sol.ys.rows[i], sol.ys.levels, summarize=True)


def _chunks(rows: np.ndarray, levels: bool, size: int):
    """The step stored as ``rows`` (:func:`_build`) in chunks of ``size``
    float64 values, a power of two no larger than the step: ``(starts,
    chunk)``, each chunk once with every start at which the step holds it.
    On plain rows a chunk is a view of the step.  On levels, chunks at one
    column offset of rows with equal up-step counts are formed once: a
    chunk inside row h is a view of level popcount(h), and a chunk of an
    aligned block of 2**j rows from row h holds levels popcount(h) +
    :func:`_up_counts` (j), gathered into one buffer, so step N has at most
    N - j + 1 distinct chunks."""
    rows = np.ascontiguousarray(rows, dtype=float)
    if not levels:
        flat = rows.reshape(-1)
        for start in range(0, flat.size, size):
            yield [start], flat[start:start + size]
        return
    width = rows.shape[1]
    per = max(size // width, 1)     # rows a chunk spans
    groups = {}
    for h in range(0, 2 ** (rows.shape[0] - 1), per):
        for a in range(0, width, size):
            groups.setdefault((bin(h).count("1"), a), []).append(h * width + a)
    if per == 1:
        for (k, a), starts in groups.items():
            yield starts, rows[k, a:a + size]
        return
    ups = _up_counts(per.bit_length() - 1)
    buf = np.empty(size)
    for (k, _), starts in groups.items():
        np.take(rows, ups + k, axis=0, out=buf.reshape(per, width), mode="clip")
        yield starts, buf


def _pairwise(sums: list):
    """The sum of a power-of-two count of partial sums, added in adjacent
    pairs level by level."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


class _Summary:
    """The summary of one step (the dict of :func:`expectation_at`), taken
    from chunks of ``part`` values, a power of two of at least 128 that
    divides the step's ``size``, handed in any order by :meth:`add`, each
    chunk once with every start at which the step holds it.

    It holds the bits numpy gives over the step built whole.  numpy sums
    a contiguous array pairwise, halving a power-of-two count down to
    blocks of 128, so the chunk sums are nodes of its tree, kept by
    position and added by :func:`_pairwise` as it adds them.  The minimum
    and maximum of the chunk extremes are the step's, but where the step
    holds a NaN (its extremes are NaN), or zeros of both signs where an
    extreme is zero, the sign a sum or an extreme takes follows numpy's
    order over the whole step: there :meth:`result` gives None.  (The NaN
    of inf - inf has one sign, whatever the order.)"""

    def __init__(self, size: int, part: int):
        self.size, self.part = size, part
        count = size // part
        self.sums, self.square_sums = [None] * count, [None] * count
        self.lows, self.highs = [], []
        self.zero_signs = set()     # signs of the zeros of chunks with a zero extreme
        self.squares = np.empty(part)

    def add(self, starts, chunk: np.ndarray) -> None:
        total = np.add.reduce(chunk)
        np.multiply(chunk, chunk, out=self.squares)
        total_square = np.add.reduce(self.squares)
        for start in starts:
            self.sums[start // self.part] = total
            self.square_sums[start // self.part] = total_square
        self.lows.append(chunk.min())
        self.highs.append(chunk.max())
        if self.lows[-1] == 0.0 or self.highs[-1] == 0.0:
            signs = np.signbit(chunk[chunk == 0.0])
            self.zero_signs.update((signs.min(), signs.max()))

    def result(self):
        """The summary, or None where the step built whole decides it."""
        # a zero extreme is held by every zero of the step, each the extreme
        # of its chunk: of one sign, any of them has its bytes
        lo, hi = np.min(self.lows), np.max(self.highs)
        if np.isnan(lo) or np.isnan(hi) or \
                (len(self.zero_signs) == 2 and (lo == 0.0 or hi == 0.0)):
            return None
        return {"mean": float(_pairwise(self.sums) / self.size),
                "min": float(lo), "max": float(hi),
                "mean_square": float(_pairwise(self.square_sums) / self.size)}


def _feed(chunks, write=None, summary: _Summary | None = None) -> None:
    """Hand each ``(starts, chunk)`` of ``chunks`` to ``write(start,
    chunk)`` at every start that holds it and, once, to ``summary``."""
    for starts, chunk in chunks:
        if write is not None:
            for start in starts:
                write(start, chunk)
        if summary is not None:
            summary.add(starts, chunk)


def _pass(rows: np.ndarray, levels: bool, write=None,
          summarize: bool = False):
    """One pass over the step stored as ``rows``, by levels or not, in
    chunks of ``CHUNK`` values (:func:`_chunks`), each handed to
    ``write(start, chunk)`` at every start that holds it and, with
    ``summarize``, reduced once while in cache (:class:`_Summary`):
    returns the mean, min, max and mean square of the step, else None.  A
    step whose summary the chunks cannot give is built whole for it."""
    size = rows.shape[1] * (2 ** (rows.shape[0] - 1) if levels
                            else rows.shape[0])
    size_chunk = min(CHUNK, size)
    summary = _Summary(size, size_chunk) if summarize else None
    _feed(_chunks(rows, levels, size_chunk), write, summary)
    if not summarize:
        return None
    result = summary.result()
    if result is None:
        step = np.ascontiguousarray(_build(rows, levels), dtype=float)
        result = {"mean": float(np.mean(step)), "min": float(step.min()),
                  "max": float(step.max()),
                  "mean_square": float(np.mean(step * step))}
    return result


# --------------------------------------------------------------------------
# forward segment with swapped noise roles
# --------------------------------------------------------------------------

def _expand(arr: np.ndarray, shape) -> np.ndarray:
    """``arr`` copied onto the larger node space ``shape``: rows repeat for
    the trailing forward-noise coordinates, the block of columns tiles for
    the leading backward-noise coordinates; a step-i lattice field expands
    to a glue's node space D = (2**N, 2**(N-i0)), i <= i0, this way.  The
    result is C-contiguous, so reductions over it sum in the same order as
    over any other copy."""
    rows, cols = arr.shape
    block = (rows, shape[0] // rows, shape[1] // cols, cols)
    return np.ascontiguousarray(
        np.broadcast_to(arr[:, None, None, :], block).reshape(shape))


@dataclass(frozen=True)
class ForwardSegment:
    """Forward evolution from a start field, with the backward noise driving
    the martingale development and the forward noise carrying the extracted
    integrand.

    The field at step j depends only on s_0..s_{j-1} and r_{i0}..r_{N-1}
    (a step-i0 start field; each step adds an s_j branch pair and an r_j
    term), so ``ys[k]``, step j = i0 + k, has shape ``(2**j, 2**(N-i0))``:
    rows as on the lattice, columns r_{i0}..r_{N-1} (r_{i0} in the most
    significant bit).  The last step lives on D = ``(2**N, 2**(N-i0))``,
    the largest array of the segment.  ``dw_integrands`` holds the
    realized forward-noise integrand per step (the z-field of the original
    equation on this segment), ``zt`` its image under g, the backward-noise
    integrand; both have the shape of ``ys[k]``.

    Step convention (left endpoint): with a_j the s_j-average of the current
    field and c_j the extracted integrand,

        Y_{j+1} = a_j - dt f(t_j, a_j, zt_j) - zt_j r_j sqrt(dt)
                      + c_j s_j sqrt(dt),
        zt_j = g(t_j, a_j, c_j),  c_j consistent with the declared inverse.

    ``residual`` is the worst defect of that identity, ``dependence`` the
    per-step, per-coordinate sensitivity of the field (flip the coordinate,
    take the max absolute change; 0.0 for a coordinate the step does not
    store): columns [0] for s_j, [1] for r_j.  The start field is measurable
    for the start time, yet later fields depend on backward-noise increments
    inside the segment; the diagnostic makes that visible without
    adjudicating it.
    """

    grid: TimeGrid
    start_step: int
    ys: list            # ys[k]: field at step start_step + k
    zt: list            # backward-noise integrand per step, len = N - start_step
    dw_integrands: list
    residual: float

    @cached_property
    def dependence(self) -> np.ndarray:
        """The sensitivity of the class docstring per step of ``ys``,
        shape (N - i0 + 1, 2, N): computed on first read, then kept."""
        i0, n = self.start_step, self.grid.steps
        return np.array([_dependence(y, i0 + k, i0, n)
                         for k, y in enumerate(self.ys)])


def _forward_step(driver: DriverSpec, grid: TimeGrid, j: int, y: np.ndarray,
                  h_inv=None, stored=None):
    """One left-endpoint step j -> j+1 on the segment's storage.

    ``y`` is the step-j field (2**j, 2**(N-i0)).  It does not depend on s_j,
    so both members of its s_j branch pair are ``y``; the pair's average and
    scaled difference are formed as on the product space, which keeps every
    value (signed zeros and non-finite values included) the same.

    Solve mode (``stored`` None) checks the extracted integrand against
    ``h_inv`` and returns ``(y_next, zt, c)``, with ``y_next`` of shape
    (2**(j+1), 2**(N-i0)).  Defect mode (``stored = (zt, c, y_next)``)
    replays the identity from stored arrays and returns the nodewise
    defect, shaped like ``y_next``.
    """
    n = grid.steps
    sq = np.sqrt(grid.dt)
    t_j = grid.time(j)
    a = 0.5 * (y + y)
    if stored is None:
        c = (y - y) / (2.0 * sq)
        zt = np.broadcast_to(np.asarray(driver.g(t_j, a, c), dtype=float), a.shape)
        back = np.broadcast_to(np.asarray(h_inv(t_j, a, zt), dtype=float), a.shape)
        err = np.abs(back - c)
        bad = float(np.max(err))
        if not bad <= 1e-8:   # NaN included
            where = np.unravel_index(int(np.argmax(err)), err.shape)
            raise InversionError(
                f"inverse inconsistency {bad:.3e} at step {j}",
                witness={"step": j, "node": where,
                         "integrand": float(c[where]), "pullback": float(back[where])},
            )
    else:
        zt, c, y_next = stored
    fv = np.asarray(driver.f(t_j, a, zt), dtype=float)
    # r_j on the columns r_{i0}..r_{N-1}: bit N-1-j of the column index
    r_sign = np.where((np.arange(y.shape[1]) >> (n - 1 - j)) & 1, 1.0, -1.0)
    drift_part = a - grid.dt * fv - zt * r_sign * sq
    if stored is not None:
        s_sign = np.array([-1.0, 1.0])[None, :, None]
        rhs = drift_part[:, None] + c[:, None] * s_sign * sq
        return np.abs(y_next - rhs.reshape(y_next.shape))
    if not np.all(np.isfinite(fv)):
        raise NumericError(f"non-finite drift value at step {j}")
    mart = c * sq
    y_next = np.stack((drift_part - mart, drift_part + mart), axis=1)
    return y_next.reshape(2 * y.shape[0], y.shape[1]), zt, c


def _forward_defects(segment: ForwardSegment, driver: DriverSpec):
    """(j, nodewise defect) of every forward step, replayed from the
    stored arrays."""
    for k, j in enumerate(range(segment.start_step, segment.grid.steps)):
        stored = (segment.zt[k], segment.dw_integrands[k], segment.ys[k + 1])
        yield j, _forward_step(driver, segment.grid, j, segment.ys[k],
                               stored=stored)


def forward_residual(segment: ForwardSegment, driver: DriverSpec) -> float:
    """Replay the forward one-step identity from the stored arrays and
    return the worst defect (round-off for solver output)."""
    return _worst(float(np.max(defect))
                  for _, defect in _forward_defects(segment, driver))


def _dependence(y: np.ndarray, j: int, i0: int, n: int) -> np.ndarray:
    """Max absolute change of the step-j field under a flip of each
    coordinate: row [0] s_0..s_{N-1}, row [1] r_0..r_{N-1}; the coordinates
    the field does not store (s_j.., r_0..r_{i0-1}) read 0.0."""
    dep = np.zeros((2, n))
    for coord in range(j):
        rows = y.reshape(2 ** coord, 2, -1, y.shape[1])
        dep[0, coord] = float(np.max(np.abs(rows[:, 1] - rows[:, 0])))
    for coord in range(i0, n):
        cols = y.reshape(y.shape[0], 2 ** (coord - i0), 2, -1)
        dep[1, coord] = float(np.max(np.abs(cols[:, :, 1] - cols[:, :, 0])))
    return dep


def solve_forward_swapped(driver: DriverSpec, h_inv, eta: np.ndarray,
                          grid: TimeGrid, i0: int) -> ForwardSegment:
    """Evolve the start field ``eta`` (given on the step-i0 node space)
    forward to the horizon with the noise roles swapped.

    ``h_inv(t, y, zt) -> z`` must invert the noise coefficient in z; the
    extracted integrand is checked against it nodewise at 1e-8 and any
    mismatch raises with a witness (step, and node of the stored step
    array).  A coefficient without an inverse (e.g. identically zero g) is
    rejected the same way.  A float64 array over D above
    ``FORWARD_MAX_BYTES`` raises ``CapacityError`` before any allocation.
    """
    n = grid.steps
    if not 0 <= i0 <= n:
        raise ValueError(f"start step {i0} out of range 0..{n}")
    d_bytes = 8 * 2 ** n * 2 ** (n - i0)
    if d_bytes > FORWARD_MAX_BYTES:
        raise CapacityError(
            f"a float64 array over D = {2 ** n} x {2 ** (n - i0)} nodes "
            f"(N = {n}, i0 = {i0}) takes {d_bytes} bytes, cap is "
            f"{FORWARD_MAX_BYTES}"
        )
    eta = np.array(eta, dtype=float)
    if eta.shape != (2 ** i0, 2 ** (n - i0)):
        raise ValueError(
            f"eta has shape {eta.shape}, expected {(2 ** i0, 2 ** (n - i0))}"
        )
    ys, zts, dws = [eta], [], []
    for j in range(i0, n):
        y_next, zt, c = _forward_step(driver, grid, j, ys[-1], h_inv=h_inv)
        ys.append(y_next)
        zts.append(zt)
        dws.append(c)
    segment = ForwardSegment(grid=grid, start_step=i0, ys=ys, zt=zts,
                             dw_integrands=dws, residual=0.0)
    return replace(segment, residual=forward_residual(segment, driver))


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


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all bytes of the C-contiguous ``data`` at ``offset`` of ``fd``
    (one write may take fewer)."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextlib.contextmanager
def _dump_writer(path, grid: TimeGrid, driver_descriptor: str,
                 terminal_descriptor: str):
    """Open ``path``, write the header of the layout above and yield
    ``put(i, k)``: the chunk writer of Y_i (k = 0) or Z_i (k = 1) for
    :func:`_pass`.  Steps go in any order, each chunk at its offset header
    + 8 (2**N (2 i + k) + start), from the chunk's own buffer when it is
    little-endian."""
    head = [_MAGIC, struct.pack("<Idd", grid.steps, grid.dt, grid.horizon)]
    for text in (driver_descriptor, terminal_descriptor):
        raw = text.encode("utf-8")
        head += [struct.pack("<I", len(raw)), raw]
    head = b"".join(head)
    step_bytes = 8 * 2 ** grid.steps
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        # truncated as by open(path, "wb"), unless already empty (a staged
        # dump): ext4 flushes a file truncated to empty when it is closed,
        # which took 0.05-0.16 s per 336 MiB dump
        if os.fstat(fd).st_size:
            os.ftruncate(fd, 0)
        _pwrite(fd, head, 0)

        def put(i: int, k: int):
            base = len(head) + step_bytes * (2 * i + k)
            return lambda start, chunk: _pwrite(
                fd, np.ascontiguousarray(chunk, dtype="<f8"), base + 8 * start)

        yield put
    finally:
        os.close(fd)


def save_tree_solution(path, sol: TreeSolution) -> None:
    """Write ``sol`` in the layout above, one step at a time, each in one
    pass of chunks (:func:`_pass`): a step stored by levels is gathered a
    chunk at a time, never built whole."""
    with _dump_writer(path, sol.grid, sol.driver_descriptor,
                      sol.terminal_descriptor) as put:
        for i in range(sol.steps + 1):
            for k, steps in enumerate((sol.ys, sol.zs)):
                _pass(steps.rows[i], steps.levels, put(i, k))


def _placed(chunks, width: int, m: int, lo: int):
    """``chunks`` of a step of a block's sub-lattice (:func:`_sweep_steps`
    from columns lo .. lo + STREAM_BLOCK - 1 of a step of m columns),
    ``STREAM_BLOCK`` values each, with every start moved to where the
    whole step holds the chunk.  A sub-lattice row has ``width`` columns;
    its columns q STREAM_BLOCK .. sit at column q m + lo of the whole row,
    which has width m / STREAM_BLOCK."""
    full = width // STREAM_BLOCK * m
    for starts, chunk in chunks:
        yield [s // width * full + s % width // STREAM_BLOCK * m + lo
               for s in starts], chunk


def _blocked_summaries(driver: DriverSpec, grid: TimeGrid, split: int,
                       y_rows: np.ndarray, z_rows: np.ndarray, levels: bool,
                       put):
    """Form steps split - 1 .. 0 depth-first from the whole step ``split``
    (Y and Z in the stored form), over blocks of ``STREAM_BLOCK`` of its
    columns: each block's sub-lattice (:func:`_sweep_steps`) is written
    through ``put`` (:func:`_dump_writer`, or None) and summarized, a run
    of ``STREAM_BLOCK`` values at a time (:class:`_Summary`), and dropped
    before the next block.  Returns the summaries of steps 0 .. split - 1,
    or None where the whole steps decide: a non-finite driver value (the
    error names the highest such step, which a block need not reach
    first), or a summary that needs the step built whole."""
    m = y_rows.shape[1]
    summaries = [_Summary(2 ** grid.steps, STREAM_BLOCK) for _ in range(split)]
    try:
        for lo in range(0, m, STREAM_BLOCK):
            sub = _sweep_steps(driver, grid, split,
                               y_rows[:, lo:lo + STREAM_BLOCK],
                               z_rows[:, lo:lo + STREAM_BLOCK], levels)
            next(sub)       # the block of step ``split`` itself
            for i, y, z, _ in sub:
                _feed(_placed(_chunks(y, levels, STREAM_BLOCK), y.shape[1],
                              m, lo),
                      None if put is None else put(i, 0), summaries[i])
                if put is not None:
                    _feed(_placed(_chunks(z, levels, STREAM_BLOCK),
                                  z.shape[1], m, lo), put(i, 1))
    except NumericError:
        return None
    results = [summary.result() for summary in summaries]
    return None if any(r is None for r in results) else results


def stream_tree_solution(driver: DriverSpec, steps, grid: TimeGrid,
                         path=None, descriptors: tuple = ("", "")) -> list:
    """Consume a lattice solve's ``steps`` (:func:`solve_tree_steps` of
    ``driver``) one at a time and return the summary of every Y_i (the
    dict of :func:`expectation_at`), in step order.  When ``path`` is
    given, the solution is written there in the layout above, with the
    driver and terminal ``descriptors``: the bytes of
    :func:`save_tree_solution`.

    Y_i is written and summarized in one pass of chunks of ``CHUNK`` values
    (:func:`_pass`), Z_i written in another; no step is built whole but
    one whose summary needs it.  The chunk buffers of a step go before the
    sweep forms the next.  Once step ``STREAM_SPLIT`` is taken, if it has
    more than ``STREAM_BLOCK`` columns, the steps below it are formed
    depth-first over blocks of its columns (:func:`_blocked_summaries`).
    Where that cannot give a step's summary or the first non-finite driver
    value, steps STREAM_SPLIT - 1 .. 0 are formed again whole from the
    held step, and written again with the same bytes.

    So the largest arrays held are the sweep's two steps from N down to
    STREAM_SPLIT, or one step and the chunk buffers; then step
    STREAM_SPLIT and two steps of a block's sub-lattice.  With s_i values
    in stored step i ((i + 1) 2**(N-i) on levels, 2**N on rows) and m the
    columns of step STREAM_SPLIT = j, that is

        16 max(max_{i >= j} (s_{i+1} + s_i),
               s_j + max_{i < j} (s_{i+1} + s_i) STREAM_BLOCK / m)

    bytes of Y and Z: 9 MiB at N = 20 on levels (step 4, 5 MiB, and a
    block's steps 1 and 0, 4 MiB; steps 5 and 4 take 8 MiB), where whole
    steps 1 and 0 take 32 MiB."""
    summaries = [None] * (grid.steps + 1)
    with (contextlib.nullcontext() if path is None
          else _dump_writer(path, grid, *descriptors)) as put:

        def take(steps):
            """Take each whole step of ``steps``; stop after step
            STREAM_SPLIT if it has more than one block, and return it."""
            for i, y_rows, z_rows, levels in steps:
                summaries[i] = _pass(y_rows, levels,
                                     None if put is None else put(i, 0),
                                     summarize=True)
                if put is not None:
                    _pass(z_rows, levels, put(i, 1))
                if i == STREAM_SPLIT and y_rows.shape[1] > STREAM_BLOCK:
                    return i, y_rows, z_rows, levels
            return None

        held = take(steps)
        if held is not None:
            low = _blocked_summaries(driver, grid, *held, put)
            if low is None:
                rerun = _sweep_steps(driver, grid, *held)
                next(rerun)     # step STREAM_SPLIT, taken
                take(rerun)
            else:
                summaries[:STREAM_SPLIT] = low
    return summaries


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


def _read_array(fh, shape) -> np.ndarray:
    """The next little-endian float64 array of ``shape``, read straight into
    its buffer; a file that ends first raises ValueError with the byte
    counts read and needed."""
    arr = np.empty(shape, dtype="<f8")
    got = fh.readinto(arr)
    if got != arr.nbytes:
        raise ValueError(f"dump ended after {got} of {arr.nbytes} bytes of "
                         f"an array")
    return arr


def load_tree_solution(path) -> TreeSolution:
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
        grid = make_grid(horizon, n)
        if abs(grid.dt - dt) > 1e-12 * max(1.0, abs(dt)):
            raise ValueError("dump header dt inconsistent with horizon/steps")
        _check_dump_size(fh, 16 * (n + 1) * 2 ** n)
        ys, zs = [], []
        for i in range(n + 1):
            shape = (2 ** i, 2 ** (n - i))
            ys.append(_read_array(fh, shape))
            zs.append(_read_array(fh, shape))
    return TreeSolution(grid=grid, ys=ys, zs=zs,
                        driver_descriptor=texts[0], terminal_descriptor=texts[1])
