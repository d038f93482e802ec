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
A solution stores each step by classes of rows: one row of 2**(N-i)
values per class and the int32 class of each of the 2**i rows, or no map
when every row is its own class (then the rows are the step).  Rows of
one class hold the same bytes.  Every catalog terminal declares its form
as a function of W_T, and the solver reads W_T = sqrt(dt) (2k - N) from
the number k of up-steps of a leaf, so leaves with equal counts hold
equal bytes.  Drivers are pointwise, so step i then holds at most i + 1
classes: the lattice recombines in the forward noise only (Cox, Ross &
Rubinstein 1979), never in the backward noise.  One numbering forms
the classes, from the count of rows its keys stand for and the child
relation alone: row keys (bytes) stand for a row each, and row h has
children 2h and 2h + 1; from a W_T form, the up-step counts 0..i stand
for the 2**i rows of step i, and count k has children k and k + 1.  A
full step is built only when a caller indexes it (:class:`LatticeField`).
A ``solve`` run keeps no stored form: :func:`stream_tree_solution` takes
each step's summary and dump bytes as the sweep forms it, and holds about
two steps.

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
from functools import cached_property

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


def _up_counts(n: int) -> np.ndarray:
    """The number of up-steps (set bits) of every leaf index below 2**n,
    uint8: the counts below 2**j, then the same counts plus one for the
    indices with bit j set."""
    ups = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        ups = np.concatenate((ups, ups + 1))
    return ups


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
    """The steps 0..N of one lattice field (Y or Z), stored by classes of
    rows.

    ``rows[i]`` holds one row of 2**(N-i) values per class of step i, and
    ``classes[i]`` the int32 class of each of its 2**i rows, or None when
    every row is its own class and ``rows[i]`` is the step itself.
    Indexing builds step i, shape (2**i, 2**(N-i)), read-only, on demand."""

    rows: list
    classes: list

    def __post_init__(self):
        for name in ("rows", "classes"):
            object.__setattr__(self, name, [
                None if a is None else _read_only(a) for a in getattr(self, name)])

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.build(i)

    def shape(self, i: int) -> tuple:
        """The shape of step i, read from the stored form."""
        rows, cls = self.rows[i], self.classes[i]
        return rows.shape if cls is None else (cls.size, rows.shape[1])

    def build(self, i: int) -> np.ndarray:
        """Step i, as :func:`_build` gives it from the stored form."""
        return _build(self.rows[i], self.classes[i])


def _build(rows: np.ndarray, cls) -> np.ndarray:
    """The step stored as class ``rows`` and row map ``cls``: ``rows`` itself
    when every row is its own class (``cls`` None), else the rows gathered
    through the map."""
    if cls is None:
        return rows
    step = np.take(rows, cls, axis=0, mode="clip")
    step.setflags(write=False)
    return step


@dataclass(frozen=True)
class TreeSolution:
    """Per-step (Y, Z) fields on the binary lattice.

    ``ys`` and ``zs`` are :class:`LatticeField` sequences: ``ys[i]`` builds
    step i, shape (2**i, 2**(N-i)), on demand from the rows the sweep
    computed.  Lists of full step arrays (a loaded dump, a test's fields)
    are kept as they are, each row its own class."""

    grid: TimeGrid
    ys: LatticeField
    zs: LatticeField
    driver_descriptor: str = ""
    terminal_descriptor: str = ""

    def __post_init__(self):
        for name in ("ys", "zs"):
            steps = getattr(self, name)
            if not isinstance(steps, LatticeField):
                steps = list(steps)
                object.__setattr__(self, name,
                                   LatticeField(steps, [None] * len(steps)))

    @property
    def steps(self) -> int:
        return self.grid.steps

    def max_abs_y(self) -> float:
        # every class holds at least one row of its step
        return max(float(np.max(np.abs(rows))) for rows in self.ys.rows)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, in increasing order (a sort
    and one comparison; ``np.unique`` would import ``numpy.ma``)."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _classes(keys: np.ndarray, rows: int):
    """Equal entries of the 1-d int64 array ``keys``, which stand for
    ``rows`` rows, as classes.

    Returns ``(cls, distinct)``: the distinct keys in increasing order and,
    for every entry, the int32 position of its key among them.  When the
    keys take ``rows`` distinct values, ``cls`` is None: each row is its
    own class, numbered by its position."""
    distinct = _distinct(keys)
    if distinct.size == rows:
        return None, distinct
    return np.searchsorted(distinct, keys).astype(np.int32), distinct


def _pair_classes(left: np.ndarray, right: np.ndarray, count: int,
                  rows: int):
    """Classes of the pairs ``(left[j], right[j])`` of class numbers below
    ``count``, which stand for ``rows`` rows: ``(cls, pairs)``, with
    ``cls`` as :func:`_classes` gives it and ``pairs[c]`` the two class
    numbers of pair class ``c``; both None when each row is its own
    class."""
    # widen before multiplying: int32 keys would overflow past 2**31
    keys = left.astype(np.int64)
    keys *= count
    keys += right
    cls, distinct = _classes(keys, rows)
    if cls is None:
        return None, None
    return cls, np.stack(np.divmod(distinct, count), axis=1)


def _row_classes(rows: np.ndarray):
    """The rows of a 2-d float64 array grouped by their bytes (so -0.0 and
    +0.0 differ, as do NaN payloads): ``(cls, compact)``, with ``cls`` as
    :func:`_classes` gives it for the rows and one row per class in
    ``compact``.  The entries are grouped first, then adjacent pairs of
    classes, until one class is left per row (row widths are powers of
    two)."""
    keys = rows.view(np.int64).ravel()
    cls, distinct = _classes(keys, keys.size)
    compact = distinct.view(np.float64).reshape(-1, 1)
    while cls is not None and compact.shape[1] < rows.shape[1]:
        cls, pairs = _pair_classes(cls[0::2], cls[1::2], compact.shape[0],
                                   cls.size // 2)
        if cls is not None:
            compact = np.take(compact, pairs, axis=0).reshape(len(pairs), -1)
    return cls, (rows if cls is None else compact)


def _row_map(cls, by_level: bool, i: int):
    """Step i's row map: ``cls``, or with ``by_level`` the class of each
    row's up-step count."""
    return cls[_up_counts(i)] if by_level and cls is not None else cls


def _sweep_steps(driver: DriverSpec, grid: TimeGrid, start_step: int,
                 start_y: np.ndarray):
    """Run the backward recursion from a field given at ``start_step`` down
    to step 0, as a generator: ``(i, y_rows, z_rows, classes)`` for i =
    start_step, ..., 0, each step in the stored form of
    :class:`LatticeField`.  The z field at the start step is zero.  The
    generator drops step i + 1 once step i is formed, so it holds two steps
    at most; a consumer that keeps no earlier step holds no more.

    ``start_y`` is the field at the start step s, shape (2**s, 2**(N-s)),
    or at s = N the N + 1 levels of :func:`_terminal_levels`.

    The sweep runs on classes of rows, not on rows.  Rows of one class hold
    the same bytes, because the step is a pointwise map of the two
    children's rows, so the driver, the finiteness check and the step's
    ufuncs run once per class on compact ``(classes, columns)`` arrays, and
    these are what is yielded.  One class map, by row or by up-step count,
    is numbered as the module docstring says; from levels no leaf field is
    built and no row key sorted, and the maps and numbering are the same.

    Each step runs over blocks of at most ``LEAF_BLOCK`` child columns:
    column c of the children gives columns c and c + m of the new rows
    (r_i = -1 and +1, m child columns), and every operation is pointwise
    per column, so the blocks give the values of one pass over the step.
    The driver's values, the gathered child pairs and the pair means take
    (classes, block) arrays, not whole steps; each block writes through
    ``out=`` into its columns of the two new arrays.  The driver's values
    and the yielded rows are only read, since a driver may return its own
    argument."""
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    two_sq = 2.0 * sq
    y_start = np.asarray(start_y, dtype=float)
    # cls: class of every row of the step last written, or with by_level
    # of its rows of each up-step count (None: each row is its own class);
    # cy, cz: one row per class
    by_level = start_step == n and y_start.shape == (n + 1,)
    if by_level:
        cls, distinct = _classes(y_start.view(np.int64), 2 ** n)
        # with no map (N <= 1) the levels are the leaf field
        cy = (y_start if cls is None
              else distinct.view(np.float64)).reshape(-1, 1)
    elif y_start.shape == (2 ** start_step, 2 ** (n - start_step)):
        cls, cy = _row_classes(y_start)
    else:
        raise ValueError(
            f"start field has shape {y_start.shape}, expected "
            f"{(2 ** start_step, 2 ** (n - start_step))}"
        )
    # when the generator holds the only reference (a temporary passed in,
    # as solve_tree_steps does), this frees a start field that was grouped
    # into classes; CPython 3.11+ hands call arguments to the callee's frame
    del start_y, y_start
    cz = np.zeros(cy.shape)
    yield start_step, cy, cz, _row_map(cls, by_level, start_step)
    for i in range(start_step - 1, -1, -1):
        t_next = grid.time(i + 1)
        count, m = cy.shape
        # pairs None: the children of row h are rows 2h and 2h + 1
        new_cls = pairs = None
        if cls is not None:
            # the children of up-step count k are counts k and k + 1
            left, right = ((cls[:-1], cls[1:]) if by_level
                           else (cls[0::2], cls[1::2]))
            new_cls, pairs = _pair_classes(left, right, count, 2 ** i)
            if new_cls is None:
                pairs = _row_map(cls, by_level, i + 1).reshape(-1, 2)
        rows = 2 ** i if pairs is None else pairs.shape[0]
        y_new, z_new = np.empty((rows, 2, m)), np.empty((rows, 2, m))
        for lo in range(0, m, LEAF_BLOCK):
            hi = min(lo + LEAF_BLOCK, m)
            fv, gv = _driver_values(driver, t_next, cy[:, lo:hi], cz[:, lo:hi])
            if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
                # the first node in C order may sit in a later block
                fv, gv = _driver_values(driver, t_next, cy, cz)
                raise NumericError(f"non-finite driver value at step {i + 1}",
                                   where=_first_non_finite(
                                       fv, gv, _row_map(cls, by_level, i + 1)))
            y_blk, z_blk = y_new[:, :, lo:hi], z_new[:, :, lo:hi]
            # y + dt f goes to the block of the new z array (there are at
            # most twice as many child classes as classes); its branch
            # difference to the - branch of the new y, the g terms to the
            # + branches
            a = z_new.reshape(-1, m)[:count, lo:hi]
            np.multiply(fv, dt, out=a)
            np.add(a, cy[:, lo:hi], out=a)
            a3 = a.reshape(rows, 2, -1) if pairs is None else \
                np.take(a, pairs, axis=0, mode="clip")
            a_mean = np.empty((rows, hi - lo))
            a_diff = y_blk[:, 0, :]
            np.add(a3[:, 1, :], a3[:, 0, :], out=a_mean)
            np.multiply(a_mean, 0.5, out=a_mean)
            np.subtract(a3[:, 1, :], a3[:, 0, :], out=a_diff)
            del a3
            g3 = gv.reshape(rows, 2, -1) if pairs is None else \
                np.take(gv, pairs, axis=0, mode="clip")
            g_mean_sq, g_diff_sq = y_blk[:, 1, :], z_blk[:, 1, :]
            np.add(g3[:, 1, :], g3[:, 0, :], out=g_mean_sq)
            np.multiply(g_mean_sq, 0.5, out=g_mean_sq)
            np.multiply(g_mean_sq, sq, out=g_mean_sq)
            np.subtract(g3[:, 1, :], g3[:, 0, :], out=g_diff_sq)
            np.multiply(g_diff_sq, sq, out=g_diff_sq)
            np.subtract(a_diff, g_diff_sq, out=z_blk[:, 0, :])
            np.divide(z_blk[:, 0, :], two_sq, out=z_blk[:, 0, :])
            np.add(a_diff, g_diff_sq, out=z_blk[:, 1, :])
            np.divide(z_blk[:, 1, :], two_sq, out=z_blk[:, 1, :])
            np.subtract(a_mean, g_mean_sq, out=y_blk[:, 0, :])
            np.add(a_mean, g_mean_sq, out=y_blk[:, 1, :])
            del fv, gv, g3      # free before the next driver call
        cls = new_cls
        cy, cz = y_new.reshape(rows, 2 * m), z_new.reshape(rows, 2 * m)
        yield i, cy, cz, _row_map(cls, by_level, i)


def _fields(steps, last: int):
    """The Y and Z fields of steps 0..``last`` as :class:`LatticeField`
    sequences, collected from the sweep's ``steps``."""
    y_rows, z_rows, maps = ([None] * (last + 1) for _ in range(3))
    for i, y, z, cls in steps:
        y_rows[i], z_rows[i], maps[i] = y, z, cls
    return LatticeField(y_rows, maps), LatticeField(z_rows, maps)


def _backward_sweep(driver: DriverSpec, grid: TimeGrid, start_step: int,
                    start_y: np.ndarray):
    """The Y and Z fields of steps 0..start_step that :func:`_sweep_steps`
    forms from ``start_y``, as :class:`LatticeField` sequences with one
    class map per step."""
    steps = _sweep_steps(driver, grid, start_step, start_y)
    # the generator holds the only reference now, if the caller passed a
    # temporary, and frees a start field it groups into classes
    del start_y
    return _fields(steps, start_step)


def _driver_values(driver: DriverSpec, t: float, y: np.ndarray, z: np.ndarray):
    """f and g at (t, y, z), each as a float array of y's shape (a driver
    may return a scalar)."""
    return tuple(np.broadcast_to(np.asarray(part(t, y, z), dtype=float), y.shape)
                 for part in (driver.f, driver.g))


def _first_non_finite(fv: np.ndarray, gv: np.ndarray, cls) -> tuple:
    """The first node, in C order of the full step array, whose driver
    value is not finite, from the per-class values and the row classes."""
    bad = ~(np.isfinite(fv) & np.isfinite(gv))
    bad_rows = np.any(bad, axis=1)
    row = int(np.flatnonzero(bad_rows if cls is None else bad_rows[cls])[0])
    col = int(np.flatnonzero(bad[row if cls is None else cls[row]])[0])
    return (row, col)


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
        return _sweep_steps(driver, grid, n, levels)
    # a temporary start field, so that the sweep can free it
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
    return _pass(sol.ys.rows[i], sol.ys.classes[i], summarize=True)


def _chunks(rows: np.ndarray, cls, size: int):
    """The step stored as ``rows`` and ``cls`` (:func:`_build`) in chunks of
    ``size`` float64 values, a power of two no larger than the step:
    ``(starts, chunk)``, each chunk once with every start at which the
    step holds it.  A chunk is a view of the step or of one class row, or
    gathered over several rows into one buffer.  Chunks over rows of the
    same classes, at the same column offset, are formed once: in a solve
    from levels, a chunk of 2**j rows from row h holds the classes of
    up-step counts popcount(h) + 0..j, so step N has at most N - j + 1
    distinct chunks."""
    rows = np.ascontiguousarray(rows, dtype=float)
    if cls is None:
        flat = rows.reshape(-1)
        for start in range(0, flat.size, size):
            yield [start], flat[start:start + size]
        return
    width = rows.shape[1]
    per = max(size // width, 1)     # rows a chunk spans
    # one group per run of equal map slices at one column offset, found
    # through their first and last class and checked whole
    groups, latest = [], {}
    for h in range(0, cls.size, per):
        part = cls[h:h + per]
        for a in range(0, width, size):
            group = latest.get((part[0], part[-1], a))
            if group is None or not np.array_equal(
                    cls[group[0]:group[0] + per], part):
                group = latest[part[0], part[-1], a] = (h, a, [])
                groups.append(group)
            group[2].append(h * width + a)
    buf = np.empty(size) if per > 1 else None
    for h, a, starts in groups:
        if buf is None:
            yield starts, rows[cls[h], a:a + size]
        else:
            np.take(rows, cls[h:h + per], axis=0,
                    out=buf.reshape(per, width), mode="clip")
            yield starts, buf


def _pairwise(sums: list):
    """The sum of a power-of-two count of partial sums, added in adjacent
    pairs level by level."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


def _pass(rows: np.ndarray, cls, write=None, summarize: bool = False):
    """One pass over the step stored as ``rows`` and ``cls`` in chunks of
    ``CHUNK`` values (:func:`_chunks`), each handed to ``write(start,
    chunk)`` at every start that holds it and, with ``summarize``, reduced
    once while in cache: returns the mean, min, max and mean square of the
    step, else None.

    These hold the bits numpy gives over the step built whole.  numpy sums
    a contiguous array pairwise, halving a power-of-two count down to
    blocks of 128, so the chunk sums are nodes of its tree and
    :func:`_pairwise` adds them as it does.  A step that holds a NaN (its
    extremes are NaN), or zeros of both signs where an extreme is zero, is
    summarized from the step built whole: there the sign a sum or an
    extreme takes follows numpy's order over the whole step.  (The NaN of inf - inf has
    one sign, whatever the order.)"""
    size = rows.shape[1] * (rows.shape[0] if cls is None else cls.size)
    size_chunk = min(CHUNK, size)
    if summarize:
        squares = np.empty(size_chunk)
        # sums by chunk position, extremes by distinct chunk
        count = size // size_chunk
        sums, square_sums, lows, highs = [None] * count, [None] * count, [], []
        zero_signs = set()      # signs of the zeros of chunks with a zero extreme
    for starts, chunk in _chunks(rows, cls, size_chunk):
        if write is not None:
            for start in starts:
                write(start, chunk)
        if not summarize:
            continue
        total = np.add.reduce(chunk)
        np.multiply(chunk, chunk, out=squares)
        total_square = np.add.reduce(squares)
        for start in starts:
            sums[start // size_chunk] = total
            square_sums[start // size_chunk] = total_square
        lows.append(chunk.min())
        highs.append(chunk.max())
        if lows[-1] == 0.0 or highs[-1] == 0.0:
            signs = np.signbit(chunk[chunk == 0.0])
            zero_signs.update((signs.min(), signs.max()))
    if not summarize:
        return None
    mean = _pairwise(sums) / size
    mean_square = _pairwise(square_sums) / size
    # a zero extreme is held by every zero of the step, each the extreme of
    # its chunk: of one sign, any of them has its bytes
    lo, hi = np.min(lows), np.max(highs)
    if np.isnan(lo) or np.isnan(hi) or \
            (len(zero_signs) == 2 and (lo == 0.0 or hi == 0.0)):
        step = np.ascontiguousarray(_build(rows, cls), dtype=float)
        mean, mean_square = np.mean(step), np.mean(step * step)
        lo, hi = step.min(), step.max()
    return {"mean": float(mean), "min": float(lo), "max": float(hi),
            "mean_square": float(mean_square)}


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
    pass of chunks (:func:`_pass`): a step stored by classes of rows is
    gathered a chunk at a time, never built whole."""
    with _dump_writer(path, sol.grid, sol.driver_descriptor,
                      sol.terminal_descriptor) as put:
        for i in range(sol.steps + 1):
            for k, steps in enumerate((sol.ys, sol.zs)):
                _pass(steps.rows[i], steps.classes[i], put(i, k))


def stream_tree_solution(steps, grid: TimeGrid, path=None,
                         descriptors: tuple = ("", "")) -> list:
    """Consume a lattice solve's ``steps`` (:func:`solve_tree_steps`) one at
    a time and return the summary of every Y_i (the dict of
    :func:`expectation_at`), in step order.  When ``path`` is given, the
    solution is written there in the layout above, with the driver and
    terminal ``descriptors``: the bytes of :func:`save_tree_solution`.

    Y_i is written and summarized in one pass of chunks of ``CHUNK`` values
    (:func:`_pass`), Z_i written in another; no step is built whole but
    one whose summary needs it.  The chunk buffers of a step go before the sweep forms the next, so the
    largest arrays held are the sweep's two steps, or one step, its row
    map and the chunk buffers."""
    summaries = [None] * (grid.steps + 1)
    with (contextlib.nullcontext() if path is None
          else _dump_writer(path, grid, *descriptors)) as put:
        for i, y_rows, z_rows, cls in steps:
            if put is None:
                summaries[i] = _pass(y_rows, cls, summarize=True)
            else:
                summaries[i] = _pass(y_rows, cls, put(i, 0), summarize=True)
                _pass(z_rows, cls, put(i, 1))
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
