"""Lipschitz approximation and smoothing of drift parts.

Two families of operators:

* inf/sup-convolution with slope ``n`` in the l1 metric,

      inf-mode:  f_n(y, z) = min over (y', z') of f(y', z') + n(|y-y'| + |z-z'|)
      sup-mode:  f_n(y, z) = max over (y', z') of f(y', z') - n(|y-y'| + |z-z'|)

  evaluated over a truncated candidate grid centred at the origin, with the
  base read at t = 0 (the drift must be time-invariant).  For n at least
  the linear growth slope K of f these are n-Lipschitz, monotone in n, grow
  no faster than f, and converge to f; when f is already L-Lipschitz with
  L <= n they reproduce f up to grid error.  The truncated operator differs
  from the exact convolution by at most ``2 n spacing`` wherever the
  optimizer lies inside the candidate box; boundary hits are counted and
  reported.

* mollification by the compactly supported bump kernel

      J(y) = k exp(-1/(1-|y|)) on |y| < 1, 0 elsewhere,

  scaled to width ``delta``, with the normalizer k computed under the same
  composite Gauss-Legendre rule used for the smoothing integral so that the
  kernel integrates to 1 exactly under that rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _ZERO, DriverPart, DriverSpec, _with_twin
from .errors import CapacityError

GRID_CAPACITY = 10_000_000
# Nodes per block in which the distance transform finds its run starts
# (128 KiB of float64 and 16 KiB of mask), not one grid-sized temporary.
RUN_BLOCK = 2 ** 14


@dataclass(frozen=True)
class ConvGridSpec:
    """Candidate grid for the truncated convolutions: the nodes
    ``spacing * k`` for k = -m..m, m = ceil(radius / spacing), one fixed grid
    centred at the origin along y and along z.

    A spec also keeps, outside its fields, the 1-d samples of the drift
    parts convolved on it: per part, the grid and the part's values on it
    at t = 0, both read-only, made by the first table build and read by
    every later one whatever its slope and mode.  They live as long as the
    spec does; an envelope makes one spec for its two sides."""

    radius: float
    spacing: float

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.radius is None or self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.spacing > self.radius:
            raise ValueError("spacing must not exceed radius")
        # id(part) -> (part, grid, values); holding the part keeps its id
        object.__setattr__(self, "_samples_1d", {})

    def half_count(self, dims: int = 2) -> int:
        m = int(np.ceil(self.radius / self.spacing))
        if (2 * m + 1) ** dims > GRID_CAPACITY:
            raise CapacityError(
                f"convolution grid would hold {(2 * m + 1) ** dims} points, "
                f"cap is {GRID_CAPACITY}"
            )
        return m

    @staticmethod
    def for_tolerance(n: float, tol: float, radius: float) -> "ConvGridSpec":
        """Spacing chosen so the induced value error 2 n spacing <= tol."""
        return ConvGridSpec(radius=radius, spacing=tol / (2.0 * n))


class ConvolvedPart:
    """Callable (t, y, z) -> value computing the truncated convolution of a
    time-invariant base on the fixed grid.

    The first probe builds a value table; later probes interpolate that
    table whatever their t.  Two tables, picked by ``z_independent``:

    * z-independent base: a 1-d table on the grid, built by the exact
      two-pass distance transform and evaluated by linear interpolation
      (which preserves both the n-Lipschitz property and monotonicity in n
      exactly), from the grid and base values at t = 0 kept on ``spec``
      for as long as it lives (see :class:`ConvGridSpec`); each table is
      the transform's own copy; :meth:`scalar_drift` hands the scalar
      recursion a plain-float probe of it, bitwise as ``np.interp``;
    * z-dependent base: a separable two-stage table (inner transform along
      z, outer scan along y) with the same exactness properties, the base
      read at t = 0 by each table build.

    ``boundary_hits`` counts evaluations whose optimizer landed on the edge
    of the candidate box, the failure signature of too small a radius.  It
    counts the probes the operator is handed: the lattice sweep hands it
    each level of a step once, so a tree-backend count is one of level
    probes, not of lattice nodes.
    """

    def __init__(self, base: DriverPart, n: float, spec: ConvGridSpec,
                 mode: str, z_independent: bool = False):
        if mode not in ("inf", "sup"):
            raise ValueError("mode must be 'inf' or 'sup'")
        self.base = base
        self.n = float(n)
        self.spec = spec
        self.mode = mode
        self.z_independent = bool(z_independent)
        self.boundary_hits = 0
        self._table = None          # (grid, values) for the 1-d fixed path
        self._table2 = None         # (ygrid, zgrid, H) for the 2-d fixed path

    # -- exact two-pass distance transform on a grid -------------------------
    @staticmethod
    def _transform_1d(values: np.ndarray, step_cost: float, mode: str) -> np.ndarray:
        """The two-pass l1 distance transform (Felzenszwalb & Huttenlocher),
        bitwise as the sequential sweeps ``out[i] = best(out[i], out[i -+ 1]
        -+ step_cost)``, visiting only the nodes a pass changes.

        In a pass, node i changes only if its neighbour's final value,
        moved by the step cost, beats it; so every run of changed nodes
        starts next to a node the pass leaves alone, where the test holds
        on the pass's input.  numpy finds those starts, a block of
        ``RUN_BLOCK`` nodes at a time after the walks from the blocks
        before; each run is walked in plain floats until the test fails.
        The nodes from the last walk's end on still hold the pass's input,
        starts before that end are skipped, and a start at the end walks
        no node, since the walk stopped there.  One rounding per node
        keeps consecutive table differences within the slope bound."""
        out = np.array(values, dtype=float)
        delta = -step_cost if mode == "sup" else step_cost
        beats, beats_all = ((operator.gt, np.greater) if mode == "sup"
                            else (operator.lt, np.less))
        m = out.size
        # the backward pass is the forward pass over the reversed view
        for view in (out, out[::-1]):
            item = view.item
            end = 0
            for lo in range(0, m - 1, RUN_BLOCK):
                hi = min(lo + RUN_BLOCK, m - 1)
                # runs start at i where view[i - 1] + delta beats view[i]
                starts = np.flatnonzero(
                    beats_all(view[lo:hi] + delta, view[lo + 1:hi + 1]))
                for i in (starts + (lo + 1)).tolist():
                    if i < end:
                        continue            # inside the previous run
                    v = item(i - 1) + delta
                    while i < m and beats(v, item(i)):
                        view[i] = v
                        v += delta
                        i += 1
                    end = i
        return out

    @staticmethod
    def _transform_rows(values: np.ndarray, step_cost: float, mode: str) -> np.ndarray:
        """Two-sweep transform along the last axis of a 2-d array."""
        out = values.copy()
        m = out.shape[1]
        pick = np.maximum if mode == "sup" else np.minimum
        sign = -1.0 if mode == "sup" else 1.0
        for i in range(1, m):
            out[:, i] = pick(out[:, i], out[:, i - 1] + sign * step_cost)
        for i in range(m - 2, -1, -1):
            out[:, i] = pick(out[:, i], out[:, i + 1] + sign * step_cost)
        return out

    def _fixed_grid(self, dims: int) -> np.ndarray:
        m = self.spec.half_count(dims=dims)
        return self.spec.spacing * np.arange(-m, m + 1)

    def _build_table_1d(self):
        samples = self.spec._samples_1d
        hit = samples.get(id(self.base))
        if hit is None:
            grid = self._fixed_grid(dims=1)
            # a 0-d z, not a grid-sized zeros array; the transform copies
            vals = np.broadcast_to(self.base(0.0, grid, _ZERO), grid.shape)
            grid.flags.writeable = False
            hit = samples[id(self.base)] = (self.base, grid, vals)
        _, grid, vals = hit
        tab = self._transform_1d(vals, self.n * self.spec.spacing, self.mode)
        self._table = (grid, tab)

    def _build_table_2d(self):
        grid = self._fixed_grid(dims=2)
        yy = np.repeat(grid, grid.size)
        zz = np.tile(grid, grid.size)
        vals = np.asarray(self.base(0.0, yy, zz), dtype=float).reshape(
            grid.size, grid.size)
        h = self._transform_rows(vals, self.n * self.spec.spacing, self.mode)
        self._table2 = (grid, grid, h)

    def __call__(self, t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.broadcast_to(np.asarray(z, dtype=float), y.shape)
        scalar = y.ndim == 0
        yf = np.atleast_1d(y).ravel()
        zf = np.atleast_1d(z).ravel()
        if self.z_independent:
            if self._table is None:
                self._build_table_1d()
            out = self._eval_table_1d(yf)
        else:
            if self._table2 is None:
                self._build_table_2d()
            out = self._eval_table_2d(yf, zf)
        if scalar:
            return float(out[0])
        return out.reshape(y.shape)

    def _eval_table_1d(self, yf):
        grid, tab = self._table
        if np.any(yf < grid[0]) or np.any(yf > grid[-1]):
            self.boundary_hits += int(np.sum((yf < grid[0]) | (yf > grid[-1])))
        return np.interp(yf, grid, tab)

    def scalar_drift(self):
        """The plain-float step function ``(t, y) -> value`` of a 1-d
        table: one probe with the operations of ``np.interp`` in the same
        order, so the value is bitwise the one of :meth:`_eval_table_1d`,
        and the same boundary-hit count.  It builds the table if no
        evaluation has; the probe reads it through a memoryview, not a
        copy.  A 2-d table has none (``None``)."""
        if not self.z_independent:
            return None
        if self._table is None:
            self._build_table_1d()
        grid, tab = self._table
        last = grid.size - 1
        half = last // 2
        h = self.spec.spacing
        lo, hi = grid.item(0), grid.item(last)
        value = memoryview(tab)

        def probe(t, x):
            if x != x:
                return x
            if x < lo or x > hi:
                self.boundary_hits += 1
                return value[0] if x < lo else value[last]
            # the node at or below x: arithmetic guess, then a one-node
            # fix-up; node j is h * (j - half), as ``_fixed_grid`` forms it
            j = int((x - lo) / h)
            while h * (j - half) > x:
                j -= 1
            while j < last and h * (j + 1 - half) <= x:
                j += 1
            xj, fj = h * (j - half), value[j]
            if j == last or xj == x:
                return fj
            xk, fk = h * (j + 1 - half), value[j + 1]
            slope = (fk - fj) / (xk - xj)
            out = slope * (x - xj) + fj
            if out != out:
                out = slope * (x - xk) + fk
                if out != out and fj == fk:
                    out = fj
            return out

        return probe

    def _eval_table_2d(self, yf, zf):
        ygrid, zgrid, h = self._table2
        dz = self.spec.spacing
        k = np.clip(np.floor((zf - zgrid[0]) / dz).astype(int), 0, zgrid.size - 2)
        w = np.clip((zf - zgrid[k]) / dz, 0.0, 1.0)
        # h-columns at the two z-nodes bracketing each probe, blended linearly
        hz = h[:, k] * (1.0 - w) + h[:, k + 1] * w        # (m, P)
        pen = self.n * np.abs(ygrid[:, None] - yf[None, :])
        total = hz - pen if self.mode == "sup" else hz + pen
        arg = np.argmax(total, axis=0) if self.mode == "sup" else np.argmin(total, axis=0)
        self.boundary_hits += int(np.sum((arg == 0) | (arg == ygrid.size - 1)))
        return total[arg, np.arange(yf.size)]


def inf_conv(f: DriverPart, n: float, grid_spec: ConvGridSpec,
             growth_k: float | None = None,
             z_independent: bool = False) -> ConvolvedPart:
    """Inf-convolution of a drift part with l1 slope ``n``, the base read
    at t = 0.

    Lies below f (up to grid error) and is n-Lipschitz; nondecreasing in n.
    """
    if growth_k is not None and n < growth_k:
        raise ValueError(f"slope n={n} must be >= the growth constant {growth_k}")
    return ConvolvedPart(f, n, grid_spec, "inf", z_independent)


def sup_conv(f: DriverPart, n: float, grid_spec: ConvGridSpec,
             growth_k: float | None = None,
             z_independent: bool = False) -> ConvolvedPart:
    """Sup-convolution of a drift part with l1 slope ``n``, the base read
    at t = 0.

    Lies above f (up to grid error) and is n-Lipschitz; nonincreasing in n.
    """
    if growth_k is not None and n < growth_k:
        raise ValueError(f"slope n={n} must be >= the growth constant {growth_k}")
    return ConvolvedPart(f, n, grid_spec, "sup", z_independent)


@dataclass(frozen=True)
class RegularizedDriver:
    """A driver whose drift has been replaced by its inf- or sup-convolution;
    the convolution slope becomes the declared Lipschitz constant while the
    linear-growth constants carry over from the base."""

    base: DriverSpec
    n: float
    mode: str
    grid_spec: ConvGridSpec
    spec: DriverSpec
    operator: ConvolvedPart


def regularized_driver(driver: DriverSpec, n: float, mode: str,
                       grid_spec: ConvGridSpec) -> RegularizedDriver:
    """Replace the drift by its convolution with slope ``n``.  The tables
    read the drift at t = 0, so a drift not declared time-invariant is
    refused."""
    if driver.growth_k is None:
        raise ValueError("regularization needs the growth constant K")
    if not driver.f_time_invariant:
        raise ValueError("regularization needs a time-invariant drift")
    conv = (sup_conv if mode == "sup" else inf_conv)(
        driver.f, n, grid_spec, growth_k=driver.growth_k,
        z_independent=driver.f_z_independent,
    )
    spec = driver.with_f(
        conv,
        f_lipschitz=float(n),
        descriptor=f"{mode}_conv(n={n!r}) of [{driver.descriptor}]",
    )
    return RegularizedDriver(base=driver, n=float(n), mode=mode,
                             grid_spec=grid_spec, spec=spec, operator=conv)


# --------------------------------------------------------------------------
# mollification
# --------------------------------------------------------------------------

def _bump_unnormalized(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - np.abs(u[inside])))
    return out


def _composite_gl(total_points: int):
    """Composite Gauss-Legendre rule on [-1, 1] with a panel edge at 0,
    where the integrands of interest may kink."""
    order = 16 if total_points >= 16 else total_points
    panels = max(2, total_points // order)
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    xs = [0.5 * (b - a) * base_x + 0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    ws = [0.5 * (b - a) * base_w for a, b in zip(edges[:-1], edges[1:])]
    return np.concatenate(xs), np.concatenate(ws)


def mollifier_weights(delta: float, quad_points: int = 64):
    """Quadrature nodes (in the scaled variable u) and kernel weights such
    that sum(weights) == 1 exactly under the chosen rule."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if quad_points < 8:
        raise ValueError("quad_points must be >= 8")
    u, w = _composite_gl(quad_points)
    raw = w * _bump_unnormalized(u)
    k = 1.0 / raw.sum()
    return u, raw * k


def mollify(f: DriverPart, delta: float, quad_points: int = 64) -> DriverPart:
    """Smooth a drift part in y by convolving with the width-``delta`` bump
    kernel; the quadrature normalizer is computed under the same rule, so
    constants pass through unchanged and the kernel self-integrates to 1."""
    u, weights = mollifier_weights(delta, quad_points)

    def smoothed(t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        acc = np.zeros(np.broadcast(y, z).shape)
        for ui, wi in zip(u, weights):
            acc = acc + wi * np.asarray(f(t, y - delta * ui, z), dtype=float)
        return acc

    return smoothed


def lower_bound_driver(driver: DriverSpec) -> DriverPart:
    """Drift part (t, y, z) -> -|f(t,0,0)| - K |y| - K |z|.

    K-Lipschitz, and below f everywhere when the declared linear-growth
    bound holds; the backward solve driven by it bounds every regularized
    iterate from below.  A time-invariant f is read at (0, 0, 0) once, and
    the part then carries a plain-float twin for the scalar recursion.
    """
    if driver.growth_k is None or driver.growth_d is None:
        raise ValueError("lower bound needs the growth constants K and D")
    k = driver.growth_k
    base_f = driver.f
    zero = np.zeros(1)

    def f00_at(t):
        return np.abs(np.asarray(base_f(t, zero, zero), dtype=float))[0]

    f00 = f00_at(0.0) if driver.f_time_invariant else None

    def part(t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        base = f00_at(t) if f00 is None else f00
        return -base - k * np.abs(y) - k * np.abs(z)

    if f00 is None:
        return part
    f00_float, k_z0 = float(f00), k * 0.0
    return _with_twin(part, lambda t, y: -f00_float - k * abs(y) - k_z0)


def separating_mollified_driver(f2: DriverPart, eps_bar: float, delta: float,
                                quad_points: int = 64) -> DriverPart:
    """Smooth f2 + eps_bar/2: a Lipschitz drift sitting strictly between two
    drifts whose gap is everywhere at least eps_bar, up to the modulus of
    continuity of f2 at scale delta."""
    if eps_bar <= 0.0:
        raise ValueError("eps_bar must be positive")

    def lifted(t, y, z):
        return np.asarray(f2(t, y, z), dtype=float) + 0.5 * eps_bar

    return mollify(lifted, delta, quad_points)
