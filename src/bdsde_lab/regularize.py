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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DriverPart, DriverSpec
from .errors import CapacityError

GRID_CAPACITY = 10_000_000


@dataclass(frozen=True)
class ConvGridSpec:
    """Candidate grid for the truncated convolutions: the nodes
    ``spacing * k`` for k = -m..m, m = ceil(radius / spacing), one fixed grid
    centred at the origin along y and along z."""

    radius: float
    spacing: float

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.radius is None or self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.spacing > self.radius:
            raise ValueError("spacing must not exceed radius")

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

    The base is read at t = 0 once, when the first probe builds a value
    table; later probes interpolate that table whatever their t.  Two
    tables, picked by ``z_independent``:

    * z-independent base: a 1-d table on the grid, built by the exact
      two-pass distance transform and evaluated by linear interpolation
      (which preserves both the n-Lipschitz property and monotonicity in n
      exactly); a single 0-d probe is interpolated in plain floats, bitwise
      as ``np.interp`` does;
    * z-dependent base: a separable two-stage table (inner transform along
      z, outer scan along y) with the same exactness properties.

    ``boundary_hits`` counts evaluations whose optimizer landed on the edge
    of the candidate box, the failure signature of too small a radius.
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

    # -- exact two-sweep distance transform on a grid, O(m) ------------------
    @staticmethod
    def _transform_1d(values: np.ndarray, step_cost: float, mode: str) -> np.ndarray:
        # plain-float sweeps: rounding stays local, so consecutive table
        # differences keep the slope bound tight
        out = values.tolist()
        m = len(out)
        if mode == "sup":
            for i in range(1, m):
                v = out[i - 1] - step_cost
                if v > out[i]:
                    out[i] = v
            for i in range(m - 2, -1, -1):
                v = out[i + 1] - step_cost
                if v > out[i]:
                    out[i] = v
        else:
            for i in range(1, m):
                v = out[i - 1] + step_cost
                if v < out[i]:
                    out[i] = v
            for i in range(m - 2, -1, -1):
                v = out[i + 1] + step_cost
                if v < out[i]:
                    out[i] = v
        return np.asarray(out)

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
        grid = self._fixed_grid(dims=1)
        vals = np.asarray(self.base(0.0, grid, np.zeros_like(grid)), dtype=float)
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
        if self._table is not None and np.ndim(y) == 0 and np.ndim(z) == 0:
            return self._eval_table_scalar(float(y))
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

    def _eval_table_scalar(self, x: float) -> float:
        """One probe of the 1-d table in plain floats, with the operations
        of ``np.interp`` in the same order, so the value is bitwise the one
        of :meth:`_eval_table_1d`."""
        grid, tab = self._table
        last = grid.size - 1
        lo, hi = grid.item(0), grid.item(last)
        if x != x:
            return x
        if x < lo or x > hi:
            self.boundary_hits += 1
            return tab.item(0) if x < lo else tab.item(last)
        # the node at or below x: arithmetic guess, then a one-node fix-up
        j = min(max(math.floor((x - lo) / self.spec.spacing), 0), last)
        while grid.item(j) > x:
            j -= 1
        while j < last and grid.item(j + 1) <= x:
            j += 1
        xj, fj = grid.item(j), tab.item(j)
        if j == last or xj == x:
            return fj
        xk, fk = grid.item(j + 1), tab.item(j + 1)
        slope = (fk - fj) / (xk - xj)
        out = slope * (x - xj) + fj
        if out != out:
            out = slope * (x - xk) + fk
            if out != out and fj == fk:
                out = fj
        return out

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
    iterate from below.
    """
    if driver.growth_k is None or driver.growth_d is None:
        raise ValueError("lower bound needs the growth constants K and D")
    k = driver.growth_k
    base_f = driver.f

    def part(t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        zero = np.zeros(1)
        f00 = np.abs(np.asarray(base_f(t, zero, zero), dtype=float))[0]
        return -f00 - k * np.abs(y) - k * np.abs(z)

    return part


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
