"""Domain types and catalogs: time grids, driver pairs with their declared
regularity metadata, and terminal functionals.

A *driver* is the coefficient pair (f, g) of the equation

    Y_t = xi + int_t^T f(s, Y_s, Z_s) ds + int_t^T g(s, Y_s, Z_s) dB_s
              - int_t^T Z_s dW_s,  0 <= t <= T,

where the dB integral is a backward Ito integral (integrand evaluated at the
right endpoint of each subinterval) and the dW integral is a standard forward
Ito integral.  Scalar unknown Y, scalar Z, scalar noise components; drivers
are callables ``f(t, y, z)`` / ``g(t, y, z)`` that must accept numpy arrays
for ``y`` and ``z`` and broadcast.

Catalog names are the vocabulary of the CLI config schema; see
:func:`catalog_listing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, CatalogError, ContractViolation

MAX_GRID_STEPS = 2 ** 20


# --------------------------------------------------------------------------
# time grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T]; the discretisation backbone of every
    solver in the package."""

    horizon: float
    steps: int
    dt: float
    nodes: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)

    def time(self, i: int) -> float:
        return self.nodes[i]


def make_grid(horizon: float, steps: int) -> TimeGrid:
    """Build a uniform grid with ``steps`` intervals on [0, horizon]."""
    if not math.isfinite(horizon) or horizon <= 0.0:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if int(steps) != steps or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    steps = int(steps)
    if steps > MAX_GRID_STEPS:
        raise CapacityError(f"steps={steps} exceeds the hard cap {MAX_GRID_STEPS}")
    dt = horizon / steps
    nodes = np.linspace(0.0, horizon, steps + 1)
    return TimeGrid(horizon=float(horizon), steps=steps, dt=dt, nodes=nodes)


# --------------------------------------------------------------------------
# drivers
# --------------------------------------------------------------------------

DriverPart = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DriverSpec:
    """The pair (f, g) of a scalar-noise equation and its declared metadata.

    ``growth_k`` and ``growth_d`` bound |f(t,y,z)| <= D + K|y| + K|z|;
    ``g_lip_y`` and ``g_lip_z_sq`` are the constants of the quadratic
    contraction estimate |dg|^2 <= C |dy|^2 + alpha |dz|^2 with alpha < 1.
    ``f_lipschitz`` is the l1 Lipschitz constant of f in (y, z) when known.
    Declared constants are trusted by the solvers, not checked.

    ``f`` and ``g`` must be pointwise: the value at a node depends on t and
    that node's (y, z) alone, never on its position in the array or on
    the other nodes.  Solvers may call them on any subset of the nodes; the
    lattice sweep calls them once per distinct row of a step.
    """

    f: DriverPart
    g: DriverPart
    growth_k: float | None = None
    growth_d: float | None = None
    g_lip_y: float = 0.0
    g_lip_z_sq: float = 0.0
    f_lipschitz: float | None = None
    f_time_invariant: bool = False
    f_z_independent: bool = False
    descriptor: str = "custom"

    def __post_init__(self):
        if not (0.0 <= self.g_lip_z_sq < 1.0):
            raise ContractViolation(
                f"squared z-slope of g must lie in [0, 1), got {self.g_lip_z_sq}"
            )
        if self.f_lipschitz is None and (self.growth_k is None or self.growth_d is None):
            raise ContractViolation(
                "a driver without a Lipschitz constant must declare the "
                "linear-growth constants K and D"
            )

    @property
    def lip_bound(self) -> float:
        """Constant used by the explicit-scheme step-size guard."""
        if self.f_lipschitz is not None:
            return self.f_lipschitz
        return self.growth_k

    def with_f(self, f_new: DriverPart, **meta) -> "DriverSpec":
        return replace(self, f=f_new, **meta)


def _const(c: float) -> DriverPart:
    value = np.float64(c)
    views = {}

    def part(t, y, z):
        # one read-only zero-stride view of the value per shape, made on
        # the first call with that shape; outputs are only read
        shape = np.shape(y)
        out = views.get(shape)
        if out is None:
            out = views[shape] = np.broadcast_to(value, shape)
        return out

    return part


def _zero(t, y, z):
    return np.zeros_like(np.asarray(y, dtype=float))


_ZERO = np.zeros(())
_ZERO.setflags(write=False)


def scalar_drift(part: DriverPart) -> Callable[[float, float], float]:
    """The plain-float step function ``(t, y) -> f(t, y, 0)`` of a drift
    part, bitwise equal to ``float(part(t, y, 0.0))`` on a 0-d y: the
    part's own ``scalar_drift()`` when it gives one (catalog drifts carry
    a ``math`` twin, a 1-d convolution table its probe), else a wrapper
    around the numpy call."""
    own = getattr(part, "scalar_drift", None)
    step = own() if own is not None else None
    if step is None:
        def step(t, y):
            return float(part(t, np.asarray(y), _ZERO))

    return step


def _with_twin(part: DriverPart, twin: Callable[[float, float], float]) -> DriverPart:
    """Attach the plain-float twin that :func:`scalar_drift` hands out.
    ``math.sqrt`` and ``np.sqrt`` are both correctly rounded, so a twin
    written with the numpy part's operations in the same order keeps
    every bit."""
    part.scalar_drift = lambda: twin
    return part


_with_twin(_zero, lambda t, y: 0.0)


_F_CATALOG = {
    "zero": 0,
    "f_constant": 1,
    "f_linear": 2,
    "f_sqrt_pos": 1,
}
_G_CATALOG = {
    "g_zero": 0,
    "g_constant": 1,
    "g_linear": 1,
    "g_sine": 2,
}


def _build_f(name: str, params: Sequence[float]) -> dict:
    if name == "zero":
        return dict(f=_zero, growth_k=0.0, growth_d=0.0, f_lipschitz=0.0,
                    f_z_independent=True)
    if name == "f_constant":
        (c,) = params
        return dict(f=_with_twin(_const(c), lambda t, y: c), growth_k=0.0,
                    growth_d=abs(c), f_lipschitz=0.0, f_z_independent=True)
    if name == "f_linear":
        a_y, a_z = params
        a_z0 = a_z * 0.0

        def f(t, y, z):
            return a_y * np.asarray(y, dtype=float) + a_z * np.asarray(z, dtype=float)

        lip = max(abs(a_y), abs(a_z))
        return dict(f=_with_twin(f, lambda t, y: a_y * y + a_z0), growth_k=lip,
                    growth_d=0.0, f_lipschitz=lip, f_z_independent=(a_z == 0.0))
    if name == "f_sqrt_pos":
        (c,) = params
        if c < 0:
            raise CatalogError("f_sqrt_pos expects a nonnegative coefficient")

        def f(t, y, z):
            return c * np.sqrt(np.maximum(np.asarray(y, dtype=float), 0.0))

        def twin(t, y):
            # np.maximum(y, 0.0) keeps a NaN and turns -0.0 into +0.0
            return c * math.sqrt(y if y > 0.0 or y != y else 0.0)

        # c*sqrt(y+) <= c + c|y|: continuous with linear growth, but the
        # slope blows up at the origin so no Lipschitz constant is declared.
        return dict(f=_with_twin(f, twin), growth_k=c, growth_d=c,
                    f_lipschitz=None, f_z_independent=True)
    raise CatalogError(f"unknown drift part {name!r}")


def _build_g(name: str, params: Sequence[float]) -> dict:
    if name == "g_zero":
        return dict(g=_zero, g_lip_y=0.0, g_lip_z_sq=0.0)
    if name == "g_constant":
        (gamma,) = params
        return dict(g=_const(gamma), g_lip_y=0.0, g_lip_z_sq=0.0)
    if name == "g_linear":
        (beta,) = params
        if abs(beta) >= 1.0:
            raise ContractViolation(
                f"g_linear slope {beta} gives squared z-slope {beta * beta}; "
                "the backward-noise coefficient must have squared z-slope < 1"
            )

        def g(t, y, z):
            return beta * np.asarray(z, dtype=float)

        return dict(g=g, g_lip_y=0.0, g_lip_z_sq=beta * beta)
    if name == "g_sine":
        beta, amp = params
        slope = abs(beta) + abs(amp)
        if slope >= 1.0:
            raise ContractViolation(
                f"g_sine(beta={beta}, amp={amp}) has z-slope up to {slope}; "
                "the squared z-slope must stay < 1"
            )

        def g(t, y, z):
            z = np.asarray(z, dtype=float)
            return beta * z + amp * np.sin(z)

        return dict(g=g, g_lip_y=0.0, g_lip_z_sq=slope * slope)
    raise CatalogError(f"unknown noise part {name!r}")


def _check_arity(name: str, params: Sequence[float], catalog: dict):
    if name not in catalog:
        raise CatalogError(f"unknown catalog name {name!r}")
    if len(params) != catalog[name]:
        raise CatalogError(
            f"{name} expects {catalog[name]} parameter(s), got {len(params)}"
        )


def builtin_driver(name: str, params: Sequence[float] = ()) -> DriverSpec:
    """Instantiate one catalog part as a full driver; the other part is zero.

    Drift names: zero, f_constant(c), f_linear(a_y, a_z), f_sqrt_pos(c).
    Noise names: g_zero, g_constant(gamma), g_linear(beta), g_sine(beta, amp).
    Use :func:`driver_pair` to combine a drift part with a noise part.
    """
    if name in _F_CATALOG:
        return driver_pair(name, params)
    if name in _G_CATALOG:
        return driver_pair("zero", (), name, params)
    raise CatalogError(f"unknown catalog name {name!r}")


def driver_pair(f_name: str, f_params: Sequence[float] = (),
                g_name: str = "g_zero", g_params: Sequence[float] = ()) -> DriverSpec:
    """Combine a drift catalog entry with a noise catalog entry."""
    f_params = tuple(float(p) for p in f_params)
    g_params = tuple(float(p) for p in g_params)
    _check_arity(f_name, f_params, _F_CATALOG)
    _check_arity(g_name, g_params, _G_CATALOG)
    f_meta = _build_f(f_name, f_params)
    g_meta = _build_g(g_name, g_params)
    return DriverSpec(f_time_invariant=True,
                      descriptor=_describe(f_name, f_params, g_name, g_params),
                      **f_meta, **g_meta)


def _describe(f_name, f_params, g_name, g_params) -> str:
    def one(n, p):
        return n if not p else f"{n}({', '.join(repr(x) for x in p)})"

    return f"{one(f_name, f_params)} + {one(g_name, g_params)}"


def shifted_driver(base: DriverSpec, offset: float) -> DriverSpec:
    """Driver with f replaced by f + offset (g unchanged); metadata updated."""
    base_f = base.f

    def f(t, y, z):
        return base_f(t, y, z) + offset

    return base.with_f(
        f,
        growth_d=(base.growth_d or 0.0) + abs(offset),
        descriptor=f"({base.descriptor}) shifted by {offset!r}",
    )


# --------------------------------------------------------------------------
# terminal functionals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalSpec:
    """Terminal functional xi as a function of the forward-noise increments.

    ``evaluate`` maps an array whose last axis holds the per-step W
    increments to the terminal value; it is vectorised over leading axes.
    By construction the value cannot depend on backward-noise coordinates.

    ``evaluate`` must be row-wise: the value of a leaf depends on its own
    row of increments alone, never on its position in the array or on the
    other rows.  The lattice solver evaluates such a terminal on blocks of
    leaves, as drivers are evaluated on any subset of the nodes.

    ``of_w_t``, when given, is the terminal as a vectorised function of
    W_T, the sum of the increments, alone; ``evaluate`` must then equal
    ``of_w_t(w.sum(axis=-1))`` (:func:`terminal_of_w_t` builds such a
    pair).  The lattice solver then evaluates it once on the N + 1 lattice
    levels of W_T and gives each leaf the level of its up-step count, so
    leaves with equal counts hold equal bytes.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    descriptor: str = "custom"
    bound_c0: float | None = None
    of_w_t: Callable[[np.ndarray], np.ndarray] | None = None


def terminal_of_w_t(of_w_t: Callable[[np.ndarray], np.ndarray],
                    descriptor: str, bound_c0: float | None = None) -> TerminalSpec:
    """A terminal that depends on the path only through W_T: ``evaluate``
    sums the increments and applies ``of_w_t``."""
    return TerminalSpec(lambda w: of_w_t(np.asarray(w).sum(axis=-1)),
                        descriptor, bound_c0, of_w_t)


_T_CATALOG = {
    "constant": 1,
    "w_terminal": 0,
    "w_terminal_sq": 0,
    "call": 1,
    "w_terminal_pos": 0,
}


def builtin_terminal(name: str, params: Sequence[float] = ()) -> TerminalSpec:
    """Instantiate a terminal functional from the catalog.

    Names: constant(c), w_terminal, w_terminal_sq, call(k), w_terminal_pos.
    All depend on the increments only through their sum W_T and declare
    that form (:func:`terminal_of_w_t`).
    """
    params = tuple(float(p) for p in params)
    _check_arity(name, params, _T_CATALOG)
    if name == "constant":
        (c,) = params
        return terminal_of_w_t(lambda w_t: np.full(np.shape(w_t), c),
                               f"constant({c!r})", bound_c0=abs(c))
    if name == "w_terminal":
        return terminal_of_w_t(lambda w_t: w_t, "w_terminal")
    if name == "w_terminal_sq":
        return terminal_of_w_t(lambda w_t: w_t ** 2, "w_terminal_sq")
    if name == "call":
        (k,) = params
        return terminal_of_w_t(lambda w_t: np.maximum(w_t - k, 0.0), f"call({k!r})")
    if name == "w_terminal_pos":
        return terminal_of_w_t(lambda w_t: np.maximum(w_t, 0.0), "w_terminal_pos")
    raise CatalogError(f"unknown terminal name {name!r}")


def catalog_listing() -> str:
    """Stable, human-readable listing of every catalog name and arity."""
    lines = ["drift parts:"]
    for name in sorted(_F_CATALOG):
        lines.append(f"  {name}  (params: {_F_CATALOG[name]})")
    lines.append("noise parts:")
    for name in sorted(_G_CATALOG):
        lines.append(f"  {name}  (params: {_G_CATALOG[name]})")
    lines.append("terminals:")
    for name in sorted(_T_CATALOG):
        lines.append(f"  {name}  (params: {_T_CATALOG[name]})")
    return "\n".join(lines)
