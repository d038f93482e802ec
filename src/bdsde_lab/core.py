"""Domain types and catalogs: time grids, driver pairs, terminal functionals,
and empirical contract checking of their declared regularity metadata.

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
from dataclasses import dataclass, field, replace
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
    """The pair (f, g) together with its declared regularity metadata.

    ``growth_k`` and ``growth_d`` bound |f(t,y,z)| <= D + K|y| + K|z|;
    ``g_lip_y`` and ``g_lip_z_sq`` are the constants of the quadratic
    contraction estimate |dg|^2 <= C |dy|^2 + alpha |dz|^2 with alpha < 1.
    ``f_lipschitz`` is the l1 Lipschitz constant of f in (y, z) when known.
    Declared constants are trusted by the solvers; the empirical checker
    :func:`check_driver_contract` can refute them but never certify them.

    ``f`` and ``g`` must be pointwise: the value at a node depends on t and
    that node's (y, z) alone, never on its position in the array or on
    the other nodes.  Solvers may call them on any subset of the nodes; the
    lattice sweep calls them once per distinct row of a step.
    """

    f: DriverPart
    g: DriverPart
    dim_d: int = 1
    dim_l: int = 1
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
    def part(t, y, z):
        return np.full_like(np.asarray(y, dtype=float), c)

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
    other rows.  The lattice solver evaluates the terminal on blocks of
    leaves, as drivers are evaluated on any subset of the nodes.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    descriptor: str = "custom"
    bound_c0: float | None = None


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
    All depend on the increments only through their sum W_T.
    """
    params = tuple(float(p) for p in params)
    _check_arity(name, params, _T_CATALOG)
    if name == "constant":
        (c,) = params

        def evaluate(w_inc):
            return np.full(np.asarray(w_inc).shape[:-1], c)

        return TerminalSpec(evaluate, f"constant({c!r})", bound_c0=abs(c))
    if name == "w_terminal":
        return TerminalSpec(lambda w: np.asarray(w).sum(axis=-1), "w_terminal")
    if name == "w_terminal_sq":
        return TerminalSpec(lambda w: np.asarray(w).sum(axis=-1) ** 2, "w_terminal_sq")
    if name == "call":
        (k,) = params

        def evaluate(w_inc):
            return np.maximum(np.asarray(w_inc).sum(axis=-1) - k, 0.0)

        return TerminalSpec(evaluate, f"call({k!r})")
    if name == "w_terminal_pos":
        return TerminalSpec(
            lambda w: np.maximum(np.asarray(w).sum(axis=-1), 0.0), "w_terminal_pos"
        )
    raise CatalogError(f"unknown terminal name {name!r}")


# --------------------------------------------------------------------------
# empirical contract checking
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    point_a: tuple
    point_b: tuple | None
    value_a: float
    value_b: float | None
    quotient: float | None = None


@dataclass(frozen=True)
class ContractReport:
    """Empirical estimates of the driver's regularity constants.

    Verdict keys (per checked property): ``f_lipschitz``, ``g_y_lipschitz``,
    ``g_z_contraction``, ``f_continuity``, ``f_linear_growth``,
    ``f_z_lipschitz``, ``f_y_equicontinuity``, ``f_local_lipschitz``.
    Values are "pass", "fail", or "not-declared".  Estimation can only
    refute declared constants, never certify them.
    """

    estimated_lip_f: float
    estimated_lip_g_y: float
    estimated_lip_g_z_sq: float
    growth_violations: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    slack: float = 1e-9

    @property
    def all_pass(self) -> bool:
        return all(v != "fail" for v in self.verdicts.values())


def _probe_pairs(rng, count, radius):
    """Probe pairs: bulk uniform in the radius box plus geometric shells
    shrinking toward the origin (where local-slope blowups hide)."""
    n_uniform = max(1, int(count * 0.7))
    n_small = count - n_uniform
    p1 = rng.uniform(-radius, radius, size=(n_uniform, 2))
    p2 = rng.uniform(-radius, radius, size=(n_uniform, 2))
    scales = radius * 10.0 ** (-(np.arange(n_small) % 14).astype(float))
    q1 = rng.uniform(-1, 1, size=(n_small, 2)) * scales[:, None]
    q2 = rng.uniform(-1, 1, size=(n_small, 2)) * scales[:, None]
    a = np.vstack([p1, q1])
    b = np.vstack([p2, q2])
    return a, b


def check_driver_contract(driver: DriverSpec, probe_count: int = 10_000,
                          radius: float = 10.0, seed: int = 0,
                          slack: float = 1e-9) -> ContractReport:
    """Probe the driver and compare difference quotients against its
    declared metadata with multiplicative slack ``1 + slack``.

    Deterministic for a fixed seed.  Report-only: never raises on a
    violation.  Distances use the l1 metric on (y, z).
    """
    if probe_count < 2:
        raise ValueError("probe_count must be >= 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 1.0, size=8)
    allow = 1.0 + slack

    a, b = _probe_pairs(rng, probe_count, radius)
    verdicts: dict[str, str] = {}
    witnesses: dict[str, Witness] = {}

    # --- f: l1 quotients over joint and axis-aligned pairs -----------------
    lip_f = 0.0
    wit_f = None
    pair_families = (
        (a[:, 0], a[:, 1], b[:, 0], b[:, 1]),    # joint moves
        (a[:, 0], a[:, 1], b[:, 0], a[:, 1]),    # y-only moves
        (a[:, 0], a[:, 1], a[:, 0], b[:, 1]),    # z-only moves
    )
    for t in ts:
        for y1, z1, y2, z2 in pair_families:
            fa = np.asarray(driver.f(t, y1, z1), dtype=float)
            fb = np.asarray(driver.f(t, y2, z2), dtype=float)
            den = np.abs(y1 - y2) + np.abs(z1 - z2)
            ok = den > 0
            q = np.abs(fa - fb)[ok] / den[ok]
            if q.size:
                i = int(np.argmax(q))
                if q[i] > lip_f:
                    lip_f = float(q[i])
                    ia = np.flatnonzero(ok)[i]
                    wit_f = Witness((t, y1[ia], z1[ia]), (t, y2[ia], z2[ia]),
                                    float(fa[ia]), float(fb[ia]), float(q[i]))
    if driver.f_lipschitz is None:
        verdicts["f_lipschitz"] = "not-declared"
    elif lip_f <= driver.f_lipschitz * allow + slack:
        verdicts["f_lipschitz"] = "pass"
    else:
        verdicts["f_lipschitz"] = "fail"
        witnesses["f_lipschitz"] = wit_f

    # --- g: y-only and z-only quotients ----------------------------------
    lip_gy = 0.0
    lip_gz = 0.0
    for t in ts:
        z_fixed = a[:, 1]
        ga = np.asarray(driver.g(t, a[:, 0], z_fixed), dtype=float)
        gb = np.asarray(driver.g(t, b[:, 0], z_fixed), dtype=float)
        den = np.abs(a[:, 0] - b[:, 0])
        ok = den > 0
        if ok.any():
            lip_gy = max(lip_gy, float(np.max(np.abs(ga - gb)[ok] / den[ok])))
        y_fixed = a[:, 0]
        ga = np.asarray(driver.g(t, y_fixed, a[:, 1]), dtype=float)
        gb = np.asarray(driver.g(t, y_fixed, b[:, 1]), dtype=float)
        den = np.abs(a[:, 1] - b[:, 1])
        ok = den > 0
        if ok.any():
            lip_gz = max(lip_gz, float(np.max(np.abs(ga - gb)[ok] / den[ok])))
    verdicts["g_y_lipschitz"] = (
        "pass" if lip_gy * lip_gy <= driver.g_lip_y * allow + slack else "fail"
    )
    verdicts["g_z_contraction"] = (
        "pass" if lip_gz * lip_gz <= driver.g_lip_z_sq * allow + slack else "fail"
    )

    # --- f: linear growth --------------------------------------------------
    growth_violations = []
    if driver.growth_k is not None and driver.growth_d is not None:
        for t in ts:
            fv = np.asarray(driver.f(t, a[:, 0], a[:, 1]), dtype=float)
            bound = (driver.growth_d + driver.growth_k * (np.abs(a[:, 0])
                     + np.abs(a[:, 1])))
            bad = np.abs(fv) > bound * allow + slack
            for i in np.flatnonzero(bad)[:4]:
                growth_violations.append(
                    Witness((t, a[i, 0], a[i, 1]), None, float(fv[i]),
                            float(bound[i]))
                )
        verdicts["f_linear_growth"] = "pass" if not growth_violations else "fail"
    else:
        verdicts["f_linear_growth"] = "not-declared"

    # --- continuity / equicontinuity / local-slope probes ------------------
    anchors = np.vstack([rng.uniform(-radius, radius, size=(48, 2)),
                         np.zeros((1, 2))])
    t0 = float(ts[0])
    f_at = np.asarray(driver.f(t0, anchors[:, 0], anchors[:, 1]), dtype=float)

    def _step_probe(axis: int, h: float):
        shifted = anchors.copy()
        shifted[:, axis] += h
        fv = np.asarray(driver.f(t0, shifted[:, 0], shifted[:, 1]), dtype=float)
        return np.abs(fv - f_at)

    h_small = radius * 1e-9
    jump_y = float(np.max(_step_probe(0, h_small)))
    jump_z = float(np.max(_step_probe(1, h_small)))
    cont_tol = 1e-3 * (1.0 + float(np.max(np.abs(f_at))))
    verdicts["f_continuity"] = "pass" if max(jump_y, jump_z) <= cont_tol else "fail"
    verdicts["f_y_equicontinuity"] = "pass" if jump_y <= cont_tol else "fail"

    def _quotient(axis: int, h: float) -> float:
        return float(np.max(_step_probe(axis, h))) / h

    k_ref = max(1.0, driver.growth_k or 0.0, driver.f_lipschitz or 0.0)
    qz_large, qz_small = _quotient(1, radius * 0.1), _quotient(1, radius * 1e-12)
    verdicts["f_z_lipschitz"] = (
        "fail" if qz_small > max(100.0 * qz_large, 10.0 * k_ref) else "pass"
    )
    qy_large, qy_small = _quotient(0, radius * 0.1), _quotient(0, radius * 1e-12)
    verdicts["f_local_lipschitz"] = (
        "fail" if qy_small > max(100.0 * qy_large, 10.0 * k_ref) else "pass"
    )

    return ContractReport(
        estimated_lip_f=lip_f,
        estimated_lip_g_y=lip_gy,
        estimated_lip_g_z_sq=lip_gz * lip_gz,
        growth_violations=growth_violations,
        verdicts=verdicts,
        witnesses=witnesses,
        slack=slack,
    )


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
