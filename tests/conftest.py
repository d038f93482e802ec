import struct
import tracemalloc

import numpy as np
import pytest

import bdsde_lab as bl
import bdsde_lab.lsmc as lsmc
from bdsde_lab.errors import NumericError, RegressionError


@pytest.fixture
def grid4():
    return bl.make_grid(1.0, 4)


@pytest.fixture
def grid8():
    return bl.make_grid(1.0, 8)


@pytest.fixture
def sqrt_driver():
    return bl.builtin_driver("f_sqrt_pos", [2.0])


@pytest.fixture
def zero_terminal():
    return bl.builtin_terminal("constant", [0.0])


def catalog_driver_specs():
    """Canonical parameterisation of every catalog driver part."""
    f_entries = [
        ("zero", []),
        ("f_constant", [0.8]),
        ("f_linear", [0.6, 0.3]),
        ("f_sqrt_pos", [2.0]),
    ]
    g_entries = [
        ("g_zero", []),
        ("g_constant", [0.7]),
        ("g_linear", [0.8]),
        ("g_sine", [0.5, 0.3]),
    ]
    return f_entries, g_entries


def catalog_terminals():
    return [
        ("constant", [1.5]),
        ("w_terminal", []),
        ("w_terminal_sq", []),
        ("call", [0.5]),
        ("w_terminal_pos", []),
    ]


def _g_python_float(t, y, z):
    return 0.3


def _f_own_argument(t, y, z):
    return y


def _g_own_y(t, y, z):
    return y


def _g_own_z(t, y, z):
    return z


def custom_drivers():
    """Drivers whose outputs a buffered step must only read: g hands back a
    Python float, f hands back its own y argument, g its own y or z (a
    z-slope of 1, outside the contract: these drivers test aliasing, not
    the scheme)."""
    sqrt_f = bl.builtin_driver("f_sqrt_pos", [2.0]).f
    return {
        "g returns its own y": bl.DriverSpec(
            f=sqrt_f, g=_g_own_y, growth_k=2.0, growth_d=2.0, g_lip_y=1.0),
        "g returns its own z": bl.DriverSpec(
            f=sqrt_f, g=_g_own_z, growth_k=2.0, growth_d=2.0),
        "g returns a Python float": bl.DriverSpec(
            f=sqrt_f, g=_g_python_float, growth_k=2.0, growth_d=2.0),
        "f returns its own y": bl.DriverSpec(
            f=_f_own_argument,
            g=bl.driver_pair("zero", [], "g_sine", [0.5, 0.3]).g,
            g_lip_z_sq=0.64, f_lipschitz=1.0),
    }


def nan_base_driver():
    """The catalog driver that :func:`nan_driver` poisons."""
    return bl.driver_pair("f_linear", [0.6, 0.3], "g_linear", [0.8])


def nan_driver(part, step, at):
    """Catalog f_linear + g_linear whose ``part`` reads NaN wherever its
    argument (y, z) equals ``at`` when evaluated at the time of ``step`` on
    a 6-step grid.  The poison depends on the value alone, as a driver
    must: a solver may evaluate it on any subset of nodes."""
    base = nan_base_driver()
    t_step = bl.make_grid(1.0, 6).time(step)
    y_at, z_at = at

    def poisoned(inner):
        def call(t, y, z):
            out = np.array(inner(t, y, z), dtype=float)
            if t == t_step:
                hit = (np.asarray(y) == y_at) & (np.asarray(z) == z_at)
                out[np.broadcast_to(hit, out.shape)] = np.nan
            return out
        return call

    if part == "f":
        return bl.DriverSpec(f=poisoned(base.f), g=base.g, g_lip_z_sq=0.64,
                             f_lipschitz=0.6)
    return bl.DriverSpec(f=base.f, g=poisoned(base.g), g_lip_z_sq=0.64,
                         f_lipschitz=0.6)


def nan_driver_target(solve, step, node):
    """The argument (y, z) at ``node`` (an index tuple, or an int counted
    over the arguments in C order) of the first evaluation of the
    unpoisoned :func:`nan_driver` at the time of ``step`` when
    ``solve(driver)`` runs it."""
    base = nan_base_driver()
    t_step = bl.make_grid(1.0, 6).time(step)
    seen = []

    def f(t, y, z):
        if t == t_step and not seen:
            y_b, z_b = np.broadcast_arrays(y, z)
            at = node if isinstance(node, tuple) else \
                np.unravel_index(node, y_b.shape)
            seen.append((float(y_b[at]), float(z_b[at])))
        return base.f(t, y, z)

    solve(bl.DriverSpec(f=f, g=base.g, g_lip_z_sq=0.64, f_lipschitz=0.6))
    return seen[0]


def traced_peak(fn):
    """``fn()`` and the tracemalloc peak of the bytes it allocated."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_force_conv(f, n, t, y, z, mode, radius, spacing):
    """Independent dense-scan oracle for the truncated convolutions on the
    fixed grid centred at the origin."""
    m = int(np.ceil(radius / spacing))
    off = spacing * np.arange(-m, m + 1)
    yy = np.repeat(off, off.size)
    zz = np.tile(off, off.size)
    vals = np.asarray(f(t, yy, zz), dtype=float)
    pen = n * (np.abs(yy - y) + np.abs(zz - z))
    if mode == "sup":
        return float(np.max(vals - pen))
    return float(np.min(vals + pen))


def sequential_transform_1d(values, step_cost, mode):
    """Oracle for ``ConvolvedPart._transform_1d``: the two sequential
    plain-float sweeps over every node, ``out[i] = best(out[i], out[i -+ 1]
    -+ step_cost)``."""
    out = np.asarray(values, dtype=float).tolist()
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
    return np.asarray(out, dtype=float)


def reference_leaf_increments(grid):
    """Oracle for ``tree.leaf_increments``: one strided column per step,
    then the whole array times sqrt(dt)."""
    n = grid.steps
    idx = np.arange(2 ** n)
    signs = np.empty((2 ** n, n))
    for j in range(n):
        signs[:, j] = np.where((idx >> (n - 1 - j)) & 1, 1.0, -1.0)
    return signs * np.sqrt(grid.dt)


def reference_terminal_values(terminal, grid):
    """Oracle for ``tree._terminal_values``: a terminal with a W_T form
    reads it at W_T = sqrt(dt) (2k - N), k the number of + increments of
    the leaf's row of :func:`reference_leaf_increments`; any other
    terminal is one whole-array ``evaluate``."""
    inc = reference_leaf_increments(grid)
    if terminal.of_w_t is None:
        return np.asarray(terminal.evaluate(inc), dtype=float)
    ups = np.count_nonzero(inc > 0.0, axis=1)
    w_t = np.sqrt(grid.dt) * (2 * ups - grid.steps).astype(float)
    return np.broadcast_to(np.asarray(terminal.of_w_t(w_t), dtype=float),
                           w_t.shape).copy()


def reference_backward_sweep(driver, grid, start_step, start_y):
    """Oracle for ``tree._backward_sweep``: the backward recursion with a
    fresh temporary for every intermediate of every step."""
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    ys = [None] * (start_step + 1)
    zs = [None] * (start_step + 1)
    ys[start_step] = np.asarray(start_y, dtype=float)
    zs[start_step] = np.zeros_like(ys[start_step])
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


def reference_tree_residual(sol, driver, terminal):
    """Oracle for ``tree.tree_residual``: each step's defect formed at once
    over (history, s_i, r_i, future) in 4-d temporaries, and one maximum
    over the terminal mismatch and every defect (NaN when any is NaN)."""
    grid = sol.grid
    n = grid.steps
    dt = grid.dt
    sq = np.sqrt(dt)
    parts = [np.abs(sol.ys[n].ravel() - reference_terminal_values(terminal, grid))]
    for i in range(n):
        t_next = grid.time(i + 1)
        y_next, z_next = sol.ys[i + 1], sol.zs[i + 1]
        fv = np.asarray(driver.f(t_next, y_next, z_next), dtype=float)
        gv = np.broadcast_to(
            np.asarray(driver.g(t_next, y_next, z_next), dtype=float),
            y_next.shape,
        )
        r_sign = np.array([-1.0, 1.0])[None, None, :, None]
        rhs = (y_next + dt * fv).reshape(2 ** i, 2, 1, -1) \
            + gv.reshape(2 ** i, 2, 1, -1) * sq * r_sign
        y_i = sol.ys[i].reshape(2 ** i, 1, 2, -1)
        z_i = sol.zs[i].reshape(2 ** i, 1, 2, -1)
        s_sign = np.array([-1.0, 1.0])[None, :, None, None]
        parts.append(np.abs(y_i + z_i * s_sign * sq - rhs).ravel())
    return float(np.max(np.concatenate(parts)))


def reference_save_tree_solution(path, sol):
    """Oracle for ``tree.save_tree_solution``: each array written through a
    ``tobytes()`` copy."""
    with open(path, "wb") as fh:
        fh.write(b"BDLTREE1")
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


def philox_normals(seed, stream, path, count):
    """Standard normals from a fresh generator keyed (seed, stream << 48 |
    path), the per-path key of ``lsmc.sample_paths``."""
    key = np.array([np.uint64(seed), np.uint64((stream << 48) | path)],
                   dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(count)


def reference_sample_paths(grid, counts, seed, antithetic=False):
    """Oracle for ``lsmc.sample_paths``: one fresh generator per path, each
    path's draw scaled by sqrt(dt) on its own."""
    m_outer, m_inner = counts
    sq = np.sqrt(grid.dt)

    def draw(stream, m):
        out = np.empty((m, grid.steps))
        for p in range(m):
            if antithetic and p % 2 == 1:
                out[p] = -out[p - 1]
            else:
                out[p] = sq * philox_normals(seed, stream, p, grid.steps)
        return out

    return bl.PathBatch(grid=grid, b_increments=draw(0, m_outer),
                        w_increments=draw(1, m_inner))


def reference_solve_lsmc(driver, terminal, grid, basis, paths, ridge=1e-8):
    """Oracle for ``lsmc.solve_lsmc``: the projected sweep written plainly.
    Design states from a cumsum over the path-major increments, every
    design built up front, a fresh temporary for every intermediate, the
    inner rows in blocks of ``lsmc.BLOCK_ROWS`` in the same order, every
    driver value made contiguous by ``np.ascontiguousarray``, and one solve
    per target for each outer path in turn."""
    n = grid.steps
    dt = grid.dt
    m_out, m_in = paths.m_outer, paths.m_inner
    w_inc = paths.w_increments
    w_state = np.concatenate(
        [np.zeros((m_in, 1)), np.cumsum(w_inc, axis=1)], axis=1
    )
    xi = np.asarray(terminal.evaluate(w_inc), dtype=float)
    designs = [basis.design(w_state[:, i], grid.time(i), dt) for i in range(n)]
    grams = [x.T @ x + ridge * np.eye(x.shape[1]) for x in designs]
    conds_step = np.array([np.linalg.cond(g) for g in grams])
    conds = np.broadcast_to(conds_step, (m_out, n)).copy()
    blocks = [(lo, min(lo + lsmc.BLOCK_ROWS, m_in))
              for lo in range(0, m_in, lsmc.BLOCK_ROWS)]

    def driver_values(t, x_b, c_y, c_z):
        y = x_b @ c_y
        z = x_b @ c_z
        g = np.ascontiguousarray(np.broadcast_to(
            np.asarray(driver.g(t, y, z), dtype=float), y.shape))
        f = np.ascontiguousarray(np.broadcast_to(
            np.asarray(driver.f(t, y, z), dtype=float), y.shape))
        return y, f, g

    y_coeffs, z_coeffs = [None] * n, [None] * n
    final_se = None
    x_next = xi.reshape(m_in, 1)
    c_y, c_z = np.ones((1, m_out)), np.zeros((1, m_out))
    for i in range(n - 1, -1, -1):
        t_next = grid.time(i + 1)
        x = designs[i]
        w = x.shape[1]
        d = w_inc[:, i] / dt
        b = paths.b_increments[:, i]
        s_f = np.zeros((w, m_out))
        s_g = np.zeros((2 * w, m_out))
        s_x = np.zeros((2 * w, x_next.shape[1]))
        for lo, hi in blocks:
            _, f, g = driver_values(t_next, x_next[lo:hi], c_y, c_z)
            xd = np.concatenate([x[lo:hi], x[lo:hi] * d[lo:hi, None]], axis=1)
            s_f = s_f + x[lo:hi].T @ f
            s_g = s_g + xd.T @ g
            s_x = s_x + xd.T @ x_next[lo:hi]
        proj = s_x @ c_y
        rhs_z = proj[w:] + b * s_g[w:]
        rhs_y = proj[:w] + dt * s_f + b * s_g[:w]
        if not (np.all(np.isfinite(rhs_z)) and np.all(np.isfinite(rhs_y))):
            raise NumericError(f"non-finite regression target at step {i}")
        if i == 0:
            # two passes: the mean of the y target, then its spread
            targets = []
            for lo, hi in blocks:
                y, f, g = driver_values(t_next, x_next[lo:hi], c_y, c_z)
                targets.append(y + dt * f + g * b)
            mean = sum(t.sum(axis=0) for t in targets) / m_in
            square = sum(((t - mean) * (t - mean)).sum(axis=0)
                         for t in targets)
            final_se = np.sqrt(square / m_in) / np.sqrt(m_in)
        z_rows, y_rows = [], []
        for k in range(m_out):
            try:
                z_rows.append(np.linalg.solve(grams[i], rhs_z[:, k]))
                y_rows.append(np.linalg.solve(grams[i], rhs_y[:, k]))
            except np.linalg.LinAlgError as exc:
                raise RegressionError(
                    f"normal equations singular at step {i}: {exc}") from exc
        z_coeffs[i], y_coeffs[i] = np.stack(z_rows), np.stack(y_rows)
        c_y = np.stack(y_rows, axis=1)
        c_z = np.stack(z_rows, axis=1)
        x_next = x
    y0 = np.array([float(np.mean(x_next @ yc)) for yc in y_coeffs[0]])
    return lsmc.MCSolution(grid=grid, basis=basis, ridge=ridge, y0=y0,
                           y_coeffs=y_coeffs, z_coeffs=z_coeffs,
                           cond_numbers=conds, final_se=final_se)


def oracle_solve_lsmc(driver, terminal, grid, basis, paths, ridge=1e-8):
    """Independent oracle for ``lsmc.solve_lsmc``: the target regression
    the projected sweep rewrites, with design states from a cumsum over the
    path-major increments, fresh temporaries for every target, and one
    sweep and one solve per target for each outer path in turn (so its
    first error is the first failure of the lowest failing path).  It
    agrees with the projected sweep up to rounding."""
    n = grid.steps
    dt = grid.dt
    m_in = paths.m_inner
    w_inc = paths.w_increments
    w_state = np.concatenate(
        [np.zeros((m_in, 1)), np.cumsum(w_inc, axis=1)], axis=1
    )
    xi = np.asarray(terminal.evaluate(w_inc), dtype=float)
    y0 = np.empty(paths.m_outer)
    final_se = np.empty(paths.m_outer)
    y_coeffs_all, z_coeffs_all = [], []
    designs = [basis.design(w_state[:, i], grid.time(i), dt) for i in range(n)]
    grams = [x.T @ x + ridge * np.eye(x.shape[1]) for x in designs]
    conds_step = np.array([np.linalg.cond(g) for g in grams])
    conds = np.broadcast_to(conds_step, (paths.m_outer, n)).copy()
    for k in range(paths.m_outer):
        b_inc = paths.b_increments[k]
        y = xi.copy()
        z = np.zeros(m_in)
        yc, zc = [None] * n, [None] * n
        for i in range(n - 1, -1, -1):
            t_next = grid.time(i + 1)
            gv = np.asarray(driver.g(t_next, y, z), dtype=float)
            gv = np.broadcast_to(gv, y.shape)
            fv = np.asarray(driver.f(t_next, y, z), dtype=float)
            z_target = (y + gv * b_inc[i]) * w_inc[:, i] / dt
            y_target = y + dt * fv + gv * b_inc[i]
            if not (np.all(np.isfinite(z_target))
                    and np.all(np.isfinite(y_target))):
                raise NumericError(f"non-finite regression target at step {i}")
            x = designs[i]
            try:
                z_c = np.linalg.solve(grams[i], x.T @ z_target)
                y_c = np.linalg.solve(grams[i], x.T @ y_target)
            except np.linalg.LinAlgError as exc:
                raise RegressionError(
                    f"normal equations singular at step {i}: {exc}") from exc
            z = x @ z_c
            y = x @ y_c
            yc[i], zc[i] = y_c, z_c
            if i == 0:
                final_se[k] = float(np.std(y_target) / np.sqrt(m_in))
        y0[k] = float(np.mean(y))
        y_coeffs_all.append(yc)
        z_coeffs_all.append(zc)
    # per step, one coefficient row per outer path
    y_coeffs = [np.stack([yc[i] for yc in y_coeffs_all]) for i in range(n)]
    z_coeffs = [np.stack([zc[i] for zc in z_coeffs_all]) for i in range(n)]
    return lsmc.MCSolution(grid=grid, basis=basis, ridge=ridge, y0=y0,
                           y_coeffs=y_coeffs, z_coeffs=z_coeffs,
                           cond_numbers=conds, final_se=final_se)
