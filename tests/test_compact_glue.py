"""The forward segment and the lattice glue store each step on the nodes it
depends on; a plain product-space implementation, kept here as the
reference, must give the same numbers bitwise."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bdsde_lab as bl


def product(arr, n):
    """A step array on the full product node space (2**N, 2**N)."""
    arr = np.asarray(arr)
    return np.tile(np.repeat(arr, 2 ** n // arr.shape[0], axis=0),
                   (1, 2 ** n // arr.shape[1]))


def signs(n, j):
    """Sign of coordinate j along a 2**N product axis."""
    return np.where((np.arange(2 ** n) >> (n - 1 - j)) & 1, 1.0, -1.0)


def reference_forward(driver, eta, grid, i0):
    """Forward segment on the product space: (ys, zt, dw, dependence,
    residual), every array (2**N, 2**N)."""
    n, dt = grid.steps, grid.dt
    sq = np.sqrt(dt)
    shape = (2 ** n, 2 ** n)
    ys, zts, dws = [product(eta, n)], [], []
    for j in range(i0, n):
        shape4 = (2 ** j, 2, 2 ** (n - j - 1), 2 ** n)
        y3 = ys[-1].reshape(shape4)
        a = 0.5 * (y3[:, 1] + y3[:, 0])
        c = (y3[:, 1] - y3[:, 0]) / (2.0 * sq)
        zt = np.broadcast_to(np.asarray(driver.g(grid.time(j), a, c), float), a.shape)
        fv = np.asarray(driver.f(grid.time(j), a, zt), dtype=float)
        drift = a - dt * fv - zt * signs(n, j)[None, None, :] * sq
        y_next = np.empty(shape4)
        y_next[:, 1] = drift + c * sq
        y_next[:, 0] = drift - c * sq
        ys.append(y_next.reshape(shape))
        zts.append(np.broadcast_to(zt[:, None], shape4).reshape(shape))
        dws.append(np.broadcast_to(c[:, None], shape4).reshape(shape))
    dependence = np.zeros((len(ys), 2, n))
    for k, y in enumerate(ys):
        for coord in range(n):
            rows = y.reshape(2 ** coord, 2, 2 ** (n - coord - 1), 2 ** n)
            dependence[k, 0, coord] = np.max(np.abs(rows[:, 1] - rows[:, 0]))
            cols = y.reshape(2 ** n, 2 ** coord, 2, 2 ** (n - coord - 1))
            dependence[k, 1, coord] = np.max(np.abs(cols[:, :, 1] - cols[:, :, 0]))
    defects = []
    for k, j in enumerate(range(i0, n)):
        y3 = ys[k].reshape(2 ** j, 2, 2 ** (n - j - 1), 2 ** n)
        a = np.broadcast_to((0.5 * (y3[:, 1] + y3[:, 0]))[:, None],
                            y3.shape).reshape(shape)
        fv = np.asarray(driver.f(grid.time(j), a, zts[k]), dtype=float)
        rhs = a - dt * fv - zts[k] * signs(n, j)[None, :] * sq \
            + dws[k] * signs(n, j)[:, None] * sq
        defects.append(np.abs(ys[k + 1] - rhs))
    residual = float(np.max([0.0] + [np.max(d) for d in defects]))
    return ys, zts, dws, dependence, residual, defects


def backward_defect(spec, grid, i, ys, zs):
    """Product-space defect of a right-endpoint backward step i -> i+1, in
    the lattice's rounding (the backward piece and the envelope tail)."""
    n, dt = grid.steps, grid.dt
    sq = np.sqrt(dt)
    y_i, z_i = product(ys[i], n), product(zs[i], n)
    y_n, z_n = product(ys[i + 1], n), product(zs[i + 1], n)
    t_next = grid.time(i + 1)
    fv = np.asarray(spec.f(t_next, y_n, z_n), dtype=float)
    gv = np.broadcast_to(np.asarray(spec.g(t_next, y_n, z_n), float), y_n.shape)
    r, s = signs(n, i)[None, :], signs(n, i)[:, None]
    return np.abs(y_i + z_i * s * sq - ((y_n + dt * fv) + gv * sq * r))


def reference_glue(driver, eta, env, grid, i0, snap_tol):
    """Product-space glue: segment, exit step, side, assembled fields,
    off-splice residual, splice jump and ambiguous exits."""
    n = grid.steps
    seg1_y, seg1_z = bl.tree._backward_sweep(driver, grid, i0, eta)
    ys, zts, dws, dependence, seg_res, defects = reference_forward(
        driver, eta, grid, i0)
    band = [(product(env.y_min[j], n), product(env.y_max[j], n))
            for j in range(n + 1)]
    tau = np.full((2 ** n, 2 ** n), n, dtype=np.int64)
    done = np.zeros(tau.shape, dtype=bool)
    for j in range(i0, n):
        lo, hi = band[j]
        outside = ~((ys[j - i0] > lo + snap_tol) & (ys[j - i0] < hi - snap_tol))
        tau[outside & ~done] = j
        done |= outside
    near_max = np.zeros(tau.shape, dtype=bool)
    near_min = np.zeros(tau.shape, dtype=bool)
    for j in range(i0, n + 1):
        sel = tau == j
        lo, hi = band[j]
        near_max[sel] = ys[j - i0][sel] >= (hi - snap_tol)[sel]
        near_min[sel] = ys[j - i0][sel] <= (lo + snap_tol)[sel]

    def tail(i, which):
        fmax = product((env.maximal.y if which == "y" else env.maximal.z)[i], n)
        fmin = product((env.minimal.y if which == "y" else env.minimal.z)[i], n)
        return np.where(near_max, fmax, fmin)

    ay, az = [], []
    for i in range(n + 1):
        if i < i0:
            ay.append(product(seg1_y[i], n))
            az.append(product(seg1_z[i], n))
            continue
        ay.append(np.where(tau <= i, tail(i, "y"), ys[i - i0]))
        az.append(tail(i, "z") if i == n
                  else np.where(tau <= i, tail(i, "z"), dws[i - i0]))
    # one maximum over every off-splice defect (NaN when any is NaN)
    off_splice = [0.0]
    for i in range(i0):
        off_splice.append(np.max(backward_defect(
            driver, grid, i, seg1_y, seg1_z)))
    for j in range(i0, n):
        live = tau > j
        if np.any(live):
            off_splice.append(np.max(defects[j - i0][live]))
    for side, mask in ((env.maximal, near_max), (env.minimal, ~near_max)):
        for i in range(i0, n):
            in_tail = (tau <= i) & mask
            if np.any(in_tail):
                res = backward_defect(side.final_reg_spec, grid, i, side.y,
                                      side.z)
                off_splice.append(np.max(res[in_tail]))
    worst = float(np.max(off_splice))
    splice = 0.0
    for j in range(i0, n + 1):
        sel = tau == j
        if np.any(sel):
            splice = max(splice, float(np.max(np.abs(tail(j, "y") - ys[j - i0])[sel])))
    return {"ys": ys, "zt": zts, "dw": dws, "dependence": dependence,
            "segment_residual": seg_res, "tau": tau, "side_is_max": near_max,
            "assembled_y": ay, "assembled_z": az, "residual": worst,
            "splice": splice,
            "ambiguous": int(np.sum(near_max & near_min & (tau < n)))}


def lattice_case(n, terminal, beta):
    """Driver, terminal, grid, envelope and the inverse of g; the sqrt drift
    makes the band between the envelope sides wide at a zero terminal."""
    driver = bl.driver_pair("f_sqrt_pos", [1.0], "g_linear", [beta])
    term = bl.builtin_terminal(terminal[0], list(terminal[1]))
    grid = bl.make_grid(1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        env = bl.compute_envelope(driver, term, grid, schedule=[1, 2],
                                  tol=0.0, backend="tree", conv_tol=0.1)
    return driver, term, grid, env, lambda t, y, zt: zt / beta


TERMINALS = [("constant", (0.0,)), ("call", (0.1,)), ("w_terminal", ())]


@st.composite
def glue_cases(draw):
    n = draw(st.integers(4, 7))
    return (n, draw(st.integers(0, n)), draw(st.floats(0.0, 1.0)),
            draw(st.sampled_from(TERMINALS)),
            draw(st.floats(0.05, 0.95)), draw(st.sampled_from([0.0, 0.001, 0.01])))


def stored_node(check, n, i0):
    """A sandwich report on the product space with its node moved to the
    stored space of its step: the node that expands onto it.  A step
    before i0 is stored on (2**i, 2**(N-i)), a later one on
    D = (2**N, 2**(N-i0)); rows repeat and columns tile on expansion, so
    the first product-space occurrence maps to the first stored one."""
    i = check.step
    rows, cols = (2 ** i, 2 ** (n - i)) if i < i0 else (2 ** n, 2 ** (n - i0))
    row, col = check.node
    return replace(check, node=(row // (2 ** n // rows), col % cols))


def _same(a, b):
    """Bitwise equality: shape, dtype and every byte (signed zeros too)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(glue_cases())
def test_compact_glue_matches_product_reference(case):
    n, i0, lam, terminal_name, beta, snap_tol = case
    driver, terminal, grid, env, h_inv = lattice_case(n, terminal_name, beta)
    eta = bl.interpolate_target(env, i0, lam)
    glued = bl.glue_solution(driver, h_inv, terminal, i0, eta, env, grid,
                             snap_tol=snap_tol, lam=lam)
    ref = reference_glue(driver, eta, env, grid, i0, snap_tol)
    seg = glued.segment2
    for j in range(i0, n + 1):
        _same(product(seg.ys[j - i0], n), ref["ys"][j - i0])
    for k in range(n - i0):
        _same(product(seg.zt[k], n), ref["zt"][k])
        _same(product(seg.dw_integrands[k], n), ref["dw"][k])
    _same(seg.dependence, ref["dependence"])
    assert seg.residual == ref["segment_residual"]
    _same(product(glued.tau, n), ref["tau"])
    _same(product(glued.side_is_max, n), ref["side_is_max"])
    ys, zs = glued.assembled_fields()
    for i in range(n + 1):
        _same(product(ys[i], n), ref["assembled_y"][i])
        _same(product(zs[i], n), ref["assembled_z"][i])
    _same(product(glued.tau * grid.dt, n), ref["tau"] * grid.dt)
    assert glued.residual_off_splice == ref["residual"]
    assert glued.splice_mismatch == ref["splice"]
    assert glued.ambiguous_exits == ref["ambiguous"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(glue_cases(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3,
                              unique=True),
       st.sampled_from([None, 0.0, 1e-3]))
def test_continuum_scan_matches_product_fields(case, lambdas, sandwich_tol):
    # one pass over the stored steps gives the sandwich reports (step, and
    # node on the stored space of that step), the pairwise distances and
    # the correctly rounded means of the product-space reference fields
    n, i0, _, terminal_name, beta, snap_tol = case
    driver, terminal, grid, env, h_inv = lattice_case(n, terminal_name, beta)
    report = bl.continuum_sample(driver, terminal, grid, i0 / n, lambdas,
                                 backend="tree", h_inv=h_inv, envelope=env,
                                 snap_tol=snap_tol, sandwich_tol=sandwich_tol)
    refs = [reference_glue(driver, bl.interpolate_target(env, i0, lam), env,
                           grid, i0, snap_tol) for lam in lambdas]
    fields = [ref["assembled_y"] for ref in refs]
    for rec, ref, ys in zip(report.records, refs, fields):
        expected = bl.sandwich_check(ys, env, tol=sandwich_tol)
        assert rec.sandwich == stored_node(expected, n, i0)
        assert rec.y0 == math.fsum(ys[0].ravel().tolist()) / 4 ** n
        assert rec.tau_mean == \
            math.fsum((ref["tau"] * grid.dt).ravel().tolist()) / 4 ** n
    for a in range(len(fields)):
        for b in range(len(fields)):
            expected = 0.0 if a == b else bl.fields.sup_distance(fields[a], fields[b])
            assert report.pairwise_distances[a, b] == expected


def _glue_stores_steps_on_their_nodes(n, i0):
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.9])
    terminal = bl.builtin_terminal("constant", [0.0])
    grid = bl.make_grid(1.0, n)
    with pytest.warns(RuntimeWarning):
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                  tol=0.0, backend="tree", conv_tol=0.05)
    eta = bl.interpolate_target(env, i0, 0.5)
    glued = bl.glue_solution(driver, lambda t, y, zt: zt / 0.9, terminal, i0,
                             eta, env, grid,
                             snap_tol=0.01, lam=0.5)
    seg = glued.segment2
    stored = sum(a.size for a in (*seg.ys, *seg.zt, *seg.dw_integrands))
    assert stored <= 3 * 2 ** (n + 1) * 2 ** (n - i0)
    assert glued.tau.shape == glued.side_is_max.shape == (2 ** n, 2 ** (n - i0))
    assert glued.residual_off_splice <= 1e-9 * (1.0 + glued.step_field(0).max())
    assert glued.splice_mismatch <= glued.snap_tol + 10.0 * grid.dt


def test_glue_at_the_forward_cap_stores_steps_on_their_nodes():
    # N = 12 was the step cap; at i0 = 0 its D is exactly the byte cap
    _glue_stores_steps_on_their_nodes(12, 6)


def test_glue_above_the_old_step_cap_under_the_byte_cap():
    # D = 2**14 x 2**2 nodes, far under the byte cap
    _glue_stores_steps_on_their_nodes(14, 12)


def test_continuum_sample_holds_no_product_space_array():
    # one float64 array over the 4**N product space is 32 MiB at N = 11;
    # D = (2**11, 2**5) is 512 KiB
    n, i0 = 11, 6
    driver, terminal, grid, env, h_inv = lattice_case(n, ("call", (0.1,)), 0.9)
    tracemalloc.start()
    try:
        bl.continuum_sample(driver, terminal, grid, i0 / n, [0.25, 0.75],
                            backend="tree", h_inv=h_inv, envelope=env,
                            snap_tol=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
