"""Acceptance suite: one test per contract criterion, each printing a
pass/fail line with its runtime.  Tolerances are fixed here, not tuned at
run time."""

import time

import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab.errors import PremiseViolation
from bdsde_lab.harness import ComparisonCase, randomized_ordered_cases
from bdsde_lab.regularize import ConvGridSpec, sup_conv
from bdsde_lab.tree import _expand, leaf_increments

from conftest import catalog_driver_specs, catalog_terminals


def _report(number, name, started, extra=""):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - started:.1f}s)"
          f"{' ' + extra if extra else ''}")


def test_criterion_1_tree_exactness():
    started = time.time()
    grid = bl.make_grid(1.0, 12)
    f_entries, g_entries = catalog_driver_specs()
    worst = 0.0
    for f_name, f_params in f_entries:
        for g_name, g_params in g_entries:
            driver = bl.driver_pair(f_name, f_params, g_name, g_params)
            for t_name, t_params in catalog_terminals():
                terminal = bl.builtin_terminal(t_name, t_params)
                case_start = time.time()
                with pytest.warns((RuntimeWarning, UserWarning)) \
                        if bl.stability_margin(driver, grid.dt) > 0.5 \
                        else _nullcontext():
                    sol = bl.solve_tree(driver, terminal, grid)
                residual = bl.tree_residual(sol, driver, terminal)
                bound = 1e-10 * (1.0 + sol.max_abs_y())
                assert residual <= bound, (f_name, g_name, t_name, residual)
                worst = max(worst, residual / bound)
                assert time.time() - case_start <= 10.0
    _report(1, "tree exactness over the catalog", started,
            f"worst residual at {worst:.2e} of the bound")


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_criterion_2_closed_forms():
    started = time.time()
    # (a) zero driver, terminal W_T: value 0, integrand 1, exactly
    grid2 = bl.make_grid(1.0, 2)
    sol_a = bl.solve_tree(bl.builtin_driver("zero"),
                          bl.builtin_terminal("w_terminal"), grid2)
    assert sol_a.ys[0][0, 0] == 0.0
    for zs in list(sol_a.zs)[:-1]:
        assert np.all(zs == 1.0)
    # (b) unit backward noise: Y_i is the remaining backward-noise sum,
    # bitwise in the solver's accumulation order
    grid6 = bl.make_grid(1.0, 6)
    driver_b = bl.driver_pair("zero", [], "g_constant", [1.0])
    sol_b = bl.solve_tree(driver_b, bl.builtin_terminal("constant", [0.0]),
                          grid6)
    sq = np.sqrt(grid6.dt)
    for i in range(7):
        cols = np.arange(2 ** (6 - i))
        expected = np.zeros(cols.size)
        for j in range(5, i - 1, -1):
            bit = (cols >> ((6 - i - 1) - (j - i))) & 1
            expected = np.where(bit, sq, -sq) + expected
        assert np.array_equal(sol_b.ys[i],
                              np.broadcast_to(expected, sol_b.ys[i].shape))
    # (c) linear drift compounds to 1.25^4 exactly
    sol_c = bl.solve_tree(bl.driver_pair("f_linear", [1.0, 0.0]),
                          bl.builtin_terminal("constant", [1.0]),
                          bl.make_grid(1.0, 4))
    assert sol_c.ys[0][0, 0] == 2.44140625
    _report(2, "closed forms", started)


def test_criterion_3_regularization_properties(sqrt_driver):
    started = time.time()
    rng = np.random.default_rng(101)
    probes_y = rng.uniform(-8.0, 8.0, size=10_000)
    probes_z = rng.uniform(-8.0, 8.0, size=10_000)
    spec = ConvGridSpec(radius=30.0, spacing=0.05)
    f_entries, _ = catalog_driver_specs()
    drivers = [bl.builtin_driver(name, params) for name, params in f_entries]
    for driver in drivers:
        k_base = max(driver.growth_k, 0.25)
        prev = {"sup": None, "inf": None}
        for factor in (1.0, 2.0, 4.0, 8.0):
            n = k_base * factor
            for mode in ("sup", "inf"):
                vals = bl.regularized_driver(driver, n, mode, spec).spec.f(
                    0.0, probes_y, probes_z)
                # (i) linear growth with tolerance 2 n spacing
                bound = (driver.growth_d
                         + driver.growth_k * (np.abs(probes_y) + np.abs(probes_z))
                         + 2.0 * n * spec.spacing)
                assert np.all(np.abs(vals) <= bound + 1e-12)
                # (ii) exact monotonicity in the slope
                if prev[mode] is not None:
                    if mode == "sup":
                        assert np.all(vals <= prev[mode])
                    else:
                        assert np.all(vals >= prev[mode])
                prev[mode] = vals
        # (iii) exact slope bound at 10^4 probe pairs
        p = rng.uniform(-6, 6, size=(10_000, 2))
        q = rng.uniform(-6, 6, size=(10_000, 2))
        n = k_base * 2.0
        for mode in ("sup", "inf"):
            op = bl.regularized_driver(driver, n, mode, spec).spec.f
            gap = np.abs(op(0.0, p[:, 0], p[:, 1]) - op(0.0, q[:, 0], q[:, 1]))
            l1 = np.abs(p[:, 0] - q[:, 0]) + np.abs(p[:, 1] - q[:, 1])
            assert np.all(gap <= n * l1 + 1e-12)
    # (iv) decreasing gap along the doubling schedule on the sqrt drift
    dg = 1e-5
    fine = ConvGridSpec(radius=2.0, spacing=dg)
    gaps = []
    for m in range(1, 6):
        n = 2.0 ** m
        y = 1.0 / (2.0 * n * n)
        op = sup_conv(sqrt_driver.f, n, fine, z_independent=True)
        gaps.append(abs(op(0.0, y, 0.0)
                        - float(sqrt_driver.f(0.0, np.asarray(y),
                                              np.asarray(0.0)))))
        assert gaps[-1] <= (1.5 - np.sqrt(2.0)) / n + 10.0 * dg * n
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    # spot value: sup-convolution of the sqrt drift at the origin
    dg_spot = 0.001
    spot_spec = ConvGridSpec(radius=10.0, spacing=dg_spot)
    op = sup_conv(sqrt_driver.f, 4.0, spot_spec, z_independent=True)
    assert abs(op(0.0, 0.0, 0.0) - 0.25) <= 2.0 * 4.0 * dg_spot
    elapsed = time.time() - started
    assert elapsed <= 60.0
    _report(3, "regularization properties", started)


def test_criterion_4_comparison_suites():
    started = time.time()
    # 50 randomized ordered Lipschitz pairs on the lattice
    grid = bl.make_grid(1.0, 6)
    worst_margin = np.inf
    for case in randomized_ordered_cases(50, grid, seed=2024):
        report = bl.compare_solutions(case)
        assert report.premise_ok and report.dominance_ok, case.premise
        assert report.details["stability_margin"] <= 0.5
        worst_margin = min(worst_margin, report.worst_margin)
        assert report.worst_margin >= -report.tol
    # envelope-to-envelope dominance on the sqrt family
    d2 = bl.builtin_driver("f_sqrt_pos", [2.0])
    terminal0 = bl.builtin_terminal("constant", [0.0])
    env_case = ComparisonCase(
        grid=bl.make_grid(1.0, 512), driver1=bl.shifted_driver(d2, 0.3),
        terminal1=terminal0, driver2=d2, terminal2=terminal0,
        backend="scalar", mode="envelopes", schedule=(2, 4, 8, 16, 32),
        conv_tol=0.02, probe_count=2000,
    )
    env_report = bl.compare_solutions(env_case)
    assert env_report.ok
    assert env_report.worst_margin >= -10.0 * env_case.grid.dt
    # chain through the mollified separating drift
    d2s = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.5])
    bounded = bl.builtin_terminal("constant", [0.5])
    sep_case = ComparisonCase(
        grid=bl.make_grid(1.0, 8), driver1=bl.shifted_driver(d2s, 1.0),
        terminal1=bounded, driver2=d2s, terminal2=bounded,
        mode="separating", eps_bar=1.0, delta=0.1, probe_count=2000,
    )
    sep_report = bl.compare_solutions(sep_case)
    assert sep_report.ok
    assert sep_report.details["stability_margin"] <= 0.5
    # the premise checker rejects a deliberately violated case
    with pytest.raises(PremiseViolation):
        bl.compare_solutions(ComparisonCase(
            grid=grid,
            driver1=bl.builtin_driver("zero"), terminal1=terminal0,
            driver2=bl.builtin_driver("f_constant", [0.5]),
            terminal2=terminal0, probe_count=2000,
        ))
    elapsed = time.time() - started
    assert elapsed <= 300.0
    _report(4, "comparison suites", started,
            f"worst randomized margin {worst_margin:.2e}")


def test_criterion_5_envelope(sqrt_driver, zero_terminal):
    started = time.time()
    grid = bl.make_grid(1.0, 4096)
    schedule = [2, 4, 8, 16, 32, 64, 128]
    mx = bl.maximal_solution(sqrt_driver, zero_terminal, grid,
                             schedule=schedule, tol=0.0, backend="scalar",
                             conv_tol=0.05)
    assert 0.95 <= mx.y[0] <= 1.0
    mn = bl.minimal_solution(sqrt_driver, zero_terminal, grid,
                             schedule=schedule, tol=0.0, backend="scalar",
                             conv_tol=0.05)
    assert mn.y[0] == 0.0
    prev = None
    for rec in mx.iterates:
        if prev is not None:
            assert np.all(rec.field <= prev + 1e-9)
        assert np.all(mx.u <= rec.field + 1e-9)
        prev = rec.field
    prev = None
    for rec in mn.iterates:
        if prev is not None:
            assert np.all(rec.field >= prev - 1e-9)
        assert np.all(mn.u <= rec.field + 1e-9)
        prev = rec.field
    elapsed = time.time() - started
    assert elapsed <= 30.0
    _report(5, "envelope", started, f"Ymax(0) = {mx.y[0]:.4f}")


def test_criterion_6_continuum(sqrt_driver, zero_terminal):
    started = time.time()
    grid = bl.make_grid(1.0, 4096)
    env = bl.compute_envelope(sqrt_driver, zero_terminal, grid,
                              schedule=[2, 4, 8, 16, 32, 64, 128], tol=0.0,
                              backend="scalar", conv_tol=0.02)
    lambdas = [i / 10 for i in range(11)]
    report = bl.continuum_sample(sqrt_driver, zero_terminal, grid, 0.5,
                                 lambdas, backend="scalar", envelope=env)
    assert report.distinct_pairs == 55
    assert report.all_sandwich_ok
    i0 = grid.steps // 2
    for sol, lam in zip(report.solutions, lambdas):
        eta = lam * env.y_min[i0] + (1.0 - lam) * env.y_max[i0]
        assert sol.y[i0] == eta          # bitwise splice
        scale = 1.0 + float(np.max(np.abs(sol.y)))
        assert sol.residual_off_splice <= 1e-9 * scale
    tol = 10.0 * grid.dt
    g075 = bl.glue_deterministic(sqrt_driver, zero_terminal, grid, 0.5,
                                 lam=0.75, envelope=env)
    assert abs(g075.y0 - 0.5625) <= tol
    assert abs(g075.tau_time - 0.75) <= tol
    scale075 = 1.0 + float(np.max(np.abs(g075.y)))
    assert g075.residual_off_splice <= 1e-9 * scale075
    # stochastic glue with an expanding inverse: residual still melts away
    # off the splice and the expansion flag is raised
    driver_s = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.9])
    grid10 = bl.make_grid(1.0, 10)
    with pytest.warns(RuntimeWarning):
        env10 = bl.compute_envelope(driver_s, zero_terminal, grid10,
                                    schedule=[2, 4], tol=0.0, backend="tree",
                                    conv_tol=0.05)
    h_inv = lambda t, y, zt: zt / 0.9
    assert bl.validate_inverse(driver_s.g, h_inv).h_contraction_flagged
    eta10 = bl.interpolate_target(env10, 5, 0.5)
    glued = bl.glue_solution(driver_s, h_inv, zero_terminal, 5, eta10, env10,
                             grid10, snap_tol=0.01, lam=0.5)
    ys, _ = glued.assembled_fields()
    scale = 1.0 + max(float(np.max(np.abs(y))) for y in ys)
    assert glued.residual_off_splice <= 1e-9 * scale
    np.testing.assert_array_equal(ys[5], _expand(eta10, (1024, 32)))
    assert bl.sandwich_check(ys, env10).ok
    elapsed = time.time() - started
    assert elapsed <= 120.0
    _report(6, "continuum of glued solutions", started,
            f"tau(0.75) = {g075.tau_time:.4f}")


def test_criterion_7_lsmc(zero_terminal):
    started = time.time()
    # lattice-injected regression reproduces the exact solver
    grid5 = bl.make_grid(1.0, 5)
    w_all = leaf_increments(grid5)
    sq = np.sqrt(grid5.dt)
    for f_name, f_params, g_name, g_params, t_name, t_params in (
            ("zero", [], "g_zero", [], "w_terminal", []),
            ("f_linear", [0.9, 0.0], "g_constant", [0.7], "w_terminal_sq", []),
            ("f_sqrt_pos", [2.0], "g_constant", [0.7], "call", [0.2])):
        driver = bl.driver_pair(f_name, f_params, g_name, g_params)
        terminal = bl.builtin_terminal(t_name, t_params)
        tree_sol = bl.solve_tree(driver, terminal, grid5)
        for bits in ([0, 1, 1, 0, 1], [1, 1, 1, 1, 1]):
            outer = (2.0 * np.asarray(bits, float) - 1.0)[None, :] * sq
            batch = bl.PathBatch.from_arrays(grid5, outer, w_all)
            mc = bl.solve_lsmc(driver, terminal, grid5,
                               bl.BasisSpec("indicator"), batch, ridge=0.0)
            r_idx = int("".join(map(str, bits)), 2)
            assert abs(mc.y0[0] - tree_sol.ys[0][0, r_idx]) <= 1e-8
    # gaussian regression reproduces the linear closed forms within 3 sigma
    grid16 = bl.make_grid(1.0, 16)
    paths = bl.sample_paths(grid16, (4, 100_000), seed=12345)
    mc_w = bl.solve_lsmc(bl.builtin_driver("zero"),
                         bl.builtin_terminal("w_terminal"), grid16,
                         bl.BasisSpec("poly", 2), paths)
    assert abs(float(np.mean(mc_w.y0))) <= 3.0 / np.sqrt(paths.m_inner)
    mc_e = bl.solve_lsmc(bl.driver_pair("f_linear", [1.0, 0.0]),
                         bl.builtin_terminal("w_terminal_sq"), grid16,
                         bl.BasisSpec("poly", 2), paths)
    target = (1.0 + grid16.dt) ** grid16.steps
    se = np.sqrt(2.0) * target / np.sqrt(paths.m_inner)
    assert abs(float(np.mean(mc_e.y0)) - target) <= 3.0 * se
    # first-order convergence on the linear case through the mc pipeline
    table = bl.convergence_study("linear_ode", [64, 128, 256, 512],
                                 backend="mc", m_inner=2000)
    for ratio in table.ratios():
        assert 1.7 <= ratio <= 2.4
    elapsed = time.time() - started
    assert elapsed <= 600.0
    _report(7, "regression solver vs oracle and closed forms", started,
            f"ratios {[f'{r:.2f}' for r in table.ratios()]}")


def test_criterion_8_closedness(sqrt_driver, zero_terminal):
    started = time.time()
    grid = bl.make_grid(1.0, 1024)
    env = bl.compute_envelope(sqrt_driver, zero_terminal, grid,
                              schedule=[2, 4, 8, 16, 32], tol=0.0,
                              backend="scalar", conv_tol=0.02)
    lambdas = [0.5 + 2.0 ** (-k) for k in range(2, 10)]
    paths = [bl.glue_deterministic(sqrt_driver, zero_terminal, grid, 0.5,
                                   lam=l, envelope=env).y for l in lambdas]
    report = bl.closedness_check(paths, sqrt_driver, zero_terminal, grid)
    assert report.ok
    broken = paths[-1].copy()
    broken[200] += 0.25
    bad = bl.closedness_check(paths[:-1] + [broken], sqrt_driver,
                              zero_terminal, grid)
    assert not bad.ok
    elapsed = time.time() - started
    assert elapsed <= 60.0
    _report(8, "closedness of the solution set", started)
