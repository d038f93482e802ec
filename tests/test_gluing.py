import math
from types import SimpleNamespace

import numpy as np
import pytest

import bdsde_lab as bl
import bdsde_lab.gluing as gluing
from bdsde_lab.errors import InversionError
from bdsde_lab.tree import _expand


def sqrt_setup(steps=4096, conv_tol=0.02, schedule=(2, 4, 8, 16, 32, 64, 128)):
    driver = bl.builtin_driver("f_sqrt_pos", [2.0])
    terminal = bl.builtin_terminal("constant", [0.0])
    grid = bl.make_grid(1.0, steps)
    env = bl.compute_envelope(driver, terminal, grid, schedule=list(schedule),
                              tol=0.0, backend="scalar", conv_tol=conv_tol)
    return driver, terminal, grid, env


@pytest.fixture(scope="module")
def sqrt_case():
    return sqrt_setup()


class TestValidateInverse:
    def test_linear_inverse_exact(self):
        g = lambda t, y, z: 0.5 * z
        h = lambda t, y, zt: 2.0 * zt
        rep = bl.validate_inverse(g, h, probe_count=1000, seed=0)
        assert rep.max_forward_residual == 0.0
        assert rep.max_backward_residual == 0.0
        assert rep.ok
        assert rep.estimated_h_lip_z_sq == pytest.approx(4.0)
        assert rep.h_contraction_flagged

    def test_wrong_inverse_detected(self):
        g = lambda t, y, z: 0.5 * z
        h = lambda t, y, zt: zt
        rep = bl.validate_inverse(g, h, probe_count=1000, seed=0, radius=5.0)
        assert not rep.ok
        # residual |g(h(zt)) - zt| = 0.5 |zt| reaches half the probe radius
        assert rep.max_forward_residual == pytest.approx(2.5, rel=0.05)

    def test_nan_inverse_not_ok(self):
        # a fold with Python's max would skip the NaN residuals and pass it
        g = lambda t, y, z: 0.5 * z
        h = lambda t, y, zt: np.full(np.shape(zt), np.nan)
        rep = bl.validate_inverse(g, h)
        assert math.isnan(rep.max_forward_residual)
        assert math.isnan(rep.max_backward_residual)
        assert not rep.ok

    def test_bisection_inverse_of_monotone_coefficient(self):
        # g(z) = z + 0.4 sin z is strictly increasing; invert numerically
        def g(t, y, z):
            return z + 0.4 * np.sin(z)

        def h(t, y, zt):
            zt = np.asarray(zt, dtype=float)
            lo = np.full_like(zt, -20.0)
            hi = np.full_like(zt, 20.0)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = mid + 0.4 * np.sin(mid) < zt
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            return 0.5 * (lo + hi)

        rep = bl.validate_inverse(g, h, probe_count=10_000, seed=1, radius=5.0)
        assert rep.max_forward_residual <= 1e-10
        assert rep.max_backward_residual <= 1e-10


class TestInterpolateTarget:
    def test_endpoints_bitwise(self, sqrt_case):
        _, _, grid, env = sqrt_case
        i0 = grid.steps // 2
        assert bl.interpolate_target(env, i0, 0.0) == env.y_max[i0]
        assert bl.interpolate_target(env, i0, 1.0) == env.y_min[i0]
        mid = bl.interpolate_target(env, i0, 0.5)
        assert mid == pytest.approx(0.5 * (env.y_min[i0] + env.y_max[i0]),
                                    abs=1e-15)

    def test_weight_outside_unit_interval_rejected(self, sqrt_case):
        _, _, grid, env = sqrt_case
        with pytest.raises(ValueError):
            bl.interpolate_target(env, 4, -0.1)
        with pytest.raises(ValueError):
            bl.interpolate_target(env, 4, 1.1)


class TestDeterministicGlue:
    def test_closed_form_three_quarters(self, sqrt_case):
        # eta = 0.25 Ymax(0.5) ~ 0.0625; backward sqrt dynamics give
        # y(0) = 0.5625 and the forward piece hits zero at tau = 0.75
        driver, terminal, grid, env = sqrt_case
        glued = bl.glue_deterministic(driver, terminal, grid, 0.5, lam=0.75,
                                      envelope=env)
        tol = 10.0 * grid.dt
        assert abs(glued.eta - 0.0625) <= tol
        assert abs(glued.y0 - 0.5625) <= tol
        assert abs(glued.tau_time - 0.75) <= tol
        assert not glued.side_is_max
        scale = 1.0 + float(np.max(np.abs(glued.y)))
        assert glued.residual_off_splice <= 1e-9 * scale
        # pointwise match to ((0.75 - t)+)^2 on [0.5, 1]
        i0 = grid.steps // 2
        ts = grid.nodes[i0:]
        closed = np.maximum(0.75 - ts, 0.0) ** 2
        assert np.max(np.abs(glued.y[i0:] - closed)) <= tol

    def test_minimal_branch(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        glued = bl.glue_deterministic(driver, terminal, grid, 0.5, lam=1.0,
                                      envelope=env)
        i0 = grid.steps // 2
        assert glued.eta == 0.0
        assert glued.tau_index == i0
        assert np.all(glued.y[i0:] == 0.0)

    def test_maximal_branch_follows_upper_envelope(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        glued = bl.glue_deterministic(driver, terminal, grid, 0.5, lam=0.0,
                                      envelope=env)
        assert glued.tau_index == grid.steps // 2
        assert glued.side_is_max
        assert np.max(np.abs(glued.y - np.asarray(env.y_max))) <= 10.0 * grid.dt

    def test_monotone_in_weight(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        paths = [bl.glue_deterministic(driver, terminal, grid, 0.5, lam=l,
                                       envelope=env).y
                 for l in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for upper, lower in zip(paths, paths[1:]):
            assert np.all(upper >= lower - 1e-12)

    def test_eta_out_of_band(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        with pytest.raises(ValueError, match="band"):
            bl.glue_deterministic(driver, terminal, grid, 0.5, eta=0.9,
                                  envelope=env)

    def test_nan_node_reaches_the_residual(self):
        # a fold with Python's max skips the NaN defects and reads 0.0
        driver, terminal, grid, env = sqrt_setup(steps=64,
                                                 schedule=(2, 4, 8, 16, 32))
        glued = bl.glue_deterministic(driver, terminal, grid, 0.5, lam=0.5,
                                      envelope=env)
        args = (glued.i0, glued.tau_index, glued.side_is_max)
        y = glued.y.copy()
        assert gluing._scalar_glued_residual(driver, env, grid, y, *args) \
            == glued.residual_off_splice
        y[10] = np.nan
        assert math.isnan(gluing._scalar_glued_residual(driver, env, grid, y,
                                                        *args))

    def test_off_grid_time_rejected(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        with pytest.raises(ValueError, match="grid node"):
            bl.glue_deterministic(driver, terminal, grid, 0.5 + 0.3 * grid.dt,
                                  lam=0.5, envelope=env)


class TestContinuum:
    def test_eleven_weights_all_distinct(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        lambdas = [i / 10 for i in range(11)]
        report = bl.continuum_sample(driver, terminal, grid, 0.5, lambdas,
                                     backend="scalar", envelope=env)
        assert report.distinct_pairs == 55
        assert report.all_sandwich_ok
        i0 = grid.steps // 2
        band = env.y_max[i0] - env.y_min[i0]
        # adjacent targets at t0 differ by exactly 0.1 of the band width
        for a, b in zip(report.solutions, report.solutions[1:]):
            assert abs(abs(a.y[i0] - b.y[i0]) - 0.1 * band) <= 1e-12
        assert 0.1 * band == pytest.approx(0.025, abs=2e-3)
        for rec in report.records:
            scale = 1.0 + abs(rec.y0)
            assert rec.residual_off_splice <= 1e-9 * scale

    def test_single_weight(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        report = bl.continuum_sample(driver, terminal, grid, 0.5, [0.3],
                                     backend="scalar", envelope=env)
        assert report.distinct_pairs == 0

    def test_unique_problem_collapses(self):
        driver = bl.builtin_driver("f_constant", [1.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 512)
        report = bl.continuum_sample(driver, terminal, grid, 0.5,
                                     [0.0, 0.5, 1.0], backend="scalar",
                                     schedule=[1, 2, 4], conv_tol=0.01)
        assert report.distinct_pairs == 0
        assert np.max(report.pairwise_distances) <= 10.0 * grid.dt

    def test_duplicate_weights_rejected(self, sqrt_case):
        driver, terminal, grid, env = sqrt_case
        with pytest.raises(ValueError):
            bl.continuum_sample(driver, terminal, grid, 0.5, [0.2, 0.2],
                                backend="scalar", envelope=env)


@pytest.fixture(scope="module")
def stochastic_case():
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.9])
    terminal = bl.builtin_terminal("constant", [0.0])
    grid = bl.make_grid(1.0, 10)
    with pytest.warns(RuntimeWarning):
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                  tol=0.0, backend="tree", conv_tol=0.05)
    return driver, terminal, grid, env, lambda t, y, zt: zt / 0.9


class TestLatticeGlue:
    def test_midpoint_target(self, stochastic_case):
        driver, terminal, grid, env, h_inv = stochastic_case
        # inverse slope 1/0.9 squared exceeds 1
        assert bl.validate_inverse(driver.g, h_inv).h_contraction_flagged
        i0 = 5
        eta = bl.interpolate_target(env, i0, 0.5)
        glued = bl.glue_solution(driver, h_inv, terminal, i0, eta, env, grid,
                                 snap_tol=0.01, lam=0.5)
        ys, zs = glued.assembled_fields()
        # the spliced value at t0 is the target, bitwise
        np.testing.assert_array_equal(ys[i0], _expand(eta, (1024, 32)))
        scale = 1.0 + max(float(np.max(np.abs(y))) for y in ys)
        assert glued.residual_off_splice <= 1e-9 * scale
        assert glued.splice_mismatch <= glued.snap_tol + 10.0 * grid.dt
        assert glued.ambiguous_exits == 0
        assert np.all(glued.tau >= i0) and np.all(glued.tau <= 10)
        assert bl.sandwich_check(ys, env).ok
        # terminal is pinned by the envelope tail
        np.testing.assert_array_equal(ys[10], np.zeros((1024, 32)))

    def test_exit_dichotomy(self, stochastic_case):
        driver, terminal, grid, env, h_inv = stochastic_case
        i0 = 5
        eta = bl.interpolate_target(env, i0, 0.5)
        glued = bl.glue_solution(driver, h_inv, terminal, i0, eta, env, grid,
                                 snap_tol=0.01)
        n = grid.steps
        d_shape = (2 ** n, 2 ** (n - i0))
        for j in np.unique(glued.tau):
            if j == n:
                continue
            sel = glued.tau == j
            y_j = _expand(glued.segment2.ys[j - i0], d_shape)[sel]
            lo = _expand(np.asarray(env.y_min[j]), d_shape)[sel]
            hi = _expand(np.asarray(env.y_max[j]), d_shape)[sel]
            near_max = y_j >= hi - glued.snap_tol
            near_min = y_j <= lo + glued.snap_tol
            assert np.all(near_max ^ near_min)
            assert np.array_equal(glued.side_is_max[sel], near_max)

    def test_boundary_weight_reproduces_maximal(self, stochastic_case):
        driver, terminal, grid, env, h_inv = stochastic_case
        i0 = 5
        eta = bl.interpolate_target(env, i0, 0.0)
        glued = bl.glue_solution(driver, h_inv, terminal, i0, eta, env, grid,
                                 snap_tol=0.01, lam=0.0)
        assert np.all(glued.tau == i0)
        ys, _ = glued.assembled_fields()
        worst = max(
            float(np.max(np.abs(ys[i]
                                - _expand(np.asarray(env.y_max[i]),
                                          ys[i].shape))))
            for i in range(11)
        )
        assert worst <= 10.0 * grid.dt * (1.0 + float(np.max(np.abs(ys[0]))))

    def test_scan_distance_keeps_a_nan_node(self, stochastic_case):
        # two candidates read as the envelope sides, one with a NaN node;
        # a fold with Python's max drops it and reads a finite distance
        env = stochastic_case[3]
        lo = [np.asarray(y, dtype=float) for y in env.y_min]
        hi = [np.asarray(y, dtype=float).copy() for y in env.y_max]
        candidates = [SimpleNamespace(step_field=lambda i, f=f: f[i])
                      for f in (lo, hi)]
        _, clean = gluing._lattice_scan(candidates, env, 0.0)
        assert np.all(np.isfinite(clean)) and clean[0, 1] > 0.0
        hi[3].flat[0] = np.nan
        _, distances = gluing._lattice_scan(candidates, env, 0.0)
        assert math.isnan(distances[0, 1]) and math.isnan(distances[1, 0])

    def test_matches_scalar_glue_when_coupling_off(self):
        # z stays zero throughout, so the lattice glue and the scalar glue
        # compute the same recursion
        driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.5])
        scalar_driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 8)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                  tol=0.0, backend="tree", conv_tol=0.05)
        env_scalar = bl.compute_envelope(scalar_driver, terminal, grid,
                                         schedule=[2, 4], tol=0.0,
                                         backend="scalar", conv_tol=0.05)
        h_inv = lambda t, y, zt: zt / 0.5
        i0 = 4
        eta = bl.interpolate_target(env, i0, 0.5)
        glued = bl.glue_solution(driver, h_inv, terminal, i0, eta, env, grid,
                                 snap_tol=1e-9, lam=0.5)
        scalar = bl.glue_deterministic(scalar_driver, terminal, grid, 0.5,
                                       lam=0.5, envelope=env_scalar,
                                       snap_tol=1e-9)
        ys, _ = glued.assembled_fields()
        for i in range(9):
            assert np.max(np.abs(ys[i] - scalar.y[i])) <= 1e-9

    def test_eta_outside_band_rejected(self, stochastic_case):
        driver, terminal, grid, env, h_inv = stochastic_case
        eta = bl.interpolate_target(env, 5, 0.0) + 1.0
        with pytest.raises(ValueError, match="band"):
            bl.glue_solution(driver, h_inv, terminal, 5, eta, env, grid)

    def test_unvalidatable_inverse_rejected(self, stochastic_case):
        driver, terminal, grid, env, _ = stochastic_case
        eta = bl.interpolate_target(env, 5, 0.5)
        for bad in (lambda t, y, zt: zt,
                    lambda t, y, zt: np.full(np.shape(zt), np.nan)):
            with pytest.raises(InversionError):
                bl.glue_solution(driver, bad, terminal, 5, eta, env, grid)

    def test_nan_defect_propagates_to_the_residual(self, stochastic_case,
                                                   monkeypatch):
        # a NaN forward defect on live paths makes the off-splice residual
        # NaN, where a fold with Python's max would skip it
        driver, terminal, grid, env, h_inv = stochastic_case
        forward_defects = gluing._forward_defects

        def poisoned(segment, drv):
            for j, defect in forward_defects(segment, drv):
                yield j, np.full_like(defect, np.nan)

        monkeypatch.setattr(gluing, "_forward_defects", poisoned)
        eta = bl.interpolate_target(env, 5, 0.5)
        glued = bl.glue_solution(driver, h_inv, terminal, 5, eta, env, grid,
                                 snap_tol=0.01, lam=0.5)
        assert np.any(glued.tau > 5)
        assert math.isnan(glued.residual_off_splice)

    def test_inverse_of_another_g_rejected(self, stochastic_case):
        # zt / 0.5 inverts g_linear(0.5), not the g_linear(0.9) of this
        # driver: the glue checks the inverse against the g it runs
        driver, terminal, grid, env, _ = stochastic_case
        h_inv = lambda t, y, zt: zt / 0.5
        assert bl.validate_inverse(
            bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.5]).g, h_inv).ok
        assert not bl.validate_inverse(driver.g, h_inv).ok
        eta = bl.interpolate_target(env, 5, 0.5)
        with pytest.raises(InversionError):
            bl.glue_solution(driver, h_inv, terminal, 5, eta, env, grid,
                             snap_tol=0.01, lam=0.5)
        with pytest.raises(InversionError):
            bl.continuum_sample(driver, terminal, grid, 0.5, [0.25, 0.75],
                                backend="tree", h_inv=h_inv, envelope=env)
