import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab import envelope
from bdsde_lab.envelope import (_check_scalar_applicable, _terminal_constant,
                                default_schedule)
from bdsde_lab.errors import StabilityError
from conftest import rebuilt_iterates


def sqrt_problem(steps=512):
    return (bl.builtin_driver("f_sqrt_pos", [2.0]),
            bl.builtin_terminal("constant", [0.0]),
            bl.make_grid(1.0, steps))


class TestScalarBackend:
    def test_lipschitz_drift_converges_immediately(self):
        # once the slope dominates Lip(f), the regularized drift is f itself
        # up to grid error: the first two iterates agree and the loop stops
        driver = bl.driver_pair("f_linear", [1.0, 0.0])
        terminal = bl.builtin_terminal("constant", [1.0])
        grid = bl.make_grid(1.0, 256)
        side = bl.maximal_solution(driver, terminal, grid,
                                   schedule=[2, 4, 8, 16], tol=1e-3,
                                   backend="scalar", conv_tol=1e-4)
        assert side.converged
        assert len(side.iterates) == 2
        direct = (1.0 + grid.dt) ** grid.steps
        assert side.y[0] == pytest.approx(direct, abs=1e-3)

    def test_sqrt_maximal_and_minimal(self):
        driver, terminal, grid = sqrt_problem(512)
        schedule = [2, 4, 8, 16, 32, 64]
        mx = bl.maximal_solution(driver, terminal, grid, schedule=schedule,
                                 tol=0.0, backend="scalar", conv_tol=0.05)
        assert 0.9 <= mx.y[0] <= 1.1
        assert not mx.converged          # tol 0 exhausts the schedule
        assert len(mx.iterates) == len(schedule)
        mn = bl.minimal_solution(driver, terminal, grid, schedule=schedule,
                                 tol=0.0, backend="scalar", conv_tol=0.05)
        assert np.all(mn.y == 0.0)

    def test_iterate_monotonicity_and_bounding_field(self):
        driver, terminal, grid = sqrt_problem(256)
        mx = bl.maximal_solution(driver, terminal, grid, schedule=[2, 4, 8, 16],
                                 tol=0.0, backend="scalar", conv_tol=0.02)
        prev = None
        for rec, y in rebuilt_iterates(driver, mx, grid):
            if prev is not None:
                assert np.all(y <= prev + 1e-9)
                assert rec.sup_dist_prev >= 0.0
            assert np.all(mx.u <= y + 1e-9)
            prev = y
        mn = bl.minimal_solution(driver, terminal, grid, schedule=[2, 4, 8, 16],
                                 tol=0.0, backend="scalar", conv_tol=0.02)
        prev = None
        for _, y in rebuilt_iterates(driver, mn, grid):
            if prev is not None:
                assert np.all(y >= prev - 1e-9)
            prev = y

    def test_zero_drift_keeps_constant_terminal(self):
        driver = bl.builtin_driver("zero")
        terminal = bl.builtin_terminal("constant", [2.5])
        grid = bl.make_grid(1.0, 64)
        for n_single in (1.0, 4.0, 16.0):
            side = bl.maximal_solution(driver, terminal, grid,
                                       schedule=[n_single], tol=0.0,
                                       backend="scalar", conv_tol=0.01)
            np.testing.assert_allclose(side.y, 2.5, atol=0.011)

    def test_single_entry_schedule_equals_direct_solve(self):
        driver = bl.driver_pair("f_linear", [1.0, 0.0])
        terminal = bl.builtin_terminal("constant", [1.0])
        grid = bl.make_grid(1.0, 128)
        side = bl.minimal_solution(driver, terminal, grid, schedule=[1.0],
                                   tol=0.0, backend="scalar", conv_tol=1e-4)
        direct = (1.0 + grid.dt) ** grid.steps
        assert len(side.iterates) == 1
        assert side.y[0] == pytest.approx(direct, abs=1e-3)

    def test_unique_case_envelopes_collapse(self):
        # f = 1: the unique solution is T - t; both sides land on it
        driver = bl.builtin_driver("f_constant", [1.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 512)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[1, 2, 4],
                                  tol=0.0, backend="scalar", conv_tol=0.01)
        expected = grid.horizon - grid.nodes
        assert np.max(np.abs(env.y_max - expected)) <= 10 * grid.dt
        assert np.max(np.abs(env.y_min - expected)) <= 10 * grid.dt
        assert np.max(env.y_max - env.y_min) <= 10 * grid.dt

    def test_norm_diagnostics_bounded_and_distances_settle(self):
        driver, terminal, grid = sqrt_problem(1024)
        mx = bl.maximal_solution(driver, terminal, grid,
                                 schedule=[2, 4, 8, 16, 32], tol=0.0,
                                 backend="scalar", conv_tol=0.005)
        # sup-norms of all iterates and of the bounding field stay within
        # 10x the first iterate (no explosion across the schedule)
        fields = [y for _, y in rebuilt_iterates(driver, mx, grid)]
        first = float(np.max(np.abs(fields[0])))
        for y in fields:
            assert float(np.max(np.abs(y))) <= 10.0 * first
        assert float(np.max(np.abs(mx.u))) <= 10.0 * first
        # consecutive-iterate distances decrease once regularization
        # dominates grid error
        dists = [rec.sup_dist_prev for rec in mx.iterates[1:]]
        assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_scalar_backend_rejections(self):
        grid = bl.make_grid(1.0, 16)
        stochastic_terminal = bl.builtin_terminal("w_terminal")
        with pytest.raises(ValueError, match="deterministic terminal"):
            bl.maximal_solution(bl.builtin_driver("f_constant", [1.0]),
                                stochastic_terminal, grid, schedule=[1],
                                backend="scalar")
        noisy = bl.driver_pair("f_constant", [1.0], "g_linear", [0.5])
        with pytest.raises(ValueError, match="zero noise"):
            bl.maximal_solution(noisy, bl.builtin_terminal("constant", [0.0]),
                                grid, schedule=[1], backend="scalar")

    def test_side_holds_only_the_previous_iterate(self, monkeypatch):
        # while an iterate forms, the side holds the previous iterate's y
        # and no other field of an earlier iterate
        solve, made, seen = envelope._solve_one, [], []

        def tracked(*args):
            seen.append([ref() is not None for ref in made])
            y, z = solve(*args)
            made.extend((weakref.ref(y), weakref.ref(z)))
            return y, z

        monkeypatch.setattr(envelope, "_solve_one", tracked)
        driver, terminal, grid = sqrt_problem(64)
        side = bl.maximal_solution(driver, terminal, grid, schedule=[2, 4, 8],
                                   tol=0.0, backend="scalar", conv_tol=0.05)
        assert len(side.iterates) == 3
        assert seen == [[], [True, False], [False, False, True, False]]

    def test_terminal_probe_at_the_grid_cap_stays_small(self):
        # one (1, steps) probe row at a time: a (16, steps) block would take
        # 128 MiB at 2**20 steps
        driver, terminal, grid = sqrt_problem(2 ** 20)
        tracemalloc.start()
        try:
            xi = _check_scalar_applicable(driver, terminal, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xi == 0.0
        assert peak < 24 * 2 ** 20

    @pytest.mark.parametrize("name,params", [
        ("constant", [-1.25]), ("w_terminal", []), ("w_terminal_sq", []),
        ("call", [0.5]), ("w_terminal_pos", []),
    ])
    def test_terminal_probe_rows_equal_the_block_draw(self, name, params):
        steps = 1000
        block = np.random.default_rng(0).standard_normal((16, steps))
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.standard_normal((1, steps)) for _ in range(16)])
        assert rows.tobytes() == block.tobytes()
        terminal = bl.builtin_terminal(name, params)
        vals = np.asarray(terminal.evaluate(block), dtype=float)
        if float(np.max(np.abs(vals - vals.ravel()[0]))) > 0.0:
            with pytest.raises(ValueError, match="deterministic terminal"):
                _terminal_constant(terminal, steps)
        else:
            assert _terminal_constant(terminal, steps) == params[0]

    def test_stability_guard(self):
        driver, terminal, _ = sqrt_problem()
        grid = bl.make_grid(1.0, 8)
        with pytest.raises(StabilityError, match="at least 128 steps"):
            bl.maximal_solution(driver, terminal, grid, schedule=[2, 64],
                                backend="scalar")

    def test_schedule_validation(self):
        driver, terminal, grid = sqrt_problem(64)
        with pytest.raises(ValueError, match="increasing"):
            bl.maximal_solution(driver, terminal, grid, schedule=[4, 4],
                                backend="scalar")
        with pytest.raises(ValueError, match="below the growth constant"):
            bl.maximal_solution(driver, terminal, grid, schedule=[1, 4],
                                backend="scalar")

    def test_default_schedule_respects_guard(self):
        driver, _, _ = sqrt_problem()
        grid = bl.make_grid(1.0, 16)
        sched = default_schedule(driver, grid)
        assert sched[0] == driver.growth_k
        assert all(grid.dt * n <= 0.5 for n in sched)


class TestLowerBoundCompanion:
    def test_solved_once_per_envelope_and_bitwise_unchanged(self):
        driver, terminal, grid = sqrt_problem(256)
        shapes = []

        def counted(t, y, z):
            shapes.append(np.shape(y))
            return driver.f(t, y, z)

        env = bl.compute_envelope(dataclasses.replace(driver, f=counted),
                                  terminal, grid, schedule=[2, 4, 8], tol=0.0,
                                  backend="scalar", conv_tol=0.05)
        # the companion base f(0, 0, 0) is read once, and the drift is
        # sampled on the whole convolution grid once for all six tables
        assert len(env.maximal.iterates) == len(env.minimal.iterates) == 3
        grid_size = 2 * env.maximal.final_reg_spec.f.spec.half_count(dims=1) + 1
        assert shapes == [(1,), (grid_size,)]
        assert env.minimal.u is env.maximal.u
        # the per-step companion, reading f(t, 0, 0) through numpy each step
        k, zero = driver.growth_k, np.zeros(1)
        u = np.empty(grid.steps + 1)
        u[-1] = 0.0
        for i in range(grid.steps - 1, -1, -1):
            t = grid.time(i + 1)
            f00 = np.abs(np.asarray(driver.f(t, zero, zero), dtype=float))[0]
            fv = float(-f00 - k * np.abs(np.asarray(u[i + 1])) - k * np.abs(np.zeros(())))
            u[i] = u[i + 1] + grid.dt * fv
        assert env.maximal.u.tobytes() == u.tobytes()

    def test_tree_backend_shares_the_companion(self):
        driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.5])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 8)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                  tol=0.0, backend="tree", conv_tol=0.05)
        assert env.minimal.u is env.maximal.u
        side = bl.minimal_solution(driver, terminal, grid, schedule=[2, 4],
                                   tol=0.0, backend="tree", conv_tol=0.05)
        for a, b in zip(side.u, env.maximal.u):
            assert a.tobytes() == b.tobytes()


class TestTreeBackend:
    def test_degenerate_case_matches_scalar(self):
        # zero-coupling problem: the lattice envelope collapses to the
        # scalar recursion nodewise
        driver, terminal, _ = sqrt_problem()
        grid = bl.make_grid(1.0, 8)
        tree_env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                       tol=0.0, backend="tree", conv_tol=0.05)
        scalar_env = bl.compute_envelope(driver, terminal, grid,
                                         schedule=[2, 4], tol=0.0,
                                         backend="scalar", conv_tol=0.05)
        for i in range(9):
            np.testing.assert_allclose(np.asarray(tree_env.y_max[i]),
                                       scalar_env.y_max[i], atol=1e-12)

    def test_stochastic_envelope_well_ordered(self):
        driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.9])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 8)
        with pytest.warns(RuntimeWarning):
            env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                      tol=0.0, backend="tree", conv_tol=0.05)
        for i in range(9):
            assert np.all(np.asarray(env.y_min[i])
                          <= np.asarray(env.y_max[i]) + 1e-12)


class TestSandwich:
    def test_max_side_passes_with_zero_violation(self):
        driver, terminal, grid = sqrt_problem(256)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4, 8],
                                  tol=0.0, backend="scalar", conv_tol=0.02)
        report = bl.sandwich_check(env.y_max, env)
        assert report.ok and report.worst_violation <= 0.0

    def test_shifted_candidate_fails(self):
        driver, terminal, grid = sqrt_problem(256)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4, 8],
                                  tol=0.0, backend="scalar", conv_tol=0.02)
        report = bl.sandwich_check(np.asarray(env.y_max) + 1.0, env)
        assert not report.ok
        assert report.worst_violation == pytest.approx(1.0, abs=1e-12)
        assert report.side == "max"

    def test_shape_mismatch(self):
        driver, terminal, grid = sqrt_problem(64)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4],
                                  tol=0.0, backend="scalar", conv_tol=0.02)
        with pytest.raises(ValueError):
            bl.sandwich_check(np.zeros(3), env)


class TestComparisonAcrossEnvelopes:
    def test_offset_drift_dominates_both_sides(self):
        driver2, terminal, grid = sqrt_problem(512)
        driver1 = bl.shifted_driver(driver2, 0.25)
        kwargs = dict(schedule=[2, 4, 8, 16], tol=0.0, backend="scalar",
                      conv_tol=0.02)
        e1 = bl.compute_envelope(driver1, terminal, grid, **kwargs)
        e2 = bl.compute_envelope(driver2, terminal, grid, **kwargs)
        tol = 10.0 * grid.dt
        assert np.all(np.asarray(e1.y_min) >= np.asarray(e2.y_min) - tol)
        assert np.all(np.asarray(e1.y_max) >= np.asarray(e2.y_max) - tol)
