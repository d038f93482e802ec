import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab.errors import CapacityError
from bdsde_lab.tree import leaf_increments


class TestPathSampling:
    def test_seed_determinism(self, grid8):
        a = bl.sample_paths(grid8, (1, 1), (4, 64), seed=7)
        b = bl.sample_paths(grid8, (1, 1), (4, 64), seed=7)
        assert a.w_increments.tobytes() == b.w_increments.tobytes()
        assert a.b_increments.tobytes() == b.b_increments.tobytes()
        c = bl.sample_paths(grid8, (1, 1), (4, 64), seed=8)
        assert a.w_increments.tobytes() != c.w_increments.tobytes()

    def test_sub_batch_reproducible(self, grid8):
        # per-path keyed randomness: path p is the same whatever the batch
        small = bl.sample_paths(grid8, (1, 1), (2, 16), seed=5)
        large = bl.sample_paths(grid8, (1, 1), (8, 256), seed=5)
        np.testing.assert_array_equal(small.w_increments,
                                      large.w_increments[:16])
        np.testing.assert_array_equal(small.b_increments,
                                      large.b_increments[:2])

    def test_antithetic_pairs_cancel(self, grid8):
        batch = bl.sample_paths(grid8, (1, 1), (4, 64), seed=7,
                                antithetic=True)
        np.testing.assert_array_equal(
            batch.w_increments[0::2] + batch.w_increments[1::2],
            np.zeros_like(batch.w_increments[0::2]))

    def test_moment_bounds_large_sample(self):
        grid = bl.make_grid(1.0, 100)   # dt = 0.01
        batch = bl.sample_paths(grid, (1, 1), (2, 100_000), seed=3)
        inc = batch.w_increments[:, :, 0]
        m = inc.shape[0]
        assert np.all(np.abs(inc.mean(axis=0)) <= 5 * np.sqrt(grid.dt / m))
        var = inc.var(axis=0)
        assert np.all(var >= 0.8 * grid.dt) and np.all(var <= 1.2 * grid.dt)

    def test_capacity_cap(self, grid8):
        with pytest.raises(CapacityError):
            bl.sample_paths(grid8, (64, 64), (10 ** 6, 10 ** 6), seed=0)

    def test_preconditions(self, grid8):
        with pytest.raises(ValueError):
            bl.sample_paths(grid8, (0, 1), (4, 4), seed=0)
        with pytest.raises(ValueError):
            bl.sample_paths(grid8, (1, 1), (1, 4), seed=0)

    def test_dump_round_trip(self, tmp_path, grid8):
        batch = bl.sample_paths(grid8, (1, 1), (3, 8), seed=9,
                                antithetic=True)
        p = tmp_path / "batch.bin"
        bl.save_path_batch(p, batch)
        loaded = bl.load_path_batch(p)
        assert loaded.seed == 9 and loaded.antithetic
        np.testing.assert_array_equal(loaded.w_increments, batch.w_increments)
        np.testing.assert_array_equal(loaded.b_increments, batch.b_increments)

    def test_truncated_dump_rejected_before_reading(self, tmp_path, grid8):
        batch = bl.sample_paths(grid8, (1, 1), (3, 8), seed=9)
        p = tmp_path / "batch.bin"
        bl.save_path_batch(p, batch)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match=f"holds {len(raw) - 5} bytes, "
                                             f"its header implies {len(raw)}"):
            bl.load_path_batch(p)
        p.write_bytes(raw[:40])
        with pytest.raises(ValueError, match="holds 40 bytes, its header needs 56"):
            bl.load_path_batch(p)


def _binary_outer(grid, bits):
    sq = np.sqrt(grid.dt)
    return (2.0 * np.asarray(bits, dtype=float) - 1.0)[None, :] * sq


class TestOracleEquivalence:
    # full-rank lattice-indicator basis + every forward path enumerated
    # reproduces the exact solver; drifts here are z-free so the omitted
    # drift term in the z target cannot feed back into the values
    CASES = [
        ("zero", [], "g_zero", [], "w_terminal"),
        ("f_constant", [0.8], "g_constant", [0.7], "w_terminal_pos"),
        ("f_linear", [0.9, 0.0], "g_zero", [], "w_terminal_sq"),
        ("f_sqrt_pos", [2.0], "g_constant", [0.7], "call"),
    ]

    @pytest.mark.parametrize("f_name,f_params,g_name,g_params,t_name", CASES)
    def test_matches_tree_per_outer_path(self, f_name, f_params, g_name,
                                         g_params, t_name):
        grid = bl.make_grid(1.0, 5)
        driver = bl.driver_pair(f_name, f_params, g_name, g_params)
        t_params = [0.2] if t_name == "call" else []
        terminal = bl.builtin_terminal(t_name, t_params)
        tree_sol = bl.solve_tree(driver, terminal, grid)
        w_all = leaf_increments(grid)
        for bits in ([1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]):
            batch = bl.PathBatch.from_arrays(grid, _binary_outer(grid, bits),
                                             w_all)
            mc = bl.solve_lsmc(driver, terminal, grid,
                               bl.BasisSpec("indicator"), batch, ridge=0.0)
            r_idx = int("".join(map(str, bits)), 2)
            assert abs(mc.y0[0] - tree_sol.ys[0][0, r_idx]) <= 1e-8


class TestClosedForms:
    def test_terminal_w(self):
        grid = bl.make_grid(1.0, 16)
        paths = bl.sample_paths(grid, (1, 1), (4, 100_000), seed=12345)
        mc = bl.solve_lsmc(bl.builtin_driver("zero"),
                           bl.builtin_terminal("w_terminal"), grid,
                           bl.BasisSpec("poly", 2), paths)
        # the estimator is the sample mean of xi = W_T (projections with an
        # intercept preserve sample means), so 3 sigma = 3 sqrt(T/M)
        se = np.sqrt(grid.horizon / paths.m_inner)
        assert abs(float(np.mean(mc.y0))) <= 3 * se
        intercepts = [c[0] for c in mc.z_coeffs[0]]
        assert np.allclose(intercepts, 1.0, atol=0.05)

    def test_backward_noise_exact_per_outer_path(self):
        grid = bl.make_grid(1.0, 12)
        paths = bl.sample_paths(grid, (1, 1), (16, 256), seed=77)
        mc = bl.solve_lsmc(bl.driver_pair("zero", [], "g_constant", [1.0]),
                           bl.builtin_terminal("constant", [0.0]), grid,
                           bl.BasisSpec("poly", 1), paths)
        truth = paths.b_increments[:, :, 0].sum(axis=1)
        assert np.max(np.abs(mc.y0 - truth)) <= 1e-8

    def test_linear_drift_quadratic_terminal(self):
        grid = bl.make_grid(1.0, 16)
        paths = bl.sample_paths(grid, (1, 1), (4, 100_000), seed=999)
        mc = bl.solve_lsmc(bl.driver_pair("f_linear", [1.0, 0.0]),
                           bl.builtin_terminal("w_terminal_sq"), grid,
                           bl.BasisSpec("poly", 2), paths)
        target = (1.0 + grid.dt) ** grid.steps  # discrete compounding of T
        se = np.sqrt(2.0) * target / np.sqrt(paths.m_inner)
        assert abs(float(np.mean(mc.y0)) - target) <= 3 * se


class TestDiagnostics:
    def test_outer_variance_zero_without_backward_noise(self):
        grid = bl.make_grid(1.0, 8)
        paths = bl.sample_paths(grid, (1, 1), (8, 2048), seed=4)
        mc = bl.solve_lsmc(bl.builtin_driver("zero"),
                           bl.builtin_terminal("w_terminal"), grid,
                           bl.BasisSpec("poly", 1), paths)
        diag = bl.mc_diagnostics(mc)
        assert diag["y0_variance"] <= (diag["inner_ci_half_width"] / 1.96) ** 2

    def test_single_outer_path_variance_zero(self):
        grid = bl.make_grid(1.0, 4)
        batch = bl.PathBatch.from_arrays(
            grid, np.zeros((1, 4)),
            bl.sample_paths(grid, (1, 1), (2, 512), seed=1).w_increments[:, :, 0])
        mc = bl.solve_lsmc(bl.builtin_driver("zero"),
                           bl.builtin_terminal("w_terminal"), grid,
                           bl.BasisSpec("poly", 1), batch)
        assert bl.mc_diagnostics(mc)["y0_variance"] == 0.0

    def test_outer_variance_tracks_horizon(self):
        # f = 0, g = 1, xi = 0: Y_0 per outer is B_T, so the across-outer
        # variance estimates T; 5 sigma of the variance-of-variance bound
        grid = bl.make_grid(1.0, 4)
        paths = bl.sample_paths(grid, (1, 1), (4000, 64), seed=21)
        mc = bl.solve_lsmc(bl.driver_pair("zero", [], "g_constant", [1.0]),
                           bl.builtin_terminal("constant", [0.0]), grid,
                           bl.BasisSpec("poly", 1), paths)
        var = bl.mc_diagnostics(mc)["y0_variance"]
        t = grid.horizon
        assert abs(var - t) <= 5.0 * t * np.sqrt(2.0 / (4000 - 1))

    def test_condition_numbers_finite(self):
        grid = bl.make_grid(1.0, 8)
        paths = bl.sample_paths(grid, (1, 1), (2, 512), seed=2)
        mc = bl.solve_lsmc(bl.builtin_driver("zero"),
                           bl.builtin_terminal("w_terminal"), grid,
                           bl.BasisSpec("poly", 2), paths)
        assert np.all(np.isfinite(mc.cond_numbers))
        for coeffs in mc.y_coeffs[0]:
            assert coeffs.shape == (3,)
            assert np.all(np.isfinite(coeffs))


class TestValidation:
    def test_inner_count_guard(self, grid8):
        paths = bl.sample_paths(grid8, (1, 1), (2, 16), seed=0)
        with pytest.raises(ValueError):
            bl.solve_lsmc(bl.builtin_driver("zero"),
                          bl.builtin_terminal("w_terminal"), grid8,
                          bl.BasisSpec("poly", 2), paths)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            bl.BasisSpec("fourier", 2)
        with pytest.raises(ValueError):
            bl.BasisSpec("poly", -1)

    def test_grid_mismatch(self, grid8):
        paths = bl.sample_paths(grid8, (1, 1), (2, 64), seed=0)
        with pytest.raises(ValueError):
            bl.solve_lsmc(bl.builtin_driver("zero"),
                          bl.builtin_terminal("w_terminal"),
                          bl.make_grid(1.0, 4), bl.BasisSpec("poly", 1), paths)
