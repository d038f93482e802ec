import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab.errors import CapacityError, InversionError
from bdsde_lab.tree import leaf_increments

from conftest import catalog_driver_specs, catalog_terminals


def residual_tol(sol):
    return 1e-10 * (1.0 + sol.max_abs_y())


class TestClosedForms:
    def test_martingale_terminal(self):
        # f = 0, g = 0, xi = W_T: Y follows the running sum, Z == 1
        grid = bl.make_grid(1.0, 2)
        sol = bl.solve_tree(bl.builtin_driver("zero"),
                            bl.builtin_terminal("w_terminal"), grid)
        assert sol.ys[0][0, 0] == 0.0
        assert sol.zs[0][0, 0] == 1.0
        np.testing.assert_array_equal(sol.zs[1], np.ones((2, 2)))

    def test_backward_noise_integral(self):
        # f = 0, g = 1, xi = 0: Y_i is the remaining backward-noise sum,
        # reproduced bitwise; Z == 0
        grid = bl.make_grid(1.0, 6)
        driver = bl.driver_pair("zero", [], "g_constant", [1.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        sol = bl.solve_tree(driver, terminal, grid)
        sq = np.sqrt(grid.dt)
        for i in range(grid.steps + 1):
            cols = np.arange(2 ** (grid.steps - i))
            expected = np.zeros(cols.size)
            for j in range(grid.steps - 1, i - 1, -1):
                bit = (cols >> ((grid.steps - i - 1) - (j - i))) & 1
                expected = np.where(bit, sq, -sq) + expected
            np.testing.assert_array_equal(
                sol.ys[i], np.broadcast_to(expected, sol.ys[i].shape))
            np.testing.assert_array_equal(sol.zs[i], np.zeros_like(sol.ys[i]))

    def test_linear_drift_compounds_exactly(self):
        grid = bl.make_grid(1.0, 4)
        sol = bl.solve_tree(bl.driver_pair("f_linear", [1.0, 0.0]),
                            bl.builtin_terminal("constant", [1.0]), grid)
        assert sol.ys[0][0, 0] == 2.44140625
        for zs in sol.zs:
            np.testing.assert_array_equal(zs, np.zeros_like(zs))

    def test_positive_part_terminal_enumeration(self):
        grid = bl.make_grid(1.0, 2)
        sol = bl.solve_tree(bl.builtin_driver("zero"),
                            bl.builtin_terminal("w_terminal_pos"), grid)
        assert sol.ys[0][0, 0] == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-15)


class TestResidual:
    def test_solver_output_is_exact(self, grid8):
        driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
        terminal = bl.builtin_terminal("call", [0.2])
        sol = bl.solve_tree(driver, terminal, grid8)
        assert bl.tree_residual(sol, driver, terminal) <= residual_tol(sol)

    def test_perturbation_detected(self, grid4):
        driver = bl.builtin_driver("zero")
        terminal = bl.builtin_terminal("w_terminal")
        sol = bl.solve_tree(driver, terminal, grid4)
        ys = [y.copy() for y in sol.ys]
        ys[0] = ys[0] + 0.1
        broken = bl.TreeSolution(grid=grid4, ys=ys, zs=[z.copy() for z in sol.zs])
        assert bl.tree_residual(broken, driver, terminal) >= 0.1 - 1e-10

    def test_z_perturbation_detected(self, grid4):
        driver = bl.builtin_driver("zero")
        terminal = bl.builtin_terminal("w_terminal")
        sol = bl.solve_tree(driver, terminal, grid4)
        zs = [z.copy() for z in sol.zs]
        zs[1] = zs[1] + 0.1
        broken = bl.TreeSolution(grid=grid4, ys=[y.copy() for y in sol.ys],
                                 zs=zs)
        # the integrand error enters scaled by the increment size
        assert bl.tree_residual(broken, driver, terminal) >= \
            0.1 * np.sqrt(grid4.dt) - 1e-10

    def test_nan_node_propagates(self, grid4):
        # one NaN node makes the residual NaN, where a fold with Python's
        # max would skip it; a finite perturbation reads as before
        driver = bl.driver_pair("f_linear", [0.5, 0.2], "g_linear", [0.5])
        terminal = bl.builtin_terminal("w_terminal")
        sol = bl.solve_tree(driver, terminal, grid4)

        def moved(shift):
            ys = [y.copy() for y in sol.ys]
            ys[2][0, 0] += shift
            return bl.TreeSolution(grid=grid4, ys=ys,
                                   zs=[z.copy() for z in sol.zs])

        assert math.isnan(bl.tree_residual(moved(np.nan), driver, terminal))
        # the moved node enters step 1's identity as (1 + dt f_y) 1e3
        assert bl.tree_residual(moved(1e3), driver, terminal) == 1125.0

    def test_accumulation_at_depth_12(self):
        grid = bl.make_grid(1.0, 12)
        driver = bl.driver_pair("f_linear", [0.7, 0.4], "g_linear", [0.6])
        terminal = bl.builtin_terminal("w_terminal")
        sol = bl.solve_tree(driver, terminal, grid)
        assert bl.tree_residual(sol, driver, terminal) <= 1e-9

    def test_shape_mismatch_rejected(self, grid4):
        driver = bl.builtin_driver("zero")
        terminal = bl.builtin_terminal("w_terminal")
        sol = bl.solve_tree(driver, terminal, grid4)
        bad = bl.TreeSolution(grid=bl.make_grid(1.0, 3), ys=list(sol.ys)[:4],
                              zs=list(sol.zs)[:4])
        with pytest.raises(ValueError):
            bl.tree_residual(bad, driver, terminal)


class TestInvariants:
    def test_index_structure(self, grid8):
        # measurability is structural: step i holds exactly
        # 2^i histories x 2^(N-i) futures
        sol = bl.solve_tree(bl.driver_pair("f_linear", [0.5, 0.2],
                                           "g_linear", [0.4]),
                            bl.builtin_terminal("w_terminal"), grid8)
        for i in range(9):
            assert sol.ys[i].shape == (2 ** i, 2 ** (8 - i))
            assert sol.zs[i].shape == (2 ** i, 2 ** (8 - i))

    def test_terminal_and_z_convention(self, grid4):
        terminal = bl.builtin_terminal("w_terminal_sq")
        sol = bl.solve_tree(bl.builtin_driver("zero"), terminal, grid4)
        np.testing.assert_array_equal(
            sol.ys[4].ravel(), terminal.evaluate(leaf_increments(grid4)))
        np.testing.assert_array_equal(sol.zs[4], np.zeros((16, 1)))

    def test_superposition_for_linear_drivers(self, grid8):
        driver = bl.driver_pair("f_linear", [0.5, 0.3], "g_linear", [0.5])
        t1 = bl.builtin_terminal("w_terminal")
        t2 = bl.builtin_terminal("w_terminal_sq")
        t_sum = bl.TerminalSpec(
            evaluate=lambda w: t1.evaluate(w) + t2.evaluate(w),
            descriptor="sum")
        s1 = bl.solve_tree(driver, t1, grid8)
        s2 = bl.solve_tree(driver, t2, grid8)
        s12 = bl.solve_tree(driver, t_sum, grid8)
        for i in range(9):
            np.testing.assert_allclose(s12.ys[i], s1.ys[i] + s2.ys[i],
                                       atol=1e-10)
            np.testing.assert_allclose(s12.zs[i], s1.zs[i] + s2.zs[i],
                                       atol=1e-10)

    def test_deterministic_function_of_inputs(self, grid8):
        # uniqueness mirrored: the scheme is a pure function, so re-running
        # yields bit-identical fields
        driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.4, 0.2])
        terminal = bl.builtin_terminal("call", [0.1])
        a = bl.solve_tree(driver, terminal, grid8)
        b = bl.solve_tree(driver, terminal, grid8)
        for i in range(9):
            np.testing.assert_array_equal(a.ys[i], b.ys[i])
            np.testing.assert_array_equal(a.zs[i], b.zs[i])

    def test_capacity_and_stability_guard(self):
        with pytest.raises(CapacityError):
            bl.solve_tree(bl.builtin_driver("zero"),
                          bl.builtin_terminal("w_terminal"),
                          bl.make_grid(1.0, 21))
        noisy = bl.driver_pair("f_linear", [3.0, 3.0], "g_linear", [0.9])
        assert bl.stability_margin(noisy, 0.5) > 0.5
        with pytest.warns(RuntimeWarning):
            bl.solve_tree(noisy, bl.builtin_terminal("w_terminal"),
                          bl.make_grid(1.0, 2))


class TestExpectation:
    def test_martingale_mean_zero(self):
        grid = bl.make_grid(1.0, 6)
        sol = bl.solve_tree(bl.builtin_driver("zero"),
                            bl.builtin_terminal("w_terminal"), grid)
        for i in range(7):
            assert bl.expectation_at(sol, i)["mean"] == pytest.approx(0.0,
                                                                      abs=1e-14)

    def test_constant_terminal(self, grid4):
        sol = bl.solve_tree(bl.builtin_driver("zero"),
                            bl.builtin_terminal("constant", [2.5]), grid4)
        summary = bl.expectation_at(sol, 2)
        assert summary["min"] == summary["max"] == 2.5

    def test_backward_noise_mean_square_is_horizon(self):
        grid = bl.make_grid(1.0, 8)
        sol = bl.solve_tree(bl.driver_pair("zero", [], "g_constant", [1.0]),
                            bl.builtin_terminal("constant", [0.0]), grid)
        assert bl.expectation_at(sol, 0)["mean_square"] == pytest.approx(1.0)

    def test_out_of_range(self, grid4):
        sol = bl.solve_tree(bl.builtin_driver("zero"),
                            bl.builtin_terminal("w_terminal"), grid4)
        with pytest.raises(ValueError):
            bl.expectation_at(sol, 5)


@pytest.mark.parametrize("f_name,f_params", catalog_driver_specs()[0])
@pytest.mark.parametrize("g_name,g_params", catalog_driver_specs()[1])
def test_exactness_catalog_sweep_small(f_name, f_params, g_name, g_params):
    grid = bl.make_grid(1.0, 6)
    driver = bl.driver_pair(f_name, f_params, g_name, g_params)
    for t_name, t_params in catalog_terminals():
        terminal = bl.builtin_terminal(t_name, t_params)
        sol = bl.solve_tree(driver, terminal, grid)
        assert bl.tree_residual(sol, driver, terminal) <= residual_tol(sol)


class TestForwardSwapped:
    def test_linear_validation_case(self):
        # g = beta z with the exact inverse; constant start field and zero
        # drift develop only through the martingale terms (here trivially,
        # since the extracted integrand at a constant field vanishes)
        grid = bl.make_grid(1.0, 4)
        driver = bl.driver_pair("zero", [], "g_linear", [0.5])
        eta = np.full((4, 4), 1.7)
        seg = bl.solve_forward_swapped(driver, lambda t, y, zt: zt / 0.5,
                                       eta, grid, i0=2)
        assert seg.residual <= 1e-10 * (1.0 + 1.7)
        for y in seg.ys:
            np.testing.assert_allclose(y, 1.7, atol=1e-14)

    def test_nan_node_propagates_to_the_residual(self):
        grid = bl.make_grid(1.0, 4)
        driver = bl.driver_pair("zero", [], "g_linear", [0.5])
        seg = bl.solve_forward_swapped(driver, lambda t, y, zt: zt / 0.5,
                                       np.full((4, 4), 1.7), grid, i0=2)
        ys = [y.copy() for y in seg.ys]
        ys[1][0, 0] = np.nan
        assert math.isnan(bl.forward_residual(replace(seg, ys=ys), driver))

    def test_constant_noise_develops_backward_martingale(self):
        # g = gamma: the field moves by -gamma dB each step
        grid = bl.make_grid(1.0, 4)
        driver = bl.driver_pair("zero", [], "g_constant", [0.8])
        eta = np.zeros((4, 4))
        # inverse is arbitrary in z for constant g; identity keeps it valid
        seg = bl.solve_forward_swapped(driver, lambda t, y, zt: 0.0 * zt,
                                       eta, grid, i0=2)
        sq = np.sqrt(grid.dt)
        got = seg.ys[1]           # step 3: rows s_0..s_2, columns r_2, r_3
        r2 = np.where((np.arange(4) >> 1) & 1, 1.0, -1.0)
        np.testing.assert_allclose(got, np.broadcast_to(-0.8 * sq * r2, (8, 4)),
                                   atol=1e-14)
        assert seg.residual <= 1e-12
        # dependence diagnostic sees the backward-noise coordinate only
        dep = seg.dependence
        assert dep[1, 1, 2] == pytest.approx(2 * 0.8 * sq)
        assert np.max(dep[:, 0, :]) == 0.0

    def test_empty_recursion_at_horizon(self):
        grid = bl.make_grid(1.0, 3)
        driver = bl.driver_pair("zero", [], "g_linear", [0.5])
        eta = np.arange(8.0).reshape(8, 1)
        seg = bl.solve_forward_swapped(driver, lambda t, y, zt: zt / 0.5,
                                       eta, grid, i0=3)
        assert len(seg.ys) == 1
        np.testing.assert_array_equal(seg.ys[0], eta)
        assert seg.residual == 0.0

    def test_inverse_inconsistency_raises_with_witness(self):
        grid = bl.make_grid(1.0, 3)
        driver = bl.driver_pair("zero", [], "g_constant", [0.8])
        eta = np.zeros((2, 4))
        with pytest.raises(InversionError) as err:
            bl.solve_forward_swapped(driver, lambda t, y, zt: zt + 1.0,
                                     eta, grid, i0=1)
        assert err.value.witness["step"] == 1

    def test_nan_inverse_raises(self):
        # a NaN pullback fails the nodewise check, as a wrong one does
        driver = bl.driver_pair("zero", [], "g_linear", [0.5])
        with pytest.raises(InversionError, match="inconsistency nan"):
            bl.solve_forward_swapped(driver, lambda t, y, zt: np.nan,
                                     np.full((4, 4), 1.7), bl.make_grid(1.0, 4),
                                     2)

    def test_start_field_dependence_reported(self):
        # a start field keyed to the first backward-noise coordinate after
        # i0 keeps that dependence visible in the diagnostic
        grid = bl.make_grid(1.0, 3)
        driver = bl.driver_pair("zero", [], "g_linear", [0.5])
        eta = np.zeros((2, 4))
        eta[:, :2] = 1.0      # varies with r_1 (the leading future bit)
        seg = bl.solve_forward_swapped(driver, lambda t, y, zt: zt / 0.5,
                                       eta, grid, i0=1)
        assert seg.dependence[0, 1, 1] == pytest.approx(1.0)

    def test_capacity(self):
        # D = (2**13, 2**13) takes 512 MiB per float64 array, above the
        # 128 MiB cap; refused before anything of that size is allocated
        grid = bl.make_grid(1.0, 13)
        driver = bl.driver_pair("zero", [], "g_linear", [0.5])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError,
                               match=f"{2 ** 29} bytes, cap is {2 ** 27}"):
                bl.solve_forward_swapped(driver, lambda t, y, zt: zt / 0.5,
                                         np.zeros((1, 2 ** 13)), grid, i0=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestBinaryDump:
    def test_round_trip(self, tmp_path, grid4):
        driver = bl.driver_pair("f_linear", [0.5, 0.1], "g_linear", [0.3])
        terminal = bl.builtin_terminal("call", [0.0])
        sol = bl.solve_tree(driver, terminal, grid4)
        path = tmp_path / "sol.bin"
        bl.save_tree_solution(path, sol)
        loaded = bl.load_tree_solution(path)
        assert loaded.steps == 4
        assert loaded.driver_descriptor == driver.descriptor
        for i in range(5):
            np.testing.assert_array_equal(loaded.ys[i], sol.ys[i])
            np.testing.assert_array_equal(loaded.zs[i], sol.zs[i])

    def test_truncated_dump_rejected_before_reading(self, tmp_path, grid4):
        driver = bl.driver_pair("f_linear", [0.5, 0.1], "g_linear", [0.3])
        sol = bl.solve_tree(driver, bl.builtin_terminal("call", [0.0]), grid4)
        path = tmp_path / "sol.bin"
        bl.save_tree_solution(path, sol)
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(raw[:-12])
        with pytest.raises(ValueError, match=f"holds {len(raw) - 12} bytes, "
                                             f"its header implies {len(raw)}"):
            bl.load_tree_solution(cut)
        cut.write_bytes(raw[:30])           # inside the fixed header
        with pytest.raises(ValueError, match="holds 30 bytes, its header needs 32"):
            bl.load_tree_solution(cut)
        cut.write_bytes(raw + b"\x00")
        with pytest.raises(ValueError, match="its header implies"):
            bl.load_tree_solution(cut)

    def test_wrong_dt_rejected_before_reading(self, tmp_path):
        n = 12
        sol = bl.solve_tree(bl.driver_pair("f_linear", [0.5, 0.1], "g_linear", [0.3]),
                            bl.builtin_terminal("call", [0.0]), bl.make_grid(1.0, n))
        path = tmp_path / "sol.bin"
        bl.save_tree_solution(path, sol)
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<d", 2.0 / 2 ** n)    # dt after magic and N
        path.write_bytes(bytes(raw))
        payload = 16 * (n + 1) * 2 ** n
        assert len(raw) > payload
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dt inconsistent"):
                bl.load_tree_solution(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload // 64

    def test_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTADUMP" + b"\x00" * 64)
        with pytest.raises(ValueError):
            bl.load_tree_solution(p)
