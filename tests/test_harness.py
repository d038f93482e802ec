import math

import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab.errors import PremiseViolation
from bdsde_lab.harness import ComparisonCase, randomized_ordered_cases


def _case(driver1, terminal1, driver2, terminal2, steps=2, **kw):
    return ComparisonCase(grid=bl.make_grid(1.0, steps),
                          driver1=driver1, terminal1=terminal1,
                          driver2=driver2, terminal2=terminal2,
                          probe_count=2000, **kw)


class TestCompareSolutions:
    def test_identical_problems_have_zero_margin(self):
        d = bl.driver_pair("f_linear", [0.5, 0.2], "g_linear", [0.4])
        t = bl.builtin_terminal("w_terminal")
        report = bl.compare_solutions(_case(d, t, d, t, steps=4))
        assert report.ok
        assert report.worst_margin == 0.0

    def test_constant_drift_gap_integrates(self):
        d1 = bl.builtin_driver("f_constant", [1.0])
        d2 = bl.builtin_driver("zero")
        t = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 8)
        s1 = bl.solve_tree(d1, t, grid)
        s2 = bl.solve_tree(d2, t, grid)
        for i in range(9):
            np.testing.assert_allclose(
                s1.ys[i] - s2.ys[i], grid.horizon - grid.time(i), atol=1e-12)
        report = bl.compare_solutions(_case(d1, t, d2, t, steps=8))
        assert report.ok
        assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_positive_part_dominates_identity(self):
        d = bl.builtin_driver("zero")
        report = bl.compare_solutions(_case(
            d, bl.builtin_terminal("w_terminal_pos"),
            d, bl.builtin_terminal("w_terminal"), steps=2))
        assert report.ok
        grid = bl.make_grid(1.0, 2)
        s1 = bl.solve_tree(d, bl.builtin_terminal("w_terminal_pos"), grid)
        s2 = bl.solve_tree(d, bl.builtin_terminal("w_terminal"), grid)
        assert s1.ys[0][0, 0] == pytest.approx(np.sqrt(2.0) / 4.0)
        assert s2.ys[0][0, 0] == 0.0
        for i in range(3):
            assert np.all(s1.ys[i] >= s2.ys[i])

    def test_violated_terminal_premise_rejected_with_witness(self):
        d = bl.builtin_driver("zero")
        case = _case(d, bl.builtin_terminal("constant", [0.0]),
                     d, bl.builtin_terminal("constant", [0.5]))
        with pytest.raises(PremiseViolation) as err:
            bl.compare_solutions(case)
        assert err.value.witness["xi1"] == 0.0
        assert err.value.witness["xi2"] == 0.5

    def test_violated_drift_premise_rejected(self):
        t = bl.builtin_terminal("w_terminal")
        case = _case(bl.builtin_driver("zero"),
                     t, bl.builtin_driver("f_constant", [0.2]), t)
        with pytest.raises(PremiseViolation) as err:
            bl.compare_solutions(case)
        assert "f1" in err.value.witness

    def test_differing_noise_rejected(self):
        t = bl.builtin_terminal("w_terminal")
        case = _case(bl.driver_pair("f_constant", [1.0], "g_linear", [0.5]),
                     t, bl.driver_pair("zero", [], "g_linear", [0.3]), t)
        with pytest.raises(PremiseViolation):
            bl.compare_solutions(case)

    def test_randomized_lipschitz_suite(self):
        cases = randomized_ordered_cases(12, bl.make_grid(1.0, 6), seed=31)
        for case in cases:
            report = bl.compare_solutions(case)
            assert report.ok, case.premise
            assert report.details["stability_margin"] <= 0.5

    def test_envelope_mode(self):
        d2 = bl.builtin_driver("f_sqrt_pos", [2.0])
        d1 = bl.shifted_driver(d2, 0.3)
        t = bl.builtin_terminal("constant", [0.0])
        case = ComparisonCase(
            grid=bl.make_grid(1.0, 256), driver1=d1, terminal1=t,
            driver2=d2, terminal2=t, backend="scalar", mode="envelopes",
            schedule=(2, 4, 8, 16), conv_tol=0.02, probe_count=2000,
        )
        report = bl.compare_solutions(case)
        assert report.ok
        assert report.details["margin_minimal"] >= -case.grid.dt * 10
        assert report.details["margin_maximal"] >= -case.grid.dt * 10

    def test_separating_mode_chain(self):
        # equi-continuous lower drift, bounded terminal, finite gap: the
        # mollified midpoint drift splits the comparison into two links
        d2 = bl.driver_pair("f_sqrt_pos", [2.0], "g_linear", [0.5])
        d1 = bl.shifted_driver(d2, 1.0)
        t = bl.builtin_terminal("constant", [0.5])
        case = ComparisonCase(
            grid=bl.make_grid(1.0, 8), driver1=d1, terminal1=t,
            driver2=d2, terminal2=t, mode="separating", eps_bar=1.0,
            delta=0.1, probe_count=2000,
        )
        report = bl.compare_solutions(case)
        assert report.ok
        assert report.details["margin_upper_link"] >= -report.tol
        assert report.details["margin_lower_link"] >= -report.tol


class TestConvergence:
    def test_linear_ode_errors_and_ratios(self):
        table = bl.convergence_study("linear_ode", [64, 128, 256, 512],
                                     backend="scalar")
        errs = {n: e for n, e, _ in table.rows}
        # the recursion accumulates y + dt*y, so it matches the closed power
        # only to round-off accumulated over N steps
        assert errs[512] == pytest.approx(abs((1 + 1 / 512) ** 512 - math.e),
                                          abs=1e-11)
        assert errs[512] == pytest.approx(0.00265, abs=2e-5)
        for ratio in table.ratios():
            assert 1.7 <= ratio <= 2.4

    def test_linear_ode_backends_agree(self):
        t_scalar = bl.convergence_study("linear_ode", [16, 32], "scalar")
        t_tree = bl.convergence_study("linear_ode", [8], "tree")
        t_mc = bl.convergence_study("linear_ode", [16, 32], "mc", m_inner=64)
        assert t_tree.rows[0][1] == pytest.approx(abs((1 + 1 / 8) ** 8 - math.e))
        for (na, ea, _), (nb, eb, _) in zip(t_scalar.rows, t_mc.rows):
            assert na == nb
            assert ea == pytest.approx(eb, abs=1e-7)

    def test_backward_noise_case_is_exact(self):
        table = bl.convergence_study("b_integral", [4, 8, 12], backend="tree")
        for _, err, _ in table.rows:
            assert err == 0.0
        table_mc = bl.convergence_study("b_integral", [8, 16], backend="mc",
                                        m_inner=128)
        for _, err, _ in table_mc.rows:
            assert err <= 1e-9

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown closed-form"):
            bl.convergence_study("heat_kernel", [8, 16])

    def test_rows_ordered(self):
        with pytest.raises(ValueError, match="increasing"):
            bl.convergence_study("linear_ode", [64, 32])


class TestClosedness:
    def _glued_family(self, lambdas):
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 1024)
        env = bl.compute_envelope(driver, terminal, grid,
                                  schedule=[2, 4, 8, 16, 32], tol=0.0,
                                  backend="scalar", conv_tol=0.02)
        paths = [bl.glue_deterministic(driver, terminal, grid, 0.5, lam=l,
                                       envelope=env).y for l in lambdas]
        return driver, terminal, grid, paths

    def test_constant_sequence_of_valid_solution(self):
        driver, terminal, grid, paths = self._glued_family([0.5, 0.5 + 1e-9])
        report = bl.closedness_check([paths[0], paths[0]], driver, terminal,
                                     grid, tol=1e-10)
        assert report.ok
        assert report.residual <= 1e-10

    def test_weight_sequence_limit(self):
        lambdas = [0.5 + 2.0 ** (-k) for k in range(2, 9)]
        driver, terminal, grid, paths = self._glued_family(lambdas)
        report = bl.closedness_check(paths, driver, terminal, grid)
        assert report.ok
        assert report.terminal_mismatch == 0.0

    def test_corrupted_field_fails_with_location(self):
        driver, terminal, grid, paths = self._glued_family([0.4, 0.5])
        broken = paths[-1].copy()
        broken[100] += 0.25
        report = bl.closedness_check([paths[0], broken], driver, terminal, grid)
        assert not report.ok
        assert report.worst_step in (99, 100)
        assert report.residual >= 0.2

    def test_needs_two_fields(self):
        driver, terminal, grid, paths = self._glued_family([0.5])
        with pytest.raises(ValueError):
            bl.closedness_check(paths, driver, terminal, grid)
