import dataclasses

import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab.errors import CapacityError, CatalogError, ContractViolation

from conftest import catalog_driver_specs


class TestTimeGrid:
    def test_basic(self):
        g = bl.make_grid(1.0, 4)
        assert g.dt == 0.25
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_step(self):
        g = bl.make_grid(2.0, 1)
        assert g.dt == 2.0
        np.testing.assert_array_equal(g.nodes, [0.0, 2.0])

    def test_dt_times_n_is_horizon(self):
        for horizon, steps in [(1.0, 7), (0.3, 13), (2.5, 1000)]:
            g = bl.make_grid(horizon, steps)
            assert abs(g.dt * g.steps - horizon) <= 2 * np.finfo(float).eps * horizon
            assert g.nodes[0] == 0.0 and g.nodes[-1] == horizon
            assert np.all(np.diff(g.nodes) > 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bl.make_grid(1.0, 0)
        with pytest.raises(ValueError):
            bl.make_grid(0.0, 4)
        with pytest.raises(ValueError):
            bl.make_grid(-1.0, 4)
        with pytest.raises(CapacityError):
            bl.make_grid(1.0, 2 ** 20 + 1)

    def test_nodes_immutable(self):
        g = bl.make_grid(1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


class TestDriverCatalog:
    def test_linear_plus_zero(self):
        d = bl.driver_pair("f_linear", [1.0, 0.0], "g_zero")
        y = np.array([0.3, -1.2])
        z = np.array([5.0, 7.0])
        np.testing.assert_array_equal(d.f(0.1, y, z), y)
        np.testing.assert_array_equal(d.g(0.1, y, z), np.zeros(2))
        assert d.g_lip_z_sq == 0.0

    def test_sqrt_pos_formula(self):
        d = bl.builtin_driver("f_sqrt_pos", [2.0])
        y = np.array([4.0, -1.0, 0.25])
        np.testing.assert_array_equal(d.f(0.0, y, y), [4.0, 0.0, 1.0])
        assert d.f_lipschitz is None
        assert d.growth_k == 2.0 and d.growth_d == 2.0

    def test_g_linear_contraction_enforced(self):
        with pytest.raises(ContractViolation):
            bl.builtin_driver("g_linear", [1.0])
        with pytest.raises(ContractViolation):
            bl.builtin_driver("g_linear", [-1.3])
        d = bl.builtin_driver("g_linear", [0.9])
        assert d.g_lip_z_sq == pytest.approx(0.81)

    def test_g_sine_metadata(self):
        d = bl.builtin_driver("g_sine", [0.5, 0.3])
        assert d.g_lip_z_sq == pytest.approx(0.64)
        with pytest.raises(ContractViolation):
            bl.builtin_driver("g_sine", [0.7, 0.3])

    def test_unknown_and_arity(self):
        with pytest.raises(CatalogError):
            bl.builtin_driver("f_cubic", [1.0])
        with pytest.raises(CatalogError):
            bl.builtin_driver("f_linear", [1.0])
        with pytest.raises(CatalogError):
            bl.driver_pair("f_linear", [1.0, 0.0], "g_linear", [])

    def test_catalog_matches_closed_formulas(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-10, 10, size=1000)
        z = rng.uniform(-10, 10, size=1000)
        cases = {
            ("f_constant", (0.8,)): lambda: np.full(1000, 0.8),
            ("f_linear", (0.6, 0.3)): lambda: 0.6 * y + 0.3 * z,
            ("f_sqrt_pos", (2.0,)): lambda: 2 * np.sqrt(np.maximum(y, 0)),
            ("g_constant", (0.7,)): lambda: np.full(1000, 0.7),
            ("g_linear", (0.8,)): lambda: 0.8 * z,
            ("g_sine", (0.5, 0.3)): lambda: 0.5 * z + 0.3 * np.sin(z),
        }
        for (name, params), expected in cases.items():
            d = bl.builtin_driver(name, params)
            part = d.f if name.startswith("f") else d.g
            got = part(0.33, y, z)
            np.testing.assert_allclose(got, expected(), rtol=2e-16, atol=0.0)

    def test_missing_growth_metadata_rejected(self):
        with pytest.raises(ContractViolation):
            bl.DriverSpec(f=lambda t, y, z: y, g=lambda t, y, z: 0 * y)


class TestTerminalCatalog:
    def test_values(self):
        inc = np.array([[0.5, -0.5], [1.0, 0.25]])
        assert list(bl.builtin_terminal("constant", [3.0]).evaluate(inc)) == [3, 3]
        np.testing.assert_array_equal(
            bl.builtin_terminal("w_terminal").evaluate(inc), [0.0, 1.25])
        np.testing.assert_array_equal(
            bl.builtin_terminal("w_terminal_sq").evaluate(inc), [0.0, 1.5625])
        np.testing.assert_array_equal(
            bl.builtin_terminal("call", [0.0]).evaluate(np.array([[-0.7, -0.3]])),
            [0.0])
        np.testing.assert_array_equal(
            bl.builtin_terminal("w_terminal_pos").evaluate(inc), [0.0, 1.25])

    def test_unknown(self):
        with pytest.raises(CatalogError):
            bl.builtin_terminal("digital", [1.0])


class TestContractChecker:
    def test_linear_estimate_sharp(self):
        d = bl.driver_pair("f_linear", [2.0, 0.0])
        rep = bl.check_driver_contract(d, probe_count=10_000, radius=10.0, seed=0)
        assert abs(rep.estimated_lip_f - 2.0) <= 1e-9
        assert rep.verdicts["f_lipschitz"] == "pass"
        assert rep.all_pass

    def test_g_contraction_estimate(self):
        d = bl.driver_pair("zero", [], "g_linear", [0.5])
        rep = bl.check_driver_contract(d, probe_count=10_000, radius=10.0, seed=1)
        assert rep.estimated_lip_g_z_sq <= 0.25 + 1e-9
        assert rep.verdicts["g_z_contraction"] == "pass"

    def test_sqrt_with_false_lipschitz_claim_fails_with_witness(self):
        base = bl.builtin_driver("f_sqrt_pos", [2.0])
        lying = dataclasses.replace(base, f_lipschitz=1.0)
        rep = bl.check_driver_contract(lying, probe_count=10_000, radius=10.0,
                                       seed=2)
        assert rep.verdicts["f_lipschitz"] == "fail"
        wit = rep.witnesses["f_lipschitz"]
        # the offending pair straddles the origin where the slope blows up
        assert abs(wit.point_a[1]) < 1e-3 and abs(wit.point_b[1]) < 1e-3
        assert wit.quotient > 1.0
        # sqrt is continuous but not locally Lipschitz at the origin
        honest = bl.check_driver_contract(base, probe_count=10_000,
                                          radius=10.0, seed=2)
        assert honest.verdicts["f_lipschitz"] == "not-declared"
        assert honest.verdicts["f_continuity"] == "pass"
        assert honest.verdicts["f_local_lipschitz"] == "fail"

    def test_growth_violation_carries_witness(self):
        bad = bl.DriverSpec(
            f=lambda t, y, z: y * y,
            g=lambda t, y, z: np.zeros_like(y),
            growth_k=1.0, growth_d=0.0,
        )
        rep = bl.check_driver_contract(bad, probe_count=4000, radius=10.0, seed=3)
        assert rep.verdicts["f_linear_growth"] == "fail"
        wit = rep.growth_violations[0]
        t, y, z = wit.point_a
        assert abs(wit.value_a) == pytest.approx(y * y)
        assert abs(wit.value_a) > wit.value_b  # value exceeds the claimed bound

    def test_verdicts_monotone_in_slack(self):
        lying = dataclasses.replace(bl.builtin_driver("f_sqrt_pos", [2.0]),
                                    f_lipschitz=1.0)
        for driver in (lying, bl.driver_pair("f_linear", [0.9, 0.2],
                                             "g_sine", [0.5, 0.3])):
            tight = bl.check_driver_contract(driver, 4000, 10.0, seed=4,
                                             slack=1e-12)
            loose = bl.check_driver_contract(driver, 4000, 10.0, seed=4,
                                             slack=1e3)
            for key, verdict in tight.verdicts.items():
                if verdict == "pass":
                    assert loose.verdicts[key] != "fail"

    def test_deterministic_for_fixed_seed(self):
        d = bl.driver_pair("f_linear", [0.4, 0.2], "g_sine", [0.4, 0.2])
        r1 = bl.check_driver_contract(d, 2000, 5.0, seed=9)
        r2 = bl.check_driver_contract(d, 2000, 5.0, seed=9)
        assert r1.estimated_lip_f == r2.estimated_lip_f
        assert r1.verdicts == r2.verdicts

    def test_preconditions(self):
        d = bl.builtin_driver("zero")
        with pytest.raises(ValueError):
            bl.check_driver_contract(d, probe_count=1)
        with pytest.raises(ValueError):
            bl.check_driver_contract(d, probe_count=10, radius=0.0)


def test_catalog_listing_stable_and_complete():
    listing = bl.catalog_listing()
    assert listing == bl.catalog_listing()
    assert "f_sqrt_pos  (params: 1)" in listing
    assert "w_terminal_sq" in listing
    f_entries, g_entries = catalog_driver_specs()
    for name, _ in f_entries + g_entries:
        assert name in listing
