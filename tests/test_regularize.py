import numpy as np
import pytest

import bdsde_lab as bl
from bdsde_lab.errors import CapacityError
from bdsde_lab.regularize import ConvGridSpec, inf_conv, mollify, sup_conv

from conftest import brute_force_conv, catalog_driver_specs

# high-resolution quadrature oracle, computed once with a 4e6-point
# trapezoid rule on the exact kernel: integral of |u| J(u) du times delta,
# for delta = 0.1
MOLLIFIED_ABS_AT_ZERO = 0.026131120342049414


def _f(name, params):
    return bl.builtin_driver(name, params)


class TestConvGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvGridSpec(radius=1.0, spacing=0.0)
        with pytest.raises(ValueError):
            ConvGridSpec(radius=0.5, spacing=1.0)
        with pytest.raises(ValueError):
            ConvGridSpec(radius=None, spacing=0.05)
        with pytest.raises(CapacityError):
            ConvGridSpec(radius=100.0, spacing=1e-5).half_count()

    def test_for_tolerance(self):
        spec = ConvGridSpec.for_tolerance(n=8.0, tol=0.01, radius=4.0)
        assert 2 * 8.0 * spec.spacing == pytest.approx(0.01)


class TestConvolutionValues:
    def test_constant_passes_through(self):
        const = _f("f_constant", [5.0])
        spec = ConvGridSpec(radius=5.0, spacing=0.01)
        up = sup_conv(const.f, 3.0, spec)
        lo = inf_conv(const.f, 3.0, spec)
        for y in (-2.0, 0.0, 1.7):
            assert up(0.0, y, 0.0) == pytest.approx(5.0, abs=1e-14)
            assert lo(0.0, y, 0.0) == pytest.approx(5.0, abs=1e-14)

    def test_abs_reproduced_when_slope_dominates(self):
        # Lip(|y|) = 1 <= n = 2, so the inf-convolution is |y| itself
        fabs = lambda t, y, z: np.abs(y)
        spec = ConvGridSpec(radius=10.0, spacing=0.01)
        op = inf_conv(fabs, 2.0, spec)
        for y in np.linspace(-5, 5, 41):
            assert abs(op(0.0, y, 0.0) - abs(y)) <= 2 * 2.0 * 0.01

    def test_neg_abs_sup_conv_identity(self):
        fneg = lambda t, y, z: -np.abs(y)
        spec = ConvGridSpec(radius=10.0, spacing=0.01)
        op = sup_conv(fneg, 1.0, spec)
        rng = np.random.default_rng(5)
        for y in rng.uniform(-5, 5, size=20):
            assert abs(op(0.0, y, 0.0) - (-abs(y))) <= 2 * 1.0 * 0.01

    def test_sqrt_spot_values(self, sqrt_driver):
        spec = ConvGridSpec(radius=10.0, spacing=0.001)
        up = sup_conv(sqrt_driver.f, 4.0, spec, growth_k=2.0,
                      z_independent=True)
        lo = inf_conv(sqrt_driver.f, 4.0, spec, growth_k=2.0,
                      z_independent=True)
        # maximiser u = 1/16 gives 2/4 - 4/16 = 1/4; minimiser is the origin
        assert abs(up(0.0, 0.0, 0.0) - 0.25) <= 2 * 4.0 * 0.001
        assert lo(0.0, 0.0, 0.0) == 0.0

    def test_slope_precondition(self, sqrt_driver):
        spec = ConvGridSpec(radius=5.0, spacing=0.01)
        with pytest.raises(ValueError):
            sup_conv(sqrt_driver.f, 1.0, spec, growth_k=2.0)

    def test_matches_brute_force_all_strategies(self):
        flin = _f("f_linear", [0.6, 0.3])
        rng = np.random.default_rng(7)
        probes = rng.uniform(-3, 3, size=(12, 2))
        spec = ConvGridSpec(radius=6.0, spacing=0.05)
        for mode, build in (("sup", sup_conv), ("inf", inf_conv)):
            op = build(flin.f, 2.0, spec)
            for y, z in probes:
                oracle = brute_force_conv(flin.f, 2.0, 0.0, y, z, mode,
                                          6.0, 0.05)
                assert abs(op(0.0, y, z) - oracle) <= 2 * 2.0 * 0.05

    def test_fixed_1d_table_matches_brute_force(self, sqrt_driver):
        spec = ConvGridSpec(radius=8.0, spacing=0.01)
        op = sup_conv(sqrt_driver.f, 4.0, spec, z_independent=True)
        rng = np.random.default_rng(8)
        for y in rng.uniform(-3, 3, size=15):
            oracle = brute_force_conv(lambda t, yy, zz: sqrt_driver.f(t, yy, zz),
                                      4.0, 0.0, y, 0.0, "sup", 8.0, 0.01)
            # table interpolation may only move values toward the exact
            # convolution, staying within one grid-error of the dense scan
            assert op(0.0, y, 0.0) >= oracle - 1e-12
            assert abs(op(0.0, y, 0.0) - oracle) <= 2 * 4.0 * 0.01

    def test_boundary_hits_reported(self):
        flin = _f("f_linear", [1.0, 0.0])
        spec = ConvGridSpec(radius=0.5, spacing=0.05)
        op = sup_conv(flin.f, 2.0, spec, z_independent=True)
        op(0.0, 5.0, 0.0)  # optimizer pinned at the box edge
        assert op.boundary_hits > 0


class TestRegularizedDriverProperties:
    SCHEDULE_FACTORS = (1.0, 2.0, 4.0, 8.0)

    def _drivers(self):
        f_entries, _ = catalog_driver_specs()
        return [bl.builtin_driver(name, params) for name, params in f_entries]

    def test_growth_preserved(self):
        # |f_n| <= K|y| + K|z| + D + 2 n spacing at 10^4 probes
        rng = np.random.default_rng(11)
        y = rng.uniform(-8, 8, size=10_000)
        z = rng.uniform(-8, 8, size=10_000)
        spec = ConvGridSpec(radius=30.0, spacing=0.05)
        for driver in self._drivers():
            k_base = max(driver.growth_k, 0.25)
            for mode in ("sup", "inf"):
                for factor in self.SCHEDULE_FACTORS:
                    n = k_base * factor
                    reg = bl.regularized_driver(driver, n, mode, spec)
                    vals = reg.spec.f(0.0, y, z)
                    bound = (driver.growth_d + driver.growth_k * (np.abs(y) + np.abs(z))
                             + 2 * n * spec.spacing)
                    assert np.all(np.abs(vals) <= bound + 1e-12), \
                        f"{driver.descriptor} {mode} n={n}"

    def test_brackets_base_within_grid_error(self):
        rng = np.random.default_rng(29)
        y = rng.uniform(-6, 6, size=2000)
        z = rng.uniform(-6, 6, size=2000)
        spec = ConvGridSpec(radius=20.0, spacing=0.05)
        for driver in self._drivers():
            n = max(driver.growth_k, 0.25) * 2.0
            base = driver.f(0.0, y, z)
            up = bl.regularized_driver(driver, n, "sup", spec).spec.f(0.0, y, z)
            lo = bl.regularized_driver(driver, n, "inf", spec).spec.f(0.0, y, z)
            tol = 2.0 * n * spec.spacing
            assert np.all(up >= base - tol), driver.descriptor
            assert np.all(lo <= base + tol), driver.descriptor

    def test_monotone_in_slope_exact(self):
        rng = np.random.default_rng(12)
        y = rng.uniform(-6, 6, size=2000)
        z = rng.uniform(-6, 6, size=2000)
        spec = ConvGridSpec(radius=20.0, spacing=0.05)
        for driver in self._drivers():
            k_base = max(driver.growth_k, 0.25)
            sup_prev = inf_prev = None
            for factor in self.SCHEDULE_FACTORS:
                n = k_base * factor
                up = bl.regularized_driver(driver, n, "sup", spec).spec.f(0.0, y, z)
                lo = bl.regularized_driver(driver, n, "inf", spec).spec.f(0.0, y, z)
                if sup_prev is not None:
                    assert np.all(up <= sup_prev)      # sup-side decreasing
                    assert np.all(lo >= inf_prev)      # inf-side increasing
                sup_prev, inf_prev = up, lo

    def test_lipschitz_exact_on_fixed_grid(self):
        # the fixed-grid operator is an exactly n-Lipschitz function of the
        # probe (min/max of slope-n cones plus slope-preserving interpolation)
        rng = np.random.default_rng(13)
        p = rng.uniform(-6, 6, size=(10_000, 2))
        q = rng.uniform(-6, 6, size=(10_000, 2))
        spec = ConvGridSpec(radius=20.0, spacing=0.05)
        for driver in self._drivers():
            n = max(driver.growth_k, 0.25) * 2.0
            for mode in ("sup", "inf"):
                op = bl.regularized_driver(driver, n, mode, spec).spec.f
                vp = op(0.0, p[:, 0], p[:, 1])
                vq = op(0.0, q[:, 0], q[:, 1])
                l1 = np.abs(p[:, 0] - q[:, 0]) + np.abs(p[:, 1] - q[:, 1])
                assert np.all(np.abs(vp - vq) <= n * l1 + 1e-12), \
                    f"{driver.descriptor} {mode}"

    def test_pointwise_convergence_on_sqrt(self, sqrt_driver):
        # gap to the base along n = 2^m at probes y_m = 1/(2 n^2) drifting
        # into the kink: analytically (1.5 - sqrt(2))/n, so the sequence
        # decreases and falls below the fixed tolerance schedule
        # tol_m = (1.5 - sqrt(2))/n_m + 10 * spacing * n_m
        dg = 1e-5
        spec = ConvGridSpec(radius=2.0, spacing=dg)
        gaps = []
        for m in range(1, 6):
            n = 2.0 ** m
            y = 1.0 / (2.0 * n * n)
            op = sup_conv(sqrt_driver.f, n, spec, z_independent=True)
            base = float(sqrt_driver.f(0.0, np.asarray(y), np.asarray(0.0)))
            gaps.append(abs(op(0.0, y, 0.0) - base))
            assert gaps[-1] <= (1.5 - np.sqrt(2.0)) / n + 10.0 * dg * n
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))

        flin = bl.builtin_driver("f_linear", [0.7, 0.0])
        op = sup_conv(flin.f, 2.0, spec, z_independent=True)
        for y in (-1.5, 0.4, 1.2):
            base = 0.7 * y
            assert abs(op(0.0, y, 0.0) - base) <= (0.7 + 2.0) * spec.spacing


class TestTimeVaryingDrift:
    """The convolution tables read the drift at t = 0, so a drift not
    declared time-invariant is refused instead of frozen at t = 0."""

    @staticmethod
    def _driver():
        return bl.DriverSpec(
            f=lambda t, y, z: (1.0 + t) * np.sqrt(np.maximum(y, 0.0)),
            g=bl.builtin_driver("f_sqrt_pos", [2.0]).g,
            growth_k=2.0, growth_d=2.0, f_z_independent=True)

    def test_regularized_driver_refuses(self):
        spec = ConvGridSpec(radius=5.0, spacing=0.05)
        for mode in ("sup", "inf"):
            with pytest.raises(ValueError, match="time-invariant"):
                bl.regularized_driver(self._driver(), 4.0, mode, spec)

    def test_compute_envelope_refuses(self):
        grid = bl.make_grid(1.0, 8)
        terminal = bl.builtin_terminal("constant", [0.0])
        for backend in ("scalar", "tree"):
            with pytest.raises(ValueError, match="time-invariant"):
                bl.compute_envelope(self._driver(), terminal, grid,
                                    schedule=[2.0, 4.0], backend=backend)


class TestMollifier:
    def test_kernel_self_normalisation(self):
        for delta in (0.1, 0.5, 2.0):
            _, weights = bl.mollifier_weights(delta, 64)
            assert abs(weights.sum() - 1.0) <= 1e-12

    def test_linear_function_unchanged(self):
        m = mollify(lambda t, y, z: 3.0 * y, delta=0.1)
        for y in (-1.3, 0.2, 2.0):
            got = m(0.0, np.asarray(y), np.asarray(0.0))
            assert abs(got - 3.0 * y) <= 1e-10

    def test_abs_at_zero_matches_quadrature_oracle(self):
        m = mollify(lambda t, y, z: np.abs(y), delta=0.1)
        got = float(m(0.0, np.asarray(0.0), np.asarray(0.0)))
        assert 0.0 < got <= 0.1
        assert got == pytest.approx(MOLLIFIED_ABS_AT_ZERO, abs=1e-8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mollify(lambda t, y, z: y, delta=0.0)
        with pytest.raises(ValueError):
            mollify(lambda t, y, z: y, delta=0.1, quad_points=4)


class TestLowerBoundDriver:
    def test_formula(self):
        d = bl.driver_pair("f_linear", [1.0, 0.0])
        part = bl.lower_bound_driver(d)
        assert part(0.0, np.asarray(2.0), np.asarray(3.0)) == pytest.approx(-5.0)
        assert part(0.0, np.asarray(0.0), np.asarray(0.0)) == pytest.approx(0.0)
        d2 = bl.driver_pair("f_constant", [-1.5])
        part2 = bl.lower_bound_driver(d2)
        assert part2(0.3, np.asarray(0.0), np.asarray(0.0)) == pytest.approx(-1.5)

    def test_below_f_for_all_catalog_drivers(self):
        rng = np.random.default_rng(17)
        y = rng.uniform(-10, 10, size=1000)
        z = rng.uniform(-10, 10, size=1000)
        f_entries, _ = catalog_driver_specs()
        for name, params in f_entries:
            d = bl.builtin_driver(name, params)
            part = bl.lower_bound_driver(d)
            assert np.all(part(0.2, y, z) <= d.f(0.2, y, z) + 1e-12), name

    def test_requires_metadata(self):
        d = bl.DriverSpec(f=lambda t, y, z: 0 * y, g=lambda t, y, z: 0 * y,
                          f_lipschitz=0.0)
        with pytest.raises(ValueError):
            bl.lower_bound_driver(d)


class TestSeparatingMollifiedDriver:
    def test_constant_shift(self):
        part = bl.separating_mollified_driver(
            lambda t, y, z: np.zeros_like(y), eps_bar=1.0, delta=0.1)
        got = part(0.0, np.linspace(-2, 2, 9), np.zeros(9))
        np.testing.assert_allclose(got, 0.5, atol=1e-10)

    def test_sits_above_base_plus_half_gap_modulus(self, sqrt_driver):
        delta = 0.05
        eps = 0.6
        part = bl.separating_mollified_driver(sqrt_driver.f, eps, delta)
        ys = np.linspace(-3, 3, 301)
        base = sqrt_driver.f(0.0, ys, np.zeros_like(ys))
        got = part(0.0, ys, np.zeros_like(ys))
        # modulus of continuity of 2 sqrt(y+) at scale delta is 2 sqrt(delta)
        modulus = 2.0 * np.sqrt(delta)
        assert np.all(got >= base + 0.5 * eps - modulus - 1e-12)

    def test_slope_bounded_by_kernel_scale(self, sqrt_driver):
        # finite-difference slope in y stays below (sup|f| + eps) times the
        # kernel derivative bound over delta; the bound is computed by a
        # dense quadrature of |J'| once
        delta = 0.1
        eps = 0.6
        part = bl.separating_mollified_driver(sqrt_driver.f, eps, delta)
        u = np.linspace(-1 + 1e-9, 1 - 1e-9, 2_000_001)
        j = np.exp(-1.0 / (1.0 - np.abs(u)))
        j /= np.trapezoid(j, u)
        dj = np.gradient(j, u)
        kernel_deriv_l1 = np.trapezoid(np.abs(dj), u)
        ys = np.linspace(0.0, 3.0, 200)
        h = 1e-6
        up = part(0.0, ys + h, np.zeros_like(ys))
        lo = part(0.0, ys - h, np.zeros_like(ys))
        slopes = np.abs(up - lo) / (2 * h)
        sup_f = float(np.max(np.abs(sqrt_driver.f(0.0, ys + delta, ys)))) + eps
        assert np.all(slopes <= sup_f * kernel_deriv_l1 / delta + 1e-6)

    def test_precondition(self):
        with pytest.raises(ValueError):
            bl.separating_mollified_driver(lambda t, y, z: y, eps_bar=0.0,
                                           delta=0.1)
