import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_constant_parts_are_read_only_views(self):
        y = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        for name in ("f_constant", "g_constant"):
            d = bl.builtin_driver(name, [0.7])
            got = (d.f if name.startswith("f") else d.g)(0.5, y, y)
            assert got.shape == y.shape and got.dtype == np.float64
            assert not got.flags.writeable
            assert got.tobytes() == np.full_like(y, 0.7).tobytes()
            assert float((d.f if name.startswith("f") else d.g)(0.5, 0.2, 0.0)) == 0.7

    def test_constant_parts_keep_one_read_only_view_per_shape(self):
        inputs = [0.2, np.asarray(0.2), np.linspace(-1.0, 1.0, 5),
                  np.zeros((3, 4)), np.zeros((4, 3))]
        for name in ("f_constant", "g_constant"):
            d = bl.builtin_driver(name, [0.7])
            part = d.f if name.startswith("f") else d.g
            # twice over, so the second pass reads the views of the first
            outs = [[part(0.5, y, y) for y in inputs] for _ in range(2)]
            for y, first, again in zip(inputs, *outs):
                assert again is first
                assert first.shape == np.shape(y) and first.dtype == np.float64
                assert not first.flags.writeable
                assert first.tobytes() == np.full(np.shape(y), 0.7).tobytes()
                with pytest.raises(ValueError):
                    first[...] = 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf * 0, inf - inf
    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0]),
                           min_size=2, max_size=2),
           values=st.lists(st.sampled_from(
               [0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan]),
               min_size=24, max_size=24),
           shapes=st.sampled_from([((2, 12), (2, 12)), ((24,), (24,)),
                                   ((2, 1), (2, 12)), ((), (24,)),
                                   ((24,), ()), ((), ())]))
    def test_f_linear_keeps_the_bytes_of_the_two_product_sum(self, coeffs,
                                                             values, shapes):
        # signed zeros and non-finite z, on equal and broadcast shapes
        a_y, a_z = coeffs
        pool = np.array(values)
        y = pool[:int(np.prod(shapes[0]))].reshape(shapes[0])
        z = pool[::-1][:int(np.prod(shapes[1]))].reshape(shapes[1])
        f = bl.builtin_driver("f_linear", [a_y, a_z]).f
        for args in ((y, z), (y.tolist(), z.tolist())):
            got = f(0.5, *args)
            want = a_y * np.asarray(args[0], dtype=float) \
                + a_z * np.asarray(args[1], dtype=float)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).dtype == np.float64
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert y.tobytes() == pool[:y.size].tobytes()

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

    def test_evaluate_applies_the_w_t_form_to_the_sum(self):
        # Gaussian rows keep the bits of a sum over the increments followed
        # by the closed form, as before the W_T form was declared
        w = np.random.default_rng(5).standard_normal((257, 13)) * 0.3
        w_t = w.sum(axis=-1)
        formulas = {
            ("constant", (1.5,)): np.full(257, 1.5),
            ("w_terminal", ()): w_t,
            ("w_terminal_sq", ()): w_t ** 2,
            ("call", (0.1,)): np.maximum(w_t - 0.1, 0.0),
            ("w_terminal_pos", ()): np.maximum(w_t, 0.0),
        }
        for (name, params), want in formulas.items():
            term = bl.builtin_terminal(name, params)
            assert term.evaluate(w).tobytes() == want.tobytes()
            assert np.asarray(term.of_w_t(w_t), dtype=float).tobytes() \
                == want.tobytes()
        assert bl.TerminalSpec(lambda w: w.sum(axis=-1)).of_w_t is None


# relative slack of the catalog metadata bounds; it also scales with the
# values compared, which carry their own rounding
REL = 1e-12
_COORD = st.floats(-100.0, 100.0)


def _within(lhs, bound, *values):
    return lhs <= bound + REL * (bound + sum(abs(v) for v in values))


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from([(f, g) for f in catalog_driver_specs()[0]
                             for g in catalog_driver_specs()[1]]),
       t=st.floats(0.0, 1.0), p=st.tuples(_COORD, _COORD),
       q=st.tuples(_COORD, _COORD))
def test_catalog_metadata_bounds_hold(pair, t, p, q):
    """Solvers trust the declared constants: linear growth and the l1
    Lipschitz bound of f, and the y- and z-slopes of g."""
    d = bl.driver_pair(*pair[0], *pair[1])
    (y1, z1), (y2, z2) = p, q

    def at(part, y, z):
        return float(part(t, np.array(y), np.array(z)))

    fa, fb = at(d.f, y1, z1), at(d.f, y2, z2)
    assert _within(abs(fa), d.growth_d + d.growth_k * (abs(y1) + abs(z1)), fa)
    if d.f_lipschitz is not None:
        assert _within(abs(fa - fb),
                       d.f_lipschitz * (abs(y1 - y2) + abs(z1 - z2)), fa, fb)
    ga, g_dy, g_dz = at(d.g, y1, z1), at(d.g, y2, z1), at(d.g, y1, z2)
    assert _within((ga - g_dy) ** 2, d.g_lip_y * (y1 - y2) ** 2,
                   ga * ga, g_dy * g_dy)
    assert _within((ga - g_dz) ** 2, d.g_lip_z_sq * (z1 - z2) ** 2,
                   ga * ga, g_dz * g_dz)


def test_catalog_listing_stable_and_complete():
    listing = bl.catalog_listing()
    assert listing == bl.catalog_listing()
    assert "f_sqrt_pos  (params: 1)" in listing
    assert "w_terminal_sq" in listing
    f_entries, g_entries = catalog_driver_specs()
    for name, _ in f_entries + g_entries:
        assert name in listing
