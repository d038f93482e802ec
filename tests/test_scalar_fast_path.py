"""The scalar backend's fast paths against the general paths they shortcut.

* a 0-d probe of a fixed 1-d convolution table is answered in plain floats;
  it must equal the vector ``np.interp`` path bitwise and count the same
  boundary hits;
* the field reductions run one whole-array pass on 1-d fields; they must
  equal the per-step loop (the path a list of per-step values takes),
  reported step included;
* the deterministic recursion is written once (``scalar_step``); it must
  reproduce the explicit right- and left-endpoint formulas bitwise.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bdsde_lab as bl
from bdsde_lab import fields as fld
from bdsde_lab.envelope import (
    EnvelopeResult,
    EnvelopeSide,
    _scalar_solve,
    sandwich_check,
    scalar_step,
)
from bdsde_lab.regularize import ConvGridSpec, ConvolvedPart

RADIUS = 3.0
TABLES = [  # (catalog drift, params, slope, spacing)
    ("f_sqrt_pos", [2.0], 16.0, 0.0125),
    ("f_linear", [0.6, 0.0], 2.0, 0.05),
    ("f_constant", [0.8], 4.0, 0.03),
]


@functools.lru_cache(maxsize=None)
def _operator(table: int, mode: str) -> ConvolvedPart:
    name, params, n, spacing = TABLES[table]
    spec = ConvGridSpec(radius=RADIUS, spacing=spacing)
    op = ConvolvedPart(bl.builtin_driver(name, params).f, n, spec, mode,
                       z_independent=True)
    op(0.0, np.zeros(2), np.zeros(2))       # build the table
    return op


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_probe_matches(op: ConvolvedPart, x: float):
    hits = op.boundary_hits
    fast = op(0.0, np.asarray(x), np.zeros(()))
    fast_hits = op.boundary_hits - hits
    vector = op(0.0, np.array([x]), np.zeros(1))
    vector_hits = op.boundary_hits - hits - fast_hits
    assert type(fast) is float
    grid, tab = op._table
    oracle = np.interp(np.array([x]), grid, tab)[0]
    if math.isnan(x):
        assert math.isnan(fast) and math.isnan(vector[0])
    else:
        assert _bits(fast) == _bits(vector[0]) == _bits(oracle)
    assert fast_hits == vector_hits == (0 if math.isnan(x) else int(abs(x) > grid[-1]))


operators = st.builds(_operator, st.integers(0, len(TABLES) - 1),
                      st.sampled_from(["inf", "sup"]))


class TestScalarProbe:
    @settings(deadline=None)
    @given(operators, st.floats(-1.5 * RADIUS, 1.5 * RADIUS))
    def test_random_points(self, op, x):
        _assert_probe_matches(op, x)

    @settings(deadline=None)
    @given(operators, st.data())
    def test_exact_grid_nodes(self, op, data):
        grid, _ = op._table
        j = data.draw(st.integers(0, grid.size - 1))
        _assert_probe_matches(op, float(grid[j]))
        # the neighbouring doubles straddle the node
        _assert_probe_matches(op, math.nextafter(float(grid[j]), math.inf))
        _assert_probe_matches(op, math.nextafter(float(grid[j]), -math.inf))

    @settings(deadline=None)
    @given(operators)
    def test_table_endpoints(self, op):
        grid, _ = op._table
        for x in (grid[0], grid[-1]):
            _assert_probe_matches(op, float(x))

    @settings(deadline=None)
    @given(operators, st.floats(RADIUS, 1e300), st.booleans())
    def test_outside_the_box(self, op, r, negative):
        grid, _ = op._table
        x = -r if negative else r
        _assert_probe_matches(op, x)
        _assert_probe_matches(op, math.nextafter(float(grid[-1]), math.inf))
        _assert_probe_matches(op, math.nextafter(float(grid[0]), -math.inf))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinities(self, x):
        for table in range(len(TABLES)):
            for mode in ("inf", "sup"):
                _assert_probe_matches(_operator(table, mode), x)

    def test_python_float_and_numpy_scalar_probes(self):
        op = _operator(0, "sup")
        expected = op(0.0, np.array([0.37]), np.zeros(1))[0]
        for y in (0.37, np.float64(0.37), np.asarray(0.37)):
            assert _bits(op(0.0, y, 0.0)) == _bits(expected)


# --------------------------------------------------------------------------
# field reductions: whole-array pass against the per-step loop
# --------------------------------------------------------------------------

# a small value pool forces ties; NaN and infinities exercise the skip rules
values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan,
                                    math.inf, -math.inf]),
                   st.floats(-1e6, 1e6))
field_pairs = st.integers(1, 40).flatmap(lambda m: st.tuples(
    st.lists(values, min_size=m, max_size=m),
    st.lists(values, min_size=m, max_size=m)))


def _same(x, y) -> bool:
    if isinstance(x, tuple):
        return all(_same(a, b) for a, b in zip(x, y)) and len(x) == len(y)
    return _bits(x) == _bits(y) or (math.isnan(x) and math.isnan(y))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestFieldReductions:
    @given(field_pairs)
    def test_match_per_step_loop(self, pair):
        a, b = (np.array(v) for v in pair)
        la, lb = list(a), list(b)      # per-step values take the loop
        assert fld.as_1d(la, lb) is None
        assert _same(fld.sup_distance(a, b), fld.sup_distance(la, lb))
        assert _same(fld.max_abs(a), fld.max_abs(la))
        assert _same(fld.worst_excess(a, b), fld.worst_excess(la, lb))
        assert fld.nodewise_leq(a, b, 0.5) == fld.nodewise_leq(la, lb, 0.5)

    def test_first_step_reported_on_ties(self):
        a = np.array([0.0, 3.0, 1.0, 3.0, 3.0])
        b = np.zeros(5)
        assert fld.worst_excess(a, b) == (3.0, 1)
        assert fld.worst_excess(list(a), list(b)) == (3.0, 1)

    def test_signed_zero_tie_keeps_first_step(self):
        # long enough for a vectorised fmax, which may pick the later +0.0
        a = np.array([-0.0] * 3 + [0.0] * 29)
        b = np.zeros(32)
        assert _same(fld.worst_excess(a, b), fld.worst_excess(list(a), list(b)))
        assert math.copysign(1.0, fld.worst_excess(a, b)[0]) == -1.0

    def test_all_nan_or_minus_inf_excess_has_no_step(self):
        for a in (np.full(3, math.nan), np.full(3, -math.inf)):
            assert fld.worst_excess(a, np.zeros(3)) == (-math.inf, -1)

    def test_lattice_fields_take_the_loop(self):
        a = [np.ones((1, 2)), np.full((2, 1), 3.0)]
        b = [np.zeros((1, 2)), np.zeros((2, 1))]
        assert fld.as_1d(a, b) is None
        assert fld.worst_excess(a, b) == (3.0, 1)
        assert fld.sup_distance(a, b) == 3.0

    @settings(deadline=None)
    @given(field_pairs, st.lists(values, min_size=40, max_size=40))
    def test_sandwich_matches_per_step_loop(self, pair, cand):
        lo, hi = (np.array(v) for v in pair)
        m = lo.size
        assume(m > 1)
        candidate = np.array(cand[:m])
        env = EnvelopeResult(grid=bl.make_grid(1.0, m - 1), minimal=_side("inf", lo),
                             maximal=_side("sup", hi))
        whole = sandwich_check(candidate, env, tol=0.25)
        loop = sandwich_check(list(candidate), env, tol=0.25)
        assert (whole.ok, whole.step, whole.side) == (loop.ok, loop.step, loop.side)
        assert _same(whole.worst_violation, loop.worst_violation)
        assert whole.node == loop.node


def _side(mode, y):
    return EnvelopeSide(mode=mode, y=y, z=np.zeros_like(y), u=y, iterates=[],
                        schedule=[], converged=True, backend="scalar")


# --------------------------------------------------------------------------
# the deterministic recursion
# --------------------------------------------------------------------------

class TestScalarRecursion:
    def test_step_matches_explicit_formulas(self):
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        grid = bl.make_grid(1.0, 64)
        y = np.random.default_rng(3).uniform(0.0, 1.0, size=65)
        zero = np.zeros(())
        for i in range(grid.steps):
            backward = y[i + 1] + grid.dt * float(
                driver.f(grid.time(i + 1), np.asarray(y[i + 1]), zero))
            forward = y[i] - grid.dt * float(
                driver.f(grid.time(i), np.asarray(y[i]), zero))
            assert _bits(scalar_step(driver.f, grid, y, i, 1.0)) == _bits(backward)
            assert _bits(scalar_step(driver.f, grid, y, i, -1.0)) == _bits(forward)

    def test_partial_backward_solve(self):
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        grid = bl.make_grid(1.0, 64)
        full = _scalar_solve(driver.f, grid, 0.3)
        part = _scalar_solve(driver.f, grid, 0.3, start=64)
        np.testing.assert_array_equal(full, part)
        head = _scalar_solve(driver.f, grid, full[20], start=20)
        np.testing.assert_array_equal(head[:21], full[:21])
