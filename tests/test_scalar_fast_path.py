"""The scalar backend's fast paths against the general paths they shortcut.

* the 1-d convolution table is built by a sparse two-pass distance
  transform that visits only the nodes a pass changes; it must equal the
  sequential sweeps over every node (``conftest.sequential_transform_1d``)
  bitwise;
* every drift part hands the scalar recursion a plain-float step function
  ``(t, y) -> f(t, y, 0)`` (``core.scalar_drift``): a 1-d table its probe,
  a catalog drift and the lower bound their ``math`` twins, anything else
  a wrapper around the numpy call; each must equal the numpy call bitwise,
  and the probe must count the same boundary hits;
* the field reductions run one whole-array pass on 1-d fields; they must
  equal the per-step loop (the path a list of per-step values takes),
  reported step included;
* the deterministic recursion (``_scalar_solve``, the scalar glue's
  forward piece and its residual) is one loop over a step function; it
  must reproduce a per-call loop over the numpy part bitwise, boundary
  hits included.
"""

import dataclasses
import functools
import math
from itertools import chain

import numpy as np
import pytest
from conftest import catalog_driver_specs, sequential_transform_1d
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bdsde_lab as bl
from bdsde_lab import fields as fld
from bdsde_lab import gluing, regularize
from bdsde_lab.core import scalar_drift
from bdsde_lab.envelope import (
    EnvelopeResult,
    EnvelopeSide,
    _conv_grid_for,
    _scalar_solve,
    sandwich_check,
)
from bdsde_lab.regularize import ConvGridSpec, ConvolvedPart, lower_bound_driver

RADIUS = 3.0
TABLES = [  # (catalog drift, params, slope, spacing)
    ("f_sqrt_pos", [2.0], 16.0, 0.0125),
    ("f_linear", [0.6, 0.0], 2.0, 0.05),
    ("f_constant", [0.8], 4.0, 0.03),
]
ZERO = np.zeros(())


def _fresh_operator(table: int, mode: str) -> ConvolvedPart:
    name, params, n, spacing = TABLES[table]
    spec = ConvGridSpec(radius=RADIUS, spacing=spacing)
    return ConvolvedPart(bl.builtin_driver(name, params).f, n, spec, mode,
                         z_independent=True)


@functools.lru_cache(maxsize=None)
def _operator(table: int, mode: str) -> ConvolvedPart:
    op = _fresh_operator(table, mode)
    op(0.0, np.zeros(2), np.zeros(2))       # build the table
    return op


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


# --------------------------------------------------------------------------
# the sparse distance transform against the sequential sweeps
# --------------------------------------------------------------------------

specials = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])
points = st.one_of(specials, st.floats(-1e3, 1e3))
# long monotone runs walk far in one pass; repeats make equal neighbours
runs = st.builds(lambda a, s, k: [a + j * s for j in range(k)],
                 st.floats(-1e3, 1e3), st.floats(-20.0, 20.0), st.integers(2, 80))
repeats = st.builds(lambda v, k: [v] * k, points, st.integers(2, 10))
tables = st.lists(st.one_of(points.map(lambda v: [v]), runs, repeats),
                  max_size=12).map(lambda parts: np.array(list(chain(*parts)),
                                                          dtype=float))


def _assert_transform_matches(values, cost):
    for mode in ("sup", "inf"):
        out = ConvolvedPart._transform_1d(values, cost, mode)
        assert out.tobytes() == sequential_transform_1d(values, cost, mode).tobytes()


class TestTransform:
    @settings(deadline=None, max_examples=300)
    @given(tables, st.floats(1e-6, 10.0))
    def test_matches_sequential_sweeps(self, values, cost):
        _assert_transform_matches(values, cost)

    @settings(deadline=None, max_examples=300)
    @given(tables, st.floats(1e-6, 10.0))
    def test_matches_sequential_sweeps_across_run_blocks(self, values, cost):
        # the run starts are found a block at a time: blocks of 3 nodes put
        # block edges inside runs and at their ends, and runs walk across them
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regularize, "RUN_BLOCK", 3)
            _assert_transform_matches(values, cost)

    def test_input_left_unchanged(self):
        values = np.array([3.0, 0.0, 0.0, 5.0])
        ConvolvedPart._transform_1d(values, 0.5, "sup")
        assert values.tolist() == [3.0, 0.0, 0.0, 5.0]

    def test_scalar_continuum_tables(self):
        # the 14 tables of the benchmark's scalar envelope: sqrt drift,
        # slopes 2..128 on one grid at conv_tol 0.02, both modes
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        grid = bl.make_grid(1.0, 4096)
        spec = _conv_grid_for(driver, bl.builtin_terminal("constant", [0.0]),
                              grid, 128.0, 0.02, None)
        m = spec.half_count(dims=1)
        nodes = spec.spacing * np.arange(-m, m + 1)
        values = np.asarray(driver.f(0.0, nodes, np.zeros_like(nodes)))
        for n in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
            for mode in ("sup", "inf"):
                cost = n * spec.spacing
                assert (ConvolvedPart._transform_1d(values, cost, mode).tobytes()
                        == sequential_transform_1d(values, cost, mode).tobytes())

    def test_scalar_continuum_tables_across_run_blocks(self, monkeypatch):
        # blocks of 64 of the grid's 443,157 nodes
        monkeypatch.setattr(regularize, "RUN_BLOCK", 64)
        self.test_scalar_continuum_tables()


# --------------------------------------------------------------------------
# step functions against the numpy parts
# --------------------------------------------------------------------------

def _assert_probe_matches(op: ConvolvedPart, x: float):
    probe = op.scalar_drift()
    hits = op.boundary_hits
    fast = probe(0.0, x)
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

    def test_probe_builds_the_table(self):
        op = _fresh_operator(0, "sup")
        probe = scalar_drift(op)
        assert op._table is not None and op.boundary_hits == 0
        assert _bits(probe(0.0, 0.37)) == _bits(op(0.0, np.array([0.37]), np.zeros(1))[0])

    @pytest.mark.parametrize("mode", ["inf", "sup"])
    def test_table_from_a_0d_z_matches_a_zeros_array(self, mode):
        # every z-independent catalog drift reads a 0-d z as it reads an
        # array of zeros the size of the table's grid
        entries = catalog_driver_specs()[0] + [(name, params)
                                               for name, params, _, _ in TABLES]
        drifts = [bl.builtin_driver(name, params) for name, params in entries]
        drifts = [d for d in drifts if d.f_z_independent]
        assert len(drifts) >= 4
        spec = ConvGridSpec(radius=RADIUS, spacing=0.0125)
        for driver in drifts:
            op = ConvolvedPart(driver.f, 4.0, spec, mode, z_independent=True)
            op._build_table_1d()
            grid, tab = op._table
            vals = np.asarray(driver.f(0.0, grid, np.zeros_like(grid)),
                              dtype=float)
            want = ConvolvedPart._transform_1d(vals, 4.0 * spec.spacing, mode)
            assert tab.tobytes() == want.tobytes(), driver.descriptor

    def test_python_float_and_numpy_scalar_probes(self):
        op = _operator(0, "sup")
        expected = op(0.0, np.array([0.37]), np.zeros(1))[0]
        probe = op.scalar_drift()
        for y in (0.37, np.float64(0.37)):
            assert _bits(probe(0.0, y)) == _bits(expected)
        # a 0-d call of the operator itself takes the vector path
        for y in (0.37, np.float64(0.37), np.asarray(0.37)):
            value = op(0.0, y, 0.0)
            assert type(value) is float and _bits(value) == _bits(expected)

    def test_two_dimensional_table_takes_the_numpy_call(self):
        spec = ConvGridSpec(radius=RADIUS, spacing=0.1)
        op = ConvolvedPart(bl.builtin_driver("f_linear", [0.6, 0.3]).f, 2.0,
                           spec, "sup")
        assert op.scalar_drift() is None
        step = scalar_drift(op)
        for y in (-4.0, -0.35, 0.0, 1.26):
            assert _bits(step(0.0, y)) == _bits(op(0.0, np.asarray(y), ZERO))


# --------------------------------------------------------------------------
# the drift's samples on the grid, shared by every table of an envelope
# --------------------------------------------------------------------------

def _table_sampled_per_build(base, n, spec, mode):
    """(grid, table) as a build sampling the base on its own grid forms it."""
    m = spec.half_count(dims=1)
    grid = spec.spacing * np.arange(-m, m + 1)
    vals = np.broadcast_to(base(0.0, grid, ZERO), grid.shape)
    return grid, ConvolvedPart._transform_1d(vals, n * spec.spacing, mode)


def _fresh_table(base, n, spec, mode):
    """The table of a fresh operator on a fresh spec equal to ``spec``."""
    op = ConvolvedPart(base, n, ConvGridSpec(spec.radius, spec.spacing), mode,
                       z_independent=True)
    op._build_table_1d()
    return op._table


def _z_free_catalog_drifts():
    entries = catalog_driver_specs()[0] + [(name, params)
                                           for name, params, _, _ in TABLES]
    drifts = [bl.driver_pair(name, params) for name, params in entries]
    return [d for d in drifts if d.f_z_independent]


class TestSharedSamples:
    def test_envelope_tables_match_fresh_operators(self, monkeypatch):
        build = ConvolvedPart._build_table_1d
        built = []

        def recording(op):
            build(op)
            built.append(op)

        monkeypatch.setattr(ConvolvedPart, "_build_table_1d", recording)
        terminal = bl.builtin_terminal("constant", [0.25])
        grid = bl.make_grid(1.0, 64)
        drifts = _z_free_catalog_drifts()
        assert len(drifts) >= 4
        for driver in drifts:
            built.clear()
            first = max(driver.growth_k, 1.0)
            schedule = [first, 2.0 * first, 4.0 * first]
            env = bl.compute_envelope(driver, terminal, grid, schedule=schedule,
                                      tol=0.0, backend="scalar", conv_tol=0.05)
            ops = list(built)           # the fresh builds below record too
            # every slope on both sides, all on one spec and one sampling
            assert sorted((op.mode, op.n) for op in ops) == sorted(
                (mode, n) for mode in ("inf", "sup") for n in schedule)
            spec = env.maximal.final_reg_spec.f.spec
            assert all(op.spec is spec for op in ops)
            assert list(spec._samples_1d) == [id(driver.f)]
            for op in ops:
                grid_nodes, tab = op._table
                want_grid, want_tab = _fresh_table(driver.f, op.n, spec, op.mode)
                assert grid_nodes.tobytes() == want_grid.tobytes(), driver.descriptor
                assert tab.tobytes() == want_tab.tobytes(), (driver.descriptor,
                                                             op.mode, op.n)

    def test_samples_read_only_and_unchanged_by_builds(self):
        base = bl.builtin_driver("f_sqrt_pos", [2.0]).f
        spec = ConvGridSpec(radius=RADIUS, spacing=0.0125)
        sup = ConvolvedPart(base, 16.0, spec, "sup", z_independent=True)
        sup._build_table_1d()
        part, grid, vals = spec._samples_1d[id(base)]
        assert part is base
        before = grid.tobytes(), vals.tobytes()
        assert not grid.flags.writeable and not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 1.0
        inf = ConvolvedPart(base, 16.0, spec, "inf", z_independent=True)
        inf._build_table_1d()
        assert (grid.tobytes(), vals.tobytes()) == before
        assert sup._table[0] is inf._table[0] is grid
        # each table is its own array, apart from the samples and each other
        for a, b in [(sup._table[1], vals), (inf._table[1], vals),
                     (sup._table[1], inf._table[1])]:
            assert not np.shares_memory(a, b)
        assert len(spec._samples_1d) == 1

    def test_samples_are_per_part_and_per_spec(self):
        first = bl.builtin_driver("f_sqrt_pos", [2.0]).f
        second = bl.builtin_driver("f_constant", [0.8]).f
        spec, equal = (ConvGridSpec(radius=RADIUS, spacing=0.0125) for _ in range(2))
        other = ConvGridSpec(radius=RADIUS, spacing=0.03)
        assert spec == equal and hash(spec) == hash(equal)
        ops = [ConvolvedPart(base, 4.0, s, "sup", z_independent=True)
               for base, s in [(first, spec), (second, spec), (first, equal),
                               (first, other)]]
        for op in ops:
            op._build_table_1d()
            want_grid, want_tab = _table_sampled_per_build(op.base, 4.0, op.spec, "sup")
            assert op._table[0].tobytes() == want_grid.tobytes()
            assert op._table[1].tobytes() == want_tab.tobytes()
        assert sorted(spec._samples_1d) == sorted([id(first), id(second)])
        assert list(equal._samples_1d) == [id(first)]
        assert list(other._samples_1d) == [id(first)]
        samples = [spec._samples_1d[id(first)], spec._samples_1d[id(second)],
                   equal._samples_1d[id(first)], other._samples_1d[id(first)]]
        for i, a in enumerate(samples):
            for b in samples[i + 1:]:
                assert a[1] is not b[1] and a[2] is not b[2]

    @pytest.mark.parametrize("base", [
        lambda t, y, z: y,                      # its own argument
        lambda t, y, z: np.float64(0.7),        # a 0-d value
        lambda t, y, z: 1.5,                    # a plain float
    ], ids=["own_argument", "numpy_0d", "python_float"])
    def test_custom_drifts_give_the_per_build_table(self, base):
        spec = ConvGridSpec(radius=RADIUS, spacing=0.03)
        for n in (2.0, 8.0):
            for mode in ("sup", "inf"):
                op = ConvolvedPart(base, n, spec, mode, z_independent=True)
                op._build_table_1d()
                want_grid, want_tab = _table_sampled_per_build(base, n, spec, mode)
                assert op._table[0].tobytes() == want_grid.tobytes()
                assert op._table[1].tobytes() == want_tab.tobytes()

    def test_boundary_hits_of_probes_leaving_the_box(self):
        # the maximal side climbs to about 1, out of a box of radius 0.5
        driver = bl.driver_pair("f_sqrt_pos", [2.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 64)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4, 8],
                                  tol=0.0, backend="scalar", conv_tol=0.05,
                                  conv_radius=0.5)
        spec = env.maximal.final_reg_spec.f.spec
        for side in (env.maximal, env.minimal):
            hits = 0
            for rec in side.iterates:
                op = ConvolvedPart(driver.f, rec.n,
                                   ConvGridSpec(spec.radius, spec.spacing),
                                   side.mode, z_independent=True)
                # the records keep no field: the iterate solved again from
                # its slope has the record's value at t = 0, and the last
                # one is the side's field
                y = _scalar_solve(op, grid, 0.0)
                assert y[0] == rec.y0_mean
                if rec is side.iterates[-1]:
                    assert y.tobytes() == side.y.tobytes()
                hits += op.boundary_hits
            assert side.boundary_hits == hits
        assert env.maximal.boundary_hits > 0


# floats of every kind: signed zeros, subnormals, infinities and NaN
any_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, -math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
params = st.floats(-1e6, 1e6)
catalog_drifts = st.one_of(
    st.just(("zero", ())),
    st.tuples(st.just("f_constant"), st.tuples(any_float)),
    st.tuples(st.just("f_linear"), st.tuples(params, params)),
    st.tuples(st.just("f_sqrt_pos"), st.tuples(st.floats(0.0, 1e6))),
)


def _numpy_value(part, t, y) -> float:
    return float(part(t, np.asarray(y), ZERO))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestTwins:
    @settings(deadline=None, max_examples=300)
    @given(catalog_drifts, any_float, st.floats(0.0, 1.0))
    def test_catalog_twin_equals_numpy_part(self, drift, y, t):
        part = bl.builtin_driver(*drift).f
        twin = scalar_drift(part)
        value = twin(t, y)
        assert type(value) is float
        assert _bits(value) == _bits(_numpy_value(part, t, y))

    @pytest.mark.parametrize("drift", [("zero", ()), ("f_constant", (0.8,)),
                                       ("f_linear", (0.6, -0.3)),
                                       ("f_sqrt_pos", (2.0,)), ("f_sqrt_pos", (0.0,))])
    def test_catalog_twins_on_special_values(self, drift):
        part = bl.builtin_driver(*drift).f
        twin = scalar_drift(part)
        for y in (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
                  -math.nan, -1.5, 2.25):
            assert _bits(twin(0.5, y)) == _bits(_numpy_value(part, 0.5, y))

    @settings(deadline=None, max_examples=300)
    @given(catalog_drifts, any_float)
    def test_lower_bound_twin_equals_numpy_part(self, drift, y):
        part = lower_bound_driver(bl.builtin_driver(*drift))
        assert _bits(scalar_drift(part)(0.3, y)) == _bits(_numpy_value(part, 0.3, y))

    def test_lower_bound_of_a_time_varying_drift_reads_f_every_call(self):
        driver = bl.builtin_driver("f_constant", [0.5])
        varying = dataclasses.replace(
            driver, f=lambda t, y, z: np.asarray(y) * 0.0 + t,
            f_time_invariant=False)
        part = lower_bound_driver(varying)
        assert not hasattr(part, "scalar_drift")
        assert scalar_drift(part)(0.75, 1.0) == -0.75
        assert scalar_drift(part)(0.25, 1.0) == -0.25

    def test_other_parts_take_the_numpy_call(self):
        driver = bl.shifted_driver(bl.builtin_driver("f_sqrt_pos", [2.0]), 0.1)
        step = scalar_drift(driver.f)
        for y in (-1.0, 0.0, 0.37, math.inf):
            assert _bits(step(0.5, y)) == _bits(_numpy_value(driver.f, 0.5, y))


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


def _side(mode, y):
    return EnvelopeSide(mode=mode, y=y, z=np.zeros_like(y), u=y, iterates=[],
                        schedule=[], converged=True, backend="scalar")


# --------------------------------------------------------------------------
# the deterministic recursion against a per-call loop
# --------------------------------------------------------------------------

def _per_call_backward(part, grid, xi, start):
    """y_i = y_{i+1} + dt f(t_{i+1}, y_{i+1}), one numpy call per step."""
    y = np.empty(grid.steps + 1)
    y[start] = xi
    for i in range(start - 1, -1, -1):
        y[i] = y[i + 1] + grid.dt * float(
            part(grid.time(i + 1), np.asarray(y[i + 1]), ZERO))
    return y


class TestScalarRecursion:
    def test_step_matches_explicit_formulas(self):
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        grid = bl.make_grid(1.0, 64)
        y = np.random.default_rng(3).uniform(0.0, 1.0, size=65)
        step = scalar_drift(driver.f)
        for i in range(grid.steps):
            backward = y[i + 1] + grid.dt * float(
                driver.f(grid.time(i + 1), np.asarray(y[i + 1]), ZERO))
            forward = y[i] - grid.dt * float(
                driver.f(grid.time(i), np.asarray(y[i]), ZERO))
            t_next, t_i = grid.nodes.item(i + 1), grid.nodes.item(i)
            assert _bits(y.item(i + 1) + grid.dt * step(t_next, y.item(i + 1))) \
                == _bits(backward)
            assert _bits(y.item(i) - grid.dt * step(t_i, y.item(i))) == _bits(forward)

    @settings(deadline=None)
    @given(st.integers(0, len(TABLES) - 1), st.sampled_from(["inf", "sup"]),
           st.floats(-2.0 * RADIUS, 2.0 * RADIUS), st.integers(0, 64))
    def test_solve_on_a_table_matches_per_call_loop(self, table, mode, xi, start):
        grid = bl.make_grid(1.0, 64)
        fast_op, loop_op = _fresh_operator(table, mode), _fresh_operator(table, mode)
        loop_op(0.0, 0.0, 0.0)          # build the table as the probe does
        fast = _scalar_solve(fast_op, grid, xi, start=start)
        loop = _per_call_backward(loop_op, grid, xi, start)
        assert fast[:start + 1].tobytes() == loop[:start + 1].tobytes()
        assert fast_op.boundary_hits == loop_op.boundary_hits

    def test_solve_leaving_the_box_counts_its_hits(self):
        # the sup-convolved sqrt drift is positive, so the backward path
        # climbs out of the table box and every later probe is a hit
        grid = bl.make_grid(1.0, 64)
        fast_op, loop_op = _fresh_operator(0, "sup"), _fresh_operator(0, "sup")
        loop_op(0.0, 0.0, 0.0)
        fast = _scalar_solve(fast_op, grid, 2.9)
        loop = _per_call_backward(loop_op, grid, 2.9, 64)
        assert fast.tobytes() == loop.tobytes()
        assert fast_op.boundary_hits == loop_op.boundary_hits > 0

    def test_solve_matches_per_call_loop_for_every_catalog_drift(self):
        grid = bl.make_grid(1.0, 64)
        for name, params in (("zero", []), ("f_constant", [0.8]),
                             ("f_linear", [0.6, 0.0]), ("f_sqrt_pos", [2.0])):
            f = bl.builtin_driver(name, params).f
            assert (_scalar_solve(f, grid, 0.3).tobytes()
                    == _per_call_backward(f, grid, 0.3, 64).tobytes())

    def test_partial_backward_solve(self):
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        grid = bl.make_grid(1.0, 64)
        full = _scalar_solve(driver.f, grid, 0.3)
        part = _scalar_solve(driver.f, grid, 0.3, start=64)
        np.testing.assert_array_equal(full, part)
        head = _scalar_solve(driver.f, grid, full[20], start=20)
        np.testing.assert_array_equal(head[:21], full[:21])

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.75, 1.0])
    def test_glue_matches_per_call_loop(self, lam):
        driver = bl.builtin_driver("f_sqrt_pos", [2.0])
        terminal = bl.builtin_terminal("constant", [0.0])
        grid = bl.make_grid(1.0, 256)
        env = bl.compute_envelope(driver, terminal, grid, schedule=[2, 4, 8, 16],
                                  tol=0.0, backend="scalar", conv_tol=0.05)
        glued = bl.glue_deterministic(driver, terminal, grid, 0.5, lam=lam,
                                      envelope=env)
        i0, tau, n, dt = glued.i0, glued.tau_index, grid.steps, grid.dt
        # forward piece from eta up to the exit, one numpy call per step
        y = _per_call_backward(driver.f, grid, glued.eta, i0)
        for j in range(i0, tau):
            y[j + 1] = y[j] - dt * _f(driver.f, grid, j, y[j])
        assert glued.y[:tau].tobytes() == y[:tau].tobytes()
        args = (driver, env, grid, glued.y, i0, tau, glued.side_is_max)
        assert _bits(glued.residual_off_splice) == _bits(_per_call_residual(*args))
        # each regime's first and last step, seen through a perturbed node
        # (the glued path satisfies its recursions to round-off)
        for k in sorted({0, i0 - 1, i0, i0 + 1, tau - 1, tau, tau + 1, n - 1, n}):
            if 0 <= k <= n:
                y = glued.y.copy()
                y[k] += 1e-3
                args = (driver, env, grid, y, i0, tau, glued.side_is_max)
                assert (_bits(gluing._scalar_glued_residual(*args))
                        == _bits(_per_call_residual(*args)))


def _f(part, grid, k, y) -> float:
    return float(part(grid.time(k), np.asarray(y), ZERO))


def _per_call_residual(driver, env, grid, y, i0, tau, side_is_max) -> float:
    """Worst off-splice defect, one numpy call per step: backward piece
    (an immediate exit splices at i0 - 1), forward piece up to the splice
    step entering tau, tail against the side's regularized drift."""
    side = env.maximal if side_is_max else env.minimal
    dt = grid.dt
    worst = 0.0
    for i in range(grid.steps):
        if i < i0 and not (tau == i0 and i == i0 - 1):
            pred = y[i + 1] + dt * _f(driver.f, grid, i + 1, y[i + 1])
            worst = max(worst, abs(y[i] - pred))
        elif i0 <= i and i + 1 < tau:
            pred = y[i] - dt * _f(driver.f, grid, i, y[i])
            worst = max(worst, abs(y[i + 1] - pred))
        elif i >= tau:
            pred = y[i + 1] + dt * _f(side.final_reg_spec.f, grid, i + 1, y[i + 1])
            worst = max(worst, abs(y[i] - pred))
    return worst
