"""The lattice solve's leaf increments, backward sweep on classes of rows,
residual and dump reader and writer against the reference implementations
in ``conftest``: every field and residual bitwise equal, every dump byte
the same."""

import dataclasses
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bdsde_lab as bl
import bdsde_lab.tree as tree
from bdsde_lab.errors import NumericError

from conftest import (catalog_driver_specs, catalog_terminals, custom_drivers,
                      nan_base_driver, nan_driver, nan_driver_target,
                      reference_backward_sweep, reference_leaf_increments,
                      reference_save_tree_solution, reference_terminal_values,
                      reference_tree_residual, traced_peak)

F_ENTRIES, G_ENTRIES = catalog_driver_specs()
PAIRS = [(f, g) for f in F_ENTRIES for g in G_ENTRIES]


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def _draw_start(data, n):
    """A start step before the horizon and a finite start field on its
    node space, as the glue hands to its backward segment."""
    start = data.draw(st.integers(0, n - 1), label="start_step")
    eta = data.draw(hnp.arrays(np.float64, (2 ** start, 2 ** (n - start)),
                               elements=st.floats(-1e3, 1e3)), label="eta")
    return start, eta


def _sweep_both(driver, grid, start, eta):
    """Buffered and reference sweeps from ``eta``, which stays unchanged."""
    kept = eta.copy()
    got = tree._backward_sweep(driver, grid, start, eta)
    assert eta.tobytes() == kept.tobytes()
    want = reference_backward_sweep(driver, grid, start, kept)
    return got, want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # step-size guard
@pytest.mark.parametrize("f_entry,g_entry", PAIRS,
                         ids=[f"{f[0]}+{g[0]}" for f, g in PAIRS])
@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 10), terminal=st.sampled_from(catalog_terminals()),
       data=st.data())
def test_catalog_solve_matches_reference(f_entry, g_entry, n, terminal, data):
    driver = bl.driver_pair(*f_entry, *g_entry)
    term = bl.builtin_terminal(*terminal)
    grid = bl.make_grid(1.0, n)
    xi = reference_terminal_values(term, grid).reshape(2 ** n, 1)
    sol = bl.solve_tree(driver, term, grid)
    want_y, want_z = reference_backward_sweep(driver, grid, n, xi)
    _assert_bitwise(sol.ys, want_y)
    _assert_bitwise(sol.zs, want_z)
    (got_y, got_z), (want_y, want_z) = _sweep_both(driver, grid,
                                                   *_draw_start(data, n))
    _assert_bitwise(got_y, want_y)
    _assert_bitwise(got_z, want_z)


@pytest.mark.parametrize("n", range(1, 11))
def test_leaf_increments_match_reference(n):
    grid = bl.make_grid(0.7, n)
    got, want = tree.leaf_increments(grid), reference_leaf_increments(grid)
    assert got.shape == want.shape == (2 ** n, n)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


CUSTOM = custom_drivers()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CUSTOM))
@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_custom_driver_matches_reference(name, n, data):
    driver = CUSTOM[name]
    grid = bl.make_grid(1.0, n)
    (got_y, got_z), (want_y, want_z) = _sweep_both(driver, grid,
                                                   *_draw_start(data, n))
    # f returning y aliases the stored field (or the caller's start field);
    # a step that wrote into it would break the bitwise match or change eta
    _assert_bitwise(got_y, want_y)
    _assert_bitwise(got_z, want_z)


@pytest.mark.parametrize("part", ["f", "g"])
@pytest.mark.parametrize("step,node", [(6, (37, 0)), (4, (3, 2)), (1, (1, 17))])
def test_non_finite_driver_value_has_the_reference_witness(part, step, node):
    grid = bl.make_grid(1.0, 6)
    terminal = bl.builtin_terminal("w_terminal_sq")
    xi = reference_terminal_values(terminal, grid).reshape(2 ** 6, 1)
    at = nan_driver_target(
        lambda d: reference_backward_sweep(d, grid, 6, xi), step, node)
    driver = nan_driver(part, step, at)
    with pytest.raises(NumericError) as got:
        bl.solve_tree(driver, terminal, grid)
    with pytest.raises(NumericError) as want:
        reference_backward_sweep(driver, grid, 6, xi)
    assert got.value.where == want.value.where
    assert str(got.value) == str(want.value)
    assert f"step {step}" in str(got.value)
    # the witness is the first node, in C order, holding the poisoned value
    ys, zs = reference_backward_sweep(nan_base_driver(), grid, 6, xi)
    where = want.value.where
    assert (ys[step][where], zs[step][where]) == at
    assert where <= node


# --------------------------------------------------------------------------
# the sweep on classes of rows
# --------------------------------------------------------------------------

NAN_A, NAN_B = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                        dtype=np.int64).view(np.float64)
# entries that differ in their bytes but not as numbers (+-0.0, NaN payloads)
ONE_PAYLOAD = [0.0, -0.0, NAN_A, 0.5, -1.25, 3.0]
TWINS = ONE_PAYLOAD + [NAN_B]


def _repeated_rows(data, n, start):
    """A start field on the step-``start`` node space whose rows are drawn,
    with repeats, from a pool of rows of TWINS."""
    pool_size = data.draw(st.integers(1, 2 ** start), label="pool_size")
    pool = data.draw(hnp.arrays(np.float64, (pool_size, 2 ** (n - start)),
                                elements=st.sampled_from(TWINS)), label="pool")
    pick = data.draw(hnp.arrays(np.intp, 2 ** start,
                                elements=st.integers(0, pool_size - 1)),
                     label="pick")
    return pool[pick]


def _assert_same_but_nan_payloads(got, want):
    """Bitwise equal fields, except that a NaN may carry another payload."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


def _assert_sweep_matches(driver, grid, start, eta):
    """The sweep's fields are bitwise the reference's, or both raise the
    same NumericError with the same witness.

    Where two NaNs of different payloads meet in one addition, numpy's add
    returns the first operand's payload in its vector loop and the
    second's in its scalar tail, so the payload depends on the node's
    position in the array; such fields match up to NaN payloads."""
    try:
        (got_y, got_z), (want_y, want_z) = _sweep_both(driver, grid, start, eta)
    except NumericError:
        with pytest.raises(NumericError) as got:
            tree._backward_sweep(driver, grid, start, eta)
        with pytest.raises(NumericError) as want:
            reference_backward_sweep(driver, grid, start, eta)
        assert got.value.where == want.value.where
        assert str(got.value) == str(want.value)
        return
    one_payload = len(set(eta[np.isnan(eta)].view(np.int64).tolist())) <= 1
    check = _assert_bitwise if one_payload else _assert_same_but_nan_payloads
    check(got_y, want_y)
    check(got_z, want_z)


SWEEP_DRIVERS = {
    "zero+g_zero": bl.driver_pair("zero", [], "g_zero", []),
    "f_linear+g_linear": bl.driver_pair("f_linear", [0.6, 0.3], "g_linear", [0.8]),
    "f_sqrt_pos+g_sine": bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3]),
    **custom_drivers(),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SWEEP_DRIVERS))
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_repeated_rows_match_reference(name, n, data):
    # rows repeat, and some differ only in the sign of a zero or in the
    # payload of a NaN; start steps below N give multi-column rows
    start = data.draw(st.integers(0, n), label="start_step")
    _assert_sweep_matches(SWEEP_DRIVERS[name], bl.make_grid(1.0, n), start,
                          _repeated_rows(data, n, start))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SWEEP_DRIVERS))
@pytest.mark.parametrize("start", [7, 4])
@pytest.mark.parametrize("twins", [ONE_PAYLOAD, TWINS],
                         ids=["one NaN payload", "two NaN payloads"])
def test_every_pair_of_twins_matches_reference(name, start, twins):
    # each ordered pair of twins sits side by side in the start field, so
    # the first step meets both orders of +-0.0 and of the NaN payloads
    n = 7
    pairs = np.array([(a, b) for a in twins for b in twins]).ravel()
    eta = np.resize(pairs, 2 ** n).reshape(2 ** start, 2 ** (n - start))
    _assert_sweep_matches(SWEEP_DRIVERS[name], bl.make_grid(1.0, n), start, eta)


def test_rows_differing_in_bytes_only_stay_apart():
    rows = np.array([[0.0, NAN_A], [-0.0, NAN_A], [0.0, NAN_B], [0.0, NAN_A]])
    cls, compact = tree._row_classes(rows)
    assert len(set(cls.tolist())) == 3 and cls[0] == cls[3]
    assert compact[cls].tobytes() == rows.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SWEEP_DRIVERS))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_distinct_rows_match_reference(name, n, data):
    start = data.draw(st.integers(0, n), label="start_step")
    eta = data.draw(hnp.arrays(np.float64, (2 ** start, 2 ** (n - start)),
                               elements=st.floats(-1e3, 1e3), unique=True),
                    label="eta")
    assert tree._row_classes(eta)[0] is None
    (got_y, got_z), (want_y, want_z) = _sweep_both(
        SWEEP_DRIVERS[name], bl.make_grid(1.0, n), start, eta)
    _assert_bitwise(got_y, want_y)
    _assert_bitwise(got_z, want_z)


def _binary(w):
    """sum_j 2**j w_j over the last axis, added column by column, so each
    row's rounding depends on that row alone (a matrix product's rounding
    depends on the block of rows it is given)."""
    total = np.zeros(w.shape[:-1])
    for j in range(w.shape[-1]):
        total += 2.0 ** j * w[..., j]
    return total


def _binary_terminal():
    """A path-dependent terminal, sum_j 2**j w_j: every leaf differs."""
    return bl.TerminalSpec(_binary, "binary")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("f_entry,g_entry", PAIRS,
                         ids=[f"{f[0]}+{g[0]}" for f, g in PAIRS])
@pytest.mark.parametrize("n", [1, 5, 10])
def test_path_dependent_terminal_matches_reference(f_entry, g_entry, n,
                                                   monkeypatch):
    # blocks of 4 leaves: at n = 5 and 10 the terminal spans several
    monkeypatch.setattr(tree, "LEAF_BLOCK", 4)
    driver = bl.driver_pair(*f_entry, *g_entry)
    grid = bl.make_grid(1.0, n)
    term = _binary_terminal()
    xi = reference_terminal_values(term, grid).reshape(2 ** n, 1)
    assert tree._row_classes(xi)[0] is None
    sol = bl.solve_tree(driver, term, grid)
    want_y, want_z = reference_backward_sweep(driver, grid, n, xi)
    _assert_bitwise(sol.ys, want_y)
    _assert_bitwise(sol.zs, want_z)


def _counting(driver):
    """``driver`` and a list collecting the sizes of its f arguments."""
    sizes = []

    def f(t, y, z):
        sizes.append(np.size(y))
        return driver.f(t, y, z)

    return dataclasses.replace(driver, f=f), sizes


def _assert_call_points_within_the_lattice_bound(n, strike):
    driver, sizes = _counting(bl.driver_pair("f_sqrt_pos", [2.0],
                                             "g_sine", [0.5, 0.3]))
    sol = bl.solve_tree(driver, bl.builtin_terminal("call", [strike]),
                        bl.make_grid(1.0, n))
    # one call per block of LEAF_BLOCK columns of each step 1..N
    assert len(sizes) == sum(-(-2 ** (n - k) // tree.LEAF_BLOCK)
                             for k in range(1, n + 1))
    assert all(sol.ys.rows[k].shape[0] <= k + 1 for k in range(n + 1))
    assert sum(sizes) <= sum((k + 1) * 2 ** (n - k) for k in range(1, n + 1))


@pytest.mark.parametrize("strike", [-0.5, 0.0, 0.3])
def test_call_driver_points_stay_within_the_lattice_bound(strike):
    # W_T is read from the up-step count, so W_{t_k} takes k + 1 values
    # and step k holds at most k + 1 distinct rows of 2**(N-k) entries
    _assert_call_points_within_the_lattice_bound(16, strike)


def test_call_points_stay_within_the_bound_where_sqrt_dt_is_not_dyadic():
    # at N = 20 a floating-point sum of the increments gave W_T 29 bit
    # patterns for 21 levels; the bound is 3,145,705 points
    assert sum((k + 1) * 2 ** (20 - k) for k in range(1, 21)) == 3_145_705
    _assert_call_points_within_the_lattice_bound(20, 0.1)


@pytest.mark.parametrize("terminal", ["call", "binary"])
def test_sweep_peak_is_no_higher_than_the_reference(terminal):
    n = 16
    grid = bl.make_grid(1.0, n)
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    term = bl.builtin_terminal("call", [0.1]) if terminal == "call" \
        else _binary_terminal()
    xi = np.asarray(term.evaluate(tree.leaf_increments(grid)),
                    dtype=float).reshape(2 ** n, 1)
    got, peak = traced_peak(lambda: tree._backward_sweep(driver, grid, n, xi))
    want, ref_peak = traced_peak(
        lambda: reference_backward_sweep(driver, grid, n, xi))
    _assert_bitwise(got[0], want[0])
    assert peak <= ref_peak


@pytest.mark.skipif(sys.version_info < (3, 11), reason="older CPython keeps "
                    "call arguments on the caller's stack until the call returns")
def test_sweep_frees_a_grouped_start_field_passed_as_a_temporary():
    n = 12
    grid = bl.make_grid(1.0, n)
    terminal = bl.builtin_terminal("call", [0.1])
    refs, freed = [], []

    def start_field():
        xi = np.asarray(terminal.evaluate(tree.leaf_increments(grid)),
                        dtype=float)
        refs.append(weakref.ref(xi))
        return xi.reshape(2 ** n, 1)

    base = bl.builtin_driver("zero")

    def f(t, y, z):
        freed.append(refs[0]() is None)
        return base.f(t, y, z)

    driver = dataclasses.replace(base, f=f)
    ys, _ = tree._backward_sweep(driver, grid, n, start_field())
    assert freed == [True] * n
    assert ys.classes[n] is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("f_entry,g_entry", PAIRS,
                         ids=[f"{f[0]}+{g[0]}" for f, g in PAIRS])
@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 9), terminal=st.sampled_from(catalog_terminals()),
       data=st.data())
def test_residual_matches_reference(f_entry, g_entry, n, terminal, data):
    # solver output (round-off defects) and fields with one node moved,
    # by a finite amount or to a NaN
    driver = bl.driver_pair(*f_entry, *g_entry)
    term = bl.builtin_terminal(*terminal)
    grid = bl.make_grid(1.0, n)
    sol = bl.solve_tree(driver, term, grid)
    fields = {"ys": [y.copy() for y in sol.ys], "zs": [z.copy() for z in sol.zs]}
    which = data.draw(st.sampled_from(["none", "ys", "zs"]), label="field")
    if which != "none":
        step = data.draw(st.integers(0, n), label="step")
        node = data.draw(st.integers(0, 2 ** n - 1), label="node")
        fields[which][step].reshape(-1)[node] += data.draw(
            st.sampled_from([0.1, -3.0, np.nan]), label="shift")
    moved = tree.TreeSolution(grid=grid, **fields)
    got = bl.tree_residual(moved, driver, term)
    want = reference_tree_residual(moved, driver, term)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --------------------------------------------------------------------------
# the stored form: class rows, maps and steps built on demand
# --------------------------------------------------------------------------

def _reference_solution(driver, term, grid):
    """The reference sweep's fields from the whole-array terminal, as a
    solution of full step arrays."""
    n = grid.steps
    xi = reference_terminal_values(term, grid).reshape(2 ** n, 1)
    ys, zs = reference_backward_sweep(driver, grid, n, xi)
    return tree.TreeSolution(grid=grid, ys=ys, zs=zs,
                             driver_descriptor=driver.descriptor,
                             terminal_descriptor=term.descriptor)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(PAIRS), n=st.integers(1, 12),
       terminal=st.sampled_from(catalog_terminals()))
def test_built_steps_match_reference(pair, n, terminal):
    driver = bl.driver_pair(*pair[0], *pair[1])
    term = bl.builtin_terminal(*terminal)
    grid = bl.make_grid(1.0, n)
    sol = bl.solve_tree(driver, term, grid)
    want = _reference_solution(driver, term, grid)
    _assert_bitwise(sol.ys, list(want.ys))
    _assert_bitwise(sol.zs, list(want.zs))
    for steps in (sol.ys, sol.zs):
        for i, (rows, cls) in enumerate(zip(steps.rows, steps.classes)):
            assert steps.shape(i) == (2 ** i, 2 ** (n - i))
            if cls is not None:
                assert cls.dtype == np.int32 and cls.shape == (2 ** i,)
                assert rows.shape[0] < 2 ** i
                # every class holds a row of its step
                assert np.array_equal(np.unique(cls), np.arange(rows.shape[0]))
            assert not steps[i].flags.writeable
    assert sol.max_abs_y() == want.max_abs_y()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("terminal", catalog_terminals(),
                         ids=[t[0] for t in catalog_terminals()])
@pytest.mark.parametrize("n", [1, 6, 11])
def test_class_stored_dump_matches_reference(tmp_path, terminal, n):
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    term = bl.builtin_terminal(*terminal)
    grid = bl.make_grid(1.0, n)
    sol = bl.solve_tree(driver, term, grid)
    got, want = tmp_path / "got.bin", tmp_path / "want.bin"
    bl.save_tree_solution(got, sol)
    reference_save_tree_solution(want, _reference_solution(driver, term, grid))
    assert got.read_bytes() == want.read_bytes()


SIGNED = [0.0, -0.0, 0.5, -1.25]


@pytest.mark.parametrize("name", ["zero+g_zero", "f_linear+g_linear"])
@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_expectation_rows_match_full_arrays(name, n, data):
    # rows of -0.0 and of +0.0 side by side: a min or max over the class
    # rows alone could take the other zero than one over the whole step
    start = data.draw(st.integers(2, n), label="start_step")
    eta = _signed_rows(data, n, start)
    driver = SWEEP_DRIVERS[name]
    grid = bl.make_grid(1.0, n)
    ys, zs = tree._backward_sweep(driver, grid, start, eta)
    sol = tree.TreeSolution(grid=grid, ys=ys, zs=zs)
    want_y, want_z = reference_backward_sweep(driver, grid, start, eta)
    full = tree.TreeSolution(grid=grid, ys=want_y, zs=want_z)
    assert any(c is not None for c in ys.classes)
    for i in range(start + 1):
        got, want = tree.expectation_at(sol, i), tree.expectation_at(full, i)
        assert got.keys() == want.keys()
        for key in got:
            assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()


def _signed_rows(data, n, start):
    """A start field whose first three rows are all -0.0, all +0.0 and all
    +0.0 and whose other rows repeat rows drawn from SIGNED."""
    width = 2 ** (n - start)
    pool = np.vstack([np.full((1, width), -0.0), np.zeros((1, width)),
                      data.draw(hnp.arrays(np.float64, (2, width),
                                           elements=st.sampled_from(SIGNED)),
                                label="pool")])
    pick = data.draw(hnp.arrays(np.intp, 2 ** start - 3,
                                elements=st.integers(0, 3)), label="pick")
    return pool[np.concatenate([[0, 1, 1], pick])]


# terminals without a W_T form: each catalog terminal's row-wise
# ``evaluate`` with the form dropped
CUSTOM_TERMINALS = {
    name: dataclasses.replace(bl.builtin_terminal(name, params), of_w_t=None)
    for name, params in catalog_terminals()}


@pytest.mark.parametrize("terminal", sorted(CUSTOM_TERMINALS))
@pytest.mark.parametrize("n,block", [(n, block) for n in (1, 5, 12, 15, 16)
                                     for block in (tree.LEAF_BLOCK, 64)]
                         + [(5, 3), (12, 3)])
def test_blocked_terminal_matches_whole_array(monkeypatch, block, terminal, n):
    # a block of 3 leaves ends every block of a power of two off its edge
    term = CUSTOM_TERMINALS[terminal]
    grid = bl.make_grid(1.0, n)
    want = np.asarray(term.evaluate(reference_leaf_increments(grid)),
                      dtype=float)
    monkeypatch.setattr(tree, "LEAF_BLOCK", block)
    got = tree._terminal_values(term, grid)
    assert got.shape == want.shape == (2 ** n,)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("terminal", catalog_terminals(),
                         ids=[t[0] for t in catalog_terminals()])
@pytest.mark.parametrize("n", [1, 5, 12, 15])
def test_catalog_terminal_reads_the_lattice_levels(terminal, n):
    # every leaf holds the terminal at W_T = sqrt(dt) (2k - N), k its
    # number of up-steps, so W_T takes N + 1 bit patterns at most
    term = bl.builtin_terminal(*terminal)
    grid = bl.make_grid(1.0, n)
    ups = np.array([bin(k).count("1") for k in range(2 ** n)])
    want = np.broadcast_to(term.of_w_t(np.sqrt(grid.dt) * (2 * ups - n)),
                           (2 ** n,))
    got = tree._terminal_values(term, grid)
    assert got.dtype == np.float64 and got.shape == (2 ** n,)
    assert got.tobytes() == np.ascontiguousarray(want, dtype=float).tobytes()
    assert got.tobytes() == reference_terminal_values(term, grid).tobytes()
    assert np.unique(got.view(np.int64)).size <= n + 1


def test_pair_keys_past_the_int32_range_match_reference():
    # 2**16 leaf classes, each pair of them twice: the pair keys of the
    # first step reach 2**32 - 1, past what the int32 class maps can hold
    n = 17
    leaf = np.arange(2 ** n)
    eta = (2 * (leaf // 4) + leaf % 2).astype(float).reshape(2 ** n, 1)
    driver = SWEEP_DRIVERS["f_linear+g_linear"]
    grid = bl.make_grid(1.0, n)
    (got_y, got_z), (want_y, want_z) = _sweep_both(driver, grid, n, eta)
    assert got_y.rows[n].shape[0] == 2 ** 16
    assert got_y.rows[n - 1].shape[0] == 2 ** 15
    _assert_bitwise(got_y, want_y)
    _assert_bitwise(got_z, want_z)


def test_solve_peak_stays_below_the_full_fields():
    n = 16
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    sol, peak = traced_peak(lambda: bl.solve_tree(
        driver, bl.builtin_terminal("call", [0.1]), bl.make_grid(1.0, n)))
    assert peak < 16 * (n + 1) * 2 ** n
    assert sol.ys[n].shape == (2 ** n, 1)


# --------------------------------------------------------------------------
# the sweep over blocks of columns
# --------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(SWEEP_DRIVERS))
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 8), repeated=st.booleans(), data=st.data())
def test_blocked_sweep_matches_reference(block, name, n, repeated, data):
    # blocks of 1-4 columns split every step with more columns, and a
    # block of 3 ends off the edge of each power of two
    start = data.draw(st.integers(0, n), label="start_step")
    if repeated:
        eta = _repeated_rows(data, n, start)
    else:
        eta = data.draw(hnp.arrays(np.float64, (2 ** start, 2 ** (n - start)),
                                   elements=st.floats(-1e3, 1e3)), label="eta")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree, "LEAF_BLOCK", block)
        _assert_sweep_matches(SWEEP_DRIVERS[name], bl.make_grid(1.0, n),
                              start, eta)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("terminal", catalog_terminals(),
                         ids=[t[0] for t in catalog_terminals()])
def test_blocked_solve_matches_reference(monkeypatch, terminal):
    n = 9
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    term = bl.builtin_terminal(*terminal)
    grid = bl.make_grid(1.0, n)
    monkeypatch.setattr(tree, "LEAF_BLOCK", 4)
    sol = bl.solve_tree(driver, term, grid)
    want = _reference_solution(driver, term, grid)
    _assert_bitwise(sol.ys, list(want.ys))
    _assert_bitwise(sol.zs, list(want.zs))


@pytest.mark.parametrize("part", ["f", "g"])
@pytest.mark.parametrize("repeated", [False, True],
                         ids=["distinct rows", "repeated rows"])
@pytest.mark.parametrize("nodes", [[(1, 0), (0, 12)], [(0, 12)], [(1, 0)]])
def test_witness_is_the_first_node_across_column_blocks(monkeypatch, part,
                                                        repeated, nodes):
    # N = 6 from step 2: 4 rows of 16 columns, swept in blocks of 4; a
    # poisoned value at (1, 0) is seen in the first block, one at (0, 12)
    # only in the last, and (0, 12) comes first in C order
    n, start = 6, 2
    grid = bl.make_grid(1.0, n)
    eta = np.arange(2 ** n, dtype=float).reshape(4, 16) / 2 ** n
    for node in nodes:
        eta[node] = 7.5
    if repeated:
        eta[2:] = eta[:2]
    driver = nan_driver(part, start, (7.5, 0.0))
    monkeypatch.setattr(tree, "LEAF_BLOCK", 4)
    with pytest.raises(NumericError) as got:
        tree._backward_sweep(driver, grid, start, eta)
    with pytest.raises(NumericError) as want:
        reference_backward_sweep(driver, grid, start, eta)
    assert got.value.where == want.value.where == min(nodes)
    assert str(got.value) == str(want.value)


def test_solve_holds_the_stored_form_and_a_few_blocks(monkeypatch):
    # beyond the class rows and maps it returns, a solve holds a few
    # (classes, block) arrays: with whole steps its driver values and pair
    # means took 1.3 MB more here
    n = 16
    monkeypatch.setattr(tree, "LEAF_BLOCK", 2 ** 10)
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    sol, peak = traced_peak(lambda: bl.solve_tree(
        driver, bl.builtin_terminal("call", [0.1]), bl.make_grid(1.0, n)))
    stored = sum(a.nbytes for steps in (sol.ys, sol.zs) for a in steps.rows)
    maps = sum(c.nbytes for c in sol.ys.classes if c is not None)
    assert stored + maps <= peak < stored + maps + 16 * 8 * tree.LEAF_BLOCK + 2 ** 16


def test_expectation_holds_one_step_buffer():
    n = 16
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    sol = bl.solve_tree(driver, bl.builtin_terminal("call", [0.1]),
                        bl.make_grid(1.0, n))
    one_step = 8 * 2 ** n
    for i in (0, n // 2, n):
        _, peak = traced_peak(lambda: tree.expectation_at(sol, i))
        # the buffer, and np.take's intp copy of a chunk of the class map
        assert one_step <= peak < one_step + one_step // 8 + 2 ** 15


# --------------------------------------------------------------------------
# dumps
# --------------------------------------------------------------------------

def _solution(layout):
    driver = bl.driver_pair("f_linear", [0.5, 0.1], "g_sine", [0.2, 0.1])
    sol = bl.solve_tree(driver, bl.builtin_terminal("call", [0.1]),
                        bl.make_grid(1.0, 4))
    return tree.TreeSolution(grid=sol.grid,
                             ys=[layout(a) for a in sol.ys],
                             zs=[layout(a) for a in sol.zs],
                             driver_descriptor=sol.driver_descriptor,
                             terminal_descriptor="call(0.1) · ünïcode")


LAYOUTS = {
    "fortran": np.asfortranarray,
    "float32": lambda a: a.astype(np.float32),
    "big-endian": lambda a: a.astype(">f8"),
    "strided": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_writer_matches_reference_and_round_trips(tmp_path, layout):
    sol = _solution(LAYOUTS[layout])
    got, want = tmp_path / "got.bin", tmp_path / "want.bin"
    bl.save_tree_solution(got, sol)
    reference_save_tree_solution(want, sol)
    assert got.read_bytes() == want.read_bytes()
    loaded = bl.load_tree_solution(got)
    assert loaded.terminal_descriptor == sol.terminal_descriptor
    for a, b in zip([*loaded.ys, *loaded.zs], [*sol.ys, *sol.zs]):
        assert a.dtype == np.dtype("<f8") and a.flags.c_contiguous
        assert a.shape == b.shape
        assert a.tobytes() == np.asarray(b, dtype="<f8").tobytes()


def test_dump_writer_and_reader_copy_no_array(tmp_path):
    n = 14
    sol = bl.solve_tree(bl.driver_pair("f_linear", [0.5, 0.1], "g_linear", [0.3]),
                        bl.builtin_terminal("call", [0.0]), bl.make_grid(1.0, n))
    path = tmp_path / "sol.bin"
    one_array = 8 * 2 ** n
    _, peak = traced_peak(lambda: bl.save_tree_solution(path, sol))
    # one buffer for the built steps, and np.take's intp copy of a chunk
    # of one step's int32 class map
    assert peak < one_array + one_array // 2
    loaded, peak = traced_peak(lambda: bl.load_tree_solution(path))
    arrays = 2 * (n + 1) * one_array
    assert arrays <= peak < arrays + one_array // 2
    _assert_bitwise(loaded.ys, sol.ys)
    _assert_bitwise(loaded.zs, sol.zs)
    # full step arrays are written as they are, with no buffer
    again = tmp_path / "again.bin"
    _, peak = traced_peak(lambda: bl.save_tree_solution(again, loaded))
    assert peak < one_array // 2
    assert again.read_bytes() == path.read_bytes()


def test_short_read_names_both_byte_counts(tmp_path, monkeypatch):
    sol = _solution(lambda a: a)
    path = tmp_path / "sol.bin"
    bl.save_tree_solution(path, sol)
    path.write_bytes(path.read_bytes()[:-12])
    monkeypatch.setattr(tree, "_check_dump_size", lambda fh, payload: None)
    with pytest.raises(ValueError, match="dump ended after 116 of 128 bytes"):
        bl.load_tree_solution(path)
