"""The lattice solve's leaf increments, backward sweep on levels and on
plain rows, residual and dump reader and writer against the reference implementations
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
# the sweep on plain rows
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SWEEP_DRIVERS))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_distinct_rows_match_reference(name, n, data):
    start = data.draw(st.integers(0, n), label="start_step")
    eta = data.draw(hnp.arrays(np.float64, (2 ** start, 2 ** (n - start)),
                               elements=st.floats(-1e3, 1e3), unique=True),
                    label="eta")
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
    assert np.unique(xi).size == xi.size
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
    assert sol.ys.levels
    assert all(sol.ys.rows[k].shape == (k + 1, 2 ** (n - k))
               for k in range(n + 1))
    assert sum(sizes) == sum((k + 1) * 2 ** (n - k) for k in range(1, n + 1))


@pytest.mark.parametrize("strike", [-0.5, 0.0, 0.3])
def test_call_driver_points_stay_within_the_lattice_bound(strike):
    # W_T is read from the up-step count, so W_{t_k} takes k + 1 values
    # and step k is swept on its k + 1 levels of 2**(N-k) entries
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
def test_streamed_sweep_drops_a_row_start_passed_as_a_temporary():
    # the sweep runs on the start field's rows, and drops them once the
    # next step is formed: the driver calls of step N see the start, the
    # later ones do not
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
    for _, _, _, levels in tree._sweep_steps(driver, grid, n, start_field()):
        assert not levels
    assert freed == [False] + [True] * (n - 1)


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
# the stored form: levels, plain rows and steps built on demand
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
        assert steps.levels
        for i, rows in enumerate(steps.rows):
            assert steps.shape(i) == (2 ** i, 2 ** (n - i))
            assert rows.shape == (i + 1, 2 ** (n - i))
            # level k is row 2**k - 1, the first row of k up-steps
            assert rows.tobytes() == \
                steps[i][2 ** np.arange(i + 1) - 1].tobytes()
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
@given(n=st.integers(2, 8), levels=st.booleans(), data=st.data())
def test_expectation_rows_match_full_arrays(name, n, levels, data):
    # rows or levels of -0.0 and of +0.0 side by side: a min or max over
    # the stored rows alone could take the other zero than one over the
    # whole step
    if levels:
        start, eta = n, _signed_rows(data, n + 1, 1).reshape(-1)
        ups = np.array([bin(h).count("1") for h in range(2 ** n)])
        start_field = eta[ups].reshape(2 ** n, 1)
    else:
        start = data.draw(st.integers(2, n), label="start_step")
        eta = start_field = _signed_rows(data, 2 ** start, 2 ** (n - start))
    driver = SWEEP_DRIVERS[name]
    grid = bl.make_grid(1.0, n)
    ys, zs = tree._backward_sweep(driver, grid, start, eta)
    assert ys.levels == levels
    sol = tree.TreeSolution(grid=grid, ys=ys, zs=zs)
    want_y, want_z = reference_backward_sweep(driver, grid, start, start_field)
    full = tree.TreeSolution(grid=grid, ys=want_y, zs=want_z)
    for i in range(start + 1):
        got, want = tree.expectation_at(sol, i), tree.expectation_at(full, i)
        assert got.keys() == want.keys()
        for key in got:
            assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()


def _signed_rows(data, count, width):
    """``count`` rows of ``width`` values: all -0.0, all +0.0 and all
    +0.0, then rows drawn from SIGNED, with repeats."""
    pool = np.vstack([np.full((1, width), -0.0), np.zeros((1, width)),
                      data.draw(hnp.arrays(np.float64, (2, width),
                                           elements=st.sampled_from(SIGNED)),
                                label="pool")])
    pick = data.draw(hnp.arrays(np.intp, count - 3,
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


def _leaf_twin(term, grid):
    """``term`` without its W_T form: a row-wise terminal that reads W_T =
    sqrt(dt) (2k - N) from the up-step count k of its row of increments,
    so its leaves hold the bytes of the levels (the sum of the increments,
    which ``evaluate`` reads, rounds to other bytes at N = 5, 6, 7, ...)."""
    n, sq = grid.steps, np.sqrt(grid.dt)

    def evaluate(w):
        ups = np.count_nonzero(np.asarray(w) > 0.0, axis=-1)
        return term.of_w_t(sq * (2.0 * ups - n))

    return dataclasses.replace(term, of_w_t=None, evaluate=evaluate)


# every catalog terminal, W_T^2 (levels k and N - k share bytes), calls
# whose strike zeroes most levels or all but one, and -W_T, whose levels
# fall where their bytes, read as int64, rise
LEVEL_TERMINALS = {
    **{f"{name}{params}": bl.builtin_terminal(name, params)
       for name, params in catalog_terminals()
       + [("call", [0.9]), ("call", [3.0]), ("w_terminal_sq", [])]},
    "minus_w": bl.core.terminal_of_w_t(np.negative, "minus_w"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["zero+g_zero", "f_linear+g_linear",
                                  "f_sqrt_pos+g_sine"])
@pytest.mark.parametrize("terminal", sorted(LEVEL_TERMINALS))
def test_level_classes_match_the_sorted_leaf_classes(name, terminal):
    # the sweep on levels, from the up-step counts, forms the steps the
    # sweep on rows forms from the leaf field's bytes: level k of step i
    # is every row of step i with k up-steps, bitwise, also where levels
    # share bytes
    driver = SWEEP_DRIVERS[name]
    for n in range(1, 13):
        grid = bl.make_grid(1.0, n)
        term = LEVEL_TERMINALS[terminal]
        got = bl.solve_tree(driver, term, grid)
        want = bl.solve_tree(driver, _leaf_twin(term, grid), grid)
        assert got.ys.levels and not want.ys.levels
        for field, field_want in ((got.ys, want.ys), (got.zs, want.zs)):
            for k in range(n + 1):
                assert field.rows[k].shape == (k + 1, 2 ** (n - k))
                assert field[k].tobytes() == field_want.rows[k].tobytes()


def test_level_sweep_forms_no_leaf_field(monkeypatch):
    # a solve from the levels never builds the leaf field
    def refuse(*args):
        raise AssertionError("leaf field built")

    monkeypatch.setattr(tree, "_terminal_values", refuse)
    n = 10
    sol = bl.solve_tree(SWEEP_DRIVERS["f_sqrt_pos+g_sine"],
                        bl.builtin_terminal("w_terminal"), bl.make_grid(1.0, n))
    assert [sol.ys.rows[k].shape[0] for k in (0, 1, n)] == [1, 2, n + 1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(terminal=st.sampled_from(catalog_terminals()), n=st.integers(4, 12),
       log2_size=st.integers(4, 10), data=st.data())
def test_level_chunks_hold_every_start_once(terminal, n, log2_size, data):
    # a chunk inside one row, a chunk of several rows, and a chunk larger
    # than the step (then the whole step)
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    sol = bl.solve_tree(driver, bl.builtin_terminal(*terminal),
                        bl.make_grid(1.0, n))
    i = data.draw(st.integers(0, n), label="step")
    for field in (sol.ys, sol.zs):
        assert field.levels
        step = field[i].ravel()
        size = min(2 ** log2_size, step.size)
        seen = []
        for starts, chunk in tree._chunks(field.rows[i], True, size):
            assert chunk.shape == (size,)
            for start in starts:
                assert chunk.tobytes() == step[start:start + size].tobytes()
            seen += starts
        assert sorted(seen) == list(range(0, step.size, size))


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
    # beyond the levels it returns, a solve holds a few (levels, block)
    # arrays: with whole steps its driver values and pair means took 1.3 MB
    # more here
    n = 16
    monkeypatch.setattr(tree, "LEAF_BLOCK", 2 ** 10)
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    sol, peak = traced_peak(lambda: bl.solve_tree(
        driver, bl.builtin_terminal("call", [0.1]), bl.make_grid(1.0, n)))
    stored = sum(a.nbytes for steps in (sol.ys, sol.zs) for a in steps.rows)
    assert stored <= peak < stored + 16 * 8 * tree.LEAF_BLOCK + 2 ** 16


def test_expectation_holds_a_few_chunks(monkeypatch):
    n = 16
    monkeypatch.setattr(tree, "CHUNK", 2 ** 10)
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    sol = bl.solve_tree(driver, bl.builtin_terminal("call", [0.1]),
                        bl.make_grid(1.0, n))
    one_chunk = 8 * tree.CHUNK
    for i in (0, 1, n // 2, n):
        _, peak = traced_peak(lambda: tree.expectation_at(sol, i))
        # the gather buffer, the squares and np.take's intp copy of a
        # chunk's level indices, never a step (512 KiB here)
        assert peak < 3 * one_chunk + 2 ** 15


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


def test_writer_replaces_a_longer_file(tmp_path):
    # the writer truncates a file that holds bytes, as open(path, "wb")
    # would, and leaves an empty one as it is
    sol = _solution(lambda a: a)
    want = tmp_path / "want.bin"
    reference_save_tree_solution(want, sol)
    for old in (b"x" * 10_000, b""):
        path = tmp_path / "sol.bin"
        path.write_bytes(old)
        bl.save_tree_solution(path, sol)
        assert path.read_bytes() == want.read_bytes()


def test_dump_writer_and_reader_copy_no_array(tmp_path, monkeypatch):
    n = 14
    monkeypatch.setattr(tree, "CHUNK", 2 ** 10)
    sol = bl.solve_tree(bl.driver_pair("f_linear", [0.5, 0.1], "g_linear", [0.3]),
                        bl.builtin_terminal("call", [0.0]), bl.make_grid(1.0, n))
    path = tmp_path / "sol.bin"
    one_array = 8 * 2 ** n
    _, peak = traced_peak(lambda: bl.save_tree_solution(path, sol))
    # the chunk buffer and np.take's intp copy of a chunk's level
    # indices, never a built step
    assert peak < 2 * 8 * tree.CHUNK + 2 ** 15 < one_array // 2
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


# --------------------------------------------------------------------------
# the chunk pass: one writer and one summary for every step
# --------------------------------------------------------------------------

def reference_summary(step):
    """The summary of a step built whole: numpy's mean, min and max of the
    step as a C-contiguous float64 array, and the mean of its squares."""
    y = np.ascontiguousarray(step, dtype=float)
    return {"mean": float(np.mean(y)), "min": float(np.min(y)),
            "max": float(np.max(y)), "mean_square": float(np.mean(y * y))}


def _pass_both(rows, levels, chunk):
    """The chunk pass's summary and written bytes of the stored step, with
    chunks of ``chunk`` values, and the reference summary and bytes of the
    step built whole."""
    step = np.ascontiguousarray(tree._build(rows, levels), dtype=float)
    written = np.full(step.size, 7.0)       # a value no step here holds

    def write(start, values):
        assert values.dtype == np.float64 and values.flags.c_contiguous
        written[start:start + values.size] = values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree, "CHUNK", chunk)
        got = tree._pass(rows, levels, write, summarize=True)
    assert written.tobytes() == step.tobytes()
    return got, reference_summary(step)


# +-0.0 ties, a square past the float range, +-inf and the NaN of numpy
# and of inf - inf (which differ in the sign bit)
SUMMARY_POOL = [0.0, -0.0, 1.5, -2.25, 1e300, np.inf, -np.inf, np.nan]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf, 1e300**2
@settings(max_examples=400, deadline=None)
@given(n=st.integers(0, 12), data=st.data())
def test_chunk_summary_matches_the_built_step(n, data):
    # chunks of 2**7 to 2**13 values against steps of 2**0 to 2**12 values
    # and rows of 2**0 to 2**n: a chunk may exceed the step, span rows or
    # lie inside one row
    width = 2 ** data.draw(st.integers(0, n), label="log2 width")
    chunk = 2 ** data.draw(st.integers(7, 13), label="log2 chunk")
    pool = np.array(data.draw(
        st.lists(st.sampled_from(SUMMARY_POOL), min_size=1, max_size=4,
                 unique_by=lambda v: np.float64(v).tobytes()), label="pool"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    count = 2 ** n // width
    levels = data.draw(st.booleans(), label="stored by levels")
    if levels:
        count = count.bit_length()      # levels 0..log2(count)
    rows = pool[rng.integers(0, pool.size, (count, width))]
    got, want = _pass_both(rows, levels, chunk)
    assert got.keys() == want.keys()
    for key in want:
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()


@pytest.mark.parametrize("odd", range(0, 2 ** 11, 331))
@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("other", [3.0, -3.0, 0.0])
def test_chunk_summary_takes_the_sign_of_a_zero_extreme(odd, zero, other):
    # one zero of the other sign among zeros, in any chunk of 128 values:
    # which of them np.min or np.max picks depends on its order of
    # comparison, so the pass takes those extremes from the built step
    step = np.full(2 ** 11, zero)
    step[odd] = -zero
    step[(odd + 1000) % step.size] = other
    rows = step.reshape(2 ** 5, 2 ** 6)
    levels = np.full((6, 2 ** 6), zero)
    levels.flat[odd % levels.size] = -zero
    levels.flat[(odd + 1000) % levels.size] = other
    for stored in ((rows, False), (levels, True)):
        got, want = _pass_both(*stored, 2 ** 7)
        for key in want:
            assert np.float64(got[key]).tobytes() == \
                np.float64(want[key]).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf
@pytest.mark.parametrize("seed", range(8))
def test_chunk_summary_keeps_the_sign_of_a_nan_mean(seed):
    # numpy's NaN and the NaN of inf - inf differ in the sign bit, and a
    # sum of both takes the one its order of addition gives
    pool = np.array([0.0, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(seed)
    rows = pool[rng.integers(0, pool.size, 2 ** 8)].reshape(2 ** 4, 2 ** 4)
    got, want = _pass_both(rows, False, 2 ** 7)
    for key in want:
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes()


# --------------------------------------------------------------------------
# the streamed solve: summaries and dump bytes step by step
# --------------------------------------------------------------------------

# every catalog terminal, and a row-wise one without a W_T form
STREAM_TERMINALS = {name: bl.builtin_terminal(name, params)
                    for name, params in catalog_terminals()}
STREAM_TERMINALS["binary"] = _binary_terminal()


def _stream(driver, term, grid, path):
    return tree.stream_tree_solution(driver,
                                     tree.solve_tree_steps(driver, term, grid),
                                     grid, path,
                                     (driver.descriptor, term.descriptor))


def _summary_bytes(summary):
    return [(key, np.float64(value).tobytes()) for key, value in summary.items()]


def _assert_stream_matches(tmp_path, driver, term, grid):
    """The streamed solve's summaries and dump, with and without a dump,
    against ``expectation_at`` and ``save_tree_solution`` of the stored
    solve and the reference writer, bitwise."""
    n = grid.steps
    streamed = tmp_path / "streamed.bin"
    summaries = _stream(driver, term, grid, streamed)
    sol = bl.solve_tree(driver, term, grid)
    assert [_summary_bytes(s) for s in summaries] == \
        [_summary_bytes(tree.expectation_at(sol, i)) for i in range(n + 1)]
    assert [_summary_bytes(s) for s in _stream(driver, term, grid, None)] == \
        [_summary_bytes(s) for s in summaries]
    saved, want = tmp_path / "saved.bin", tmp_path / "want.bin"
    bl.save_tree_solution(saved, sol)
    reference_save_tree_solution(want, _reference_solution(driver, term, grid))
    assert streamed.read_bytes() == saved.read_bytes() == want.read_bytes()


def _spy_blocked(monkeypatch):
    """The results of every ``_blocked_summaries`` call, as they come."""
    results, blocked = [], tree._blocked_summaries

    def spy(*args):
        results.append(blocked(*args))
        return results[-1]

    monkeypatch.setattr(tree, "_blocked_summaries", spy)
    return results


STREAM_DRIVER = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("terminal", sorted(STREAM_TERMINALS))
@pytest.mark.parametrize("n", [10, 14])
def test_streamed_solve_matches_the_stored_solve(tmp_path, monkeypatch,
                                                 terminal, n):
    # blocks of 64 columns: every step from N - 7 down spans several; and
    # chunks of 256 values: views of rows down to step N - 8, repeated
    # gathered chunks below
    monkeypatch.setattr(tree, "LEAF_BLOCK", 64)
    monkeypatch.setattr(tree, "CHUNK", 2 ** 8)
    _assert_stream_matches(tmp_path, STREAM_DRIVER, STREAM_TERMINALS[terminal],
                           bl.make_grid(1.0, n))


# f = y and g = 0 keep a -0.0: from a terminal of -0.0 every step below
# holds -0.0 and +0.0 (-0.0 - 0.0 and -0.0 + 0.0 on r_i = -1 and +1) and
# nothing else, so both its extremes are zeros of both signs
SIGNED_ZEROS = (
    dataclasses.replace(bl.driver_pair("zero", [], "g_zero", []),
                        f=lambda t, y, z: y),
    bl.builtin_terminal("constant", [-0.0]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(STREAM_TERMINALS) + ["signed zeros"])
def test_blocked_streamed_solve_matches_the_stored_solve(tmp_path, monkeypatch,
                                                         case):
    # below step 4, blocks of 128 of its 1,024 columns at N = 14: steps
    # 3..0 are formed over 8 blocks, each block's sub-lattice in runs of
    # 128 values; the signed zeros need the steps built whole
    monkeypatch.setattr(tree, "LEAF_BLOCK", 64)
    monkeypatch.setattr(tree, "CHUNK", 2 ** 8)
    monkeypatch.setattr(tree, "STREAM_SPLIT", 4)
    monkeypatch.setattr(tree, "STREAM_BLOCK", 2 ** 7)
    results = _spy_blocked(monkeypatch)
    driver, term = (SIGNED_ZEROS if case == "signed zeros"
                    else (STREAM_DRIVER, STREAM_TERMINALS[case]))
    _assert_stream_matches(tmp_path, driver, term, bl.make_grid(1.0, 14))
    # with and without a dump; None: the whole steps were formed again
    assert [r is None for r in results] == [case == "signed zeros"] * 2


def _poisoned(base, bad: dict):
    """``base`` with an f that reads NaN where (t, y, z) is a key t of
    ``bad`` and one of its (y, z) pairs: pointwise, as a driver must be."""
    def f(t, y, z):
        out = np.array(np.broadcast_to(base.f(t, y, z), np.shape(y)))
        for y_at, z_at in bad.get(t, ()):
            out[(np.asarray(y) == y_at) & (np.asarray(z) == z_at)] = np.nan
        return out

    return dataclasses.replace(base, f=f)


@pytest.mark.parametrize("terminal", ["call", "binary"])
def test_blocked_streamed_solve_raises_the_error_of_the_stored_solve(
        tmp_path, monkeypatch, terminal):
    # below step 4, blocks of 128 of its 1,024 columns at N = 14: step 3
    # column c belongs to block c % 1024 // 128.  A bad node of step 3 in
    # block 5 and one of step 2 in block 0: block 0 meets step 2's first,
    # but the stored solve raises at step 3, at its first node in C order
    n = 14
    monkeypatch.setattr(tree, "STREAM_SPLIT", 4)
    monkeypatch.setattr(tree, "STREAM_BLOCK", 2 ** 7)
    base = bl.driver_pair("f_linear", [0.5, 0.1], "g_linear", [0.3])
    term = STREAM_TERMINALS[terminal]
    grid = bl.make_grid(1.0, n)
    sol = bl.solve_tree(base, term, grid)
    bad = {}
    for i, block in ((3, 5), (2, 0)):
        y, z = sol.ys[i], sol.zs[i]
        block_of = np.arange(y.shape[1]) % 1024 // 128
        # the first node of the block whose (y, z) the step holds nowhere else
        for node in map(tuple, np.argwhere(block_of[None, :] == block)):
            hit = (y == y[node]) & (z == z[node])
            if set(block_of[np.any(hit, axis=0)].tolist()) == {block}:
                bad[grid.time(i)] = [(y[node], z[node])]
                break
    assert len(bad) == 2
    driver = _poisoned(base, bad)
    with pytest.raises(NumericError) as want:
        bl.solve_tree(driver, term, grid)
    results = _spy_blocked(monkeypatch)
    with pytest.raises(NumericError) as got:
        _stream(driver, term, grid, tmp_path / "sol.bin")
    assert results == [None]
    assert str(got.value) == str(want.value) == \
        "non-finite driver value at step 3"
    assert got.value.where == want.value.where


def test_streamed_solve_holds_the_split_step_and_one_block(tmp_path,
                                                           monkeypatch):
    # below step 4 the steps are formed a block of 1,024 of its 4,096
    # columns at a time: the solve holds step 4 and one block's
    # sub-lattice, never whole steps 1 and 0 (2 MiB of Y and Z here)
    n, split, block = 16, 4, 2 ** 10
    monkeypatch.setattr(tree, "LEAF_BLOCK", 2 ** 10)
    monkeypatch.setattr(tree, "CHUNK", 2 ** 10)
    monkeypatch.setattr(tree, "STREAM_SPLIT", split)
    monkeypatch.setattr(tree, "STREAM_BLOCK", block)
    term = bl.builtin_terminal("call", [0.1])
    grid = bl.make_grid(1.0, n)
    path = tmp_path / "sol.bin"
    _, peak = traced_peak(lambda: _stream(STREAM_DRIVER, term, grid, path))
    sol = bl.solve_tree(STREAM_DRIVER, term, grid)
    rows = [sol.ys.rows[i].nbytes + sol.zs.rows[i].nbytes for i in range(n + 1)]
    share = block / 2 ** (n - split)
    sub_lattice = share * sum(rows[:split])
    # the sweep's two whole steps above the split fit in the bound
    assert rows[split + 1] <= sub_lattice
    bound = rows[split] + sub_lattice + 3 * 8 * tree.CHUNK + \
        16 * 8 * tree.LEAF_BLOCK + 2 ** 16
    assert peak < bound < rows[0] + rows[1]
