"""The lattice solve's leaf increments, buffered backward step and dump
reader and writer against the reference implementations in ``conftest``:
every field bitwise equal, every dump byte the same."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bdsde_lab as bl
import bdsde_lab.lsmc as lsmc
import bdsde_lab.tree as tree
from bdsde_lab.errors import NumericError

from conftest import (catalog_driver_specs, catalog_terminals, custom_drivers,
                      nan_driver, reference_backward_sweep,
                      reference_leaf_increments, reference_save_tree_solution,
                      traced_peak)

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
    xi = np.asarray(term.evaluate(reference_leaf_increments(grid)),
                    dtype=float).reshape(2 ** n, 1)
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
    driver = nan_driver(part, step, node)
    terminal = bl.builtin_terminal("w_terminal_sq")
    with pytest.raises(NumericError) as got:
        bl.solve_tree(driver, terminal, grid)
    xi = np.asarray(terminal.evaluate(reference_leaf_increments(grid)),
                    dtype=float).reshape(2 ** 6, 1)
    with pytest.raises(NumericError) as want:
        reference_backward_sweep(driver, grid, 6, xi)
    assert got.value.where == want.value.where == node
    assert str(got.value) == str(want.value)
    assert f"step {step}" in str(got.value)


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
    for a, b in zip(loaded.ys + loaded.zs, sol.ys + sol.zs):
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
    assert peak < one_array // 2
    loaded, peak = traced_peak(lambda: bl.load_tree_solution(path))
    arrays = 2 * (n + 1) * one_array
    assert arrays <= peak < arrays + one_array // 2
    _assert_bitwise(loaded.ys, sol.ys)
    _assert_bitwise(loaded.zs, sol.zs)


def test_short_read_names_both_byte_counts(tmp_path, monkeypatch):
    sol = _solution(lambda a: a)
    path = tmp_path / "sol.bin"
    bl.save_tree_solution(path, sol)
    path.write_bytes(path.read_bytes()[:-12])
    monkeypatch.setattr(tree, "_check_dump_size", lambda fh, payload: None)
    with pytest.raises(ValueError, match="dump ended after 116 of 128 bytes"):
        bl.load_tree_solution(path)

    batch = bl.sample_paths(bl.make_grid(1.0, 8), (1, 1), (3, 8), seed=9)
    path = tmp_path / "batch.bin"
    bl.save_path_batch(path, batch)
    path.write_bytes(path.read_bytes()[:-5])
    monkeypatch.setattr(lsmc, "_check_dump_size", lambda fh, payload: None)
    with pytest.raises(ValueError, match="dump ended after 507 of 512 bytes"):
        bl.load_path_batch(path)
