"""The step-major projected regression sweep, its blocks and stacked
solves, and the re-keyed path generator, against the reference
implementations in ``conftest``: every estimate and every increment bitwise
equal.  The target regression the sweep rewrites is checked beside it, to
rounding."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdsde_lab as bl
import bdsde_lab.cli as cli
import bdsde_lab.harness as harness
import bdsde_lab.lsmc as lsmc
from bdsde_lab.errors import CapacityError, NumericError, RegressionError
from bdsde_lab.tree import leaf_increments

from conftest import (catalog_driver_specs, catalog_terminals, custom_drivers,
                      nan_driver, nan_driver_target, oracle_solve_lsmc,
                      reference_sample_paths, reference_solve_lsmc,
                      traced_peak)

F_ENTRIES, G_ENTRIES = catalog_driver_specs()

# increment arrays as a caller may hand them to ``PathBatch.from_arrays``
LAYOUTS = {
    "C": lambda a: a,
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
}


def _solve_both(driver, terminal, grid, basis, paths, ridge=1e-8):
    """Both sweeps' solutions, or both sweeps' ``RegressionError`` texts."""
    try:
        got = bl.solve_lsmc(driver, terminal, grid, basis, paths, ridge=ridge)
    except RegressionError as exc:
        with pytest.raises(RegressionError) as want:
            reference_solve_lsmc(driver, terminal, grid, basis, paths, ridge)
        return str(exc), str(want.value)
    return got, reference_solve_lsmc(driver, terminal, grid, basis, paths, ridge)


def _assert_same_solution(got, want):
    if isinstance(got, str):
        assert got == want
        return
    for name in ("y0", "cond_numbers", "final_se"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("y_coeffs", "z_coeffs"):
        for row_a, row_b in zip(getattr(got, name), getattr(want, name),
                                strict=True):
            assert [c.tobytes() for c in row_a] == [c.tobytes() for c in row_b]


def _lattice_batch(grid, m_outer, layout, rng):
    """Every forward lattice path as the inner sample and ``m_outer``
    random lattice paths of the backward noise."""
    sq = np.sqrt(grid.dt)
    bits = rng.integers(0, 2, size=(m_outer, grid.steps))
    b = (2.0 * bits - 1.0) * sq
    return bl.PathBatch.from_arrays(grid, LAYOUTS[layout](b),
                                    LAYOUTS[layout](leaf_increments(grid)))


def _sampled_batch(grid, m_outer, m_inner, layout, seed):
    batch = bl.sample_paths(grid, (m_outer, m_inner), seed)
    return bl.PathBatch.from_arrays(
        grid, LAYOUTS[layout](batch.b_increments),
        LAYOUTS[layout](batch.w_increments))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # cond of a singular Gram
@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 12), f=st.sampled_from(F_ENTRIES),
       g=st.sampled_from(G_ENTRIES), terminal=st.sampled_from(catalog_terminals()),
       basis=st.sampled_from([("poly", d) for d in range(4)] + [("indicator", 0)]),
       ridge=st.sampled_from([0.0, 1e-8]), layout=st.sampled_from(sorted(LAYOUTS)),
       m_outer=st.integers(2, 3), seed=st.integers(0, 2 ** 32))
def test_catalog_solve_matches_reference(n, f, g, terminal, basis, ridge,
                                         layout, m_outer, seed):
    grid = bl.make_grid(1.0, n)
    spec = bl.BasisSpec(*basis)
    if spec.kind == "indicator":
        paths = _lattice_batch(grid, m_outer, layout, np.random.default_rng(seed))
    else:
        paths = _sampled_batch(grid, m_outer, 10 * (spec.degree + 1) + 1 + seed % 64,
                               layout, seed)
    got, want = _solve_both(bl.driver_pair(*f, *g), bl.builtin_terminal(*terminal),
                            grid, spec, paths, ridge)
    _assert_same_solution(got, want)


def _assert_close_solution(got, want, tol=1e-10):
    """Every estimate within ``tol (1 + |want|)`` of the oracle's."""
    def close(a, b):
        assert np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b)))

    close(got.y0, want.y0)
    close(got.final_se, want.final_se)
    assert got.cond_numbers.tobytes() == want.cond_numbers.tobytes()
    for name in ("y_coeffs", "z_coeffs"):
        for row_a, row_b in zip(getattr(got, name), getattr(want, name),
                                strict=True):
            for a, b in zip(row_a, row_b, strict=True):
                close(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # cond of a singular Gram
@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), f=st.sampled_from(F_ENTRIES),
       g=st.sampled_from(G_ENTRIES), terminal=st.sampled_from(catalog_terminals()),
       basis=st.sampled_from([("poly", d) for d in range(3)] + [("indicator", 0)]),
       ridge=st.sampled_from([0.0, 1e-8, 1e-4]), block_rows=st.sampled_from([7, 256]),
       seed=st.integers(0, 2 ** 32))
def test_projected_sweep_matches_the_target_regression(n, f, g, terminal, basis,
                                                       ridge, block_rows, seed):
    # the sweep projects Y_{i+1}, F and G where the oracle projects the
    # targets: the same estimates up to rounding.  The square-root drift is
    # only Hoelder-1/2 at 0, where a rounding difference e of Y moves f by
    # 2 sqrt(e), so its bound is the square root of the Lipschitz drifts'
    # (up to 8.8e-7 was seen on 400 random cases, against 3.4e-14 for the
    # other drifts).
    grid = bl.make_grid(1.0, n)
    spec = bl.BasisSpec(*basis)
    if spec.kind == "indicator":
        paths = _lattice_batch(grid, 3, "C", np.random.default_rng(seed))
    else:
        paths = bl.sample_paths(grid, (3, 300 + seed % 200), seed)
    args = (bl.driver_pair(*f, *g), bl.builtin_terminal(*terminal), grid, spec,
            paths, ridge)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lsmc, "BLOCK_ROWS", block_rows)
        try:
            got = bl.solve_lsmc(*args)
        except RegressionError as exc:
            with pytest.raises(RegressionError) as want:
                oracle_solve_lsmc(*args)
            assert str(exc) == str(want.value)
            return
    _assert_close_solution(got, oracle_solve_lsmc(*args),
                           1e-5 if f[0] == "f_sqrt_pos" else 1e-10)


def test_a_path_is_the_same_in_any_batch(monkeypatch):
    # path k's estimates depend on its own column alone: bitwise the same
    # in a batch of 64 paths, of 5 and of 13, over inner samples that end
    # in a part block
    monkeypatch.setattr(lsmc, "BLOCK_ROWS", 64)
    grid = bl.make_grid(1.0, 9)
    batch = bl.sample_paths(grid, (64, 5 * 64 + 37), seed=12)
    driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_sine", [0.5, 0.3])
    terminal = bl.builtin_terminal("call", [0.2])
    full = bl.solve_lsmc(driver, terminal, grid, bl.BasisSpec("poly", 2), batch)
    for lo, size in ((20, 5), (40, 13), (51, 13)):
        sub = bl.PathBatch.from_arrays(
            grid, batch.b_increments[lo:lo + size], batch.w_increments)
        part = bl.solve_lsmc(driver, terminal, grid, bl.BasisSpec("poly", 2),
                             sub)
        for k in range(size):
            for name in ("y0", "final_se", "cond_numbers"):
                assert (getattr(part, name)[k].tobytes()
                        == getattr(full, name)[lo + k].tobytes()), name
            for name in ("y_coeffs", "z_coeffs"):
                assert ([c.tobytes() for c in getattr(part, name)[k]]
                        == [c.tobytes() for c in getattr(full, name)[lo + k]])


CUSTOM = custom_drivers()


@pytest.mark.parametrize("basis", ["poly", "indicator"])
@pytest.mark.parametrize("name", sorted(CUSTOM))
def test_custom_driver_matches_reference(name, basis):
    grid = bl.make_grid(1.0, 7)
    if basis == "poly":
        paths = bl.sample_paths(grid, (3, 300), seed=8)
    else:
        paths = _lattice_batch(grid, 3, "C", np.random.default_rng(8))
    xi = np.random.default_rng(1).normal(size=paths.m_inner)
    kept = xi.copy()
    # the terminal hands out the same array on every call; f returning y
    # hands it back as the drift, so a step writing into either breaks this
    terminal = bl.TerminalSpec(lambda w: xi, "held")
    got, want = _solve_both(CUSTOM[name], terminal, grid, bl.BasisSpec(basis),
                            paths, ridge=0.0 if basis == "indicator" else 1e-8)
    _assert_same_solution(got, want)
    assert xi.tobytes() == kept.tobytes()


@pytest.mark.parametrize("part", ["f", "g"])
@pytest.mark.parametrize("step,node", [(6, 37), (4, 3), (1, 199)])
def test_non_finite_driver_value_has_the_reference_witness(part, step, node):
    grid = bl.make_grid(1.0, 6)
    paths = bl.sample_paths(grid, (2, 200), seed=4)
    terminal, basis = bl.builtin_terminal("w_terminal_sq"), bl.BasisSpec("poly", 2)
    at = nan_driver_target(lambda d: reference_solve_lsmc(
        d, terminal, grid, basis, paths), step, node)
    args = (nan_driver(part, step, at), terminal, grid, basis, paths)
    with pytest.raises(NumericError) as got:
        bl.solve_lsmc(*args)
    with pytest.raises(NumericError) as want:
        reference_solve_lsmc(*args)
    assert str(got.value) == str(want.value)
    assert f"step {step - 1}" in str(got.value)


def test_sweep_holds_the_states_and_two_designs():
    # the sweep keeps the (N, m_inner) design states and builds each design
    # when its step comes, so at most x_i and x_{i+1} are alive (the designs
    # of all 16 steps would take 7.7 MB here).  Its blocks of BLOCK_ROWS
    # inner rows take 8 * 256 * (7 * 2 + 2 * 3) = 40,960 bytes: seven
    # arrays of the two outer paths and one [x_i | D x_i].  Besides, it holds a few
    # m_inner arrays (terminal values, dW_i / dt and the design's
    # temporaries), about 0.5 MB.
    n, m_in = 16, 20_000
    grid = bl.make_grid(1.0, n)
    paths = bl.sample_paths(grid, (2, m_in), seed=3)
    basis = bl.BasisSpec("poly", 2)
    driver = bl.driver_pair("f_linear", [1.0, 0.0], "g_constant", [0.5])
    terminal = bl.builtin_terminal("w_terminal")
    got, peak = traced_peak(
        lambda: bl.solve_lsmc(driver, terminal, grid, basis, paths))
    states = 8 * n * m_in
    two_designs = 2 * 8 * m_in * (basis.degree + 1)
    blocks = 8 * lsmc.BLOCK_ROWS * (7 * 2 + 2 * (basis.degree + 1))
    assert blocks == 40_960
    assert states <= peak < states + two_designs + blocks + 2 ** 20
    _assert_same_solution(got, reference_solve_lsmc(driver, terminal, grid,
                                                    basis, paths))


def test_one_stacked_solve_per_step(monkeypatch):
    grid = bl.make_grid(1.0, 6)
    paths = bl.sample_paths(grid, (5, 200), seed=2)
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(args[1].shape)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    bl.solve_lsmc(bl.driver_pair("f_linear", [1.0, 0.0], "g_constant", [0.5]),
                  bl.builtin_terminal("w_terminal"), grid, bl.BasisSpec("poly", 2),
                  paths)
    assert calls == [(5, 2, 3, 1)] * 6


def _infinite_b_batch(grid, m_inner, steps_of_path):
    """Sampled inner paths and outer paths whose dB_i is +inf at the given
    step (no step: every increment finite), so the target of path k turns
    non-finite first at ``steps_of_path[k]``."""
    batch = bl.sample_paths(grid, (len(steps_of_path), m_inner), seed=6)
    b = batch.b_increments.copy()
    for k, step in enumerate(steps_of_path):
        if step is not None:
            b[k, step] = np.inf
    return bl.PathBatch.from_arrays(grid, b, batch.w_increments)


def test_first_error_is_at_the_highest_failing_step():
    # path 0 fails at step 2, path 1 at step 5: the step-major sweep meets
    # step 5 first, a path-by-path sweep meets path 0's step 2 first
    grid = bl.make_grid(1.0, 8)
    args = (bl.driver_pair("f_linear", [1.0, 0.0], "g_constant", [0.5]),
            bl.builtin_terminal("w_terminal"), grid, bl.BasisSpec("poly", 2),
            _infinite_b_batch(grid, 200, [2, 5]))
    with pytest.raises(NumericError, match="at step 5$"):
        bl.solve_lsmc(*args)
    with pytest.raises(NumericError, match="at step 2$"):
        oracle_solve_lsmc(*args)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # cond of a singular Gram
def test_a_paths_non_finite_target_comes_before_the_steps_singular_gram():
    # without a ridge the degree-2 Gram at W_0 = 0 is singular; path 1's
    # target at step 0 is not finite, path 0's is
    grid = bl.make_grid(1.0, 4)
    args = (bl.driver_pair("f_linear", [1.0, 0.0], "g_constant", [0.5]),
            bl.builtin_terminal("w_terminal"), grid, bl.BasisSpec("poly", 2),
            _infinite_b_batch(grid, 200, [None, 0]))
    with pytest.raises(NumericError, match="at step 0$"):
        bl.solve_lsmc(*args, ridge=0.0)
    with pytest.raises(RegressionError, match="singular at step 0"):
        oracle_solve_lsmc(*args, ridge=0.0)
    # with every target finite the singular Gram is the error
    args = args[:4] + (_infinite_b_batch(grid, 200, [None, None]),)
    with pytest.raises(RegressionError, match="singular at step 0"):
        bl.solve_lsmc(*args, ridge=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # cond of a singular Gram
@pytest.mark.parametrize("g", [("g_constant", [0.5]), ("g_zero", [])])
def test_non_finite_target_at_the_highest_step_before_a_singular_gram(g):
    # without a ridge the degree-2 Gram at W_0 = 0 is singular; path 0's dB
    # is infinite at step 1, path 1's at step 3.  With g = 0 the terms are
    # finite and their sum is not (an infinite dB_i times x_i' G = 0).
    grid = bl.make_grid(1.0, 5)
    args = (bl.driver_pair("f_linear", [1.0, 0.0], *g),
            bl.builtin_terminal("w_terminal"), grid, bl.BasisSpec("poly", 2),
            _infinite_b_batch(grid, 200, [1, 3]))
    with pytest.raises(NumericError,
                       match="^non-finite regression target at step 3$"):
        bl.solve_lsmc(*args, ridge=0.0)
    with pytest.raises(NumericError,
                       match="^non-finite regression target at step 3$"):
        reference_solve_lsmc(*args, ridge=0.0)
    # the path-by-path oracle meets path 0's step 1 first
    with pytest.raises(NumericError, match="at step 1$"):
        oracle_solve_lsmc(*args, ridge=0.0)


def test_design_byte_cap():
    # the blocks: 8 * 256 rows * (7 * 64 outer paths + 2 * 1001 columns)
    with pytest.raises(CapacityError, match="design states would allocate "
                       "102400000 bytes, the widest two consecutive designs "
                       "3203200000 and the sweep's blocks 5017600 more: "
                       "3310617600 bytes, cap is 2147483648"):
        lsmc.check_regression_bytes(200_000, [1001] * 64, 64)
    # the states and the widest consecutive pair, 8 * m * (N + 63 + 64), and
    # the blocks of two outer paths, 8 * 256 * (7 * 2 + 2 * 64)
    widths = list(range(1, 65))
    m = (2 ** 31 - 8 * 256 * (7 * 2 + 2 * 64)) // (8 * (64 + 63 + 64))
    lsmc.check_regression_bytes(m, widths, 2)
    with pytest.raises(CapacityError):
        lsmc.check_regression_bytes(m + 1, widths, 2)
    # degree 2 at N = 64 with 64 outer paths: 8 * m * (64 + 3 + 3) and
    # 8 * 256 * (7 * 64 + 2 * 3)
    lsmc.check_regression_bytes(3_833_131, [3] * 64, 64)
    with pytest.raises(CapacityError):
        lsmc.check_regression_bytes(3_833_132, [3] * 64, 64)
    # one step holds one design
    m = (2 ** 31 - 8 * 256 * (7 * 2 + 2 * 5)) // (8 * (1 + 5))
    lsmc.check_regression_bytes(m, [5], 2)
    with pytest.raises(CapacityError):
        lsmc.check_regression_bytes(m + 1, [5], 2)
    # fewer inner paths than a block: the blocks have m_inner rows,
    # 8 * 100 * (7 * 500,000 + 2 * 1) bytes
    with pytest.raises(CapacityError, match="blocks 2800001600 more"):
        lsmc.check_regression_bytes(100, [1] * 4, 500_000)


def _sliding_increments(grid, m_in, seed):
    """Inner increments (m_in, N) whose path p is the window p..p+N-1 of
    one Gaussian sequence: distinct paths in 8 (m_in + N) bytes."""
    seq = np.random.default_rng(seed).standard_normal(m_in + grid.steps)
    seq *= np.sqrt(grid.dt)
    return np.lib.stride_tricks.sliding_window_view(seq, grid.steps)


@pytest.mark.parametrize("kind", ["poly", "indicator"])
@pytest.mark.parametrize("source", ["sampled", "lattice", "window"])
def test_counted_widths_are_the_design_widths(kind, source):
    # the bytes the cap counts are the bytes the designs take, over more
    # than one block of paths
    grid = bl.make_grid(1.0, 16)
    m_in = 2 * lsmc.WIDTH_BLOCK + 77
    if source == "sampled":
        w_inc = bl.sample_paths(grid, (2, m_in), seed=1).w_increments
    elif source == "lattice":
        w_inc = leaf_increments(grid)
    else:
        w_inc = _sliding_increments(grid, m_in, seed=2)
    basis = bl.BasisSpec(kind, 2)
    widths = basis.widths(w_inc, grid.dt)
    states = np.concatenate([np.zeros((w_inc.shape[0], 1)),
                             np.cumsum(w_inc, axis=1)], axis=1)
    designs = [basis.design(states[:, i], grid.time(i), grid.dt)
               for i in range(grid.steps)]
    assert widths == [x.shape[1] for x in designs]
    assert 8 * w_inc.shape[0] * sum(widths) == sum(x.nbytes for x in designs)
    if kind == "indicator" and source != "lattice":
        # Gaussian states spread over more levels than the N + 1 of a lattice
        assert max(widths) > grid.steps + 1


def test_solve_above_the_design_cap_allocates_nothing():
    # N + 1 columns per step would fit under the cap (8 * m * (16 + 2 * 17)
    # bytes = 1.5 GiB), the counted widths of these Gaussian paths do not
    # (38 + 39 columns at steps 14 and 15); the count runs over blocks of
    # paths before the states, the terminal values and the designs are made
    grid = bl.make_grid(1.0, 16)
    m_in = 4_000_000
    paths = bl.PathBatch.from_arrays(grid, np.zeros((2, 16)),
                                     _sliding_increments(grid, m_in, seed=3))
    assert 8 * m_in * (16 + 2 * 17) <= lsmc.BATCH_MEMORY_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            bl.solve_lsmc(bl.builtin_driver("zero"),
                          bl.builtin_terminal("w_terminal"), grid,
                          bl.BasisSpec("indicator"), paths)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", harness.CLOSED_FORM_CASE_NAMES)
def test_mc_convergence_writes_the_reference_bytes(tmp_path, monkeypatch, case):
    cfg = {"scenario": "convergence", "grid": {"horizon": 1.0, "steps": 4},
           "driver": {"f": {"name": "zero", "params": []},
                      "g": {"name": "g_zero", "params": []}},
           "terminal": {"name": "constant", "params": [0.0]},
           "backend": "mc", "seed": 5,
           "convergence": {"case": case, "Ns": [4, 8, 16], "m_inner": 600}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run_scenario(path, out=str(tmp_path / "got")) == 0
    monkeypatch.setattr(harness, "sample_paths", reference_sample_paths)
    monkeypatch.setattr(harness, "solve_lsmc", reference_solve_lsmc)
    assert cli.run_scenario(path, out=str(tmp_path / "want")) == 0
    assert ((tmp_path / "got" / "convergence.csv").read_bytes()
            == (tmp_path / "want" / "convergence.csv").read_bytes())


# --------------------------------------------------------------------------
# path sampling
# --------------------------------------------------------------------------

SAMPLES = {
    "seed 0": dict(counts=(4, 64), seed=0),
    "seed 12345": dict(counts=(4, 64), seed=12345),
    "seed 2**64 - 1": dict(counts=(4, 64), seed=2 ** 64 - 1),
    "antithetic, odd m_outer": dict(counts=(5, 7), seed=3,
                                    antithetic=True),
    "4,000 outer paths": dict(counts=(4000, 64), seed=21),
}


@pytest.mark.parametrize("name", list(SAMPLES))
def test_sample_paths_match_reference(name):
    grid = bl.make_grid(1.0, 8)
    got = bl.sample_paths(grid, **SAMPLES[name])
    want = reference_sample_paths(grid, **SAMPLES[name])
    for a, b in ((got.b_increments, want.b_increments),
                 (got.w_increments, want.w_increments)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got.grid == want.grid
