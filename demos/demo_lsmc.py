#!/usr/bin/env python3
"""Exercise the least-squares Monte Carlo solver.

Conditioning on a full backward-noise path turns its increments into known
constants, so each outer scenario runs an ordinary backward regression over
the inner forward-noise sample.  With lattice paths injected and a complete
indicator basis, the regression reproduces the exact solver; with Gaussian
paths it reproduces closed forms to statistical accuracy and converges at
first order in the step count.
"""

import numpy as np

import bdsde_lab as bl
from bdsde_lab.tree import leaf_increments

print("--- reproducibility: counter-based path generation ---")
grid = bl.make_grid(1.0, 16)
a = bl.sample_paths(grid, (4, 1024), seed=7)
b = bl.sample_paths(grid, (8, 4096), seed=7)
shared = np.array_equal(a.w_increments, b.w_increments[:1024])
print(f"paths keyed per index: prefix of a larger batch identical = {shared}")
print(f"scalar noise: outer increments {a.b_increments.shape}, "
      f"inner increments {a.w_increments.shape} (paths, steps)")

print("\n--- lattice injection reproduces the exact solver ---")
grid5 = bl.make_grid(1.0, 5)
driver = bl.driver_pair("f_sqrt_pos", [2.0], "g_constant", [0.7])
terminal = bl.builtin_terminal("call", [0.2])
tree_sol = bl.solve_tree(driver, terminal, grid5)
bits = [1, 0, 1, 1, 0]
outer = (2.0 * np.asarray(bits, float) - 1.0)[None, :] * np.sqrt(grid5.dt)
batch = bl.PathBatch.from_arrays(grid5, outer, leaf_increments(grid5))
mc = bl.solve_lsmc(driver, terminal, grid5, bl.BasisSpec("indicator"),
                   batch, ridge=0.0)
r_idx = int("".join(map(str, bits)), 2)
print(f"regression Y0 = {mc.y0[0]:.12f}")
print(f"lattice    Y0 = {tree_sol.ys[0][0, r_idx]:.12f}")

print("\n--- gaussian closed forms (M = 100000 inner paths) ---")
grid16 = bl.make_grid(1.0, 16)
paths = bl.sample_paths(grid16, (4, 100_000), seed=12345)
mc_w = bl.solve_lsmc(bl.builtin_driver("zero"),
                     bl.builtin_terminal("w_terminal"), grid16,
                     bl.BasisSpec("poly", 2), paths)
print(f"terminal W_T: Y0 = {float(np.mean(mc_w.y0)):+.5f} "
      f"(3 sigma = {3 / np.sqrt(paths.m_inner):.5f})")
mc_e = bl.solve_lsmc(bl.driver_pair("f_linear", [1.0, 0.0]),
                     bl.builtin_terminal("w_terminal_sq"), grid16,
                     bl.BasisSpec("poly", 2), paths)
target = (1.0 + grid16.dt) ** grid16.steps
print(f"drift y, terminal W_T^2: Y0 = {float(np.mean(mc_e.y0)):.5f} "
      f"(discrete target {target:.5f}, limit e = {np.e:.5f})")
print("diagnostics:", {k: (f"{v:.4g}" if isinstance(v, float) else "...")
                       for k, v in bl.mc_diagnostics(mc_e).items()})

print("\n--- outer variance tracks the backward noise ---")
grid4 = bl.make_grid(1.0, 4)
paths4 = bl.sample_paths(grid4, (4000, 64), seed=21)
mc_b = bl.solve_lsmc(bl.driver_pair("zero", [], "g_constant", [1.0]),
                     bl.builtin_terminal("constant", [0.0]), grid4,
                     bl.BasisSpec("poly", 1), paths4)
print(f"across-outer variance of Y0 = "
      f"{bl.mc_diagnostics(mc_b)['y0_variance']:.4f} (horizon T = 1)")

print("\n--- first-order convergence on the compounding case ---")
table = bl.convergence_study("linear_ode", [64, 128, 256, 512], backend="mc",
                             m_inner=2000)
for n, err, ratio in table.rows:
    tag = "" if np.isnan(ratio) else f"  ratio {ratio:.3f}"
    print(f"  N={n:4d}  error {err:.6f}{tag}")
