#!/usr/bin/env python3
"""Show the Lipschitz regularization operators on the square-root drift.

f(y) = 2 sqrt(y+) is continuous with linear growth but has unbounded slope
at the origin.  Its sup-convolution with slope n,

    f_n(y) = max over y' of f(y') - n |y - y'|,

is n-Lipschitz, sits above f, decreases toward f as n grows, and reproduces
f wherever the local slope is below n.  The inf-convolution mirrors this
from below; the mollifier smooths in y with a compact bump kernel.
"""

import numpy as np

import bdsde_lab as bl
from bdsde_lab.regularize import ConvGridSpec, inf_conv, sup_conv

driver = bl.builtin_driver("f_sqrt_pos", [2.0])
spec = ConvGridSpec(radius=10.0, spacing=1e-4)

print("sup-convolution values at the kink (analytic value 1/n):")
for n in (2, 4, 8, 16):
    op = sup_conv(driver.f, n, spec, z_independent=True)
    print(f"  n={n:3d}: f_n(0) = {op(0.0, 0.0, 0.0):.6f}   (1/n = {1 / n:.6f})")

print("\ninf-convolution pins the origin exactly (minimiser at 0):")
op = inf_conv(driver.f, 4.0, spec, z_independent=True)
print(f"  f_4(0) = {op(0.0, 0.0, 0.0)!r}")

print("\naway from the kink both operators reproduce the drift:")
up = sup_conv(driver.f, 8.0, spec, z_independent=True)
for y in (0.25, 1.0, 2.0):
    print(f"  y={y}: f(y) = {2 * np.sqrt(y):.6f}, f_8(y) = {up(0.0, y, 0.0):.6f}")

print("\nmonotonicity in the slope at a probe inside the regularized zone:")
probe = 1e-4
vals = []
for n in (2, 4, 8, 16, 32):
    op = sup_conv(driver.f, n, spec, z_independent=True)
    vals.append(op(0.0, probe, 0.0))
print("  " + " >= ".join(f"{v:.5f}" for v in vals))

print("\nmollified |y| at the kink (width 0.1):")
smooth = bl.mollify(lambda t, y, z: np.abs(y), delta=0.1)
print(f"  value {float(smooth(0.0, np.asarray(0.0), np.asarray(0.0))):.8f}; "
      "a linear function passes through the same kernel unchanged:")
lin = bl.mollify(lambda t, y, z: 3.0 * y, delta=0.1)
print(f"  |mollified(3y) - 3y| at y=1.3: "
      f"{abs(float(lin(0.0, np.asarray(1.3), np.asarray(0.0))) - 3.9):.2e}")

print("\nthe linear lower-bound drift -|f(t,0,0)| - K|y| - K|z|:")
part = bl.lower_bound_driver(bl.driver_pair("f_linear", [1.0, 0.0]))
print(f"  at (y, z) = (2, 3) with K = 1: {float(part(0.0, np.asarray(2.0), np.asarray(3.0)))}")
