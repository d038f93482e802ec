import numpy as np
import pytest

import bdsde_lab as bl


@pytest.fixture
def grid4():
    return bl.make_grid(1.0, 4)


@pytest.fixture
def grid8():
    return bl.make_grid(1.0, 8)


@pytest.fixture
def sqrt_driver():
    return bl.builtin_driver("f_sqrt_pos", [2.0])


@pytest.fixture
def zero_terminal():
    return bl.builtin_terminal("constant", [0.0])


def catalog_driver_specs():
    """Canonical parameterisation of every catalog driver part."""
    f_entries = [
        ("zero", []),
        ("f_constant", [0.8]),
        ("f_linear", [0.6, 0.3]),
        ("f_sqrt_pos", [2.0]),
    ]
    g_entries = [
        ("g_zero", []),
        ("g_constant", [0.7]),
        ("g_linear", [0.8]),
        ("g_sine", [0.5, 0.3]),
    ]
    return f_entries, g_entries


def catalog_terminals():
    return [
        ("constant", [1.5]),
        ("w_terminal", []),
        ("w_terminal_sq", []),
        ("call", [0.5]),
        ("w_terminal_pos", []),
    ]


def brute_force_conv(f, n, t, y, z, mode, radius, spacing):
    """Independent dense-scan oracle for the truncated convolutions on the
    fixed grid centred at the origin."""
    m = int(np.ceil(radius / spacing))
    off = spacing * np.arange(-m, m + 1)
    yy = np.repeat(off, off.size)
    zz = np.tile(off, off.size)
    vals = np.asarray(f(t, yy, zz), dtype=float)
    pen = n * (np.abs(yy - y) + np.abs(zz - z))
    if mode == "sup":
        return float(np.max(vals - pen))
    return float(np.min(vals + pen))
