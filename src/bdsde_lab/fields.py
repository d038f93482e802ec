"""Helpers for per-step solution fields.

A *field* is either a 1-d array of length N+1 (deterministic scalar
recursions) or a sequence of N+1 per-step lattice arrays (a list, or a
``tree.LatticeField`` that builds each step when indexed).  These helpers treat
both uniformly; step values are compared nodewise.  Fields that are all
1-d arrays are reduced in one whole-array pass with the results of the
per-step loop: steps whose value is NaN are skipped as the loop's ``max``
skips them, and a reported step is the first one attaining the maximum.
"""

from __future__ import annotations

import numpy as np


def step_values(field, i: int) -> np.ndarray:
    return np.asarray(field[i], dtype=float)


def as_1d(*fields_):
    """The fields as float arrays when all are 1-d ndarrays of one length,
    else None."""
    if all(isinstance(f, np.ndarray) and f.ndim == 1 for f in fields_) \
            and len({f.size for f in fields_}) == 1:
        return [np.asarray(f, dtype=float) for f in fields_]
    return None


def sup_distance(a, b) -> float:
    """Max over steps of the nodewise max absolute difference."""
    if len(a) != len(b):
        raise ValueError("fields live on different grids")
    flat = as_1d(a, b)
    if flat is not None:
        return float(np.fmax.reduce(np.abs(flat[0] - flat[1]), initial=0.0))
    worst = 0.0
    for i in range(len(a)):
        worst = max(worst, float(np.max(np.abs(step_values(a, i) - step_values(b, i)))))
    return worst


def max_abs(field) -> float:
    flat = as_1d(field)
    if flat is not None and flat[0].size:
        v = np.abs(flat[0])
        # a NaN first step stays the running max of the loop below
        return float(v[0]) if np.isnan(v[0]) else float(np.fmax.reduce(v))
    return max(float(np.max(np.abs(step_values(field, i)))) for i in range(len(field)))


def worst_excess(a, b) -> tuple[float, int]:
    """Largest nodewise violation of a <= b, with the offending step."""
    flat = as_1d(a, b)
    if flat is not None:
        ex = flat[0] - flat[1]
        worst = np.fmax.reduce(ex, initial=-np.inf)
        if worst == -np.inf:
            return -np.inf, -1
        # the first step equal to the maximum, read back so a -0.0 there
        # keeps its sign as in the loop
        where = int(np.argmax(ex == worst))
        return float(ex[where]), where
    worst, where = -np.inf, -1
    for i in range(len(a)):
        ex = float(np.max(step_values(a, i) - step_values(b, i)))
        if ex > worst:
            worst, where = ex, i
    return worst, where


def nodewise_leq(a, b, tol: float) -> tuple[bool, float, int]:
    worst, where = worst_excess(a, b)
    return worst <= tol, worst, where
