"""Pathwise integral evaluators: the left-point sum, continuous quadratic
variation, local-time time integrals, the values at the jumps and dt integrals.

Every integral is a left-point sum of an integrand on the grid against
stored per-step increments (dt, dB, dM, d[X]^c), or, against a local time,
a sum over its window hits; no path is differenced again.

Each reduces along the last axis, so a block of paths reduces row by row,
exactly as each path alone. Every reduction runs in fixed index order on
immutable arrays, so results are bit-reproducible regardless of how paths
are distributed to blocks or workers.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .paths import row_index


def _check_aligned(f, n_points):
    if f.shape[-1:] != (n_points,):
        raise ConfigError("integrand and integrator must be aligned")


def left_point_sum(f_vals, increments):
    """Left-point sum of each row: sum over the steps k of f[k] * increments[k],
    with f on the grid's points (..., L+1) and increments per step (..., L)."""
    f = np.asarray(f_vals, dtype=float)
    _check_aligned(f, np.shape(increments)[-1] + 1)
    return np.sum(f[..., :-1] * increments, axis=-1)


def continuous_qv_measure(bundle, qv_mode="analytic", at=None):
    """Per-step increments of the continuous quadratic variation of X, or
    only those of the steps at the flat indices `at` (row * steps + step).

    analytic: sigma^2 * dt per step.
    realized: squared continuous step increments of X; jump increments are
    excluded, they belong to the discontinuous part of [X, X].
    """
    if qv_mode == "analytic":
        dts = bundle.grid.dts
        # a grid shared by every row of a block has one row, so its index wraps
        return np.square(float(bundle.spec.sigma)) * (dts if at is None else
                                                      np.take(dts, at, mode="wrap"))
    if qv_mode == "realized":
        increments = bundle.diffusion_increments
        return np.square(increments if at is None else np.take(increments, at))
    raise ConfigError(f"unknown qv_mode: {qv_mode!r}")


def local_time_time_integral(f_vals, lt):
    """Left-point sum of each row against a LocalTimeSeries: f at each hit
    times its increment, added in hit order from 0.0, one row at a time.
    Steps outside the window add nothing, not even a +0.0 term.  A series
    without hits is summed over every step the same way."""
    *head, n_points = lt.shape
    f = np.asarray(f_vals, dtype=float)
    _check_aligned(f, n_points)
    rows, steps = math.prod(head), n_points - 1
    if lt.hits is None:  # every step is a hit
        row, weights = np.repeat(np.arange(rows), steps), f[..., :-1] * lt.increments
    else:
        row, step = np.divmod(lt.hits, steps)
        weights = np.broadcast_to(f, (rows, n_points))[row, step] * lt.increments
    # bincount adds in input order; of no hits it gives integer zeros
    sums = np.bincount(row, weights.reshape(-1), minlength=rows)
    return sums.astype(float).reshape(head)[()]


class JumpContext(NamedTuple):
    """The values at a path's k jumps, as (k,) arrays in time order; for a
    block, (P, k) arrays, row p holding path p's jumps."""

    t: np.ndarray
    a: np.ndarray
    x: np.ndarray
    a_pre: np.ndarray
    x_pre: np.ndarray
    dx: np.ndarray
    da: np.ndarray
    dy: np.ndarray  # the jumps of the train Y


def iter_jumps(bundle):
    """The bundle's jumps as one JumpContext; its arrays are empty, (..., 0),
    when no path jumps."""
    jidx = bundle.jump_indices
    if not jidx.size:  # a jump-free block may share one 1-D grid
        return JumpContext(*[np.empty(bundle.x_path.shape[:-1] + (0,))] * 8)

    at, before = row_index(jidx), row_index(jidx - 1)
    return JumpContext(
        bundle.times[at], bundle.a_path[at], bundle.x_path[at], bundle.a_pre[at],
        bundle.x_pre[at], bundle.k_jump_increments[before],
        bundle.a_jump_increments[before], bundle.dy[before])


def measure_integral(f_vals, grid):
    """Left-point dt sum of each row of an integrand."""
    return left_point_sum(f_vals, grid.dts)
