"""Pathwise integral evaluators: left-point Stieltjes sums, continuous
quadratic variation, local-time time integrals, the jump iteration and
dt integrals.

Each reduces along the last axis, so a block of paths reduces row by row,
exactly as each path alone. Every reduction runs in fixed index order on
immutable arrays, so results are bit-reproducible regardless of how paths
are distributed to blocks or workers.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConfigError


def _check_aligned(f_vals, g_vals):
    if np.shape(f_vals)[-1:] != np.shape(g_vals)[-1:]:
        raise ConfigError("integrand and integrator must be aligned")


def stieltjes_integral(f_vals, g_vals):
    """Left-point Riemann-Stieltjes sum of each row: sum f[k] * (g[k+1] - g[k])."""
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(g_vals, dtype=float)
    _check_aligned(f, g)
    return np.sum(f[..., :-1] * np.diff(g, axis=-1), axis=-1)


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
    """Left-point Stieltjes sum against local-time increments."""
    return stieltjes_integral(f_vals, getattr(lt, "values", lt))


class JumpContext(NamedTuple):
    """The values at one jump: floats for one path; for a block, one value
    per row, each row's jump of the same rank."""

    t: float
    a: float
    x: float
    a_pre: float
    x_pre: float
    dx: float
    da: float
    dy: float  # the jump of the train Y


def iter_jumps(bundle):
    """The jumps in time order (in column order for a block)."""
    jidx = bundle.jump_indices
    if not jidx.size:
        return

    def at(values, shift=0):
        return np.take_along_axis(values, jidx - shift, axis=-1).T

    yield from map(JumpContext._make, zip(
        at(bundle.times), at(bundle.a_path), at(bundle.x_path), at(bundle.a_pre),
        at(bundle.x_pre), at(bundle.k_jump_increments, 1),
        at(bundle.a_jump_increments, 1), at(bundle.dy, 1)))


def measure_integral(f_vals, grid):
    """Left-point dt sum of each row of an integrand."""
    f = np.asarray(f_vals, dtype=float)
    _check_aligned(f, grid.times)
    return np.sum(f[..., :-1] * grid.dts, axis=-1)
