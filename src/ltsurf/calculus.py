"""Pathwise integral evaluators: left-point Stieltjes sums, continuous
quadratic variation, local-time time integrals, the jump iteration and
integrals against signed measures.

Every reduction runs in fixed index order on immutable arrays, so results
are bit-reproducible regardless of how paths are distributed to workers.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class MeasureSpec:
    """Signed measure on [0, t_end]: a density against dt plus atoms."""

    density: object = None  # callable of t, float, or None for zero
    atoms: tuple = ()  # (time, signed mass) pairs

    def density_values(self, times):
        if self.density is None:
            return np.zeros(len(times))
        if callable(self.density):
            return np.asarray(self.density(np.asarray(times, dtype=float)), dtype=float)
        return np.full(len(times), float(self.density))


LEBESGUE = MeasureSpec(density=1.0)


def _check_aligned(f_vals, g_vals):
    if len(f_vals) != len(g_vals):
        raise ConfigError("integrand and integrator must be aligned")


def stieltjes_integral(f_vals, g_vals):
    """Left-point Riemann-Stieltjes sum: sum f[k] * (g[k+1] - g[k])."""
    f = np.asarray(f_vals, dtype=float)
    g = np.asarray(g_vals, dtype=float)
    _check_aligned(f, g)
    return float(np.sum(f[:-1] * np.diff(g)))


def continuous_qv_measure(bundle, qv_mode="analytic"):
    """Per-step increments of the continuous quadratic variation of X.

    analytic: sigma^2 * dt per step.
    realized: squared continuous step increments of X; jump increments are
    excluded, they belong to the discontinuous part of [X, X].
    """
    if qv_mode == "analytic":
        return np.square(float(bundle.spec.sigma)) * bundle.grid.dts
    if qv_mode == "realized":
        return np.square(bundle.diffusion_increments)
    raise ConfigError(f"unknown qv_mode: {qv_mode!r}")


def local_time_time_integral(f_vals, lt):
    """Left-point Stieltjes sum against local-time increments."""
    return stieltjes_integral(f_vals, getattr(lt, "values", lt))


class JumpContext(NamedTuple):
    t: float
    a: float
    x: float
    a_pre: float
    x_pre: float
    dx: float
    da: float


def iter_jumps(bundle):
    dx, da = bundle.k_jump_increments, bundle.a_jump_increments
    for idx in bundle.jump_indices:
        yield JumpContext(
            t=float(bundle.times[idx]),
            a=float(bundle.a_path[idx]),
            x=float(bundle.x_path[idx]),
            a_pre=float(bundle.a_pre[idx]),
            x_pre=float(bundle.x_pre[idx]),
            dx=float(dx[idx - 1]),
            da=float(da[idx - 1]),
        )


def measure_integral(f_vals, measure, grid):
    """Integral of a left-limit integrand against a signed measure.

    Density part is a left-point dt sum; atoms off the grid snap to the
    nearest grid point from the right (predictability-preserving) with a
    warning.
    """
    f = np.asarray(f_vals, dtype=float)
    times = grid.times
    _check_aligned(f, times)
    dens = measure.density_values(times[:-1])
    total = float(np.sum(f[:-1] * dens * grid.dts))
    for atom_t, mass in measure.atoms:
        if atom_t < 0 or atom_t > times[-1]:
            raise ConfigError(f"atom at {atom_t} outside [0, t_end]")
        idx = int(np.searchsorted(times, atom_t, side="left"))
        if idx >= len(times) or times[idx] != atom_t:
            warnings.warn(
                f"measure atom at t={atom_t} is off-grid; snapped right to t={times[idx]}"
            )
        total += float(f[idx]) * mass
    return total
