"""Local time estimation at a level or a moving surface.

Three independent estimators are provided: the epsilon-occupation window,
the mollified kernel accumulation, and the rearranged Tanaka residual.
All return a nondecreasing cumulative series starting at 0 (the Tanaka
residual is nondecreasing in the limit; on a grid it may wiggle at the
discretisation scale), with one row per path of a block.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .calculus import continuous_qv_measure, local_time_time_integral
from .errors import ConfigError


@dataclass(frozen=True)
class LocalTimeSeries:
    """Cumulative local time on the bundle's grid, stored as its hits.

    `shape` is that of the values: (L+1,) for one path, (P, L+1) for a
    block. `hits` are the steps whose increments are kept, as increasing
    flat indices row * L + step, and `increments` those increments; every
    other step adds +0.0. With `hits` None, `increments` holds every step,
    shape (..., L). The library reads only the hits; `values`, each row's
    running sums from 0, is built on first read, for inspection.
    """

    shape: tuple
    hits: Optional[np.ndarray]
    increments: np.ndarray

    @cached_property
    def values(self):
        values = np.zeros(self.shape)
        if self.hits is None:
            values[..., 1:] = self.increments
        else:
            # a hit's increment is entry step + 1 of its row
            values.flat[self.hits + self.hits // (self.shape[-1] - 1) + 1] = self.increments
        return np.cumsum(values, axis=-1, out=values)

    @cached_property
    def final(self):
        """The last value: a float for one path, one per row for a block.

        It is each row's sequential sum 0.0 + h0 + h1 + ... over its hits,
        the time integral of 1: the last value bit for bit, since 1.0 * h is
        h, adding +0.0 leaves a running sum unchanged, and a running sum
        that starts at +0.0 is never -0.0.
        """
        return local_time_time_integral(np.broadcast_to(1.0, self.shape), self)


def _distance_to_target(bundle, surface_or_level):
    """X - b (or X - level) along the path, at left limits."""
    if np.isscalar(surface_or_level) or isinstance(surface_or_level, (int, float)):
        return bundle.x_pre - float(surface_or_level)
    return bundle.x_pre - np.asarray(surface_or_level.b(bundle.times, bundle.a_pre),
                                     dtype=float)


def _window_series(bundle, window, weight, qv_mode):
    """The series whose increment at each step inside the window is
    weight(hits) times the continuous QV of that step, where hits are the
    flat indices of those steps, in order."""
    hits = np.flatnonzero(window)
    increments = weight(hits) * continuous_qv_measure(bundle, qv_mode=qv_mode, at=hits)
    return LocalTimeSeries(window.shape[:-1] + (window.shape[-1] + 1,), hits, increments)


def local_time_occupation(bundle, surface_or_level, eps, side="right",
                          qv_mode="analytic"):
    """Occupation-window estimator.

    right: (1/eps)   * integral of 1{0 <= X-b < eps} d[X-b, X-b]^c
    symmetric: (1/2eps) with window (-eps, eps), both strict at the edges
    except the right window is closed at 0.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    u = _distance_to_target(bundle, surface_or_level)[..., :-1]
    if side == "right":
        window = (u >= 0.0) & (u < eps)
        scale = 1.0 / eps
    elif side == "symmetric":
        window = (u > -eps) & (u < eps)
        scale = 1.0 / (2.0 * eps)
    else:
        raise ConfigError(f"unknown side: {side!r}")
    return _window_series(bundle, window, lambda hits: scale, qv_mode)


def local_time_mollifier(bundle, surface_or_level, n, qv_mode="analytic"):
    """Kernel estimator: cumulative sum of n rho(n (X-b)) d[X-b, X-b]^c with
    the bump rho(z) = 6 z (1 - z) on [0, 1], of unit mass.

    Nondecreasing, and one-sided (right) because the kernel is supported
    on [0, 1].  The kernel and the QV are evaluated only at the steps
    inside that window; every other increment is exactly 0.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    z = n * _distance_to_target(bundle, surface_or_level)[..., :-1]

    def weight(hits):
        z_hit = z.flat[hits]
        return n * (6.0 * z_hit * (1.0 - z_hit))

    return _window_series(bundle, (z >= 0.0) & (z <= 1.0), weight, qv_mode)


def local_time_tanaka_residual(bundle, level):
    """Local time as the Tanaka-formula residual at a fixed level.

    ell_t = |X_t - a| - |X_0 - a| - int sgn(X_{s-} - a) dX_s
            - sum over jumps (|X_s - a| - |X_{s-} - a| - sgn(X_{s-} - a) dX_s)

    with the one-sided convention sgn(x) = 1 for x > 0 and -1 for x <= 0,
    matching the right local time.
    """
    a = float(level)
    u = bundle.x_path - a
    abs_u = np.abs(u)
    # stochastic integral: continuous part uses the step-start value,
    # the jump part the pre-jump value at the step end
    stoch = np.where(u[..., :-1] > 0.0, 1.0, -1.0) * bundle.diffusion_increments
    jump_corr = 0.0
    # without jumps x_pre is x_path and each jump increment is +0.0: the jump
    # part and jump_corr are signed zeros that leave inc unchanged
    if not bundle.jump_free:
        u_pre = bundle.x_pre[..., 1:] - a
        sgn_jump = np.where(u_pre > 0.0, 1.0, -1.0) * bundle.k_jump_increments
        stoch += sgn_jump
        # at non-jump indices x == x_pre, so jump_corr vanishes there exactly
        jump_corr = (abs_u[..., 1:] - np.abs(u_pre)) - sgn_jump
    increments = (abs_u[..., 1:] - abs_u[..., :-1]) - stoch - jump_corr
    return LocalTimeSeries(u.shape, None, increments)
