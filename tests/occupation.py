"""The occupation-time identity, checked on one path: a test helper.

The integral of g(X_s) d[X, X]^c over [0, t] equals the integral over levels
a of g(a) times the local time at a, here the library's occupation-window
estimate at every level of a grid, summed by the trapezoid rule.
"""

import warnings

import numpy as np

from ltsurf import continuous_qv_measure, local_time_occupation


def occupation_formula_check(bundle, g, level_grid, eps, qv_mode="analytic",
                             side="right"):
    """Compare both sides of the occupation-time identity.

    lhs: direct Stieltjes accumulation of g(X_s) against d[X, X]^c.
    rhs: trapezoid quadrature of g(a) * ell^a_t over the level grid, with
    ell^a_t the final value of local_time_occupation at level a.
    """
    levels = np.asarray(level_grid, dtype=float)
    x = bundle.x_path
    lo, hi = float(np.min(x)), float(np.max(x))
    if levels[0] > lo or levels[-1] < hi:
        warnings.warn("level grid does not cover the path range")
    qv = continuous_qv_measure(bundle, qv_mode=qv_mode)
    lhs = float(np.sum(np.asarray(g(x[:-1]), dtype=float) * qv))
    lt_final = np.array([local_time_occupation(bundle, level, eps, side=side,
                                               qv_mode=qv_mode).final
                         for level in levels.tolist()])
    # numpy >= 2.0 has trapezoid; numpy 2.4 removed trapz
    trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    rhs = float(trapezoid(np.asarray(g(levels), dtype=float) * lt_final, levels))
    denom = max(abs(lhs), abs(rhs), np.finfo(float).tiny)
    return lhs, rhs, abs(lhs - rhs) / denom
