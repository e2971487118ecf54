"""Term-by-term evaluation of the change-of-variables formulas.

Each verify_* function returns a FormulaReport: the left-hand side, every
right-hand-side term by name, their left-to-right sum and the residual
lhs - rhs; on a block of paths, FormulaReports of these as one table.
A non-finite term aborts the run. A local-time term takes the bandwidth it
is given (eps or the mollifier's n; ScenarioConfig.bandwidths picks them for
a run). verify_tanaka writes Tanaka's formula out; every other variant is a
row of _VARIANTS, an ordered tuple of (column name, term builder) over one
_PathView of the bundle.

Conventions shared by all variants:
  * integrands are evaluated at left limits: step-start values (t, a, x)
    for the continuous parts, general's H included, so the step after a
    jump starts from the post-jump value; pre-jump values (x_pre, a_pre)
    at flagged jumps;
  * the glue is closed below: x <= b selects the lower branch, so F_x on
    the surface is its limit from below; averaged derivatives are the mean
    of the limits from below and from above;
  * indicators on {X != b} are strict inequalities on left limits;
  * jump terms are evaluated on the (..., k) arrays of the jumps, then
    accumulated one jump rank at a time, in time order.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .calculus import (continuous_qv_measure, iter_jumps, left_point_sum,
                       local_time_time_integral, measure_integral)
from .errors import IncompatibleScenarioError, NumericalAbort
from .localtime import local_time_mollifier, local_time_occupation


@dataclass(frozen=True)
class Branch:
    """One smooth piece of a glued function, with sectional derivatives,
    each called as (t, a, x, b) with b the surface b(t, a) at those points."""

    f: Callable
    d_t: Callable
    d_a: Callable
    d_x: Callable
    d_xx: Callable


@dataclass(frozen=True)
class PiecewiseSurfaceFunction:
    """F glued from two branches across a surface: lower on x <= b."""

    surface: object
    lower: Branch
    upper: Branch

    def b(self, t, a):
        return np.asarray(self.surface.b(t, a), dtype=float)


def smooth_psf(f, d_t, d_a, d_x, d_xx, surface):
    """Globally smooth F wrapped in the piecewise container (f1 = f2)."""
    branch = Branch(f, d_t, d_a, d_x, d_xx)
    return PiecewiseSurfaceFunction(surface=surface, lower=branch, upper=branch)


class _Points:
    """A glued F at points (t, a, x) of one shape, its values memoised. The
    surface b(t, a), and the side of it each point lies on, are evaluated once."""

    def __init__(self, psf, t, a, x):
        self.psf, self.t, self.a, self.x, self._values = psf, t, a, x, {}

    @cached_property
    def b(self):
        return self.psf.b(self.t, self.a)

    @cached_property
    def sides(self):
        """x <= b (the lower branch owns x = b), then x >= b."""
        return self.x <= self.b, self.x >= self.b

    def value(self, attr, averaged=False):
        """F ("f") or a derivative; averaged, the mean of the limits from
        above and from below."""
        if (attr, averaged) not in self._values:
            psf, args = self.psf, (self.t, self.a, self.x, self.b)
            lower = np.asarray(getattr(psf.lower, attr)(*args), dtype=float)
            if psf.lower is psf.upper:  # smooth F
                below = above = np.broadcast_arrays(lower, self.x)[0]
            else:
                upper = np.asarray(getattr(psf.upper, attr)(*args), dtype=float)
                below = np.where(self.sides[0], lower, upper)
                above = np.where(self.sides[1], upper, lower) if averaged else None
            self._values[attr, averaged] = 0.5 * (above + below) if averaged else below
        return self._values[attr, averaged]


def eval_F(psf, t, a, x):
    """Evaluate the glued function on at-least-1-D arrays; the lower branch
    owns x = b. A point is an array of one, because numpy squares a scalar
    with `pow` and an array with `square`, which can round differently."""
    return _Points(psf, *np.atleast_1d(np.asarray(t, float), np.asarray(a, float),
                                       np.asarray(x, float))).value("f")


def fx_jump(psf, t, a):
    """One-sided x-derivative gap across the surface: F_x(b+) - F_x(b-)."""
    t, a = np.asarray(t, float), np.asarray(a, float)
    b = psf.b(t, a)
    return psf.upper.d_x(t, a, b, b) - psf.lower.d_x(t, a, b, b)


@dataclass
class FormulaReport:
    variant: str
    lhs: float
    terms: dict
    rhs: float
    residual: float


@dataclass
class FormulaReports:
    """A block's reports as one (P, 3 + terms) table: row p is path p's lhs,
    terms in summation order, rhs and residual. `terms` sums each term over
    the rows, for code that reads a report's terms (bench/layertrace.py)."""

    names: list
    table: np.ndarray

    @property
    def terms(self):
        return {name: sum(self.table[:, j].tolist()) for j, name in enumerate(self.names, 1)}


def _make_report(variant, lhs, terms, rows):
    """A path's report if rows == (), else a block's FormulaReports; lhs and
    each term hold one value per row, or one for all rows."""
    names, table = ["lhs", *terms], np.empty((math.prod(rows), len(terms) + 3))
    for j, value in enumerate((lhs, *terms.values())):
        table[:, j] = value
    finite = np.isfinite(table[:, :-2])
    if not finite.all():  # the first column with a non-finite value, and that value
        j = int(np.argmin(finite.all(axis=0)))
        raise NumericalAbort(f"{variant}: non-finite {names[j]} ({table[~finite[:, j], j][0]})")
    rhs = 0.0
    for j in range(1, len(names)):
        rhs = rhs + table[:, j]
    table[:, -2], table[:, -1] = rhs, table[:, 0] - rhs
    if rows:
        return FormulaReports(names[1:], table)
    lhs, *values, rhs, residual = table[0].tolist()
    return FormulaReport(variant, lhs, dict(zip(terms, values)), rhs, residual)


def verify_tanaka(bundle, level, n, qv_mode="analytic"):
    """Tanaka's formula for |X - a|, local time via the mollifier estimator."""
    a = float(level)
    u = bundle.x_path - a
    sgn = np.where(u > 0.0, 1.0, -1.0)
    stoch = np.sum(sgn[..., :-1] * bundle.diffusion_increments, axis=-1)
    jump_corr = 0.0
    # without jumps x_pre is x_path and each jump increment is +0.0: the jump
    # sum is a signed zero, which leaves stoch (a numpy sum, never -0.0)
    # unchanged, and each jump-correction summand is +0.0
    if not bundle.jump_free:
        u_pre = bundle.x_pre[..., 1:] - a
        sgn_jump = np.where(u_pre > 0.0, 1.0, -1.0) * bundle.k_jump_increments
        stoch += np.sum(sgn_jump, axis=-1)
        jump_corr = np.sum((np.abs(u[..., 1:]) - np.abs(u_pre)) - sgn_jump, axis=-1)
    lt = local_time_mollifier(bundle, a, n, qv_mode=qv_mode)

    lhs = np.abs(u[..., -1]) - np.abs(u[..., 0])
    terms = {
        "sgn_stochastic_integral": stoch,
        "jump_correction": jump_corr,
        "local_time": lt.final,
    }
    return _make_report("tanaka", lhs, terms, u.shape[:-1])


class _PathView(_Points):
    """One bundle as the term builders read it: F on its grid, and at its jumps.

    t, a, x span the whole grid, one row per path of a block. The calculus
    primitives take entries 0..n-1 of each row as the left points of the n
    steps, so the last entry never enters a sum.
    """

    def __init__(self, psf, bundle, qv_mode, eps=None, n=None):
        super().__init__(psf, bundle.times, bundle.a_path, bundle.x_path)
        self.bundle, self.qv_mode = bundle, qv_mode
        self.eps, self.n = eps, n
        # the jumps' JumpContext of (..., k) arrays, and F at their left limits
        self.jump = j = iter_jumps(bundle)
        self.pre = _Points(psf, j.t, j.a_pre, j.x_pre)

    @cached_property
    def off(self):
        """The strict indicator 1{X != b}; all true for a smooth F, whose
        Ito formula makes no exception on the surface."""
        if self.psf.lower is self.psf.upper:
            return np.ones(self.x.shape, dtype=bool)
        return self.x != self.b

    def coeff(self, name):
        return float(getattr(self.bundle.spec, name))

    @cached_property
    def df(self):
        """F after minus F before, at each jump."""
        j = self.jump
        return _Points(self.psf, j.t, j.a, j.x).value("f") - self.pre.value("f")


def _rank_sum(values):
    """0.0 plus each rank column of (..., k) values at the jumps, in time order."""
    total = 0.0
    for rank in range(values.shape[-1]):
        total = total + values[..., rank]
    return total


def _drift(v):
    """F_t + mu_x F_x + mu_a F_a + 1/2 sigma^2 F_xx: the Ito drift of the branches."""
    return (v.value("d_t")
            + v.coeff("mu_x") * v.value("d_x")
            + v.coeff("mu_a") * v.value("d_a")
            + 0.5 * np.square(v.coeff("sigma")) * v.value("d_xx"))


def _generator(v):
    """(F_t + mu_x F_x + mu_a F_a + 1/2 sigma^2 F_xx) 1{X != b} dt."""
    return measure_integral(np.where(v.off, _drift(v), 0.0), v.bundle.grid)


def _brownian(v):
    """sigma F_x 1{X != b} dB."""
    f = np.where(v.off, v.coeff("sigma") * v.value("d_x"), 0.0)
    return left_point_sum(f, v.bundle.db)


def _local_time(estimate):
    """1/2 (F_x(b+) - F_x(b-)) dl, with l = estimate(view)."""
    def term(v):
        return local_time_time_integral(0.5 * fx_jump(v.psf, v.t, v.a), estimate(v))
    return term


_SYMMETRIC_LOCAL_TIME = _local_time(lambda v: local_time_occupation(
    v.bundle, v.psf.surface, v.eps, side="symmetric", qv_mode=v.qv_mode))
_RIGHT_LOCAL_TIME = _local_time(lambda v: local_time_mollifier(
    v.bundle, v.psf.surface, v.n, qv_mode=v.qv_mode))


def _jump_sum(v):
    """Sum over the jumps of F after minus F before."""
    return _rank_sum(v.df)


# Each variant is its right-hand side: (column, builder) in summation order.
# Jumps live in K under the bundle's M/K split, so the general formula's
# jump compensation has no F_x dM part and is the plain jump sum of F.
_VARIANTS = {
    "ltc_diffusion": (
        ("generator_time_integral", _generator),
        ("sigma_fx_brownian", _brownian),
        ("local_time", _SYMMETRIC_LOCAL_TIME),
    ),
    "surfaces_strong": (
        ("avg_ft_time_integral", lambda v: measure_integral(
            v.value("d_t", True), v.bundle.grid)),
        ("avg_fa_da_continuous", lambda v: left_point_sum(
            v.value("d_a", True), v.bundle.a_drift_increments)),
        ("avg_fa_da_jumps", lambda v: _rank_sum(v.pre.value("d_a", True) * v.jump.da)),
        ("avg_fx_dx_continuous", lambda v: left_point_sum(
            v.value("d_x", True), v.bundle.diffusion_increments)),
        ("avg_fx_dx_jumps", lambda v: _rank_sum(v.pre.value("d_x", True) * v.jump.dx)),
        ("half_fxx_qv", lambda v: left_point_sum(
            np.where(v.off, 0.5 * v.value("d_xx"), 0.0),
            continuous_qv_measure(v.bundle, qv_mode=v.qv_mode))),
        ("local_time", _SYMMETRIC_LOCAL_TIME),
        ("jump_compensation", lambda v: _rank_sum(
            (v.df - v.pre.value("d_a", True) * v.jump.da)
            - v.pre.value("d_x", True) * v.jump.dx)),
    ),
    "jump_ltc": (
        ("sigma_fx_brownian", _brownian),
        ("generator_time_integral", _generator),
        ("local_time", _RIGHT_LOCAL_TIME),
        ("jump_sum", _jump_sum),
    ),
    "smooth_fit": (
        ("sigma_fx_brownian", _brownian),
        ("lambda_fx_dY", lambda v: _rank_sum(
            v.coeff("lambda_x") * v.pre.value("d_x") * v.jump.dy)),
        ("generator_time_integral", _generator),
        ("jump_compensation", lambda v: _rank_sum(v.df - v.pre.value("d_x") * v.jump.dx)),
    ),
    "general": (
        ("h_dlambda", lambda v: measure_integral(_drift(v), v.bundle.grid)),
        ("fx_dM", lambda v: left_point_sum(v.value("d_x"), v.bundle.m_increments)),
        ("local_time", _RIGHT_LOCAL_TIME),
        ("jump_compensation", _jump_sum),
    ),
}


def _assemble(variant, psf, bundle, qv_mode, **view_args):
    view = _PathView(psf, bundle, qv_mode, **view_args)
    terms = {name: build(view) for name, build in _VARIANTS[variant]}
    lhs = (eval_F(psf, view.t[..., -1], view.a[..., -1], view.x[..., -1])
           - eval_F(psf, view.t[..., 0], view.a[..., 0], view.x[..., 0]))
    return _make_report(variant, lhs, terms, view.x.shape[:-1])


def verify_ltc_diffusion(psf, bundle, eps, qv_mode="analytic"):
    """Diffusion-only local time on curves formula (symmetric local time)."""
    if bundle.jump_indices.size:
        raise IncompatibleScenarioError(
            "the diffusion formula requires a jump-free bundle")
    return _assemble("ltc_diffusion", psf, bundle, qv_mode, eps=eps)


def verify_surfaces_strong(psf, bundle, eps, qv_mode="analytic"):
    """Strong-smoothness surfaces formula: averaged one-sided derivatives in
    the dt/dA/dX terms, symmetric local time, full jump compensation."""
    return _assemble("surfaces_strong", psf, bundle, qv_mode, eps=eps)


def verify_jump_ltc(psf, bundle, n, qv_mode="analytic"):
    """Jump-diffusion local time on surfaces formula (right local time).

    Requires a Lipschitz-declared surface so the composed boundary process
    has bounded variation.
    """
    if not psf.surface.lipschitz:
        raise IncompatibleScenarioError(
            "this variant requires a Lipschitz-declared surface")
    return _assemble("jump_ltc", psf, bundle, qv_mode, n=n)


def verify_smooth_fit(psf, bundle, qv_mode="analytic"):
    """Extended Ito formula under smooth fit: no local-time term.

    Before evaluation, the one-sided derivative gap must be below 1e-9 on a
    21 x 21 test grid spanning each path's (t, a) range.
    """
    t_grid = np.linspace(bundle.times[..., 0], bundle.times[..., -1], 21, axis=-1)
    a_grid = np.linspace(bundle.a_path.min(axis=-1) - 0.1, bundle.a_path.max(axis=-1) + 0.1,
                         21, axis=-1)
    gap = np.max(np.abs(fx_jump(psf, t_grid[..., :, None], a_grid[..., None, :])))
    if gap >= 1e-9:
        raise IncompatibleScenarioError(
            f"smooth-fit condition violated on the test grid: max gap {gap:g}")
    return _assemble("smooth_fit", psf, bundle, qv_mode)


def verify_general(psf, bundle, n, qv_mode="analytic"):
    """General semimartingale formula with lambda = dt and H the Ito drift of
    the branches, F_t + mu_x F_x + mu_a F_a + 1/2 sigma^2 F_xx, read at step
    start on and off the surface alike."""
    return _assemble("general", psf, bundle, qv_mode, n=n)
