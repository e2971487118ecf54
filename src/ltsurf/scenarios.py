"""Named scenario registry: model coefficients, glued functions and the
formula variant each scenario exercises.

Configs reference scenarios by name plus numeric parameters; coefficient
functions and glued branches never round-trip through config files.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, IncompatibleScenarioError
from .formulas import (Branch, PiecewiseSurfaceFunction, smooth_psf,
                       verify_general, verify_jump_ltc, verify_ltc_diffusion,
                       verify_smooth_fit, verify_surfaces_strong,
                       verify_tanaka)
from .paths import JumpLaw, SdeSpec, two_point
from .surfaces import Surface, constant_surface


@dataclass
class ScenarioParts:
    spec: SdeSpec
    psf: Optional[PiecewiseSurfaceFunction] = None
    level: float = 0.0
    gen: Optional[Callable] = None  # H(t, a, x) of the general variant
    variants: tuple = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    formula: str  # plain-language name of the formula exercised
    default_variant: str
    params: dict
    build: Callable[[dict], ScenarioParts]


def _abs_psf(level):
    """F = |x - b| for the constant surface b = level."""
    lower = Branch(
        f=lambda t, a, x, b: b - x,
        d_t=lambda t, a, x, b: 0.0 * x,
        d_a=lambda t, a, x, b: 0.0 * x,
        d_x=lambda t, a, x, b: -1.0 + 0.0 * x,
        d_xx=lambda t, a, x, b: 0.0 * x,
    )
    upper = Branch(
        f=lambda t, a, x, b: x - b,
        d_t=lambda t, a, x, b: 0.0 * x,
        d_a=lambda t, a, x, b: 0.0 * x,
        d_x=lambda t, a, x, b: 1.0 + 0.0 * x,
        d_xx=lambda t, a, x, b: 0.0 * x,
    )
    return PiecewiseSurfaceFunction(constant_surface(level), lower, upper)


def _quadratic_psf():
    return smooth_psf(
        f=lambda t, a, x, b: x * x,
        d_t=lambda t, a, x, b: 0.0 * x,
        d_a=lambda t, a, x, b: 0.0 * x,
        d_x=lambda t, a, x, b: 2.0 * x,
        d_xx=lambda t, a, x, b: 2.0 + 0.0 * x,
        surface=constant_surface(0.0),
    )


def _sgn(x):
    return np.where(np.asarray(x, float) > 0.0, 1.0, -1.0)


def _build_tanaka_bm(p):
    spec = SdeSpec(mu_x=p["mu"], sigma=p["sigma"], x0=p["x0"])
    psf = _abs_psf(p["level"])
    # mu*sgn is locally bounded off the level, a Lebesgue-null set in time
    gen = lambda t, a, x: p["mu"] * _sgn(x - p["level"])
    return ScenarioParts(spec=spec, psf=psf, level=p["level"], gen=gen,
                         variants=("tanaka", "ltc_diffusion", "surfaces_strong",
                                   "jump_ltc", "general"))


def _build_smooth_quadratic(p):
    spec = SdeSpec(mu_x=p["mu"], sigma=p["sigma"], x0=p["x0"])
    psf = _quadratic_psf()
    # the classical Ito generator of x^2
    gen = lambda t, a, x: p["mu"] * 2.0 * x + p["sigma"] ** 2 + 0.0 * x
    return ScenarioParts(spec=spec, psf=psf, level=0.0, gen=gen,
                         variants=("ltc_diffusion", "surfaces_strong",
                                   "jump_ltc", "smooth_fit", "general", "tanaka"))


def _build_peskir_diffusion(p):
    spec = SdeSpec(mu_x=p["mu"], sigma=p["sigma"], x0=p["x0"])
    psf = _abs_psf(0.0)
    # mu*sgn(x) is locally bounded off the curve, and P[X_{s-} = 0] = 0
    gen = lambda t, a, x: p["mu"] * _sgn(x)
    return ScenarioParts(spec=spec, psf=psf, level=0.0, gen=gen,
                         variants=("ltc_diffusion", "tanaka", "surfaces_strong",
                                   "jump_ltc", "general"))


def _build_glued_quadratic_jump(p):
    jump = p["jump"]
    spec = SdeSpec(
        mu_x=p["mu"], sigma=p["sigma"], lambda_x=1.0,
        mu_a=0.0, lambda_a=1.0,
        rate_y=p["rate"], jump_law_y=two_point(-jump, jump),
        a_jump_driver="y",
        x0=p["x0"], a0=0.0,
    )
    surface = Surface(lambda t, a: 1.0 + 0.5 * np.asarray(a, float), lipschitz=True)
    lower = Branch(
        f=lambda t, a, x, b: (x - b) ** 2 + (x - b),
        d_t=lambda t, a, x, b: 0.0 * x,
        d_a=lambda t, a, x, b: -0.5 * (2.0 * (x - b) + 1.0),
        d_x=lambda t, a, x, b: 2.0 * (x - b) + 1.0,
        d_xx=lambda t, a, x, b: 2.0 + 0.0 * x,
    )
    upper = Branch(
        f=lambda t, a, x, b: 2.0 * (x - b),
        d_t=lambda t, a, x, b: 0.0 * x,
        d_a=lambda t, a, x, b: -1.0 + 0.0 * x,
        d_x=lambda t, a, x, b: 2.0 + 0.0 * x,
        d_xx=lambda t, a, x, b: 0.0 * x,
    )
    psf = PiecewiseSurfaceFunction(surface, lower, upper)
    return ScenarioParts(spec=spec, psf=psf, level=0.0, gen=None,
                         variants=("jump_ltc", "surfaces_strong"))


def _build_smooth_fit_sqrt(p):
    spec = SdeSpec(
        mu_x=p["mu"], sigma=p["sigma"], lambda_x=1.0,
        mu_a=p["mu_a"], lambda_a=1.0,
        rate_y=p["rate_y"], jump_law_y=two_point(-p["jump"], p["jump"]),
        rate_z=p["rate_z"],
        jump_law_z=JumpLaw("exponential", (p["z_jump_mean"],)),
        x0=p["x0"], a0=p["a0"],
    )

    def b_a(a):
        a = np.asarray(a, float)
        return 0.5 / np.sqrt(np.maximum(np.abs(a), 1e-300))

    surface = SURFACES["sqrt"]  # not Lipschitz at a = 0
    zero = lambda t, a, x, b: 0.0 * x
    lower = Branch(f=zero, d_t=zero, d_a=zero, d_x=zero, d_xx=zero)
    upper = Branch(
        f=lambda t, a, x, b: (x - b) ** 2,
        d_t=zero,
        d_a=lambda t, a, x, b: -2.0 * (x - b) * b_a(a),
        d_x=lambda t, a, x, b: 2.0 * (x - b),
        d_xx=lambda t, a, x, b: 2.0 + 0.0 * x,
    )
    psf = PiecewiseSurfaceFunction(surface, lower, upper)
    return ScenarioParts(spec=spec, psf=psf, level=0.0, gen=None,
                         variants=("smooth_fit",))


def _linear_psf(ca):
    """F = x + ca a + 0.3 t, smooth across the constant surface b = -5."""
    return smooth_psf(
        f=lambda t, a, x, b: x + ca * a + 0.3 * t + 0.0 * x,
        d_t=lambda t, a, x, b: 0.3 + 0.0 * x,
        d_a=lambda t, a, x, b: ca + 0.0 * x,
        d_x=lambda t, a, x, b: 1.0 + 0.0 * x,
        d_xx=lambda t, a, x, b: 0.0 * x,
        surface=constant_surface(-5.0),
    )


def _build_exact_drift(p):
    spec = SdeSpec(mu_x=p["mu_x"], sigma=0.0, mu_a=p["mu_a"],
                   x0=p["x0"], a0=p["a0"])
    # no a-dependence: the curves formula carries no F_a term
    psf = _linear_psf(0.0)
    h_const = 0.3 + p["mu_x"] * 1.0
    gen = lambda t, a, x: h_const + 0.0 * np.asarray(x, float)
    return ScenarioParts(spec=spec, psf=psf, level=-5.0, gen=gen,
                         variants=("tanaka", "ltc_diffusion", "surfaces_strong",
                                   "jump_ltc", "smooth_fit", "general"))


def _build_exact_drift_jump(p):
    spec = SdeSpec(
        mu_x=p["mu_x"], sigma=0.0, lambda_x=1.0,
        mu_a=p["mu_a"], lambda_a=0.5,
        rate_y=p["rate"], jump_law_y=two_point(0.3, 0.5),
        a_jump_driver="y",
        x0=p["x0"], a0=p["a0"],
    )
    psf = _linear_psf(0.2)
    h_const = 0.3 + p["mu_x"] * 1.0 + p["mu_a"] * 0.2
    # jumps enter the jump sum only
    gen = lambda t, a, x: h_const + 0.0 * np.asarray(x, float)
    return ScenarioParts(spec=spec, psf=psf, level=-5.0, gen=gen,
                         variants=("tanaka", "surfaces_strong", "jump_ltc",
                                   "smooth_fit", "general"))


REGISTRY = {
    "tanaka_bm": Scenario(
        name="tanaka_bm",
        description="Brownian motion, F = |x|, level 0",
        formula="Tanaka's formula",
        default_variant="tanaka",
        params={"level": 0.0, "mu": 0.0, "sigma": 1.0, "x0": 0.0},
        build=_build_tanaka_bm,
    ),
    "smooth_quadratic": Scenario(
        name="smooth_quadratic",
        description="Brownian motion, globally smooth F = x^2",
        formula="classical Ito reduction",
        default_variant="ltc_diffusion",
        params={"mu": 0.0, "sigma": 1.0, "x0": 0.0},
        build=_build_smooth_quadratic,
    ),
    "peskir_diffusion": Scenario(
        name="peskir_diffusion",
        description="drifted Brownian motion, F = |x| glued at the zero curve",
        formula="diffusion local time on curves",
        default_variant="ltc_diffusion",
        params={"mu": 0.2, "sigma": 1.0, "x0": 0.0},
        build=_build_peskir_diffusion,
    ),
    "glued_quadratic_jump": Scenario(
        name="glued_quadratic_jump",
        description="jump diffusion over the Lipschitz surface b = 1 + a/2, "
                    "glued quadratic/linear branches",
        formula="jump-diffusion local time on surfaces",
        default_variant="jump_ltc",
        params={"mu": 0.0, "sigma": 1.0, "rate": 1.0, "jump": 0.5, "x0": 0.9},
        build=_build_glued_quadratic_jump,
    ),
    "smooth_fit_sqrt_surface": Scenario(
        name="smooth_fit_sqrt_surface",
        description="smooth fit over the non-Lipschitz surface sign(a) sqrt|a|, "
                    "A compound Poisson with drift",
        formula="extended Ito formula (smooth fit)",
        default_variant="smooth_fit",
        params={"mu": 0.0, "sigma": 1.0, "mu_a": 0.5, "rate_y": 1.0,
                "rate_z": 1.0, "jump": 0.5, "z_jump_mean": 0.3,
                "x0": 1.2, "a0": 1.0},
        build=_build_smooth_fit_sqrt,
    ),
    "exact_drift": Scenario(
        name="exact_drift",
        description="pure drift, linear F: every variant telescopes exactly",
        formula="degenerate exactness check",
        default_variant="ltc_diffusion",
        params={"mu_x": 1.0, "mu_a": 0.5, "x0": 0.0, "a0": 0.0},
        build=_build_exact_drift,
    ),
    "exact_drift_jump": Scenario(
        name="exact_drift_jump",
        description="drift plus compound Poisson jumps, linear F: exact on-grid",
        formula="degenerate exactness check",
        default_variant="jump_ltc",
        params={"mu_x": 1.0, "mu_a": 0.5, "rate": 2.0, "x0": 0.0, "a0": 0.0},
        build=_build_exact_drift_jump,
    ),
}


SURFACES = {
    "abs": Surface(lambda t, a: np.abs(np.asarray(a, float))),
    "quad": Surface(lambda t, a: np.asarray(a, float) ** 2),
    "sqrt": Surface(
        lambda t, a: np.sign(np.asarray(a, float)) * np.sqrt(np.abs(np.asarray(a, float)))),
}


def get_scenario(name):
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown scenario: {name!r}") from None


def build_parts(name, params=None):
    scen = get_scenario(name)
    merged = dict(scen.params)
    for key, value in (params or {}).items():
        if key not in merged:
            raise ConfigError(f"scenario {name!r} has no parameter {key!r}")
        merged[key] = float(value)
    return scen, scen.build(merged)


def evaluate_variant(parts, variant, bundle, eps=None, n=None, qv_mode="analytic"):
    """Dispatch a formula variant against a simulated bundle."""
    if variant not in parts.variants:
        raise IncompatibleScenarioError(
            f"variant {variant!r} is not compatible with this scenario "
            f"(supported: {', '.join(parts.variants)})")
    if variant == "tanaka":
        return verify_tanaka(bundle, parts.level, n=n, qv_mode=qv_mode)
    if variant == "ltc_diffusion":
        return verify_ltc_diffusion(parts.psf, bundle, eps=eps, qv_mode=qv_mode)
    if variant == "surfaces_strong":
        return verify_surfaces_strong(parts.psf, bundle, eps=eps, qv_mode=qv_mode)
    if variant == "jump_ltc":
        return verify_jump_ltc(parts.psf, bundle, n=n, qv_mode=qv_mode)
    if variant == "smooth_fit":
        return verify_smooth_fit(parts.psf, bundle, qv_mode=qv_mode)
    if variant == "general":
        if parts.gen is None:
            raise IncompatibleScenarioError(
                "scenario supplies no generator H for the general variant")
        return verify_general(parts.psf, parts.gen, bundle, n=n, qv_mode=qv_mode)
    raise ConfigError(f"unknown variant: {variant!r}")


def list_scenarios():
    """Stable listing of registry entries with parameter schemas."""
    return [
        {
            "name": s.name,
            "description": s.description,
            "formula": s.formula,
            "variant": s.default_variant,
            "params": dict(s.params),
        }
        for s in REGISTRY.values()
    ]
