"""ltsurf: simulate jump-diffusion semimartingales against a moving surface,
estimate local time three independent ways, and verify change-of-variables
formulas term by term on each simulated path."""

# first, so that modules imported below can read it
__version__ = "0.1.0"

from .calculus import (continuous_qv_measure, left_point_sum,
                       local_time_time_integral, measure_integral)
from .errors import (ConfigError, IncompatibleScenarioError, LtsurfError,
                     NumericalAbort)
from .formulas import (Branch, FormulaReport, PiecewiseSurfaceFunction,
                       coupled_eps, coupled_mollifier_n, smooth_psf,
                       verify_general, verify_jump_ltc, verify_ltc_diffusion,
                       verify_smooth_fit, verify_surfaces_strong,
                       verify_tanaka)
from .harness import (EnsembleSummary, ScenarioConfig, compare_estimators,
                      convergence_study, emit_bundles, envelope_table,
                      run_scenario)
from .localtime import (LocalTimeSeries, local_time_mollifier,
                        local_time_occupation, local_time_tanaka_residual)
from .paths import (JumpLaw, PathBundle, SdeSpec, TimeGrid,
                    build_grid, simulate_brownian, simulate_compound_poisson,
                    simulate_jump_diffusion, two_point)
from .scenarios import (REGISTRY, SURFACES, build_parts, evaluate_variant,
                        list_scenarios)
from .surfaces import Surface, constant_surface, moreau_envelope
