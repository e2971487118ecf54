"""Glued functions and the formula verifiers."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltsurf import (IncompatibleScenarioError, SdeSpec, Surface, constant_surface,
                    local_time_tanaka_residual, simulate_jump_diffusion,
                    smooth_psf, two_point,
                    verify_general, verify_jump_ltc, verify_ltc_diffusion,
                    verify_smooth_fit, verify_surfaces_strong, verify_tanaka)
from ltsurf.calculus import JumpContext, iter_jumps, measure_integral
from ltsurf.formulas import (_VARIANTS, Branch, PiecewiseSurfaceFunction, _PathView, _Points,
                             eval_F, fx_jump)
from ltsurf.paths import PathBundle, build_grid
from ltsurf.scenarios import REGISTRY, build_parts, evaluate_variant


def _abs_psf():
    _, parts = build_parts("tanaka_bm")
    return parts.psf


def _linear_psf():
    return smooth_psf(
        f=lambda t, a, x, b: x + 0.0 * x,
        d_t=lambda t, a, x, b: 0.0 * x,
        d_a=lambda t, a, x, b: 0.0 * x,
        d_x=lambda t, a, x, b: 1.0 + 0.0 * x,
        d_xx=lambda t, a, x, b: 0.0 * x,
        surface=constant_surface(-5.0),
    )


def _validate_glue(psf, t_grid, a_grid):
    """The two branches agree on the surface, to 1e-9, on a (t, a) grid."""
    t, a = np.meshgrid(t_grid, a_grid, indexing="ij")
    b = psf.b(t, a)
    np.testing.assert_allclose(psf.lower.f(t, a, b, b), psf.upper.f(t, a, b, b),
                               rtol=0, atol=1e-9)


class TestPiecewise:
    def test_eval_f_branch_selection(self):
        psf = _abs_psf()  # F = |x|, lower branch -x owns x = 0
        assert eval_F(psf, 0.0, 0.0, 0.0) == 0.0
        assert eval_F(psf, 0.0, 0.0, -2.0) == 2.0
        assert eval_F(psf, 0.0, 0.0, 3.0) == 3.0

    @pytest.mark.parametrize("name", ["glued_quadratic_jump", "smooth_fit_sqrt_surface"])
    @given(points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-2.0, 2.0),
                                     st.floats(-4.0, 4.0)), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    # (x - b)**2 of these x differs in the last bit between pow and square
    @example(points=[(0.0, 0.0, -1.1838241715662081), (0.5, 1.0, 1.5603810380614256)])
    def test_point_equals_the_array_evaluation(self, name, points):
        psf = build_parts(name)[1].psf
        t, a, x = np.array(points).T
        batch = eval_F(psf, t, a, x)
        for k, point in enumerate(points):
            assert eval_F(psf, *point).tobytes() == batch[k:k + 1].tobytes()

    def test_fx_jump_examples(self):
        assert fx_jump(_abs_psf(), 0.0, 0.0) == 2.0  # |x|: 1 - (-1)
        assert fx_jump(_linear_psf(), 0.0, 0.0) == 0.0
        _, parts = build_parts("smooth_fit_sqrt_surface")
        assert fx_jump(parts.psf, 0.3, 0.7) == 0.0  # (x-b)^2 glued to 0
        # on the moving surface b = 1 + a/2: 2 - (2 (x - b) + 1) at x = b
        t, a = np.meshgrid(np.linspace(0, 1, 11), np.linspace(-2, 2, 21), indexing="ij")
        gap = fx_jump(build_parts("glued_quadratic_jump")[1].psf, t, a)
        assert gap.shape == t.shape and (gap == 1.0).all()

    def test_validate_glue_accepts_consistent_branches(self):
        _validate_glue(_abs_psf(), np.linspace(0, 1, 5), np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registry_functions_pass_validate_glue(self, name):
        _, parts = build_parts(name)
        _validate_glue(parts.psf, np.linspace(0, 1, 11), np.linspace(-2, 2, 21))


def _registry_parts():
    """Every registry scenario's parts, at its defaults and with every
    parameter moved by 0.25 (rates and sigma stay positive)."""
    for name in sorted(REGISTRY):
        yield f"{name}-defaults", build_parts(name)[1]
        shifted = {k: v + 0.25 for k, v in REGISTRY[name].params.items()}
        yield f"{name}-shifted", build_parts(name, shifted)[1]


_PARTS = dict(_registry_parts())


def _points_off_the_surface(psf, side, seed, size=50):
    """Random (t, a, x) with x at distance 0.05-1 below (side -1) or above (+1)
    the surface; a stays in [0.3, 2], away from the sqrt surface's kink."""
    rng = np.random.default_rng(seed)
    t, a = rng.uniform(0.1, 1.0, size), rng.uniform(0.3, 2.0, size)
    return t, a, psf.b(t, a) + side * rng.uniform(0.05, 1.0, size)


def _moving_glue():
    """F = (x - b)^+ across the moving surface b(t, a) = t: the branch 0
    below it, x - b above it, glued continuously."""
    def zero(t, a, x, b):
        return 0.0 * x

    upper = Branch(f=lambda t, a, x, b: x - b, d_t=lambda t, a, x, b: -1.0 + 0.0 * x,
                   d_a=zero, d_x=lambda t, a, x, b: 1.0 + 0.0 * x, d_xx=zero)
    surface = Surface(lambda t, a: np.asarray(t, float) + 0.0 * np.asarray(a, float),
                      lipschitz=True)
    return PiecewiseSurfaceFunction(surface, Branch(zero, zero, zero, zero, zero), upper)


class TestMovingSurface:
    """The surface's time argument reaches the formulas: a surface frozen at
    t = 0 would put x = 0.5 above it at every t."""

    def test_eval_f_takes_the_branch_below_the_surface_at_t(self):
        psf = _moving_glue()
        assert eval_F(psf, 1.0, 0.0, 0.5).tolist() == [0.0]  # b(1, 0) = 1
        assert eval_F(psf, 0.0, 0.0, 0.5).tolist() == [0.5]  # b(0, 0) = 0

    def test_lhs_follows_the_surface(self):
        # X stays at 0.5 while the surface rises through it, so F falls from 0.5 to 0
        bundle = simulate_jump_diffusion(SdeSpec(x0=0.5), 1.0, 100, 0)
        rep = verify_jump_ltc(_moving_glue(), bundle)
        assert rep.lhs == -0.5
        assert abs(rep.residual) < 1e-12


class TestRegistryDerivatives:
    H = 1e-5

    @pytest.mark.parametrize("side", [-1, 1], ids=["lower", "upper"])
    @pytest.mark.parametrize("key", sorted(_PARTS))
    def test_branch_derivatives_match_central_differences(self, key, side):
        psf = _PARTS[key].psf
        branch = psf.lower if side < 0 else psf.upper
        t, a, x = _points_off_the_surface(psf, side, seed=len(key))
        h, b = self.H, psf.b(t, a)

        def f(t, a, x):  # the branch with the surface at the shifted point
            return branch.f(t, a, x, psf.b(t, a))

        central = {
            "d_t": (f(t + h, a, x) - f(t - h, a, x)) / (2 * h),
            "d_a": (f(t, a + h, x) - f(t, a - h, x)) / (2 * h),
            "d_x": (f(t, a, x + h) - f(t, a, x - h)) / (2 * h),
            "d_xx": (f(t, a, x + h) - 2.0 * f(t, a, x) + f(t, a, x - h)) / h ** 2,
        }
        for attr, fd in central.items():
            tol = 1e-3 if attr == "d_xx" else 1e-4
            declared = np.broadcast_to(getattr(branch, attr)(t, a, x, b), t.shape)
            np.testing.assert_allclose(declared, fd, rtol=0, atol=tol, err_msg=attr)

    @pytest.mark.parametrize("side", [-1, 1], ids=["lower", "upper"])
    @pytest.mark.parametrize("key", sorted(k for k, p in _PARTS.items() if p.gen))
    def test_generator_is_the_ito_drift_off_the_surface(self, key, side):
        parts = _PARTS[key]
        psf, spec = parts.psf, parts.spec
        t, a, x = _points_off_the_surface(psf, side, seed=len(key))

        def d(attr):
            return _Points(psf, t, a, x).value(attr)

        expected = (d("d_t") + spec.mu_x * d("d_x") + spec.mu_a * d("d_a")
                    + 0.5 * spec.sigma ** 2 * d("d_xx"))
        h = np.broadcast_to(parts.gen(t, a, x), t.shape)
        np.testing.assert_allclose(h, expected, rtol=1e-12, atol=1e-12)


class TestVerifyTanaka:
    def test_drift_with_one_jump_is_exact(self):
        spec = SdeSpec(mu_x=1.0, lambda_x=1.0, rate_y=1.0,
                       jump_law_y=two_point(0.5, 0.5), x0=0.0)
        b = simulate_jump_diffusion(spec, 1.0, 100, 12)
        rep = verify_tanaka(b, -5.0)  # level below the path: sgn constant
        assert abs(rep.residual) < 1e-12
        assert rep.rhs == sum(rep.terms.values())

    def test_report_structure(self):
        b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 500, 1)
        rep = verify_tanaka(b, 0.0)
        assert set(rep.terms) == {"sgn_stochastic_integral", "jump_correction",
                                  "local_time"}
        assert rep.residual == rep.lhs - rep.rhs

    @pytest.mark.parametrize("spec", [
        SdeSpec(sigma=1.0),
        SdeSpec(mu_x=0.3, sigma=0.5, x0=0.1, mu_a=0.2),
        SdeSpec(sigma=1.0, lambda_x=-1.0),
        SdeSpec(sigma=1.0, lambda_x=1.0, rate_y=5.0, jump_law_y=two_point(-0.2, 0.3)),
    ], ids=["brownian", "drift", "negative_lambda", "jumps"])
    def test_matches_the_full_formula_bit_for_bit(self, spec):
        # the jump parts written out at every step, whether or not X jumps
        b = simulate_jump_diffusion(spec, 1.0, 2000, 3)
        u, u_pre = b.x_path - 0.1, b.x_pre - 0.1
        sgn, sgn_pre = np.where(u > 0.0, 1.0, -1.0), np.where(u_pre > 0.0, 1.0, -1.0)
        cont, jump = sgn[:-1] * b.diffusion_increments, sgn_pre[1:] * b.k_jump_increments
        corr = (np.abs(u[1:]) - np.abs(u_pre[1:])) - jump
        rep = verify_tanaka(b, 0.1, n=100)
        for name, expected in (("sgn_stochastic_integral", np.sum(cont) + np.sum(jump)),
                               ("jump_correction", np.sum(corr))):
            assert repr(rep.terms[name]) == repr(float(expected)), name
        inc = (np.abs(u[1:]) - np.abs(u[:-1])) - (cont + jump) - corr
        expected = np.cumsum(np.concatenate(([0.0], inc)))
        assert local_time_tanaka_residual(b, 0.1).values.tobytes() == expected.tobytes()


class TestVerifyLtcDiffusion:
    def test_rejects_jump_bundle(self):
        spec = SdeSpec(sigma=1.0, lambda_x=1.0, rate_y=5.0,
                       jump_law_y=two_point(-0.1, 0.1))
        b = simulate_jump_diffusion(spec, 1.0, 100, 3)
        with pytest.raises(IncompatibleScenarioError):
            verify_ltc_diffusion(_abs_psf(), b)

    def test_matches_tanaka_within_estimator_tolerance(self):
        diffs = []
        for seed in range(40):
            b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 10000, seed)
            r1 = verify_tanaka(b, 0.0)
            r2 = verify_ltc_diffusion(_abs_psf(), b, eps=0.01)
            diffs.append(abs(r1.residual - r2.residual))
        assert np.median(diffs) < 0.05


class TestVerifyJumpLtc:
    def test_rejects_non_lipschitz_surface(self):
        _, parts = build_parts("smooth_fit_sqrt_surface")
        b = simulate_jump_diffusion(parts.spec, 1.0, 100, 3)
        with pytest.raises(IncompatibleScenarioError):
            verify_jump_ltc(parts.psf, b)

    def test_pure_drift_and_jumps_exact_with_zero_local_time(self):
        _, parts = build_parts("exact_drift_jump")
        b = simulate_jump_diffusion(parts.spec, 1.0, 200, 8)
        rep = verify_jump_ltc(parts.psf, b)
        assert rep.terms["local_time"] == 0.0
        assert abs(rep.residual) < 1e-12


class TestVerifySmoothFit:
    def test_rejects_nonzero_derivative_gap(self):
        b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 100, 3)
        with pytest.raises(IncompatibleScenarioError):
            verify_smooth_fit(_abs_psf(), b)

    def test_smooth_quadratic_matches_classical_ito_exactly(self):
        _, parts = build_parts("smooth_quadratic")
        b = simulate_jump_diffusion(parts.spec, 1.0, 2000, 5)
        r_fit = verify_smooth_fit(parts.psf, b)
        r_ltc = verify_ltc_diffusion(parts.psf, b)
        assert r_fit.residual == pytest.approx(r_ltc.residual, abs=1e-12)


class TestVerifyGeneral:
    def test_constant_density_measure_with_linear_f_is_exact(self):
        spec = SdeSpec(mu_x=1.0, x0=0.0)
        b = simulate_jump_diffusion(spec, 1.0, 100, 0)
        rep = verify_general(_linear_psf(), lambda t, a, x: 1.0 + 0.0 * np.asarray(t, float), b)
        assert abs(rep.residual) < 1e-14

    def test_h_is_read_at_step_start_after_a_jump(self):
        # H = x integrates the grid values of X, post-jump values included
        _, parts = build_parts("glued_quadratic_jump")
        b = simulate_jump_diffusion(parts.spec, 1.0, 100, 3)
        assert b.jump_indices.size and (b.x_pre != b.x_path).any()
        rep = verify_general(parts.psf, lambda t, a, x: x, b)
        expected = measure_integral(b.x_path, b.grid)
        assert repr(rep.terms["h_dlambda"]) == repr(float(expected))

    def test_tanaka_special_case(self):
        _, parts = build_parts("tanaka_bm")
        for seed in range(30):
            b = simulate_jump_diffusion(parts.spec, 1.0, 10000, seed)
            r1 = verify_tanaka(b, 0.0)
            r2 = verify_general(parts.psf, parts.gen, b)
            # H = 0 for mu = 0, same mollifier local time: identical residuals
            assert r1.residual == r2.residual, seed


class TestSurfacesStrong:
    def test_smooth_f_collapses_to_plain_derivatives(self):
        _, parts = build_parts("smooth_quadratic")
        b = simulate_jump_diffusion(parts.spec, 1.0, 2000, 9)
        r_strong = verify_surfaces_strong(parts.psf, b)
        r_ltc = verify_ltc_diffusion(parts.psf, b)
        assert r_strong.residual == pytest.approx(r_ltc.residual, abs=1e-10)

    def test_pure_jump_exact(self):
        _, parts = build_parts("exact_drift_jump")
        b = simulate_jump_diffusion(parts.spec, 1.0, 300, 14)
        rep = verify_surfaces_strong(parts.psf, b)
        assert abs(rep.residual) < 1e-12


@given(mu_x=st.floats(-2.0, 2.0), mu_a=st.floats(-2.0, 2.0),
       rate=st.floats(0.0, 10.0), lo=st.floats(-1.0, 1.0), hi=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1), qv=st.sampled_from(["analytic", "realized"]))
@settings(max_examples=40, deadline=None)
# integer jumps land X exactly on the surface b = -5 and keep it there
@example(mu_x=0.0, mu_a=0.0, rate=2.0, lo=-1.0, hi=-1.0, seed=342, qv="analytic")
def test_degenerate_scenarios_exact_over_random_inputs(mu_x, mu_a, rate, lo, hi,
                                                       seed, qv):
    """exact_drift and exact_drift_jump: sigma = 0 and a linear F, so every
    compatible variant closes to rounding error, jumps or not."""
    cases = [("exact_drift", {"mu_x": mu_x, "mu_a": mu_a}, None),
             ("exact_drift_jump", {"mu_x": mu_x, "mu_a": mu_a, "rate": rate},
              two_point(lo, hi))]
    for name, params, law in cases:
        _, parts = build_parts(name, params)
        if law is not None:
            parts.spec = replace(parts.spec, jump_law_y=law)
        b = simulate_jump_diffusion(parts.spec, 1.0, 50, seed)
        # Tanaka's formula at the level is exact on a finite-variation path
        # only while the path stays off the level and the mollifier window
        # (width 1/n <= 1) above it
        clear = min(b.x_path.min(), b.x_pre.min()) > parts.level + 1.0
        for variant in parts.variants:
            if variant == "tanaka" and not clear:
                continue
            rep = evaluate_variant(parts, variant, b, qv_mode=qv)
            assert abs(rep.residual) <= 1e-10, (name, variant, rep)


def test_variant_dispatch_rejects_unsupported_pairs():
    _, parts = build_parts("glued_quadratic_jump")
    with pytest.raises(IncompatibleScenarioError):
        evaluate_variant(parts, "ltc_diffusion", None)


# Each jump term's summand at one rank: d(attr, averaged) is the derivative
# at the jumps' left limits, df is F after minus F before.
_SUMMANDS = {
    ("surfaces_strong", "avg_fa_da_jumps"): lambda d, j, df, spec: d("d_a", True) * j.da,
    ("surfaces_strong", "avg_fx_dx_jumps"): lambda d, j, df, spec: d("d_x", True) * j.dx,
    ("surfaces_strong", "jump_compensation"):
        lambda d, j, df, spec: (df - d("d_a", True) * j.da) - d("d_x", True) * j.dx,
    ("jump_ltc", "jump_sum"): lambda d, j, df, spec: df,
    ("smooth_fit", "lambda_fx_dY"): lambda d, j, df, spec: spec.lambda_x * d("d_x") * j.dy,
    ("smooth_fit", "jump_compensation"): lambda d, j, df, spec: df - d("d_x") * j.dx,
    ("general", "jump_compensation"): lambda d, j, df, spec: df,
}


def _branch_value(psf, attr, averaged, t, a, x):
    """attr of the branch that owns each point, written out with np.where:
    the lower one on x <= b; averaged, the mean with the limit from above."""
    b = psf.b(t, a)
    lower, upper = (np.asarray(getattr(br, attr)(t, a, x, b), float) for br in (psf.lower, psf.upper))
    below = np.where(x <= b, lower, upper)
    return 0.5 * (np.where(x >= b, upper, lower) + below) if averaged else below


def _ordered_sum(values):
    """Left-to-right float sum from 0.0, one value at a time."""
    total = 0.0
    for v in values:
        total += v
    return total


def _rank_by_rank(psf, spec, ctx, summand):
    """A jump term summed with _ordered_sum over one rank column at a time."""
    def at_rank(rank):
        j = JumpContext(*(v[..., rank] for v in ctx))
        pre = np.atleast_1d(j.t, j.a_pre, j.x_pre)
        df = eval_F(psf, j.t, j.a, j.x) - eval_F(psf, j.t, j.a_pre, j.x_pre)
        return summand(lambda attr, averaged=False: _branch_value(psf, attr, averaged, *pre),
                       j, df, spec)
    return _ordered_sum(at_rank(rank) for rank in range(ctx.t.shape[-1]))


def _jump_bundle(spec, n_steps, rows, k, seed):
    """A bundle of `rows` paths (one 1-D path for rows 0) with k jumps each at
    random times; Y and Z sizes, and the normals, drawn from the seed."""
    rng = np.random.default_rng(seed)
    head = (rows,) if rows else ()
    grid = build_grid(1.0, n_steps, rng.uniform(0.01, 1.0, head + (k,)))
    db = rng.standard_normal(head + (grid.dts.shape[-1],)) * grid.sqrt_dts

    def train(sizes):
        if not k:
            return grid.zero_steps
        steps = np.zeros(grid.dts.shape)
        np.put_along_axis(steps, grid.jump_indices - 1, rng.choice(sizes, head + (k,)), axis=-1)
        return steps

    return PathBundle(grid, spec, db, train([-0.5, 0.0, 0.5]), train([0.0, 0.3, 0.7]))


@pytest.mark.parametrize("name", ["glued_quadratic_jump", "smooth_fit_sqrt_surface",
                                  "exact_drift_jump"])
@given(k=st.integers(0, 6), rows=st.integers(0, 4), n_steps=st.sampled_from([5, 20]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
# a row whose only jump has a Y size of 0.0 under a negative F_a: its summand
# is -0.0, which 0.0 + -0.0 turns into +0.0
@example(k=1, rows=3, n_steps=5, seed=1)
def test_jump_terms_equal_their_rank_by_rank_sums(name, k, rows, n_steps, seed):
    """Each jump term over a (P, k) or (k,) context adds its rank columns
    exactly as summing one column of same-rank jumps at a time does, and is
    the float 0.0 without jumps."""
    parts = build_parts(name)[1]
    bundle = _jump_bundle(parts.spec, n_steps, rows, k, seed)
    ctx = iter_jumps(bundle)
    assert ctx.t.shape == ((rows,) if rows else ()) + (k,)
    view = _PathView(parts.psf, bundle, "analytic", eps=0.3, n=7)
    for variant in parts.variants:
        for term, build in _VARIANTS.get(variant, ()):
            if (variant, term) not in _SUMMANDS:
                continue
            got = build(view)
            expected = _rank_by_rank(parts.psf, parts.spec, ctx, _SUMMANDS[variant, term])
            if not k:
                assert type(got) is float and repr(got) == repr(expected) == "0.0"
                continue
            expected = np.asarray(expected, float).reshape(np.shape(got))
            assert np.asarray(got, float).tobytes() == expected.tobytes(), (variant, term)
