"""Local-time estimators and the occupation-time identity."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsurf import (ConfigError, SdeSpec, constant_surface,
                    continuous_qv_measure, local_time_mollifier,
                    local_time_occupation, local_time_tanaka_residual,
                    simulate_jump_diffusion, two_point)
from ltsurf.paths import draw_paths
from occupation import occupation_formula_check


def _brownian_bundle(seed=5, n_steps=4000):
    return simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, n_steps, seed)


def _drift_bundle(mu=1.0, x0=-0.5, n_steps=1000):
    return simulate_jump_diffusion(SdeSpec(mu_x=mu, x0=x0), 1.0, n_steps, 0)


def _reference_kernel(z):
    """The bump 6 z (1 - z) on [0, 1], 0 elsewhere."""
    return np.where((z >= 0.0) & (z <= 1.0), 6.0 * z * (1.0 - z), 0.0)


def _estimator_kernel(z):
    """The mollifier's kernel at each z, read off the estimator itself: with
    n = 1, X - b = z exactly (X = 0, b = -z) and a unit analytic QV per step,
    a step's increment is its kernel value.  Also the hits it evaluated."""
    z = np.asarray(z, dtype=float)
    points = z.size + 1
    bundle = SimpleNamespace(x_pre=np.zeros(points), times=np.arange(float(points)),
                             a_pre=np.zeros(points), spec=SimpleNamespace(sigma=1.0),
                             grid=SimpleNamespace(dts=np.ones(z.size)))
    surface = SimpleNamespace(b=lambda t, a: -np.append(z, 0.0))
    lt = local_time_mollifier(bundle, surface, 1)
    kernel = np.zeros(z.size)
    kernel[lt.hits] = lt.increments
    return kernel, lt.hits


class TestKernel:
    def test_unit_mass_closed_form(self):
        z = np.linspace(0, 1, 100001)
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        kernel, hits = _estimator_kernel(z)
        assert hits.size == z.size
        assert trapezoid(kernel, z) == pytest.approx(1.0, abs=1e-8)

    def test_support_and_sign(self):
        z = np.linspace(-1, 2, 301)
        kernel, hits = _estimator_kernel(z)
        assert np.all(kernel >= 0)
        assert np.all(kernel[(z < 0) | (z > 1)] == 0)
        assert hits.tolist() == np.flatnonzero((z >= 0) & (z <= 1)).tolist()
        assert kernel.tobytes() == _reference_kernel(z).tobytes()


class TestOccupation:
    def test_zero_qv_gives_zero(self):
        # X_s = s crosses the level but has no continuous quadratic variation
        b = _drift_bundle(mu=1.0, x0=0.0)
        lt = local_time_occupation(b, 0.5, eps=0.01)
        assert np.all(lt.values == 0.0)

    def test_path_away_from_level_gives_zero(self):
        b = _brownian_bundle()
        level = float(b.x_path.min()) - 1.0
        lt = local_time_occupation(b, level, eps=0.5)
        assert np.all(lt.values == 0.0)

    def test_nondecreasing_and_starts_at_zero(self):
        b = _brownian_bundle()
        for side in ("right", "symmetric"):
            lt = local_time_occupation(b, 0.0, eps=0.05, side=side)
            assert lt.values[0] == 0.0
            assert np.all(np.diff(lt.values) >= 0)

    def test_support_property(self):
        b = _brownian_bundle()
        eps = 0.05
        lt = local_time_occupation(b, 0.0, eps=eps)
        inc = np.diff(lt.values)
        far = np.abs(b.x_pre[:-1]) > eps
        assert np.all(inc[far] == 0.0)

    def test_bad_args(self):
        b = _brownian_bundle(n_steps=10)
        with pytest.raises(ConfigError):
            local_time_occupation(b, 0.0, eps=0.0)
        with pytest.raises(ConfigError):
            local_time_occupation(b, 0.0, eps=0.1, side="left")


class TestMollifier:
    def test_pure_drift_plus_jumps_gives_zero(self):
        spec = SdeSpec(mu_x=1.0, lambda_x=1.0, rate_y=3.0,
                       jump_law_y=two_point(-0.5, 0.5), x0=-0.5)
        b = simulate_jump_diffusion(spec, 1.0, 500, 2)
        lt = local_time_mollifier(b, 0.0, n=10)
        assert np.all(lt.values == 0.0)

    def test_agrees_with_occupation_within_ten_percent(self):
        # per-path median over an ensemble, n = 100 vs eps = 1/n
        diffs = []
        for seed in range(60):
            b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 10000, seed)
            mol = local_time_mollifier(b, 0.0, n=100).final
            occ = local_time_occupation(b, 0.0, eps=0.01).final
            denom = max(occ, 1e-12)
            diffs.append(abs(mol - occ) / denom)
        assert np.median(diffs) < 0.10

    def test_surface_argument(self):
        b = _brownian_bundle()
        via_level = local_time_mollifier(b, 0.0, n=50).values
        via_surface = local_time_mollifier(b, constant_surface(0.0), n=50).values
        np.testing.assert_allclose(via_level, via_surface)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           rate=st.sampled_from([0.0, 4.0]), qv=st.sampled_from(["analytic", "realized"]),
           offsets=st.lists(st.floats(-0.5, 1.5), min_size=100, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_window_only_kernel_matches_full_kernel(self, seed, n, rate, qv, offsets):
        spec = SdeSpec(sigma=0.3, lambda_x=1.0, rate_y=rate,
                       jump_law_y=two_point(-0.2, 0.2) if rate else None)
        b = simulate_jump_diffusion(spec, 1.0, 100, seed)
        # X - b is offsets / n at the left limits: exactly 1/n at step 0,
        # where x_pre = x0 = 0, and exactly 0 wherever the offset is 0
        offsets = np.resize(offsets, b.x_pre.size)
        offsets[:2] = (1.0, 0.0)
        target = b.x_pre - offsets / n
        surface = SimpleNamespace(b=lambda t, a: target)
        u = b.x_pre[:-1] - target[:-1]
        assert u[0] == 1.0 / n and u[1] == 0.0
        lt = local_time_mollifier(b, surface, n, qv_mode=qv)
        # the kernel is evaluated at the window steps only, the edges included
        z = n * u
        assert lt.hits.tolist() == np.flatnonzero((z >= 0.0) & (z <= 1.0)).tolist()
        inc = n * _reference_kernel(z) * continuous_qv_measure(b, qv)
        assert lt.values.tobytes() == np.cumsum(np.concatenate(([0.0], inc))).tobytes()

    def test_n_validation(self):
        with pytest.raises(ConfigError):
            local_time_mollifier(_brownian_bundle(n_steps=10), 0.0, n=0)


_SPECS = {"brownian": SdeSpec(sigma=1.0),
          "drift_jumps": SdeSpec(mu_x=0.3, sigma=0.7, lambda_x=1.0, rate_y=2.0,
                                 jump_law_y=two_point(-0.3, 0.2))}
_WIDTH = 0.05  # the window: 1/n of the mollifier, eps of the occupation estimator


def _layout_bundle(spec, layout):
    """One 1-D path, a one-row block, or a block of rows sharing a step and
    a jump count."""
    if layout == "path":
        return simulate_jump_diffusion(spec, 1.0, 4000, 5)
    if layout == "row":
        return simulate_jump_diffusion(spec, 1.0, 4000, draw_paths(spec, 1.0, 4000, [5]),
                                       np.arange(1))
    draws = draw_paths(spec, 1.0, 400, range(60))
    # the largest group, the one of the lowest seed among equals
    rows = max(draws.blocks(60), key=lambda rows: (rows.size, -rows[0]))
    return simulate_jump_diffusion(spec, 1.0, 400, draws, rows[:5])


def _target(bundle, layout, kind):
    """A level or a surface that some rows of a block meet in the window
    and one row never does."""
    if layout != "block":
        return (0.0 if kind == "level"
                else SimpleNamespace(b=lambda t, a: 0.1 * t + 0.0 * a))
    x = bundle.x_pre
    if kind == "level":
        # the row that climbs highest meets it at its top, the lowest never
        top = x[:, :-1].max(axis=-1)
        assert top.min() < top.max() - 1.5 * _WIDTH
        return top.max() - 0.5 * _WIDTH
    # X - b is a random multiple of the width, 0.5 at step 0 (so each row
    # has a hit at a step below its row index), and -1 on the whole first row
    target = x - _WIDTH * np.random.default_rng(3).uniform(-1.5, 2.5, x.shape)
    target[:, 0] = x[:, 0] - 0.5 * _WIDTH
    target[0] = x[0] + 1.0
    return SimpleNamespace(b=lambda t, a: target)


def _dense_series(bundle, target, estimator, qv_mode):
    """The series as a dense construction builds it: an increment at every
    step, +0.0 outside the window, then each row's running sum from 0."""
    b = target if np.isscalar(target) else np.asarray(target.b(bundle.times, bundle.a_pre))
    u = (bundle.x_pre - b)[..., :-1]
    drift = bundle.spec.mu_x * bundle.grid.dts
    qv = (np.square(bundle.spec.sigma) * bundle.grid.dts if qv_mode == "analytic"
          else np.square(drift + bundle.m_increments))
    if estimator == "mollifier":
        n = 1.0 / _WIDTH
        z = n * u
        inc = np.where((z >= 0.0) & (z <= 1.0), n * _reference_kernel(z) * qv, 0.0)
    elif estimator == "right":
        inc = (1.0 / _WIDTH) * np.where((u >= 0.0) & (u < _WIDTH), qv, 0.0)
    else:
        inc = (1.0 / (2.0 * _WIDTH)) * np.where((u > -_WIDTH) & (u < _WIDTH), qv, 0.0)
    values = np.concatenate((np.zeros(u.shape[:-1] + (1,)), inc), axis=-1)
    return np.cumsum(values, axis=-1)


class TestHitsOnlySeries:
    @pytest.mark.parametrize("estimator", ["mollifier", "right", "symmetric"])
    @pytest.mark.parametrize("qv", ["analytic", "realized"])
    @pytest.mark.parametrize("kind", ["level", "surface"])
    @pytest.mark.parametrize("layout", ["path", "row", "block"])
    @pytest.mark.parametrize("spec", sorted(_SPECS))
    def test_matches_the_dense_series_bit_for_bit(self, spec, layout, kind, qv, estimator):
        bundle = _layout_bundle(_SPECS[spec], layout)
        target = _target(bundle, layout, kind)
        if estimator == "mollifier":
            lt = local_time_mollifier(bundle, target, round(1.0 / _WIDTH), qv_mode=qv)
        else:
            lt = local_time_occupation(bundle, target, _WIDTH, side=estimator, qv_mode=qv)
        expected = _dense_series(bundle, target, estimator, qv)
        last = expected[..., -1]
        if layout == "block":
            assert np.any(last == 0.0) and np.any(last > 0.0)
        else:
            # enough hits that a pairwise sum would round differently
            assert lt.increments.size > 16
        final = lt.final
        assert "values" not in vars(lt)  # final reads the hits only
        assert np.shape(final) == last.shape
        assert np.asarray(final).tobytes() == last.tobytes()
        assert lt.values.shape == expected.shape
        assert lt.values.tobytes() == expected.tobytes()


class TestTanakaResidual:
    def test_deterministic_crossing_error_bounded_by_grid(self):
        # X_s = s - 0.5 crossing level 0: the rearranged series picks up a
        # single O(dt) term at the crossing step and is zero elsewhere
        b = _drift_bundle(mu=1.0, x0=-0.5, n_steps=1000)
        dt = 1.0 / 1000
        lt = local_time_tanaka_residual(b, 0.0)
        assert lt.final <= 2 * dt + 1e-15
        # one genuine increment at the crossing; everything else is fp dust
        inc = np.diff(lt.values)
        assert np.count_nonzero(np.abs(inc) > 1e-12) <= 1

    def test_level_far_below_path_gives_zero(self):
        b = _brownian_bundle()
        lt = local_time_tanaka_residual(b, float(b.x_path.min()) - 1.0)
        np.testing.assert_allclose(lt.values, 0.0, atol=1e-12)

    def test_jump_only_path_gives_zero(self):
        spec = SdeSpec(mu_x=1.0, lambda_x=1.0, rate_y=3.0,
                       jump_law_y=two_point(0.4, 0.7), x0=0.5)
        b = simulate_jump_diffusion(spec, 1.0, 300, 4)
        lt = local_time_tanaka_residual(b, 0.0)  # path stays above 0
        np.testing.assert_allclose(lt.values, 0.0, atol=1e-12)


class TestOccupationFormula:
    def test_g_zero_trivial(self):
        b = _brownian_bundle()
        lhs, rhs, rel = occupation_formula_check(
            b, lambda x: np.zeros_like(x), np.linspace(-3, 3, 50), eps=0.05)
        assert lhs == 0.0 and rhs == 0.0

    def test_warning_when_grid_misses_path_range(self):
        b = _brownian_bundle()
        with pytest.warns(UserWarning):
            occupation_formula_check(b, lambda x: np.ones_like(x),
                                     np.linspace(-0.01, 0.01, 5), eps=0.05)

    def test_gaussian_bump_cross_consistency(self):
        g = lambda x: np.exp(-0.5 * (x / 0.3) ** 2)
        rels = []
        for seed in range(40):
            b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 10000, seed)
            lo, hi = b.x_path.min() - 0.05, b.x_path.max() + 0.05
            lhs, rhs, rel = occupation_formula_check(
                b, g, np.linspace(lo, hi, 200), eps=0.01)
            rels.append(rel)
        assert np.mean(rels) < 0.05
