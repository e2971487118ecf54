"""Pathwise integral evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsurf import (ConfigError, SdeSpec, continuous_qv_measure,
                    measure_integral, simulate_jump_diffusion,
                    stieltjes_integral, two_point)
from ltsurf.calculus import iter_jumps, local_time_time_integral


def _bundle(seed=3, sigma=0.5, rate=2.0):
    spec = SdeSpec(mu_x=0.1, sigma=sigma, lambda_x=1.0,
                   rate_y=rate, jump_law_y=two_point(-0.4, 0.6), x0=0.3)
    return simulate_jump_diffusion(spec, 1.0, 200, seed)


class TestStieltjes:
    def test_linear_exact(self):
        t = np.linspace(0, 1, 11)
        # int of 1 against g(t) = 2t is 2
        assert stieltjes_integral(np.ones_like(t), 2 * t) == pytest.approx(2.0)

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigError):
            stieltjes_integral([1.0, 2.0], [0.0, 1.0, 2.0])

    @given(st.integers(min_value=2, max_value=40), st.floats(-5, 5),
           st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_integrand(self, n, c1, c2):
        rng = np.random.default_rng(n)
        f, h, g = rng.normal(size=(3, n))
        lhs = stieltjes_integral(c1 * f + c2 * h, g)
        rhs = c1 * stieltjes_integral(f, g) + c2 * stieltjes_integral(h, g)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestQvMeasure:
    def test_analytic_constant_sigma(self):
        b = _bundle(sigma=0.5)
        qv = continuous_qv_measure(b, qv_mode="analytic")
        assert np.sum(qv) == pytest.approx(0.25 * 1.0)

    def test_realized_excludes_jumps(self):
        b = _bundle()
        qv = continuous_qv_measure(b, qv_mode="realized")
        np.testing.assert_array_equal(qv, np.square(b.diffusion_increments))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            continuous_qv_measure(_bundle(), qv_mode="exotic")


class TestJumpSum:
    def test_contexts_expose_left_limits(self):
        b = _bundle()
        for ctx in iter_jumps(b):
            assert ctx.x == pytest.approx(ctx.x_pre + ctx.dx)


class TestMeasureIntegral:
    def test_lebesgue_of_one_is_t(self):
        b = _bundle()
        val = measure_integral(np.ones_like(b.times), b.grid)
        assert val == pytest.approx(1.0)

    def test_constant_density_scales_each_step(self):
        # a constant density c is the integrand c * f against Lebesgue
        b = _bundle()
        val = measure_integral(2.0 * b.times, b.grid)
        assert val == np.sum(b.times[:-1] * 2.0 * b.grid.dts)
        assert val == pytest.approx(1.0, abs=0.01)  # 2 * int_0^1 t dt

    def test_misaligned_rejected(self):
        b = _bundle()
        with pytest.raises(ConfigError):
            measure_integral(b.times[1:], b.grid)


def test_local_time_time_integral_matches_stieltjes():
    values = np.array([0.0, 0.0, 0.5, 0.5, 1.25])
    f = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert local_time_time_integral(f, values) == pytest.approx(
        2.0 * 0.5 + 4.0 * 0.75)


@given(rows=st.integers(1, 40),
       steps=st.one_of(st.integers(1, 300), st.sampled_from([1000, 8192, 8193, 10000])),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_row_reductions_equal_one_path_reductions(rows, steps, seed):
    """A block's row sums and running sums are each path's own, bit for bit,
    on whole rows and on the [:, :-1] views the left-point sums take."""
    block = np.random.default_rng(seed).standard_normal((rows, steps + 1))
    for view in (block, block[:, :-1]):
        sums, running = np.sum(view, axis=-1), np.cumsum(view, axis=-1)
        for r in range(rows):
            path = view[r].copy()
            assert sums[r].tobytes() == np.sum(path).tobytes()
            assert running[r].tobytes() == np.cumsum(path).tobytes()
