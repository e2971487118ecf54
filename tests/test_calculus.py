"""Pathwise integral evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsurf import (ConfigError, LocalTimeSeries, SdeSpec, continuous_qv_measure,
                    left_point_sum, measure_integral, simulate_jump_diffusion,
                    two_point)
from ltsurf.calculus import JumpContext, iter_jumps, local_time_time_integral
from ltsurf.paths import draw_paths


def _bundle(seed=3, sigma=0.5, rate=2.0):
    spec = SdeSpec(mu_x=0.1, sigma=sigma, lambda_x=1.0,
                   rate_y=rate, jump_law_y=two_point(-0.4, 0.6), x0=0.3)
    return simulate_jump_diffusion(spec, 1.0, 200, seed)


class TestLeftPointSum:
    def test_linear_exact(self):
        t = np.linspace(0, 1, 11)
        # int of 1 against g(t) = 2t is 2
        assert left_point_sum(np.ones_like(t), np.diff(2 * t)) == pytest.approx(2.0)

    def test_misaligned_rejected(self):
        # one integrand point per step plus the end point, never fewer or more
        for f in ([1.0, 2.0], [1.0, 2.0, 3.0], 1.0):
            with pytest.raises(ConfigError):
                left_point_sum(f, [0.0, 1.0, 2.0])

    def test_last_point_never_enters(self):
        f = np.array([1.0, 2.0, np.nan])
        assert left_point_sum(f, [0.5, 0.25]) == 1.0

    @given(st.integers(min_value=2, max_value=40), st.floats(-5, 5),
           st.floats(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_integrand(self, n, c1, c2):
        rng = np.random.default_rng(n)
        f, h, g = rng.normal(size=(3, n))
        lhs = left_point_sum(c1 * f + c2 * h, g[1:])
        rhs = c1 * left_point_sum(f, g[1:]) + c2 * left_point_sum(h, g[1:])
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


def _ranks(ctx):
    """A JumpContext's (..., k) columns as one context per jump rank."""
    return [JumpContext(*(v[..., r] for v in ctx)) for r in range(ctx.t.shape[-1])]


class TestJumpSum:
    def test_contexts_expose_left_limits(self):
        b = _bundle()
        ranks = _ranks(iter_jumps(b))
        assert len(ranks) == b.jump_indices.size > 0
        for ctx in ranks:
            assert ctx.x == pytest.approx(ctx.x_pre + ctx.dx)

    def test_block_columns_are_each_paths_jumps(self):
        spec = _bundle().spec
        draws = draw_paths(spec, 1.0, 200, range(40))
        for rows in draws.blocks(8):
            ctx = iter_jumps(simulate_jump_diffusion(spec, 1.0, 200, draws, rows))
            assert ctx.t.shape == (rows.size, draws.offsets[rows[0] + 1] - draws.offsets[rows[0]])
            for row, i in enumerate(rows):
                alone = iter_jumps(simulate_jump_diffusion(spec, 1.0, 200, draws, i))
                assert all(v[row].tobytes() == w.tobytes() for v, w in zip(ctx, alone))


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


class TestLocalTimeTimeIntegral:
    def test_sums_the_integrand_at_the_hits(self):
        # the series 0, 0, 0.5, 0.5, 1.25: increments at steps 1 and 3
        lt = LocalTimeSeries((5,), np.array([1, 3]), np.array([0.5, 0.75]))
        assert lt.values.tolist() == [0.0, 0.0, 0.5, 0.5, 1.25]
        f = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert local_time_time_integral(f, lt) == 2.0 * 0.5 + 4.0 * 0.75
        assert local_time_time_integral(f, lt) == pytest.approx(
            left_point_sum(f, np.diff(lt.values)))

    @given(rows=st.integers(1, 6), steps=st.integers(1, 50), seed=st.integers(0, 2**32 - 1),
           shared=st.booleans(), dense=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_each_row_is_its_hits_summed_in_order(self, rows, steps, seed, shared, dense):
        """Each row is 0.0 + f[s0] h0 + f[s1] h1 + ... over its own hits, bit
        for bit, whether its integrand is shared by every row or its own; a
        row without hits is +0.0."""
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(steps + 1,) if shared else (rows, steps + 1))
        window = np.ones((rows, steps), bool) if dense else rng.random((rows, steps)) < 0.3
        hits = np.flatnonzero(window)
        lt = LocalTimeSeries((rows, steps + 1), None if dense else hits,
                             rng.random((rows, steps)) if dense else rng.random(hits.size))
        sums = local_time_time_integral(f, lt)
        assert sums.shape == (rows,) and sums.dtype == float
        increments = lt.increments.reshape(-1)
        for r in range(rows):
            total, f_row = 0.0, np.broadcast_to(f, (rows, steps + 1))[r]
            for k in np.flatnonzero(hits // steps == r):
                total += float(f_row[hits[k] % steps] * increments[k])
            assert sums[r].tobytes() == np.float64(total).tobytes()

    def test_no_hits_give_a_float_zero(self):
        lt = LocalTimeSeries((2, 4), np.array([], np.intp), np.empty(0))
        sums = local_time_time_integral(np.ones(4), lt)
        assert sums.dtype == float and sums.tolist() == [0.0, 0.0]
        assert not np.signbit(sums).any()
        one = local_time_time_integral(np.ones(4), LocalTimeSeries((4,), lt.hits, lt.increments))
        assert one == 0.0 and not np.signbit(one) and np.ndim(one) == 0

    def test_misaligned_rejected(self):
        lt = LocalTimeSeries((5,), np.array([1]), np.array([0.5]))
        with pytest.raises(ConfigError):
            local_time_time_integral(np.ones(4), lt)


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
