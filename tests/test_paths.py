"""Grid construction, driver simulation and the Euler scheme."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltsurf import (ConfigError, NumericalAbort, PathBundle, SdeSpec, build_grid,
                    simulate_brownian, simulate_compound_poisson,
                    simulate_jump_diffusion, two_point)
from ltsurf import paths
from ltsurf.harness import derive_path_seed
from ltsurf.paths import (_SNAP, ChildSeed, JumpLaw, TimeGrid, _uniform_grid, draw_paths,
                          seed_hash, seed_words)


class TestBuildGrid:
    def test_uniform_no_jumps(self):
        g = build_grid(1.0, 4)
        np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert not g.jump_flags.any()

    def test_jump_times_merged_and_flagged(self):
        g = build_grid(1.0, 4, jump_times=[0.3])
        assert 0.3 in g.times
        assert g.jump_flags[np.searchsorted(g.times, 0.3)]
        assert g.n_steps == 5

    def test_coincident_jump_replaces_uniform_point(self):
        g = build_grid(1.0, 4, jump_times=[0.5])
        assert g.n_steps == 4  # no duplicate point
        assert g.jump_flags[np.searchsorted(g.times, 0.5)]

    def test_jump_time_outside_range_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(1.0, 4, jump_times=[1.5])
        with pytest.raises(ConfigError):
            build_grid(1.0, 4, jump_times=[0.0])

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            build_grid(-1.0, 4)
        with pytest.raises(ConfigError):
            build_grid(1.0, 0)

    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), max_size=6,
                    unique=True),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_grid_contains_all_jump_times(self, jumps, n_steps):
        g = build_grid(1.0, n_steps, jump_times=sorted(jumps))
        for t in jumps:
            assert np.any(g.times == t)
        assert np.all(np.diff(g.times) > 0)
        assert g.times[0] == 0.0 and g.times[-1] == 1.0

    def test_rows_replacing_unequally_many_points_are_rejected(self):
        # 0.25 replaces a uniform point of 4 steps, 0.3 does not
        with pytest.raises(ConfigError, match="equally many uniform points"):
            build_grid(1.0, 4, [[0.25], [0.3]])
        with pytest.raises(ConfigError, match="equally many uniform points"):
            build_grid(1.0, 4, [[0.25, 0.5], [0.25, 0.25 + 0.5e-12]])


def _sorted_grid(t_end, n_steps, jump_times=()):
    """build_grid as it was before it placed jumps by searchsorted: every jump
    tested against every uniform point, the kept points and the jumps merged,
    then each row sorted."""
    jt = np.sort(np.asarray(jump_times, dtype=float), axis=-1)
    if jt.size == 0:
        return _uniform_grid(t_end, n_steps)
    if jt.min() <= 0 or jt.max() > t_end:
        raise ConfigError("jump times must lie in (0, t_end]")
    uniform = _uniform_grid(t_end, n_steps).times
    keep = ~(np.abs(uniform - jt[..., None]) <= _SNAP * max(1.0, t_end)).any(axis=-2)
    kept = np.broadcast_to(uniform, keep.shape)[keep].reshape(*jt.shape[:-1], -1)
    times = np.concatenate((kept, jt), axis=-1)
    flags = np.concatenate((np.zeros(kept.shape, dtype=bool), np.ones(jt.shape, dtype=bool)),
                           axis=-1)
    order = np.argsort(times, axis=-1, kind="stable")
    return TimeGrid(np.take_along_axis(times, order, -1), np.take_along_axis(flags, order, -1))


@st.composite
def _jump_blocks(draw):
    """(t_end, n_steps, jump times) with jump times of shape (k,) or (P, k). Each
    row has the same columns: free times strictly between uniform points, up to
    four uniform points of the row's own choosing each moved by its column's
    offset, which keeps it within a snap of the point or takes it just past, on
    either side, and perhaps t_end itself."""
    t_end = draw(st.sampled_from([0.7, 1.0, 2.5]))
    n_steps, k = draw(st.integers(1, 40)), draw(st.integers(0, 30))
    rows = draw(st.sampled_from([None, 1, 2, 3, 6]))
    at_end = k > 0 and draw(st.booleans())
    offsets = draw(st.lists(st.one_of(st.floats(-0.5e-12, 0.5e-12),
                                      st.sampled_from([-3e-12, -2e-12, 2e-12, 3e-12])),
                            max_size=min(k - at_end, 4)))
    uniform = _uniform_grid(t_end, n_steps).times
    step = st.integers(0, n_steps - 1)

    def row():
        free = [uniform[draw(step)] + draw(st.floats(0.01, 0.99)) * t_end / n_steps
                for _ in range(k - at_end - len(offsets))]
        return free + [uniform[draw(step) + 1] + o for o in offsets] + [t_end] * at_end

    block = [row() for _ in range(rows or 1)]
    return t_end, n_steps, np.array(block[0] if rows is None else block, dtype=float)


class TestGridBySearchsorted:
    """The grid placed by searchsorted is the sorted merge, byte for byte."""

    @given(_jump_blocks())
    @settings(max_examples=300, deadline=None)
    # two jumps replacing one uniform point in each row; two more and t_end; rows
    # that replace unequally many points
    @example((1.0, 4, np.array([[0.25 - 0.4e-12, 0.25 + 0.4e-12], [0.5, 0.5 + 0.3e-12]])))
    @example((2.5, 10, np.array([0.5 - 1e-12, 0.5 + 1e-12, 2.5])))
    @example((0.7, 7, np.array([[0.7, 0.1 + 0.2e-12], [0.35, 0.7]])))
    # a repeated time, and a jump that would replace the start point
    @example((1.0, 4, np.array([0.5, 0.5])))
    @example((0.7, 1, np.array([0.35, 0.35, 0.7])))
    @example((1.0, 4, np.array([1e-13])))
    def test_matches_the_sorted_grid(self, block):
        t_end, n_steps, jt = block
        uniform = _uniform_grid(t_end, n_steps).times
        replaced = {np.count_nonzero((np.abs(uniform - row[:, None])
                                      <= _SNAP * max(1.0, t_end)).any(axis=0))
                    for row in np.atleast_2d(jt)}
        try:
            expected = None if len(replaced) > 1 else _sorted_grid(t_end, n_steps, jt)
        except ConfigError:
            expected = None
        if expected is None:  # outside (0, t_end], repeated times or unequal rows
            with pytest.raises(ConfigError):
                build_grid(t_end, n_steps, jt)
            return
        grid = build_grid(t_end, n_steps, jt)
        for name in ("times", "jump_flags", "dts", "jump_indices"):
            new, old = getattr(grid, name), getattr(expected, name)
            assert new.shape == old.shape and new.tobytes() == old.tobytes(), name


    @pytest.mark.parametrize("jump_times, message", [
        ([0.5, 0.5], "strictly increasing"), ([[0.3, 0.3], [0.1, 0.6]], "strictly increasing"),
        ([1e-13], "must start at 0")])
    def test_rejects_what_the_grid_check_rejects(self, jump_times, message):
        """build_grid does not re-check the grid it places, so it rejects
        these inputs itself, with the grid check's messages."""
        with pytest.raises(ConfigError, match=message):
            build_grid(1.0, 4, jump_times)


class TestSharedGrid:
    def test_jump_free_grid_is_shared(self):
        assert build_grid(1.0, 100) is build_grid(1.0, 100)

    @pytest.mark.parametrize("name", ["times", "dts", "jump_flags", "jump_indices"])
    def test_grid_arrays_are_read_only(self, name):
        for g in (build_grid(1.0, 100), build_grid(1.0, 100, jump_times=[0.305])):
            with pytest.raises(ValueError):
                getattr(g, name)[:1] = 0

    def test_dts_are_the_time_differences(self):
        g = build_grid(1.0, 100, jump_times=[0.305])
        np.testing.assert_array_equal(g.dts, np.diff(g.times))
        np.testing.assert_array_equal(g.sqrt_dts, np.sqrt(np.diff(g.times)))
        np.testing.assert_array_equal(g.jump_indices, np.nonzero(g.jump_flags)[0])

    def test_grid_with_jumps_is_separate(self):
        shared = build_grid(1.0, 100)
        times = shared.times.copy()
        g = build_grid(1.0, 100, jump_times=[0.305])
        assert g is not shared
        assert g.n_steps == 101 and g.jump_flags.sum() == 1
        assert build_grid(1.0, 100) is shared
        np.testing.assert_array_equal(shared.times, times)
        assert not shared.jump_flags.any() and shared.n_steps == 100

    def test_jump_free_path_uses_the_shared_grid(self):
        b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 100, seed=2)
        assert b.grid is build_grid(1.0, 100)


class TestCompoundPoisson:
    def test_deterministic(self):
        a = simulate_compound_poisson(2.0, two_point(-1, 1), 1.0, [5])
        b = simulate_compound_poisson(2.0, two_point(-1, 1), 1.0, [5])
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.sizes, b.sizes)

    def test_zero_rate_empty(self):
        train = simulate_compound_poisson(0.0, None, 1.0, [1])
        assert train.times.size == 0

    def test_zero_rate_builds_no_rng(self):
        # a negative seed is rejected by default_rng, which must not be reached
        train = simulate_compound_poisson(0.0, None, 1.0, [-1])
        assert train.times.size == 0 and train.sizes.size == 0

    def test_event_count_matches_poisson_law(self):
        # oracle: counts ~ Poisson(2), mean 2, var 2
        counts = simulate_compound_poisson(2.0, two_point(-1, 1), 1.0, range(10000)).counts
        se = np.sqrt(2.0 / 10000)
        assert abs(np.mean(counts) - 2.0) < 3 * se


class TestTwoPoint:
    @pytest.mark.parametrize("draw,size", [(0.0, -0.4), (np.nextafter(0.5, 0.0), -0.4),
                                           (0.5, 0.6), (np.nextafter(1.0, 0.0), 0.6)],
                             ids=["zero", "below_half", "half", "below_one"])
    def test_lo_below_one_half_and_hi_from_it(self, draw, size):
        assert two_point(-0.4, 0.6).sizes(np.array([draw])).tolist() == [size]


class TestBrownian:
    def test_one_increment_per_step_and_deterministic(self):
        g = build_grid(1.0, 100)
        b1 = simulate_brownian(g, [3])
        b2 = simulate_brownian(g, [3])
        assert b1.shape == (1, 100)
        np.testing.assert_array_equal(b1, b2)

    def test_matches_scaled_normals_bit_for_bit(self):
        g = build_grid(1.0, 100, jump_times=[0.305])
        normals = np.random.default_rng(3).standard_normal(g.n_steps)
        expected = normals * np.sqrt(np.diff(g.times))
        assert simulate_brownian(g, [3]).tobytes() == expected.tobytes()

    def test_increment_variance(self):
        # oracle: Var(B_1) = 1, sample variance over ensembles
        g = build_grid(1.0, 50)
        finals = simulate_brownian(g, range(10000)).sum(axis=1)
        se = np.sqrt(2.0 / 10000)  # var of sample variance of N(0,1)
        assert abs(np.var(finals) - 1.0) < 3 * se


def _jump_spec(**kw):
    base = dict(mu_x=0.1, sigma=0.5, lambda_x=1.0, mu_a=0.2, lambda_a=1.0,
                rate_y=3.0, jump_law_y=two_point(-0.5, 0.5),
                rate_z=2.0, jump_law_z=two_point(-0.2, 0.3),
                x0=1.0, a0=-0.5)
    base.update(kw)
    return SdeSpec(**base)


class TestJumpDiffusion:
    def test_bit_identical_given_seed(self):
        a = simulate_jump_diffusion(_jump_spec(), 1.0, 100, seed=7)
        b = simulate_jump_diffusion(_jump_spec(), 1.0, 100, seed=7)
        np.testing.assert_array_equal(a.x_path, b.x_path)
        np.testing.assert_array_equal(a.a_path, b.a_path)
        np.testing.assert_array_equal(a.times, b.times)

    def test_reconstruction_identity_is_exact(self):
        b = simulate_jump_diffusion(_jump_spec(), 1.0, 200, seed=11)
        total = (b.k_drift_increments + b.m_increments) + b.k_jump_increments
        np.testing.assert_array_equal(
            np.cumsum(np.concatenate(([b.x_path[0]], total))), b.x_path)

    def test_left_limits_at_jumps(self):
        b = simulate_jump_diffusion(_jump_spec(), 1.0, 100, seed=13)
        jidx = b.jump_indices
        assert jidx.size > 0
        # pre-jump value excludes the jump increment, exactly, in the scheme's
        # association: x_pre = x + cont and x_after = x + (cont + jump)
        before, cont = b.x_path[jidx - 1], b.diffusion_increments[jidx - 1]
        assert b.x_pre[jidx].tobytes() == (before + cont).tobytes()
        assert b.x_path[jidx].tobytes() == (
            before + (cont + b.k_jump_increments[jidx - 1])).tobytes()
        nonjump = ~b.grid.jump_flags
        np.testing.assert_array_equal(b.x_pre[nonjump], b.x_path[nonjump])
        np.testing.assert_array_equal(b.a_pre[nonjump], b.a_path[nonjump])
        assert b.x_pre is not b.x_path and not b.jump_free

    def test_jumps_live_in_k_not_m(self):
        b = simulate_jump_diffusion(_jump_spec(), 1.0, 100, seed=17)
        assert np.all(b.k_jump_increments[~b.grid.jump_flags[1:]] == 0.0)

    def test_a_jump_driver_y_shares_the_jump_clock(self):
        spec = _jump_spec(rate_z=0.0, jump_law_z=None, a_jump_driver="y")
        b = simulate_jump_diffusion(spec, 1.0, 100, seed=19)
        jidx = b.jump_indices
        assert jidx.size > 0
        np.testing.assert_allclose(
            b.a_jump_increments[jidx - 1],
            spec.lambda_a * b.dy[jidx - 1])

    def test_cached_increments_match_fresh_computation(self):
        spec = _jump_spec()
        b = simulate_jump_diffusion(spec, 1.0, 100, seed=23)
        dts = np.diff(b.times)
        fresh = {
            "m_increments": spec.sigma * b.db,
            "k_drift_increments": spec.mu_x * dts,
            "k_jump_increments": spec.lambda_x * b.dy,
            "a_drift_increments": spec.mu_a * dts,
            "a_jump_increments": spec.lambda_a * b.dz,
            "diffusion_increments": spec.mu_x * dts + spec.sigma * b.db,
        }
        for name, expected in fresh.items():
            value = getattr(b, name)
            np.testing.assert_array_equal(value, expected, err_msg=name)
            assert getattr(b, name) is value, name
            assert not value.flags.writeable, name

    @pytest.mark.parametrize("spec", [_jump_spec(), SdeSpec(sigma=1.0, mu_a=0.3)],
                             ids=["jumps", "jump_free"])
    def test_every_array_is_read_only(self, spec):
        b = simulate_jump_diffusion(spec, 1.0, 100, seed=41)
        for name in ("db", "dy", "dz", "a_path", "x_path", "a_pre", "x_pre",
                     "m_increments", "k_drift_increments", "k_jump_increments",
                     "a_drift_increments", "a_jump_increments", "diffusion_increments"):
            with pytest.raises(ValueError):
                getattr(b, name)[:1] = 1.0

    def test_t_end_not_positive_rejected_before_jump_draws(self):
        for t_end in (-1.0, 0.0):
            with pytest.raises(ConfigError, match="t_end"):
                simulate_jump_diffusion(_jump_spec(), t_end, 100, seed=1)

    @pytest.mark.parametrize("name", ["mu_x", "mu_a"])
    def test_overflowing_path_aborts(self, name):
        # the drift alone sums to 4e308, past the largest float
        with np.errstate(over="ignore"), pytest.raises(NumericalAbort):
            simulate_jump_diffusion(_jump_spec(**{name: 1e308}), 4.0, 100, seed=1)

    @pytest.mark.parametrize("name", ["mu_x", "sigma", "lambda_x", "mu_a", "lambda_a"])
    def test_callable_coefficient_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            _jump_spec(**{name: lambda t, a, x: 0.5})

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SdeSpec(rate_y=1.0)  # no law
        with pytest.raises(ConfigError):
            SdeSpec(rate_y=-1.0)
        with pytest.raises(ConfigError):
            SdeSpec(a_jump_driver="w")


def _euler_reference(spec, b):
    """The Euler scheme written out with every increment as its own array:
    the reference for the bundle's shared and constant arrays."""
    dts, zeros = np.diff(b.times), np.zeros(b.times.size - 1)
    x_inc = (spec.mu_x * dts + spec.sigma * b.db) + spec.lambda_x * zeros
    a_inc = spec.mu_a * dts + spec.lambda_a * zeros
    return (np.cumsum(np.concatenate(([spec.x0], x_inc))),
            np.cumsum(np.concatenate(([spec.a0], a_inc))))


class TestJumpFreeBundle:
    @pytest.mark.parametrize("mu_a", [0.0, -0.0, 0.4])
    @pytest.mark.parametrize("a0", [0.0, -0.0, -0.7])
    @pytest.mark.parametrize("lam", [0.0, -0.0, 1.5, -1.5])
    def test_paths_match_the_euler_scheme_bit_for_bit(self, mu_a, a0, lam):
        spec = SdeSpec(mu_x=0.2, sigma=0.8, lambda_x=lam, mu_a=mu_a, lambda_a=lam,
                       x0=-0.0, a0=a0)
        b = simulate_jump_diffusion(spec, 1.0, 50, seed=31)
        x_ref, a_ref = _euler_reference(spec, b)
        assert b.x_path.tobytes() == x_ref.tobytes()
        assert b.a_path.tobytes() == a_ref.tobytes()
        for name in ("k_jump_increments", "a_jump_increments"):
            assert getattr(b, name).tobytes() == (lam * np.zeros(50)).tobytes(), name

    def test_left_limits_and_jump_drivers_are_shared(self):
        b = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 100, seed=37)
        assert b.x_pre is b.x_path and b.a_pre is b.a_path
        zeros = b.grid.zero_steps
        assert b.dy is zeros and b.dz is zeros
        assert b.k_jump_increments is zeros and b.a_jump_increments is zeros
        assert b.jump_free
        assert zeros.tobytes() == np.zeros(100).tobytes()

    @pytest.mark.parametrize("mu", [0.0, -0.0, 0.7])
    @pytest.mark.parametrize("sigma", [0.0, -0.0, 0.7])
    def test_diffusion_increments_keep_signed_zeros(self, mu, sigma):
        # a drawn dB of -0.0 (and of +0.0): sigma * dB is -0.0 there, or
        # everywhere dB < 0 when sigma is +0.0, and +0.0 + -0.0 is +0.0
        grid = build_grid(1.0, 20)
        db = simulate_brownian(grid, [3])[0].copy()
        db[[4, 9]] = -0.0, 0.0
        b = PathBundle(grid, SdeSpec(mu_x=mu, sigma=sigma), db, grid.zero_steps,
                       grid.zero_steps)
        expected = b.k_drift_increments + b.m_increments
        assert b.diffusion_increments.tobytes() == expected.tobytes()
        x_ref, _ = _euler_reference(b.spec, b)
        assert b.x_path.tobytes() == x_ref.tobytes()

    def test_diffusion_increments_share_m_without_zeros(self):
        b = simulate_jump_diffusion(SdeSpec(sigma=0.7), 1.0, 100, seed=37)
        assert b.diffusion_increments is b.m_increments

    def test_negative_jump_coefficient_gets_its_own_signed_zeros(self):
        b = simulate_jump_diffusion(SdeSpec(sigma=1.0, lambda_x=-1.0), 1.0, 100, seed=37)
        assert b.k_jump_increments is not b.grid.zero_steps
        assert np.all(np.signbit(b.k_jump_increments)) and not b.jump_free


_ARRAYS = ("db", "dy", "dz", "x_path", "a_path", "x_pre", "a_pre", "diffusion_increments")


class TestBlocks:
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=30, unique=True),
           lam=st.sampled_from([1.0, -1.0, 0.0]))
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_single_paths(self, seeds, lam):
        spec = SdeSpec(mu_x=0.1, sigma=0.7, lambda_x=lam, mu_a=0.3, lambda_a=0.5,
                       rate_y=2.0, jump_law_y=two_point(-0.4, 0.6), rate_z=1.0,
                       jump_law_z=JumpLaw("exponential", (0.3,)), x0=0.2, a0=-0.1)
        draws = draw_paths(spec, 1.0, 40, seeds)
        for rows in draws.blocks(len(seeds)):
            block = simulate_jump_diffusion(spec, 1.0, 40, draws, rows)
            assert block.grid.n_steps == draws.steps[rows[0]]
            for row, i in enumerate(rows):
                path = simulate_jump_diffusion(spec, 1.0, 40, seeds[i])
                for name in ("times", *_ARRAYS):
                    # a jump-free block keeps one shared grid row
                    values = np.broadcast_to(getattr(block, name),
                                             (len(rows), *getattr(path, name).shape))
                    assert values[row].tobytes() == getattr(path, name).tobytes(), name

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**100])
    def test_draws_use_the_three_children_of_the_path_seed(self, seed):
        spec = SdeSpec(sigma=1.0, lambda_x=1.0, rate_y=3.0, jump_law_y=two_point(-0.4, 0.6),
                       rate_z=2.0, jump_law_z=JumpLaw("exponential", (0.3,)))
        seed_y, seed_z, seed_b = np.random.SeedSequence(seed).spawn(3)
        draw = draw_paths(spec, 1.0, 40, [seed])
        for train, rate, law, child in ((draw.train_y, 3.0, spec.jump_law_y, seed_y),
                                        (draw.train_z, 2.0, spec.jump_law_z, seed_z)):
            ref = simulate_compound_poisson(rate, law, 1.0, [child])
            assert train.times.tobytes() == ref.times.tobytes()
            assert train.sizes.tobytes() == ref.sizes.tobytes()
        b = simulate_jump_diffusion(spec, 1.0, 40, seed)
        assert b.db.tobytes() == simulate_brownian(b.grid, [seed_b]).tobytes()

    def test_jump_free_block_shares_the_uniform_grid(self):
        draws = draw_paths(SdeSpec(sigma=1.0), 1.0, 30, range(5))
        block = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 30, draws, np.arange(5))
        assert block.grid is build_grid(1.0, 30)
        assert block.x_path.shape == (5, 31) and block.jump_free
        assert block.x_pre is block.x_path and block.dy is block.grid.zero_steps
        one = simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 30, draws, np.arange(1))
        assert one.x_path.shape == (1, 31) and one.x_path.tobytes() == block.x_path[0].tobytes()

    def test_a_list_of_seeds_is_not_a_block(self):
        with pytest.raises(ConfigError, match="draw_paths"):
            simulate_jump_diffusion(SdeSpec(sigma=1.0), 1.0, 30, [3, 4])
        # simulate_brownian draws one row per listed seed
        grid = build_grid(1.0, 30)
        db = simulate_brownian(grid, [3, 4])
        ref = [np.random.default_rng(s).standard_normal(30) * grid.sqrt_dts for s in (3, 4)]
        assert db.shape == (2, 30) and db.tobytes() == np.array(ref).tobytes()

    def test_a_block_shares_its_step_and_jump_counts(self):
        spec = _jump_spec()
        draws = draw_paths(spec, 1.0, 30, range(40))
        jumps = np.diff(draws.offsets)
        for rows in ([], [int(np.argmin(jumps)), int(np.argmax(jumps))],
                     [int(np.argmin(draws.steps)), int(np.argmax(draws.steps))]):
            with pytest.raises(ConfigError, match="share a step count and a jump count"):
                simulate_jump_diffusion(spec, 1.0, 30, draws, np.array(rows, int))


class _Coarse:
    """A generator whose random() draws are rounded up to multiples of 1/q, so
    that a path's uniform times repeat and fall on grid points."""

    def __init__(self, rng, q):
        self.rng, self.q = rng, q

    def random(self, size):
        return np.ceil(self.rng.random(size) * self.q) / self.q

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _alone(spec, t_end, n_steps, seed):
    """One path drawn and simulated by itself, one train at a time: sorted and
    de-duplicated times, then sizes for the distinct ones, the trains' times
    merged by union1d into a grid for this path only, and each train's sizes
    added into zeros at the steps that end at its jumps."""
    child_y, child_z, child_b = np.random.SeedSequence(seed).spawn(3)
    trains = []
    for rate, law, child in ((spec.rate_y, spec.jump_law_y, child_y),
                             (spec.rate_z, spec.jump_law_z, child_z)):
        times = sizes = np.empty(0)
        if rate > 0:
            rng = np.random.default_rng(child)
            count = rng.poisson(rate * t_end)
            times = np.sort(rng.uniform(0.0, t_end, count))
            if count > 1:
                times = times[np.concatenate(([True], np.diff(times) > 0))]
            sizes = law.sizes(law.draw(rng, times.size))
        trains.append((times, sizes))
    grid = build_grid(t_end, n_steps, np.union1d(trains[0][0], trains[1][0]))
    increments = []
    for times, sizes in trains:
        inc = np.zeros(grid.n_steps)
        inc[np.searchsorted(grid.times, times) - 1] += sizes
        increments.append(inc)
    return trains, PathBundle(grid, spec, simulate_brownian(grid, [child_b])[0], *increments)


class TestFlatDraw:
    """A batch's flat draw and its blocks against each path on its own."""

    @given(master=st.integers(0, 2**64 - 1), n=st.integers(1, 30),
           rates=st.sampled_from([(0.3, 0.0), (2.0, 1.0), (25.0, 6.0), (0.0, 3.0)]),
           t_end=st.sampled_from([1.0, 0.7, 2.5]), coarse=st.sampled_from([None, 4, 10]),
           driver=st.sampled_from(["y", "z"]))
    @settings(max_examples=25, deadline=None)
    @example(master=3, n=4100, rates=(2.0, 1.0), t_end=0.7, coarse=None, driver="y")
    @example(master=5, n=8, rates=(25.0, 6.0), t_end=1.0, coarse=4, driver="z")
    @example(master=7, n=8, rates=(2.0, 1.0), t_end=2.5, coarse=10, driver="y")
    def test_blocks_match_paths_alone(self, master, n, rates, t_end, coarse, driver):
        """Zero, few and many jumps a path; with coarse draws, repeated times
        (the de-duplication), times of both trains and jumps on grid points;
        and past 4096 seeds, a chunk boundary of the seed hash."""
        spec = SdeSpec(mu_x=0.1, sigma=0.7, lambda_x=1.0, mu_a=0.2, lambda_a=-0.5,
                       rate_y=rates[0], jump_law_y=two_point(-0.4, 0.6), rate_z=rates[1],
                       jump_law_z=JumpLaw("exponential", (-0.3,)), a_jump_driver=driver)
        seeds = derive_path_seed(master, np.arange(n))
        checked = range(n) if n <= 30 else (0, 1, 4095, 4096, n - 1)
        with pytest.MonkeyPatch.context() as mp:
            if coarse:
                rng = np.random.default_rng
                mp.setattr(np.random, "default_rng", lambda seed: _Coarse(rng(seed), coarse))
            draws = draw_paths(spec, t_end, 40, seeds)
            where = {}
            for rows in draws.blocks(7):
                block = simulate_jump_diffusion(spec, t_end, 40, draws, rows)
                where.update((i, (block, row)) for row, i in enumerate(rows.tolist()))
            for i in checked:
                trains, alone = _alone(spec, t_end, 40, int(seeds[i]))
                for flat, (times, sizes) in zip((draws.train_y, draws.train_z), trains):
                    lo = flat.counts[:i].sum()
                    assert flat.counts[i] == times.size
                    assert flat.times[lo:lo + times.size].tobytes() == times.tobytes()
                    assert flat.sizes[lo:lo + times.size].tobytes() == sizes.tobytes()
                assert draws.steps[i] == alone.grid.n_steps
                block, row = where[i]
                for name in ("times", "dy", "dz", *_ARRAYS):
                    values = np.broadcast_to(getattr(block, name),
                                             (block.x_path.shape[0], *getattr(alone, name).shape))
                    assert values[row].tobytes() == getattr(alone, name).tobytes(), name

    @pytest.mark.parametrize("law", [two_point(-0.4, 0.6), JumpLaw("exponential", (-0.3,))],
                             ids=["two_point", "exponential"])
    def test_sizes_of_a_count_start_with_those_of_a_smaller_count(self, law):
        """The flat draw keeps the first d of a path's n sizes when only d of
        its times are distinct: a fresh generator draws those d alike."""
        for seed in range(300):
            for n in (*range(8), 40):
                sizes = law.sizes(law.draw(np.random.default_rng(seed), n))
                for d in {0, n // 2, max(n - 1, 0)}:
                    prefix = law.sizes(law.draw(np.random.default_rng(seed), d))
                    assert sizes[:d].tobytes() == prefix.tobytes()


class TestSeedHash:
    """The batched hash is numpy's SeedSequence, bit for bit."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
    def test_path_seeds_match_seed_sequence(self, master):
        index = np.array([0, 1, 2, 7, 999, 2**31, 2**32 - 1])
        expected = [int(np.random.SeedSequence([master, int(i)]).generate_state(1, np.uint64)[0])
                    for i in index]
        words = np.vstack((np.repeat(seed_words([master]), index.size, 1), seed_words(index)))
        assert seed_hash(words, 1)[0].tolist() == expected
        assert derive_path_seed(master, index).tolist() == expected
        assert [derive_path_seed(master, int(i)) for i in index] == expected
        assert derive_path_seed(master, np.arange(50)).tolist() == [
            derive_path_seed(master, i) for i in range(50)]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_children_match_seed_sequence(self, k):
        seeds = [0, 1, 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**100]
        words = np.vstack((seed_words(seeds, 4), np.full(len(seeds), k, np.uint32)))
        for seed, state in zip(seeds, seed_hash(words, 4).T):
            ref = np.random.SeedSequence(seed, spawn_key=(k,))
            assert state.tolist() == ref.generate_state(4, np.uint64).tolist()
            child = ChildSeed(np.ascontiguousarray(state))
            assert (np.random.default_rng(child).standard_normal(8).tobytes()
                    == np.random.default_rng(ref).standard_normal(8).tobytes())

    def test_batch_across_chunks_matches_single_paths(self):
        """A batch longer than one 4096-seed chunk draws each path's own streams."""
        spec = SdeSpec(sigma=1.0)
        seeds = derive_path_seed(3, np.arange(4100))
        draws = draw_paths(spec, 1.0, 10, seeds)
        assert draws.steps.size == seeds.size
        for i in (0, 4095, 4096, 4099):
            assert draws.states_b[i].tolist() == _child_state(int(seeds[i]), 2)
            assert draws.train_y.counts[i] == 0 and draws.train_z.counts[i] == 0

    def test_words_of_long_seeds(self):
        # beyond the pool, every seed of a batch must be as long as the longest
        for seeds in ([2**130, 2**150 + 1], [2**160]):
            words = np.vstack((seed_words(seeds, 4), np.full(len(seeds), 1, np.uint32)))
            assert seed_hash(words, 4).T.tolist() == [_child_state(s, 1) for s in seeds]
        with pytest.raises(ConfigError, match="as long as each other"):
            seed_words([1, 2**130], 4)
        with pytest.raises(ConfigError, match="nonnegative"):
            seed_words([3, -1])
        with pytest.raises(ConfigError, match="nonnegative"):
            derive_path_seed(-1, 0)

    def test_draw_gives_each_train_its_child_seeds(self, monkeypatch):
        """Each train's generators are seeded from its children, in path order."""
        passed, draw = [], paths.simulate_compound_poisson
        monkeypatch.setattr(paths, "simulate_compound_poisson",
                            lambda *args: passed.append(args[-1]) or draw(*args))
        seeds = [0, 5, 2**40 + 3]
        draw_paths(_jump_spec(), 1.0, 10, seeds)
        assert len(passed) == 2
        for k, children in enumerate(passed):
            assert ([child.generate_state(4, np.uint64).tolist() for child in children]
                    == [_child_state(s, k) for s in seeds])

    def test_child_seed_gives_only_its_state(self):
        child = ChildSeed(np.zeros(4, np.uint64))
        with pytest.raises(ValueError, match="4 uint64 words"):
            child.generate_state(8, np.uint32)


def _child_state(seed, k):
    return np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64).tolist()
