"""Surfaces and Moreau envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsurf import (SURFACES, ConfigError, Surface, constant_surface, envelope_table,
                    moreau_envelope)
from ltsurf import surfaces

BOX = ((-2.0, 2.0), (-2.0, 2.0))
ABS = Surface(lambda t, a: np.abs(np.asarray(a, float)))
# a step surface: grid points can tie at its minimum
STEP = Surface(lambda t, a: np.floor(4 * np.asarray(a, float)) / 4)
# a small budget: batches of 66 queries at the default grid_n
SMALL_BUDGET = 2 * 33 ** 2
SMALL_CHUNK = SMALL_BUDGET // 33
in_box = st.tuples(st.floats(*BOX[0]), st.floats(*BOX[1]))
# envelope_table's penalties in the golden file (one per decade) and in the
# bench's envelope workload at seed 1
GOLDEN_M = [3.1622776601683795, 31.622776601683793, 316.22776601683796, 3162.2776601683795]
BENCH_M = [3.2495380354723715, 89.22030351678919, 139.36689126371573, 8884.836640546999]
PENALTIES = pytest.mark.parametrize("m_values", [GOLDEN_M, BENCH_M], ids=["golden", "bench"])
# exact envelopes of two registry surfaces, penalty (m/2)|.|^2, in (m, a)
CLOSED_FORMS = {
    "abs": lambda m, a: np.where(np.abs(a) <= 1 / m, m * a * a / 2, np.abs(a) - 1 / (2 * m)),
    "quad": lambda m, a: m * a * a / (m + 2),
}


def search_a_alone(surf, m, tq, aq, box, grid_n, rounds=6):
    """One query's envelope of a t-free surface, searched round by round over a alone."""
    c, (a_lo, a_hi) = m / 2.0, box[1]
    best, best_a = surf.b(tq, aq), aq
    center, half = (a_lo + a_hi) / 2.0, (a_hi - a_lo) / 2.0  # then each round's best
    for _ in range(rounds):
        a = np.linspace(max(a_lo, center - half), min(a_hi, center + half), grid_n)
        objective = (a - aq) ** 2 * c + surf.b(tq, a)
        j = int(np.argmin(objective))  # the first of tied minima
        if objective[j] < best:
            best, best_a = objective[j], a[j]
        center, half = best_a, half / 10.0
    return float(best)


def searched_batches(monkeypatch):
    """The list to which each later _grid_search call appends its number of queries."""
    sizes, grid_search = [], surfaces._grid_search
    monkeypatch.setattr(surfaces, "_grid_search", lambda surf, c, tq, *args:
                        sizes.append(tq.size) or grid_search(surf, c, tq, *args))
    return sizes


class TestMoreauEnvelope:
    def test_never_exceeds_b(self):
        for a in np.linspace(-1.5, 1.5, 11):
            env = moreau_envelope(ABS, 5.0, (0.0, float(a)), BOX)
            assert env <= abs(a) + 1e-12

    def test_closed_form_for_abs(self):
        # for |a| >= 1/m the envelope of |a| is |a| - 1/(2m)
        m = 50.0
        for a in (0.5, -0.8, 1.2):
            env = moreau_envelope(ABS, m, (0.0, a), BOX)
            assert abs(env - (abs(a) - 1.0 / (2 * m))) < 1e-6

    def test_monotone_in_m(self):
        for a in np.linspace(-1, 1, 7):
            vals = [moreau_envelope(ABS, m, (0.0, float(a)), BOX)
                    for m in (1.0, 10.0, 100.0, 1000.0)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_constant_surface_is_its_own_envelope(self):
        surf = constant_surface(2.5)
        assert moreau_envelope(surf, 1.0, (0.0, 0.0), BOX) == pytest.approx(2.5)

    @pytest.mark.parametrize("m", [-1.0, 0.0, 5e-324, np.nan, np.inf, -np.inf])
    def test_m_must_be_positive_and_finite(self, m):
        with pytest.raises(ConfigError, match="m must be positive and finite"):
            moreau_envelope(ABS, m, (0.0, 0.0), BOX)

    def test_least_penalty_reaches_the_infimum(self):
        # at m = 5e-324, which is rejected, m / 2 rounds to 0 and the objective is
        # 0 * inf = nan wherever (a - aq)**2 overflows; at the next m, m / 2 > 0
        # and the search finds the infimum, the penalty of a = 0
        box = (BOX[0], (-2e154, 2e154))
        with np.errstate(over="ignore"):
            assert moreau_envelope(ABS, 1e-323, (0.0, -1.0), box) == 5e-324

    @pytest.mark.parametrize("search", [
        {"grid_n": 0}, {"grid_n": -3}, {"grid_n": 2.0}, {"grid_n": True}, {"grid_n": None},
        {"rounds": -1}, {"rounds": 1.5}, {"rounds": False}], ids=str)
    def test_search_parameters_rejected(self, search):
        with pytest.raises(ConfigError, match="the search needs"):
            moreau_envelope(SURFACES["abs"], 5.0, (0.1, 0.3), BOX, **search)

    @pytest.mark.parametrize("search", [{}, {"grid_n": 1}, {"grid_n": np.int64(5)},
                                        {"rounds": 0}], ids=str)
    def test_search_parameters_accepted(self, search):
        env = moreau_envelope(SURFACES["abs"], 5.0, (0.1, 0.3), BOX, **search)
        assert env <= 0.3
        if not search:
            assert env == pytest.approx(0.2)

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            moreau_envelope(ABS, 1.0, (5.0, 0.0), BOX)  # query outside box
        with pytest.raises(ConfigError):
            moreau_envelope(ABS, 1.0, (0.0, 0.0), ((1.0, -1.0), (-1.0, 1.0)))

    def test_array_query_keeps_its_shape(self):
        tq, aq = np.zeros((2, 3)), np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        env = moreau_envelope(ABS, 5.0, (tq, aq), BOX)
        assert env.shape == (2, 3)
        assert moreau_envelope(ABS, 5.0, (tq[:0], aq[:0]), BOX).shape == (0, 3)

    @pytest.mark.parametrize("surf", [*SURFACES.values(), constant_surface(0.5)],
                             ids=[*SURFACES, "constant"])
    @given(log_m=st.floats(-1.0, 4.0), queries=st.lists(in_box, min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_batch_equals_scalar_calls(self, surf, log_m, queries, seed):
        # the drawn queries, then more than a batch of uniform ones, so under
        # the small budget the batch crosses a batch boundary
        m = 10.0 ** log_m
        rng = np.random.default_rng(seed)
        n = int(rng.integers(SMALL_CHUNK + 1, SMALL_CHUNK + 17))
        tq, aq = np.concatenate([np.array(queries).T,
                                 [rng.uniform(*side, n) for side in BOX]], axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surfaces, "_CHUNK_FLOATS", SMALL_BUDGET)
            batch = moreau_envelope(surf, m, (tq, aq), BOX)
        assert batch.tolist() == [moreau_envelope(surf, m, q, BOX) for q in zip(tq, aq)]

    @pytest.mark.parametrize("surf", [*SURFACES.values(), STEP], ids=[*SURFACES, "step"])
    def test_a_alone_equals_a_plain_search(self, surf):
        # queries through STEP's jumps and midpoints, where grid points tie
        rng = np.random.default_rng(0)
        tq, aq = rng.uniform(*BOX[0], 33), np.linspace(*BOX[1], 33)
        for grid_n in (1, 2, 7, 33):
            for m in (1e-2, 1.0, 1e2, 1e4):
                batch = moreau_envelope(surf, m, (tq, aq), BOX, grid_n=grid_n)
                assert batch.tolist() == [search_a_alone(surf, m, *q, BOX, grid_n)
                                          for q in zip(tq, aq)], f"grid_n = {grid_n}, m = {m}"

    @pytest.mark.parametrize("queries", ["a alone", "full grid"])
    @pytest.mark.parametrize("surf", SURFACES.values(), ids=list(SURFACES))
    def test_nan_never_wins_a_round(self, surf, queries):
        # b is nan where a > 0.5, so every grid reaching there holds nan. The
        # queries run along a, or over a full (t, a) grid as envelope_table's do.
        holed = Surface(lambda t, a: np.where(np.asarray(a) > 0.5, np.nan, surf.b(t, a)))
        if queries == "a alone":
            rng = np.random.default_rng(5)
            tq, aq = rng.uniform(*BOX[0], 41), np.linspace(-2.0, 2.0, 41)
        else:
            tq, aq = np.meshgrid(np.linspace(*BOX[0], 9), np.linspace(-2.0, 2.0, 41),
                                 indexing="ij")
        for m in (1.0, 5.0, 1e3):
            env, b = moreau_envelope(holed, m, (tq, aq), BOX), holed.b(tq, aq)
            finite = np.isfinite(b)
            assert env.shape == aq.shape, f"m = {m}"
            assert (env[finite] <= b[finite]).all(), f"m = {m}"

    @pytest.mark.parametrize("grid_n,m_values", [(7, GOLDEN_M), (20, BENCH_M)],
                             ids=["golden", "bench"])
    def test_t_free_surfaces_never_search_the_full_grid(self, monkeypatch, grid_n, m_values):
        # b is evaluated on the search's 33 values of a per query and round,
        # never on a (t, a) grid of 33 ** 2 points per query
        points = []

        def counted(surf):
            return Surface(lambda t, a: points.append(np.size(v := surf.b(t, a))) or v)

        for name, surf in list(SURFACES.items()):
            monkeypatch.setitem(SURFACES, name, counted(surf))
        for name in SURFACES:
            points.clear()
            assert len(envelope_table(name, m_values, grid_n=grid_n)) == 4 * grid_n ** 2
            # b on the table's grid_n ** 2 points; then per penalty the t probe's
            # row of 33 values of a, b at the table's grid_n distinct values of
            # a, and 6 rounds of 33 points for each of them
            assert sum(points) == grid_n ** 2 + 4 * (33 + grid_n + 6 * grid_n * 33), name
        # at a negligible penalty every query ties on STEP's lowest step in every round
        points.clear()
        moreau_envelope(counted(STEP), 1e-20, (np.zeros(9), np.linspace(-2.0, 2.0, 9)), BOX,
                        grid_n=grid_n)
        assert sum(points) == grid_n + 9 + 6 * 9 * grid_n

    @PENALTIES
    def test_t_free_table_searches_each_distinct_a_once(self, monkeypatch, m_values):
        sizes = searched_batches(monkeypatch)
        envelope_table("abs", m_values, grid_n=20)
        # one search per penalty, of the table's 20 values of a, not its 400 points
        assert sizes == [20] * 4

    def test_signed_zeros_are_distinct_queries(self):
        # at a vast penalty each query keeps b(tq, aq) = aq, the sign of its zero too
        ident = Surface(lambda t, a: np.asarray(a, float))
        tq, aq = np.array([0.0, 0.0, 1.0]), np.array([-0.0, 0.0, -0.0])
        batch = moreau_envelope(ident, 1e300, (tq, aq), BOX)
        scalars = np.array([moreau_envelope(ident, 1e300, q, BOX) for q in zip(tq, aq)])
        assert batch.view(np.uint64).tolist() == scalars.view(np.uint64).tolist()
        assert np.signbit(batch).tolist() == [True, False, True]

    def test_surface_that_depends_on_t_rejected(self):
        moving = Surface(lambda t, a: np.abs(np.asarray(a, float) - 0.5 * np.asarray(t, float)))
        with pytest.raises(ConfigError, match="ignores t"):
            moreau_envelope(moving, 3.0, (0.0, 0.5), BOX)

    def test_constant_surface_searches_a_alone(self, monkeypatch):
        # b broadcast to the shape of a passes the t probe; its 5 distinct
        # values of a are searched in one batch
        sizes = searched_batches(monkeypatch)
        env = moreau_envelope(constant_surface(0.5), 1.0,
                              (np.zeros(5), np.linspace(-1.0, 1.0, 5)), BOX)
        assert sizes == [5]
        assert env.tolist() == [0.5] * 5
        assert not np.signbit(constant_surface(-0.0).b(1.0, 0.0))

    @pytest.mark.parametrize("t,a", [(0.3, -0.5), (np.zeros((2, 3)), 0.25),
                                     (0.7, np.linspace(-1.0, 1.0, 4))],
                             ids=["scalars", "t_array", "a_array"])
    def test_constant_surface_takes_the_shape_of_a(self, t, a):
        b = constant_surface(1.5).b(t, a)
        assert np.shape(b) == np.shape(a)
        assert np.all(b == 1.5)

    @pytest.mark.parametrize("rounds", [1, 2, 4])
    def test_each_round_narrows_the_search_tenfold(self, rounds):
        spans = []

        def b(t, a):
            if np.ndim(a) == 2:  # a round's (queries, grid_n) grid of a
                spans.append(a[0, -1] - a[0, 0])
            return ABS.b(t, a)

        moreau_envelope(Surface(b), 1.0, (0.1, 0.3), BOX, rounds=rounds)
        # the first grid spans the box; each later one, inside the box, a tenth of the last
        assert spans == pytest.approx([4.0 / 10 ** k for k in range(rounds)], rel=1e-12)

    @pytest.mark.parametrize("grid_n", [1, 7, 33])
    def test_batches_keep_to_the_budget(self, monkeypatch, grid_n):
        # 2 * chunk + 1 distinct values of a: two full batches, then one query
        chunk = surfaces._CHUNK_FLOATS // grid_n
        sizes = searched_batches(monkeypatch)
        aq = np.linspace(*BOX[1], 2 * chunk + 1)
        moreau_envelope(ABS, 1.0, (np.zeros_like(aq), aq), BOX, grid_n=grid_n)
        assert sizes == [chunk, chunk, 1]

    @given(queries=st.lists(in_box, min_size=1, max_size=20), where=st.integers(0, 19),
           axis=st.integers(0, 1),
           outside=st.one_of(st.floats(max_value=-2.0, exclude_max=True),
                             st.floats(min_value=2.0, exclude_min=True), st.just(np.nan)))
    @settings(max_examples=50, deadline=None)
    def test_array_query_with_one_point_outside_box_rejected(self, queries, where, axis,
                                                             outside):
        tq, aq = np.array(queries).T
        (tq, aq)[axis][where % len(queries)] = outside
        with pytest.raises(ConfigError, match="inside the search box"):
            moreau_envelope(ABS, 1.0, (tq, aq), BOX)

    def test_query_shapes_must_match(self):
        with pytest.raises(ConfigError, match="differ in shape"):
            moreau_envelope(ABS, 1.0, (np.zeros(3), np.zeros(4)), BOX)
        with pytest.raises(ConfigError, match="differ in shape"):
            moreau_envelope(ABS, 1.0, (0.0, np.zeros(2)), BOX)


class TestEnvelopeTable:
    @pytest.mark.parametrize("grid_n", [7, 20])
    @PENALTIES
    @pytest.mark.parametrize("surface", list(CLOSED_FORMS))
    def test_within_1e_8_of_the_closed_form(self, surface, m_values, grid_n):
        m, _, a, env, _ = np.array(envelope_table(surface, m_values, grid_n=grid_n)).T
        assert np.abs(env - CLOSED_FORMS[surface](m, a)).max() < 1e-8

    @pytest.mark.parametrize("grid_n", [7, 20])
    @PENALTIES
    @pytest.mark.parametrize("surface", list(SURFACES))
    def test_t_free_envelope_ignores_t(self, surface, m_values, grid_n):
        # every registry surface ignores t, so rows of equal (m, a) agree to the bit
        env = np.array(envelope_table(surface, m_values, grid_n=grid_n))[:, 3]
        bits = env.view(np.uint64).reshape(len(m_values), grid_n, grid_n)
        assert (bits == bits[:, :1]).all()
