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
# a surface that moves in t, so it is always searched on the full grid
MOVING = Surface(lambda t, a: np.abs(np.asarray(a, float) - 0.5 * np.asarray(t, float)))
# queries per full-grid batch at the default budget and grid_n
CHUNK = surfaces._CHUNK_FLOATS // 33 ** 2
# a small budget: full-grid batches of 2 queries, a-only batches of 66
SMALL_BUDGET = 2 * 33 ** 2
A_CHUNK = SMALL_BUDGET // 33
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


def full_grid(surf):
    """surf with its values broadcast over t, which makes the search take the full grid."""
    return Surface(lambda t, a: np.broadcast_arrays(surf.b(t, a), t)[0])


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
        # 0 * inf = nan wherever (t - tq)**2 overflows; at the next m, m / 2 > 0
        # and the search finds the infimum, the penalty of a point far out in t
        box = ((0.0, 2e154), BOX[1])
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
        # the drawn queries, then more than an a-only batch of uniform ones, so under
        # the small budget the batch crosses batch boundaries on both paths
        m = 10.0 ** log_m
        rng = np.random.default_rng(seed)
        n = int(rng.integers(A_CHUNK + 1, A_CHUNK + 17))
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

    @pytest.mark.parametrize("search", ["a alone", "full grid"])
    @pytest.mark.parametrize("surf", SURFACES.values(), ids=list(SURFACES))
    def test_nan_never_wins_a_round(self, surf, search):
        # b is nan where a > 0.5, so every grid reaching there holds nan
        holed = Surface(lambda t, a: np.where(np.asarray(a) > 0.5, np.nan, surf.b(t, a)))
        holed = holed if search == "a alone" else full_grid(holed)
        rng = np.random.default_rng(5)
        tq, aq = rng.uniform(*BOX[0], 41), np.linspace(-2.0, 2.0, 41)
        for m in (1.0, 5.0, 1e3):
            env, b = moreau_envelope(holed, m, (tq, aq), BOX), holed.b(tq, aq)
            finite = np.isfinite(b)
            assert (env[finite] <= b[finite]).all(), f"m = {m}"

    @pytest.mark.parametrize("grid_n,m_values", [(7, GOLDEN_M), (20, BENCH_M)],
                             ids=["golden", "bench"])
    def test_t_free_surfaces_never_search_the_full_grid(self, grid_n, m_values):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surfaces, "_grid_argmin", lambda *args: calls.append(args))
            for surface in SURFACES:
                assert len(envelope_table(surface, m_values, grid_n=grid_n)) == 4 * grid_n ** 2
            # at a negligible penalty every query ties on STEP's lowest step in every round
            moreau_envelope(STEP, 1e-20, (np.zeros(9), np.linspace(-2.0, 2.0, 9)), BOX,
                            grid_n=grid_n)
        assert calls == []

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

    def test_t_dependent_surface_searches_every_query(self, monkeypatch):
        tq, aq = np.array([0.0, 0.0, 0.5, 0.0, 0.0]), np.array([0.5, 0.5, 0.5, -0.0, 0.0])
        sizes = searched_batches(monkeypatch)
        batch = moreau_envelope(MOVING, 3.0, (tq, aq), BOX)
        monkeypatch.undo()
        assert sizes == [5]
        assert batch.tolist() == [moreau_envelope(MOVING, 3.0, q, BOX) for q in zip(tq, aq)]

    def test_constant_surface_searches_a_alone(self):
        calls, grid_argmin = [], surfaces._grid_argmin
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surfaces, "_grid_argmin",
                          lambda *args: calls.append(args) or grid_argmin(*args))
            env = moreau_envelope(constant_surface(0.5), 1.0,
                                  (np.zeros(5), np.linspace(-1.0, 1.0, 5)), BOX)
        assert calls == []
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
        spans, grid_argmin = [], surfaces._grid_argmin

        def spy(surf, c, tq, aq, ts, as_):
            spans.extend((ts[0, -1] - ts[0, 0], as_[0, -1] - as_[0, 0]))
            return grid_argmin(surf, c, tq, aq, ts, as_)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surfaces, "_grid_argmin", spy)
            moreau_envelope(MOVING, 1.0, (0.1, 0.3), BOX, rounds=rounds)
        # the first grid spans the box; each later one, inside the box, a tenth of the last
        assert spans == pytest.approx([4.0 / 10 ** k for k in range(rounds) for _ in "ta"],
                                      rel=1e-12)

    @pytest.mark.parametrize("surf,m", [(MOVING, 1.0), (full_grid(STEP), 1e-20)],
                             ids=["moving", "step"])
    def test_full_grids_keep_to_the_budget(self, surf, m):
        # 2 * CHUNK + 1 queries: three batches of full grids. At a negligible
        # penalty every query ties on STEP's lowest step in every round.
        grids, depth = [], []  # points of each full grid that b is evaluated on
        grid_argmin = surfaces._grid_argmin

        def spy(*args):
            depth.append(1)
            try:
                return grid_argmin(*args)
            finally:
                depth.pop()

        def b(t, a):
            if depth:
                grids.append(np.broadcast(t, a).size)
            return surf.b(t, a)

        rng = np.random.default_rng(3)
        tq, aq = (rng.uniform(*side, 2 * CHUNK + 1) for side in BOX)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surfaces, "_grid_argmin", spy)
            batch = moreau_envelope(Surface(b), m, (tq, aq), BOX)
        assert sorted(grids) == [33 ** 2] * 6 + [CHUNK * 33 ** 2] * 12
        assert max(grids) <= surfaces._CHUNK_FLOATS
        assert batch.tolist() == [moreau_envelope(surf, m, q, BOX) for q in zip(tq, aq)]

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
