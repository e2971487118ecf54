"""Surfaces and Moreau envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsurf import SURFACES, ConfigError, Surface, constant_surface, moreau_envelope
from ltsurf import surfaces

BOX = ((-2.0, 2.0), (-2.0, 2.0))
ABS = Surface(lambda t, a: np.abs(np.asarray(a, float)))
# queries per chunk of the batched search at the default grid_n
CHUNK = surfaces._CHUNK_FLOATS // 33 ** 2
in_box = st.tuples(st.floats(*BOX[0]), st.floats(*BOX[1]))


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

    @pytest.mark.parametrize("m", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_m_must_be_positive_and_finite(self, m):
        with pytest.raises(ConfigError, match="m must be positive and finite"):
            moreau_envelope(ABS, m, (0.0, 0.0), BOX)

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
    @given(log_m=st.floats(-1.0, 4.0),
           queries=st.lists(in_box, min_size=CHUNK + 1, max_size=2 * CHUNK + 1))
    @settings(max_examples=5, deadline=None)
    def test_batch_equals_scalar_calls(self, surf, log_m, queries):
        # a batch longer than one chunk crosses a chunk boundary
        m = 10.0 ** log_m
        tq, aq = np.array(queries).T
        batch = moreau_envelope(surf, m, (tq, aq), BOX)
        assert batch.tolist() == [moreau_envelope(surf, m, q, BOX) for q in queries]

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
