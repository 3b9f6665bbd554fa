import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgmclassifier import EncodingConfig
from pgmclassifier.encoding import (
    apply_normalizer,
    encode,
    encode_amplitude,
    encode_stereographic,
    fit_encode,
    fit_normalizer,
    rescale,
)
from pgmclassifier.errors import DimMismatch, InvalidAlpha, InvalidFeature


class TestFitNormalizer:
    def test_zscore_mean_and_std(self):
        params = fit_normalizer(np.array([[0.0], [2.0]]), "zscore")
        np.testing.assert_allclose(params.location, [1.0])
        np.testing.assert_allclose(params.scale, [1.0])

    def test_minmax_min_and_range(self):
        params = fit_normalizer(np.array([[1.0], [3.0]]), "minmax")
        np.testing.assert_allclose(params.location, [1.0])
        np.testing.assert_allclose(params.scale, [2.0])

    def test_constant_feature_gets_unit_scale(self):
        params = fit_normalizer(np.array([[5.0], [5.0]]), "zscore")
        np.testing.assert_allclose(params.scale, [1.0])
        out = apply_normalizer(np.array([[5.0], [5.0]]), params)
        np.testing.assert_allclose(out, [[0.0], [0.0]])

    def test_none_kind(self):
        params = fit_normalizer(np.array([[3.0, -1.0]]), "none")
        np.testing.assert_allclose(params.location, [0.0, 0.0])
        np.testing.assert_allclose(params.scale, [1.0, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(InvalidFeature):
            fit_normalizer(np.zeros((2, 2)), "robust")

    @pytest.mark.parametrize("kind", ["zscore", "minmax"])
    def test_overflowing_statistics_are_refused(self, kind):
        x = np.array([[1e308, 0.0], [-1e308, 1.0]])
        with pytest.raises(InvalidFeature, match=f"too large for {kind} statistics"):
            fit_normalizer(x, kind)

    def test_rejects_empty(self):
        with pytest.raises(InvalidFeature):
            fit_normalizer(np.zeros((0, 2)), "zscore")

    def test_train_mean_zero_after_zscore(self, rng):
        x = rng.normal(3.0, 2.5, size=(40, 6))
        params = fit_normalizer(x, "zscore")
        out = apply_normalizer(x, params)
        assert np.abs(out.mean(axis=0)).max() <= 1e-10


class TestApplyNormalizer:
    def test_shifts_and_scales(self):
        params = fit_normalizer(np.array([[0.0], [2.0]]), "zscore")
        np.testing.assert_allclose(apply_normalizer(np.array([[3.0]]), params), [[2.0]])

    def test_location_maps_to_zero(self):
        params = fit_normalizer(np.array([[0.0], [2.0]]), "zscore")
        np.testing.assert_allclose(apply_normalizer(np.array([[1.0]]), params), [[0.0]])

    def test_round_trip(self, rng):
        x = rng.normal(size=(10, 4))
        params = fit_normalizer(x, "minmax")
        back = apply_normalizer(x, params) * params.scale + params.location
        assert np.abs(back - x).max() <= 1e-12

    def test_width_mismatch(self):
        params = fit_normalizer(np.zeros((2, 2)), "none")
        with pytest.raises(DimMismatch):
            apply_normalizer(np.zeros((2, 3)), params)


class TestRescale:
    def test_halving(self):
        np.testing.assert_allclose(rescale(np.array([[2.0, -4.0]]), 0.5), [[1.0, -2.0]])

    def test_identity(self, rng):
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(rescale(x, 1.0), x)

    def test_grid_values_accepted(self, rng):
        x = rng.normal(size=(2, 2))
        for alpha in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            rescale(x, alpha)

    def test_composition(self, rng):
        x = rng.normal(size=(4, 2))
        assert np.abs(rescale(rescale(x, 0.5), 8.0) - rescale(x, 4.0)).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_non_positive(self, alpha):
        with pytest.raises(InvalidAlpha):
            rescale(np.zeros((1, 1)), alpha)


class TestAmplitudeEncoding:
    def test_worked_example(self):
        out = encode_amplitude(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, np.array([[3.0, 4.0, 1.0]]) / np.sqrt(26.0))

    def test_zero_vector(self):
        np.testing.assert_allclose(encode_amplitude(np.array([[0.0]])), [[0.0, 1.0]])

    def test_collinear_inputs_stay_distinct(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        states = encode_amplitude(x)
        assert float(states[0] @ states[1]) < 1.0 - 1e-12


class TestStereographicEncoding:
    def test_unit_input_lands_on_equator(self):
        np.testing.assert_allclose(encode_stereographic(np.array([[1.0]])), [[1.0, 0.0]])

    def test_zero_maps_to_south_pole(self):
        np.testing.assert_allclose(
            encode_stereographic(np.array([[0.0, 0.0]])), [[0.0, 0.0, -1.0]]
        )

    def test_worked_example(self):
        out = encode_stereographic(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, np.array([[6.0, 8.0, 24.0]]) / 26.0)


@pytest.mark.parametrize("encoder", [encode_amplitude, encode_stereographic])
class TestEncodingProperties:
    def test_unit_norm(self, encoder, rng):
        x = rng.normal(0.0, 5.0, size=(50, 4))
        norms = np.linalg.norm(encoder(x), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_injective_on_random_pairs(self, encoder, rng):
        x = rng.normal(0.0, 2.0, size=(30, 3))
        y = rng.normal(0.0, 2.0, size=(30, 3))
        states_x = encoder(x)
        states_y = encoder(y)
        inner = np.sum(states_x * states_y, axis=1)
        assert inner.max() < 1.0 - 1e-12

    def test_rejects_non_finite(self, encoder):
        with pytest.raises(InvalidFeature):
            encoder(np.array([[np.inf, 0.0]]))


@given(
    st.lists(
        st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_every_encoding_emits_unit_states(rows):
    x = np.array(rows)
    for encoder in (encode_amplitude, encode_stereographic):
        norms = np.linalg.norm(encoder(x), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10


class TestPipeline:
    def test_normalize_then_rescale_then_encode(self):
        cfg = EncodingConfig(encoding="amplitude", alpha=0.5, normalizer="none")
        x = np.array([[2.0, 4.0]])
        params = fit_normalizer(x, "none")
        out = encode(x, cfg, params)
        np.testing.assert_allclose(out, np.array([[1.0, 2.0, 1.0]]) / np.sqrt(6.0))

    def test_fit_encode_matches_stages(self, rng):
        x = rng.normal(size=(12, 3))
        cfg = EncodingConfig(encoding="stereographic", alpha=2.0, normalizer="zscore")
        states, params = fit_encode(x, cfg)
        staged = encode_stereographic(rescale(apply_normalizer(x, params), 2.0))
        np.testing.assert_array_equal(states, staged)

    @pytest.mark.parametrize("encoding", ["amplitude", "stereographic"])
    def test_overflowing_row_is_refused_by_index(self, encoding):
        cfg = EncodingConfig(encoding=encoding, alpha=1.0, normalizer="none")
        params = fit_normalizer(np.zeros((1, 2)), "none")
        large = np.array([[0.5, -1.0], [1e150, 3.0]])
        states = encode(large, cfg, params)
        encoder = {"amplitude": encode_amplitude, "stereographic": encode_stereographic}
        np.testing.assert_array_equal(states, encoder[encoding](large))
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-15
        message = f"{encoding} encoding overflows: row index 1 "
        for huge in (1e200, -1e200, 1e308):
            with pytest.raises(InvalidFeature, match=message):
                encode(np.array([[0.5, -1.0], [huge, 3.0], [huge, 0.0]]), cfg, params)

    def test_config_validation(self):
        with pytest.raises(InvalidFeature):
            EncodingConfig(encoding="angle")
        with pytest.raises(InvalidFeature):
            EncodingConfig(normalizer="whiten")
        with pytest.raises(InvalidAlpha):
            EncodingConfig(alpha=0.0)
