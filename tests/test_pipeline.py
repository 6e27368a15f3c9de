"""Tests for end-to-end calibration and bidirectional application."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import angle_degrees, map_backward_unblocked, map_forward_unblocked

from rankcal import pipeline

from rankcal.errors import DegenerateChannel, InsufficientData
from rankcal.model import (
    ColorMatrix,
    Lattice3,
    PipelineModel,
    PixelPairSet,
    ToneCurve,
    parameter_count,
)
from rankcal.modelfile import serialize_model
from rankcal.pipeline import (
    CalibrationConfig,
    calibrate,
    map_backward,
    map_forward,
)
from rankcal.ranking import build_half_spaces, estimate_row, sample_sphere
from rankcal.simulate import ToneSpec, make_camera, make_corpus, render_batch


def fast_config(seed=0):
    return CalibrationConfig(rng_seed=seed, sphere_count=20_000, trials=5)


class TestCalibrate:
    def test_stage_passes_an_interrupt_through_unchanged(self, monkeypatch):
        interrupt = KeyboardInterrupt()
        times = []

        def interrupted(*args):
            raise interrupt

        monkeypatch.setattr(pipeline, "fit_forward_tones", interrupted)
        camera = make_camera(seed=0, gamut_mode="none")
        with pytest.raises(KeyboardInterrupt) as info:
            calibrate(make_corpus(camera, 60, rng_seed=1),
                      CalibrationConfig(sphere_count=2000, trials=1),
                      lambda stage, seconds: times.append(stage))
        assert info.value is interrupt
        # the interrupted stage reports no time
        assert times == ["matrix", "achromatic_rescale"]

    def test_identity_camera_hits_fixed_points(self):
        camera = make_camera(seed=0, delta=0.0, tone=ToneSpec("gamma", 1.0),
                             gamut_mode="none")
        corpus = make_corpus(camera, 140, rng_seed=2)
        model = calibrate(corpus, CalibrationConfig(rng_seed=1, trials=5))
        for k in range(3):
            assert angle_degrees(model.matrix.rows[k], np.eye(3)[k]) <= 1.2
        t = np.linspace(0.0, 1.0, 200)
        for curve in model.forward_tones + model.inverse_tones:
            assert np.abs(curve(t) - t).max() <= 0.01
        identity_nodes = Lattice3.identity(5).nodes
        assert np.abs(model.forward_lut.nodes - identity_nodes).max() <= 0.01
        assert np.abs(model.backward_lut.nodes - identity_nodes).max() <= 0.01

    def test_gated_camera_meets_rmse_targets(self, gated_bundle):
        assert gated_bundle["forward_rmse"] <= 3.0
        assert gated_bundle["backward_rmse"] <= 0.012
        assert parameter_count(gated_bundle["model"]) == 408

    def test_metadata_carries_provenance(self, gated_bundle):
        meta = gated_bundle["model"].metadata
        assert meta.camera == gated_bundle["camera"].camera_id
        assert meta.samples == len(gated_bundle["train"])
        keys = dict(meta.settings)
        assert keys["seed"] == "3"
        assert keys["sphere_count"] == "100000"
        # the constants that were settings are still written, so model
        # files keep their bytes
        lines = serialize_model(gated_bundle["model"]).splitlines()
        for line in ("meta.setting.max_colors = 50", "meta.setting.tone_degree = 7",
                     "meta.setting.tone_smoothness = 1e-05",
                     "meta.setting.lattice_resolution = 5"):
            assert line in lines

    def test_too_few_pairs_rejected(self):
        camera = make_camera(seed=1, delta=0.1, tone=ToneSpec("gamma", 1 / 2.2))
        corpus = make_corpus(camera, 20, rng_seed=0)
        with pytest.raises(InsufficientData):
            calibrate(corpus, fast_config())

    def test_flat_channel_fails_with_stage_name(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.05, 0.95, size=(60, 3))
        rendered = raw.copy()
        # rendered red varies by far less than the rank tie threshold
        rendered[:, 0] = 0.5 + 1e-5 * rng.uniform(size=60)
        pairs = PixelPairSet.from_arrays(raw, np.clip(rendered, 0, 1))
        with pytest.raises(DegenerateChannel, match="matrix"):
            calibrate(pairs, fast_config())

    def test_one_raw_colour_fails_naming_the_distinct_colours(self):
        # the rendered values differ, but a single raw colour gives no
        # pair to rank
        rendered = np.random.default_rng(4).uniform(0.1, 0.9, size=(40, 3))
        pairs = PixelPairSet.from_arrays(np.full((40, 3), 0.4), rendered)
        with pytest.raises(InsufficientData, match="stage 'matrix': need at least 2 distinct "
                                                   "unsaturated raw colours, have 1"):
            calibrate(pairs, fast_config())

    def test_deterministic_serialized_models(self):
        camera = make_camera(seed=5, delta=0.25, tone=ToneSpec("gamma", 1 / 2.2),
                             gamut_mode="affine")
        corpus = make_corpus(camera, 120, rng_seed=6)
        a = serialize_model(calibrate(corpus, fast_config(seed=4)))
        b = serialize_model(calibrate(corpus, fast_config(seed=4)))
        assert a == b

    @pytest.mark.parametrize("field, value", [
        ("rng_seed", -1), ("rng_seed", 2.0), ("rng_seed", True),
        ("sphere_count", 5), ("sphere_count", 2000.5), ("sphere_count", True),
        ("sphere_count", 2001),
        ("trials", 0), ("trials", 2.0),
        ("lattice_regularization", 0.0), ("lattice_regularization", -1e-3),
        ("lattice_regularization", float("nan")), ("lattice_regularization", float("inf")),
        ("lattice_regularization", "0.05"),
    ])
    def test_config_rejects_bad_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            CalibrationConfig(**{field: value})

    def test_settable_values(self):
        assert [f.name for f in dataclasses.fields(CalibrationConfig)] == [
            "rng_seed", "sphere_count", "trials", "lattice_regularization"]

    @pytest.mark.parametrize("call", [
        lambda pairs, sphere: build_half_spaces(pairs, 1, 50),
        lambda pairs, sphere: estimate_row(pairs, 1, sphere, 25, 50),
        lambda pairs, sphere: pipeline.estimate_matrix(pairs, sphere, 25, 50),
    ], ids=["build_half_spaces", "estimate_row", "estimate_matrix"])
    def test_seed_is_keyword_only(self, call):
        # a call written for the removed max_colors argument must not run
        # with 50 read as the seed
        corpus = make_corpus(make_camera(seed=5), 60, rng_seed=6)
        with pytest.raises(TypeError):
            call(corpus, sample_sphere(2000))

    def test_estimate_matrix_rejects_non_integer_trials(self):
        corpus = make_corpus(make_camera(seed=5), 60, rng_seed=6)
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.5"):
            pipeline.estimate_matrix(corpus, sample_sphere(2000), trials=2.5)

    def test_config_accepts_numpy_integers(self):
        cfg = CalibrationConfig(sphere_count=np.int64(6), trials=np.int32(1),
                                lattice_regularization=np.float64(1e-9))
        assert cfg.settings_dict()["sphere_count"] == 6

    def test_noisy_corpus_still_calibrates(self):
        camera = make_camera(seed=7, delta=0.2, tone=ToneSpec("gamma", 1 / 2.2),
                             gamut_mode="affine", noise_sigma=2 / 255)
        corpus = make_corpus(camera, 140, rng_seed=8)
        model = calibrate(corpus, fast_config(seed=2))
        assert parameter_count(model) == 408


B = pipeline._MAP_BLOCK


class TestApply:
    def test_identity_model_forward_and_backward(self):
        model = PipelineModel.identity()
        row = np.array([0.2, 0.6, 0.9])
        assert np.allclose(map_forward(model, row), row, atol=1e-12)
        assert np.allclose(map_backward(model, row), row, atol=1e-12)

    def test_forward_matches_ground_truth_on_held_out(self, gated_bundle):
        # covered in aggregate by the RMSE gate; spot-check batch == one row
        model = gated_bundle["model"]
        raws = gated_bundle["held_raw"][:10]
        batch = map_forward(model, raws)
        for i in range(10):
            assert np.allclose(map_forward(model, raws[i])[0], batch[i], atol=1e-15)

    def test_outputs_always_inside_unit_cube(self, gated_bundle):
        model = gated_bundle["model"]
        rng = np.random.default_rng(0)
        wild = rng.uniform(-0.2, 1.4, size=(500, 3)).clip(0.0, None)
        fwd = map_forward(model, wild)
        bwd = map_backward(model, rng.uniform(0.0, 1.0, size=(500, 3)))
        assert fwd.min() >= 0.0 and fwd.max() <= 1.0
        assert bwd.min() >= 0.0 and bwd.max() <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(values=arrays(float, st.integers(1, 6).map(lambda n: (n, 3)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(values=np.full((2, 3), 1e300))
    @example(values=np.full((2, 3), -1.7e308))
    def test_any_finite_input_maps_into_unit_cube(self, gated_bundle, values):
        # beyond [0, 1] the inverse tone polynomials overflow to NaN, which
        # no lattice index can take, unless the rendered values are clipped
        model = gated_bundle["model"]
        with np.errstate(over="ignore", invalid="ignore"):
            for mapping in (map_forward, map_backward):
                out = mapping(model, values)
                assert out.shape == values.shape
                assert np.isfinite(out).all() and out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_non_finite_row_named(self, bad, direction):
        mapping = map_forward if direction == "forward" else map_backward
        name = "raw" if direction == "forward" else "rendered"
        values = np.full((6, 3), 0.5)
        values[4, 1] = bad
        values[5, 0] = bad
        with pytest.raises(ValueError, match=f"{name} row 4 is not finite"):
            mapping(PipelineModel.identity(), values)

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3, 3), (9,), (2, 4)])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_rejects_shapes_other_than_rows(self, shape, direction):
        mapping = map_forward if direction == "forward" else map_backward
        name = "raw" if direction == "forward" else "rendered"
        with pytest.raises(ValueError, match=rf"{name} must have shape .* got {re.escape(str(shape))}"):
            mapping(PipelineModel.identity(), np.full(shape, 0.5))

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1, 3 * B + 17])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_blocks_match_unblocked_map(self, gated_bundle, n, direction):
        model = gated_bundle["model"]
        mapping, reference = {
            "forward": (map_forward, map_forward_unblocked),
            "backward": (map_backward, map_backward_unblocked),
        }[direction]
        values = np.random.default_rng(n).uniform(-0.1, 1.1, size=(n, 3)).clip(0.0, None)
        got = mapping(model, values)
        assert got.shape == (n, 3)
        assert np.array_equal(got, reference(model, values))

    @pytest.mark.parametrize("n", [0, 1, 2, B + 1, 3 * B + 17])
    def test_blocks_cover_rows_without_one_row_blocks(self, monkeypatch, n):
        sizes = []
        lattice = pipeline.apply_lattice

        def recording(lut, v):
            sizes.append(len(v))
            return lattice(lut, v)

        monkeypatch.setattr(pipeline, "apply_lattice", recording)
        map_forward(PipelineModel.identity(), np.full((n, 3), 0.5))
        assert sum(sizes) == n
        assert max(sizes) <= B
        assert n < 2 or min(sizes) >= 2

    def test_backward_inverts_matrix_once(self, monkeypatch):
        model = PipelineModel.identity()
        calls = []
        inverse = ColorMatrix.inverse

        def counting(matrix):
            calls.append(1)
            return inverse(matrix)

        monkeypatch.setattr(ColorMatrix, "inverse", counting)
        map_backward(model, np.full((2 * B + 1, 3), 0.5))
        assert len(calls) == 1

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_non_finite_row_in_later_block_named_globally(self, direction):
        mapping = map_forward if direction == "forward" else map_backward
        name = "raw" if direction == "forward" else "rendered"
        values = np.full((2 * B + 5, 3), 0.5)
        values[B + 3, 2] = np.nan
        with pytest.raises(ValueError, match=f"{name} row {B + 3} is not finite"):
            mapping(PipelineModel.identity(), values)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_traced_memory_bounded_per_row(self, direction):
        # between 4B and 8B rows only the (n, 3) float64 output may grow
        # (24 bytes a row); one lattice gather over every row would add
        # 392 bytes a row
        mapping = map_forward if direction == "forward" else map_backward
        model = PipelineModel.identity()
        peaks = []
        for n in (4 * B, 8 * B):
            values = np.full((n, 3), 0.5)
            tracemalloc.start()
            try:
                mapping(model, values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (4 * B) <= 32

    def test_dark_end_prediction(self):
        # realistic tone curves have a finite-slope toe (an sRGB-style
        # linear segment); a degree-7 polynomial cannot chase the
        # infinite-slope toe of a pure power law to exact black. The
        # loose per-op lattice default lets the dark cell absorb what the
        # polynomial leaves behind there.
        camera = make_camera(seed=11, delta=0.25, tone=ToneSpec("srgb"),
                             gamut_mode="affine")
        train = make_corpus(camera, 140, rng_seed=5)
        cfg = CalibrationConfig(rng_seed=3, sphere_count=20_000, trials=5,
                                lattice_regularization=1e-3)
        model = calibrate(train, cfg)
        black_truth = render_batch(camera, np.zeros((1, 3)))
        pred = map_forward(model, np.zeros((1, 3)))
        err = 255.0 * np.sqrt(np.mean((pred - black_truth) ** 2))
        assert err <= 4.0

    def test_roundtrip_composition(self, gated_bundle):
        # typical-deviation bound: at extreme chroma the forward lattice,
        # applied after the steep tone curve, cannot fully capture gamut
        # folding (the known forward/backward asymmetry), so the pointwise
        # tail is looser than the bulk
        model = gated_bundle["model"]
        rng = np.random.default_rng(1)
        raws = rng.uniform(0.05, 0.9, size=(400, 3))
        back = map_backward(model, map_forward(model, raws))
        err = back - raws
        assert np.sqrt(np.mean(err ** 2)) <= 0.02
        assert np.abs(err).max() <= 0.05

    def test_monotone_response_with_identity_lut(self):
        rows = np.array([
            [0.8, 0.15, 0.05],
            [0.1, 0.8, 0.1],
            [0.05, 0.25, 0.7],
        ])
        gamma_ish = np.zeros(8)
        gamma_ish[1], gamma_ish[2] = 1.2, -0.2  # monotone on [0, 1]
        fwd = (ToneCurve(gamma_ish),) * 3
        inv = (ToneCurve.linear(),) * 3
        model = PipelineModel(
            matrix=ColorMatrix(rows),
            forward_tones=fwd,
            forward_lut=Lattice3.identity(5),
            inverse_tones=inv,
            backward_lut=Lattice3.identity(5),
        )
        rng = np.random.default_rng(2)
        for _ in range(50):
            raw = rng.uniform(0.0, 0.8, size=3)
            for ch in range(3):
                bumped = raw.copy()
                bumped[ch] += 0.1
                low = map_forward(model, raw.reshape(1, 3))[0]
                high = map_forward(model, bumped.reshape(1, 3))[0]
                assert high[ch] >= low[ch] - 1e-12
