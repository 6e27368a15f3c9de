"""Tests for the synthetic camera and corpus generation."""

import re
import tracemalloc

import numpy as np
import pytest
from support import render_batch_reference

from rankcal import pipeline

from rankcal.errors import ModelParseError
from rankcal.model import ColorMatrix
from rankcal.simulate import (
    GAMUT_MODES,
    TONE_FAMILIES,
    SyntheticCamera,
    ToneSpec,
    deserialize_camera,
    make_camera,
    make_corpus,
    make_exposures,
    make_illuminants,
    render_batch,
    serialize_camera,
)

B = pipeline._MAP_BLOCK


def plain_camera(**kwargs):
    defaults = dict(seed=0, delta=0.0, tone=ToneSpec("gamma", 1.0),
                    gamut_mode="none")
    defaults.update(kwargs)
    return make_camera(**defaults)


class TestRender:
    def test_identity_camera_is_identity(self):
        camera = plain_camera()
        raw = np.array([0.2, 0.5, 0.8])
        assert np.allclose(render_batch(camera, raw), raw, atol=1e-15)

    def test_gamma_matches_analytic_value(self):
        camera = plain_camera(tone=ToneSpec("gamma", 1 / 2.2))
        got = render_batch(camera, np.array([0.25, 0.25, 0.25]))
        assert np.allclose(got, 0.25 ** (1 / 2.2), atol=1e-12)

    def test_gamut_applied_before_tone_keeps_output_in_cube(self):
        camera = make_camera(seed=3, delta=0.35, tone=ToneSpec("gamma", 1 / 2.2),
                             gamut_mode="affine")
        rng = np.random.default_rng(0)
        raws = rng.uniform(0.0, 1.0, size=(2000, 3))
        corrected = raws @ camera.matrix.rows.T
        assert corrected.max() > 1.0 or corrected.min() < 0.0  # gamut has work
        rendered = render_batch(camera, raws)
        assert rendered.min() >= 0.0 and rendered.max() <= 1.0
        # manual composition: matrix, affine gamut, clip, tone
        v = np.clip(camera.gamut.apply(corrected), 0.0, 1.0)
        assert np.allclose(rendered, camera.tone(v), atol=1e-14)

    def test_monotone_in_raw_intensity_scaling(self):
        for family in ("gamma", "srgb", "filmic"):
            camera = make_camera(seed=1, delta=0.0, tone=ToneSpec(family, 1 / 2.2),
                                 gamut_mode="affine")
            base = np.array([[0.3, 0.5, 0.2]])
            scales = np.linspace(0.0, 1.2, 40)
            rendered = np.vstack([
                render_batch(camera, s * base) for s in scales
            ])
            assert np.all(np.diff(rendered, axis=0) >= -1e-12)

    def test_noise_requires_explicit_rng(self):
        camera = plain_camera(noise_sigma=0.01)
        with pytest.raises(ValueError):
            render_batch(camera, np.array([0.5, 0.5, 0.5]))
        rng = np.random.default_rng(0)
        out = render_batch(camera, np.array([0.5, 0.5, 0.5]), rng)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_quantize_rounds_to_255_steps(self):
        camera = plain_camera(tone=ToneSpec("gamma", 1 / 2.2), quantize=True)
        out = render_batch(camera, np.random.default_rng(1).uniform(0, 1, (50, 3)))
        assert np.allclose(out * 255.0, np.round(out * 255.0), atol=1e-9)

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("gamut_mode", GAMUT_MODES)
    @pytest.mark.parametrize("family", TONE_FAMILIES)
    def test_matches_reference_bit_for_bit(self, family, gamut_mode, noise, quantize):
        camera = make_camera(seed=3, delta=0.3, tone=ToneSpec(family, 0.7),
                             gamut_mode=gamut_mode, noise_sigma=noise, quantize=quantize,
                             warp_scale=0.05)
        raws = np.random.default_rng(8).uniform(-0.1, 1.1, (2000, 3))
        before = raws.copy()
        got = render_batch(camera, raws, np.random.default_rng(9))
        want = render_batch_reference(camera, raws, np.random.default_rng(9))
        assert got.tobytes() == want.tobytes()
        assert raws.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1])
    def test_blocks_match_reference_bit_for_bit(self, n):
        # noise is drawn block after block, as one draw for every row would be
        raws = np.random.default_rng(n).uniform(-0.1, 1.1, (n, 3))
        for seed, family in ((4, "filmic"), (5, "srgb")):
            camera = make_camera(seed=seed, delta=0.3, tone=ToneSpec(family),
                                 gamut_mode="warped", noise_sigma=2.0 / 255.0,
                                 quantize=True, warp_scale=0.05)
            got = render_batch(camera, raws, np.random.default_rng(seed))
            want = render_batch_reference(camera, raws, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    def test_traced_memory_bounded_per_row(self):
        # between 4B and 8B rows only the (n, 3) float64 output may grow
        # (24 bytes a row); rendering every row at once would add the
        # temporaries of each step, 72 bytes a row or more
        camera = make_camera(seed=6, tone=ToneSpec("srgb"), gamut_mode="warped",
                             noise_sigma=0.01, quantize=True)
        peaks = []
        for n in (4 * B, 8 * B):
            raws = np.full((n, 3), 0.5)
            rng = np.random.default_rng(0)
            tracemalloc.start()
            try:
                render_batch(camera, raws, rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (4 * B) <= 32

    def test_warp_stays_inside_cube(self):
        camera = make_camera(seed=5, delta=0.3, tone=ToneSpec("gamma", 1 / 2.2),
                             gamut_mode="warped")
        rng = np.random.default_rng(2)
        rendered = render_batch(camera, rng.uniform(0, 1, (3000, 3)))
        assert rendered.min() >= 0.0 and rendered.max() <= 1.0


class TestMakeCamera:
    def test_rows_sum_to_one(self):
        camera = make_camera(seed=9, delta=0.4)
        assert np.allclose(camera.matrix.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_effective_matrix_folds_gamut(self):
        none = make_camera(seed=2, delta=0.2, gamut_mode="none")
        assert np.array_equal(none.effective_matrix(), none.matrix.rows)
        affine = make_camera(seed=2, delta=0.2, gamut_mode="affine")
        assert np.allclose(affine.effective_matrix(),
                           affine.gamut.t @ affine.matrix.rows)

    def test_delta_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_camera(seed=0, delta=0.5)

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")), ("noise_sigma", -0.1),
        ("warp_scale", float("nan")),
    ])
    def test_bad_noise_or_warp_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
            make_camera(seed=0, gamut_mode="warped", **{field: value})

    def test_tone_must_increase(self):
        with pytest.raises(ValueError):
            SyntheticCamera(matrix=ColorMatrix.identity(),
                            tone=ToneSpec("gamma", 1.0), warp_scale=0.1)


class TestMakeCorpus:
    def test_single_condition_counts(self):
        corpus = make_corpus(plain_camera(), 140, rng_seed=0)
        assert len(corpus) == 140
        assert set(corpus.illuminant) == {"i0"}
        assert set(corpus.exposure) == {"e0"}

    def test_cartesian_product_tags(self):
        camera = plain_camera()
        corpus = make_corpus(camera, 10, illuminants=make_illuminants(2, 0),
                             exposures=make_exposures(3), rng_seed=0)
        assert len(corpus) == 60
        assert set(corpus.illuminant) == {"i0", "i1"}
        assert set(corpus.exposure) == {"e0", "e1", "e2"}
        assert set(corpus.patch) == {f"p{i}" for i in range(10)}

    def test_zero_exposure_is_black_and_saturated(self):
        corpus = make_corpus(plain_camera(tone=ToneSpec("gamma", 1 / 2.2)), 10,
                             exposures=[0.0], rng_seed=0)
        assert np.all(corpus.raw == 0.0)
        assert np.all(corpus.rendered == 0.0)
        assert np.all(corpus.saturated)

    def test_deterministic_per_seed(self):
        camera = make_camera(seed=4, delta=0.2, tone=ToneSpec("gamma", 1 / 2.2))
        a = make_corpus(camera, 50, rng_seed=7)
        b = make_corpus(camera, 50, rng_seed=7)
        c = make_corpus(camera, 50, rng_seed=8)
        assert a.raw.tobytes() == b.raw.tobytes()
        assert a.rendered.tobytes() == b.rendered.tobytes()
        assert a.raw.tobytes() != c.raw.tobytes()

    def test_grey_ramp_present(self):
        corpus = make_corpus(plain_camera(), 140, rng_seed=0)
        spread = corpus.raw.max(axis=1) - corpus.raw.min(axis=1)
        assert (spread == 0.0).sum() >= 2

    @pytest.mark.parametrize("args, match", [
        ((2.5,), r"n_patches must be an integer >= 1, got 2\.5"),
        ((True,), "n_patches must be an integer >= 1, got True"),
        ((10, None, [1.0, -1.0]), r"exposures\[1\] must be finite and >= 0, got -1\.0"),
        ((10, None, [float("nan")]), r"exposures\[0\] must be finite and >= 0, got nan"),
        ((10, [np.ones(3), [1.0, -1.0, 1.0]]),
         r"illuminants\[1\]\[1\] must be finite and > 0, got -1\.0"),
        ((10, [[1.0, 1.0, 0.0]]), r"illuminants\[0\]\[2\] must be finite and > 0, got 0\.0"),
    ], ids=["fractional_patches", "bool_patches", "negative_exposure", "nan_exposure",
            "negative_gain", "zero_gain"])
    def test_bad_argument_rejected_by_name(self, args, match):
        with pytest.raises(ValueError, match=match):
            make_corpus(plain_camera(), *args)

    def test_tags_follow_exposure_illuminant_patch_order(self):
        corpus = make_corpus(plain_camera(camera_id="cam"), 3,
                             illuminants=make_illuminants(2, 0),
                             exposures=make_exposures(2), rng_seed=0)
        blocks = [(e, i) for e in ("e0", "e1") for i in ("i0", "i1")]
        assert corpus.camera.tolist() == ["cam"] * 12
        assert corpus.exposure.tolist() == [e for e, _ in blocks for _ in range(3)]
        assert corpus.illuminant.tolist() == [i for _, i in blocks for _ in range(3)]
        assert corpus.patch.tolist() == ["p0", "p1", "p2"] * 4

    def test_neutral_first_illuminant(self):
        illus = make_illuminants(4, seed=3)
        assert np.array_equal(illus[0], np.ones(3))
        for d in illus[1:]:
            assert d.max() <= 1.0 and d.min() > 0.0


def test_exposure_ladder_centred_on_one():
    exposures = make_exposures(5)
    assert exposures[2] == pytest.approx(1.0)
    assert np.allclose(np.diff(np.log2(exposures)), 0.5)


@pytest.mark.parametrize("make", [make_illuminants, make_exposures])
@pytest.mark.parametrize("count", [2.5, "3", True, 0, -1])
def test_count_must_be_positive_integer(make, count):
    with pytest.raises(ValueError, match=f"count must be an integer >= 1, got {count!r}"):
        make(count)


def test_camera_sidecar_roundtrip():
    for mode in ("none", "affine", "warped"):
        camera = make_camera(seed=6, delta=0.25, tone=ToneSpec("srgb"),
                             gamut_mode=mode, noise_sigma=0.01, quantize=True)
        back = deserialize_camera(serialize_camera(camera))
        assert np.array_equal(back.matrix.rows, camera.matrix.rows)
        assert back.tone == camera.tone
        assert back.quantize == camera.quantize
        assert back.noise_sigma == camera.noise_sigma
        assert back.warp_scale == camera.warp_scale
        if mode == "none":
            assert back.gamut is None
        else:
            assert np.array_equal(back.gamut.t, camera.gamut.t)
            assert np.array_equal(back.gamut.o, camera.gamut.o)


def test_camera_sidecar_with_byte_order_mark():
    text = serialize_camera(make_camera(seed=6, gamut_mode="warped"))
    assert serialize_camera(deserialize_camera("\ufeff" + text)) == text


@pytest.mark.parametrize("key, bad", [
    ("noise.sigma", "abc"),
    ("noise.sigma", "nan"),
    ("matrix.r2.c3", "1.0.0"),
    ("camera.seed", "x7"),
    ("gamut.mode", "bent"),
])
def test_camera_sidecar_bad_value_names_key(key, bad):
    text = serialize_camera(make_camera(seed=6, noise_sigma=0.01))
    start = text.index(f"{key} = ") + len(f"{key} = ")
    broken = text[:start] + bad + text[text.index("\n", start):]
    with pytest.raises(ModelParseError, match=key.replace(".", r"\.")):
        deserialize_camera(broken)


@pytest.mark.parametrize("key, bad, message", [
    ("camera.version", "2", "unknown camera version '2'"),
    ("noise.sigma", "-0.5", "camera fails validation: noise_sigma must be finite and >= 0"),
])
def test_camera_sidecar_bad_field_named(key, bad, message):
    text = serialize_camera(make_camera(seed=6, gamut_mode="none"))
    start = text.index(f"{key} = ") + len(f"{key} = ")
    broken = text[:start] + bad + text[text.index("\n", start):]
    with pytest.raises(ModelParseError, match=f"^{re.escape(message)}"):
        deserialize_camera(broken)


def test_camera_sidecar_rejects_reordered_and_extra_keys():
    lines = serialize_camera(make_camera(seed=6)).split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(ModelParseError, match="camera.id"):
        deserialize_camera("\n".join(lines))
    with pytest.raises(ModelParseError, match="extra.key"):
        deserialize_camera(serialize_camera(make_camera(seed=6)) + "extra.key = 1\n")
