"""The entry contract of the public API.

Every public function and class either returns a valid result or raises
a ``ValueError`` or a ``CalibrationError`` whose message names the cause:
the argument at fault, or the part of it (a row, an index, a file line,
a model-file key). The sweep below walks ``rankcal.__all__`` and tries
non-finite, empty, wrongly shaped and out-of-range arguments on each
name. A name or an argument the sweep leaves out is listed in
``NOT_COVERED`` with the reason.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import rankcal
from rankcal import (
    CalibrationConfig,
    CalibrationError,
    InsufficientData,
    PipelineModel,
    PixelPairSet,
    SubsetSpec,
    SyntheticCamera,
    ToneSpec,
    backward_parameter_count,
    calibrate,
    deserialize_model,
    load_corpus,
    make_camera,
    make_corpus,
    map_backward,
    map_forward,
    parameter_count,
    rmse,
    save_corpus,
    select_subset,
    serialize_model,
)
from rankcal import errors
from rankcal.dataset import loads_corpus, parse_subset_spec
from rankcal.gamut import AffineGamutMap, apply_lattice, solve_affine_gamut
from rankcal.model import ColorMatrix, Lattice3, ModelMetadata, ToneCurve
from rankcal.pipeline import estimate_matrix
from rankcal.qp import QuadProgram, solve_qp
from rankcal.ranking import (build_half_spaces, estimate_row, monotonicity_score,
                             rescale_achromatic, sample_sphere)
from rankcal.simulate import deserialize_camera, make_illuminants, render_batch, serialize_camera
from rankcal.tonefit import fit_forward_tones, fit_inverse_tones, fit_monotone

NAN, INF = float("nan"), float("inf")

HEADER = "camera,illuminant,exposure,patch,raw_r,raw_g,raw_b,jpeg_r,jpeg_g,jpeg_b,white_level\n"


def pairs(n=40, **changes):
    """n unflagged pairs of a smooth grey-preserving rendering."""
    rng = np.random.default_rng(n)
    raw = rng.uniform(0.02, 0.9, size=(n, 3))
    fields = dict(raw=raw, rendered=raw ** 0.45, camera=("c",) * n, illuminant=("i0",) * n,
                  exposure=("e0",) * n, patch=tuple(f"p{i}" for i in range(n)))
    fields.update(changes)
    return PixelPairSet(**fields)


def with_value(rows, row, column, value):
    rows = np.array(rows, dtype=float)
    rows[row, column] = value
    return rows


def plain_camera(**kwargs):
    return make_camera(seed=1, gamut_mode="none", **kwargs)


def model_text(key, value):
    """The identity model's file with ``key`` set to ``value``."""
    lines = serialize_model(PipelineModel.identity()).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def identity_with(**fields):
    """The identity model with ``fields`` replaced."""
    return PipelineModel(**{**vars(PipelineModel.identity()), **fields})


def corpus_file(name, text):
    """Write ``text`` to ``name`` in the working directory (the test's own
    temporary directory) and return the name."""
    with open(name, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return name


ROWS = np.full((4, 3), 0.5)
GREYS = np.linspace(0.1, 0.9, 4)[:, None] * np.ones((1, 3))

# name -> [(label, call, the text the message must hold)]
CASES = {
    "calibrate": [
        ("no_pairs", lambda: calibrate(pairs(0)), "pairs"),
        ("too_few_pairs", lambda: calibrate(pairs(29)), "pairs"),
        ("flat_channel", lambda: calibrate(
            pairs(40, rendered=with_value(pairs(40).rendered, slice(None), 1, 0.5))),
         "channel 2"),
        ("text_pairs", lambda: calibrate("x"), "pairs must be a PixelPairSet, got str"),
        ("text_cfg", lambda: calibrate(pairs(), "x"),
         "cfg must be a CalibrationConfig, got str"),
        ("dict_cfg", lambda: calibrate(pairs(), {"sphere_count": 2000}), "cfg"),
        ("number_progress", lambda: calibrate(pairs(), progress=5),
         "progress must be None or callable, got 5"),
    ],
    "CalibrationConfig": [
        ("negative_seed", lambda: CalibrationConfig(rng_seed=-1), "rng_seed"),
        ("fractional_seed", lambda: CalibrationConfig(rng_seed=1.5), "rng_seed"),
        ("bool_seed", lambda: CalibrationConfig(rng_seed=True), "rng_seed"),
        ("small_sphere", lambda: CalibrationConfig(sphere_count=4), "sphere_count"),
        ("odd_sphere", lambda: CalibrationConfig(sphere_count=2001), "sphere_count"),
        ("nan_sphere", lambda: CalibrationConfig(sphere_count=NAN), "sphere_count"),
        ("no_trials", lambda: CalibrationConfig(trials=0), "trials"),
        ("nan_regularization", lambda: CalibrationConfig(lattice_regularization=NAN),
         "lattice_regularization"),
        ("infinite_regularization", lambda: CalibrationConfig(lattice_regularization=INF),
         "lattice_regularization"),
        ("zero_regularization", lambda: CalibrationConfig(lattice_regularization=0.0),
         "lattice_regularization"),
        ("text_regularization", lambda: CalibrationConfig(lattice_regularization="x"),
         "lattice_regularization"),
    ],
    "map_forward": [
        ("nan_row", lambda: map_forward(PipelineModel.identity(), with_value(ROWS, 2, 0, NAN)),
         "raw row 2"),
        ("infinite_row", lambda: map_forward(PipelineModel.identity(),
                                             with_value(ROWS, 1, 2, -INF)), "raw row 1"),
        ("two_columns", lambda: map_forward(PipelineModel.identity(), np.zeros((4, 2))), "raw"),
        ("empty_vector", lambda: map_forward(PipelineModel.identity(), []), "raw"),
        ("complex", lambda: map_forward(PipelineModel.identity(), ROWS + 1j), "raw"),
        ("text", lambda: map_forward(PipelineModel.identity(), "abc"), "raw"),
        ("ragged", lambda: map_forward(PipelineModel.identity(), [[0.1, 0.2, 0.3], [0.1]]),
         "raw"),
        ("text_model", lambda: map_forward("m", ROWS), "model must be a PipelineModel, got str"),
    ],
    "map_backward": [
        ("nan_row", lambda: map_backward(PipelineModel.identity(), with_value(ROWS, 3, 1, NAN)),
         "rendered row 3"),
        ("infinite_row", lambda: map_backward(PipelineModel.identity(),
                                              with_value(ROWS, 0, 0, INF)), "rendered row 0"),
        ("four_columns", lambda: map_backward(PipelineModel.identity(), np.zeros((2, 4))),
         "rendered"),
        ("complex", lambda: map_backward(PipelineModel.identity(), ROWS * 1j), "rendered"),
        ("text", lambda: map_backward(PipelineModel.identity(), "abc"), "rendered"),
        ("text_model", lambda: map_backward("m", ROWS), "model must be a PipelineModel, got str"),
    ],
    "serialize_model": [
        ("no_model", lambda: serialize_model(None), "model must be a PipelineModel, got NoneType"),
    ],
    "parameter_count": [
        ("no_model", lambda: parameter_count(None), "model must be a PipelineModel, got NoneType"),
    ],
    "backward_parameter_count": [
        ("no_model", lambda: backward_parameter_count(None),
         "model must be a PipelineModel, got NoneType"),
    ],
    "deserialize_model": [
        ("empty", lambda: deserialize_model(""), "model.version"),
        ("negative_samples", lambda: deserialize_model(model_text("meta.samples", -5)),
         "meta.samples"),
        ("zero_degree", lambda: deserialize_model(model_text("tone.degree", 0)), "tone.degree"),
        ("nan_matrix", lambda: deserialize_model(model_text("matrix.r2.c3", "nan")),
         "matrix.r2.c3"),
        ("infinite_node", lambda: deserialize_model(
            model_text("lut.forward.node.0.0.0.r", "inf")), "lut.forward.node.0.0.0.r"),
        ("one_node_lattice", lambda: deserialize_model(
            model_text("lut.backward.resolution", 1)), "lut.backward.resolution"),
        ("huge_lattice", lambda: deserialize_model(
            model_text("lut.forward.resolution", 10 ** 6)), "lut.forward.resolution"),
        ("bytes", lambda: deserialize_model(b"model.version = 1\n"),
         "text must be a str, got bytes"),
        ("falling_tone", lambda: deserialize_model(model_text("tone.forward.1.c1", -1)),
         "tone.forward.1: ToneCurve is not monotone"),
        ("huge_matrix", lambda: deserialize_model(model_text("matrix.r1.c1", "1e308")),
         "ColorMatrix rows are too large"),
        ("huge_tone", lambda: deserialize_model(model_text("tone.inverse.3.c5", "1e308")),
         "tone.inverse.3: ToneCurve coefficients are too large"),
    ],
    "load_corpus": [
        ("empty_file", lambda: load_corpus(corpus_file("empty.csv", "")), "empty.csv"),
        ("no_rows", lambda: load_corpus(corpus_file("header.csv", HEADER)), "header.csv"),
        ("nan_value", lambda: load_corpus(corpus_file(
            "nan.csv", HEADER + "c,i,e,p,nan,1,1,1,1,1,1\n")), "nan.csv: line 2"),
        ("short_row", lambda: load_corpus(corpus_file(
            "short.csv", HEADER + "c,i,e,p,1,1,1\n")), "short.csv: line 2"),
        ("jpeg_over_255", lambda: load_corpus(corpus_file(
            "jpeg.csv", HEADER + "c,i,e,p,1,1,1,1,256,1,1\n")), "jpeg.csv: line 2"),
        ("zero_white", lambda: load_corpus(corpus_file(
            "white.csv", HEADER + "c,i,e,p,1,1,1,1,1,1,0\n")), "white.csv: line 2"),
        ("number_rows", lambda: load_corpus(corpus_file(
            "ok.csv", HEADER + "c,i,e,p,1,1,1,1,1,1,1\n"), rows=5),
         "rows must be a list, got int"),
        ("overflowing_raw", lambda: load_corpus(corpus_file(
            "over.csv", HEADER + "c,i,e,p,1,1,1,1,1,1,1e-320\n")),
         "over.csv: line 2: raw / white_level overflows"),
        ("overflowing_quoted_raw", lambda: load_corpus(corpus_file(
            "quoted.csv", HEADER + 'c,i,e,p,1,1,1,1,1,1,1\n"c",i,e,p,2,0,0,1,1,1,1e-308\n')),
         "quoted.csv: line 3: raw / white_level overflows"),
        ("float_path", lambda: load_corpus(2.5),
         "path must be a str, bytes or os.PathLike, got float"),
    ],
    "save_corpus": [
        ("comma_tag", lambda: save_corpus(pairs(3, patch=("p0", "a,b", "p2")), "out.csv"),
         "patch tag 'a,b'"),
        ("comment_camera", lambda: save_corpus(pairs(3, camera=("c", "#c", "c")), "out.csv"),
         "camera tag '#c'"),
        ("text_pairs", lambda: save_corpus("x", "out.csv"),
         "pairs must be a PixelPairSet, got str"),
        ("none_path", lambda: save_corpus(pairs(3), None),
         "path must be a str, bytes or os.PathLike, got NoneType"),
    ],
    "select_subset": [
        ("empty_corpus", lambda: select_subset(pairs(0), SubsetSpec("uniform", k=1)), "corpus"),
        ("k_over_corpus", lambda: select_subset(pairs(5), SubsetSpec("uniform", k=6)), "corpus"),
        ("exposures_over_corpus", lambda: select_subset(
            pairs(5), SubsetSpec("exposures_illuminants", n_exposures=2, n_illuminants=1)),
         "exposures"),
        ("text_spec", lambda: select_subset(pairs(5), "uniform:5"),
         "spec must be a SubsetSpec, got str"),
        ("list_corpus", lambda: select_subset([1, 2], SubsetSpec("uniform", k=1)),
         "corpus must be a PixelPairSet, got list"),
    ],
    "SubsetSpec": [
        ("unknown_kind", lambda: SubsetSpec("every"), "kind"),
        ("zero_k", lambda: SubsetSpec("uniform", k=0), "k must"),
        ("fractional_k", lambda: SubsetSpec("uniform", k=1.5), "k must"),
        ("no_exposures", lambda: SubsetSpec("exposures_illuminants", n_exposures=0,
                                            n_illuminants=1), "n_exposures"),
        ("negative_seed", lambda: SubsetSpec("uniform", k=1, rng_seed=-1), "rng_seed"),
        ("list_kind", lambda: SubsetSpec(["uniform"]), "unknown subset kind ['uniform']"),
    ],
    "rmse": [
        ("nan_prediction", lambda: rmse(with_value(ROWS, 0, 0, NAN), ROWS), "predictions"),
        ("infinite_truth", lambda: rmse(ROWS, with_value(ROWS, 0, 0, INF)), "truth"),
        ("empty", lambda: rmse(np.zeros((0, 3)), np.zeros((0, 3))), "predictions"),
        ("length_mismatch", lambda: rmse(ROWS, ROWS[:2]), "predictions"),
        ("two_columns", lambda: rmse(np.zeros((2, 2)), np.zeros((2, 2))), "predictions"),
        ("complex", lambda: rmse(ROWS + 1j, ROWS), "predictions"),
        ("text", lambda: rmse("abc", ROWS), "predictions"),
        ("complex_truth", lambda: rmse(ROWS, ROWS - 1j), "truth"),
        ("unknown_domain", lambda: rmse(ROWS, ROWS, "percent"), "domain"),
    ],
    "make_camera": [
        ("fractional_seed", lambda: make_camera(seed=1.5), "seed"),
        ("negative_seed", lambda: make_camera(seed=-1), "seed"),
        ("text_seed", lambda: make_camera(seed="x"), "seed"),
        ("nan_delta", lambda: make_camera(delta=NAN), "delta"),
        ("large_delta", lambda: make_camera(delta=0.5), "delta"),
        ("unknown_gamut_mode", lambda: make_camera(gamut_mode="bent"), "gamut_mode"),
        ("nan_noise", lambda: make_camera(gamut_mode="none", noise_sigma=NAN), "noise_sigma"),
        ("negative_noise", lambda: make_camera(gamut_mode="none", noise_sigma=-1.0),
         "noise_sigma"),
        ("infinite_warp", lambda: make_camera(gamut_mode="warped", warp_scale=INF),
         "warp_scale"),
        ("line_break_id", lambda: make_camera(gamut_mode="none", camera_id="a\nb"),
         "camera_id"),
        ("flat_tone", lambda: make_camera(tone=ToneSpec("gamma", 1000.0)),
         "tone curve must be strictly increasing"),
        ("text_tone", lambda: make_camera(tone="gamma"), "tone must be a ToneSpec, got str"),
        ("text_delta", lambda: make_camera(delta="0.1"), "delta must be finite"),
        ("text_quantize", lambda: make_camera(gamut_mode="none", quantize="no"),
         "quantize must be a bool, got str"),
    ],
    "make_corpus": [
        ("no_patches", lambda: make_corpus(plain_camera(), 0), "n_patches"),
        ("fractional_patches", lambda: make_corpus(plain_camera(), 2.5), "n_patches"),
        ("two_gains", lambda: make_corpus(plain_camera(), 5, illuminants=[[1, 1]]),
         "illuminants[0]"),
        ("text_gain", lambda: make_corpus(plain_camera(), 5, illuminants=[np.ones(3), "abc"]),
         "illuminants[1]"),
        ("complex_gain", lambda: make_corpus(plain_camera(), 5, illuminants=[[1, 1j, 1]]),
         "illuminants[0]"),
        ("nan_gain", lambda: make_corpus(plain_camera(), 5, illuminants=[[1, 1, NAN]]),
         "illuminants[0][2]"),
        ("no_illuminants", lambda: make_corpus(plain_camera(), 5, illuminants=[]),
         "illuminants"),
        ("two_rows_of_gains", lambda: make_corpus(plain_camera(), 5,
                                                  illuminants=[np.ones((2, 3))]),
         "illuminants[0] must hold 3 gains, got shape (2, 3)"),
        ("text_exposure", lambda: make_corpus(plain_camera(), 5, exposures=["a"]),
         "exposures[0]"),
        ("infinite_exposure", lambda: make_corpus(plain_camera(), 5, exposures=[1.0, INF]),
         "exposures[1]"),
        ("exposure_list", lambda: make_corpus(plain_camera(), 5, exposures=[[1.0, 2.0]]),
         "exposures[0]"),
        ("no_exposures", lambda: make_corpus(plain_camera(), 5, exposures=[]), "exposures"),
        ("negative_seed", lambda: make_corpus(plain_camera(), 5, rng_seed=-1), "rng_seed"),
        ("fractional_seed", lambda: make_corpus(plain_camera(), 5, rng_seed=0.5), "rng_seed"),
        ("text_camera", lambda: make_corpus("cam", 5),
         "camera must be a SyntheticCamera, got str"),
    ],
    "ToneSpec": [
        ("unknown_family", lambda: ToneSpec("log"), "family"),
        ("infinite_gamma", lambda: ToneSpec("gamma", INF), "gamma"),
        ("nan_gamma", lambda: ToneSpec("gamma", NAN), "gamma"),
        ("zero_gamma", lambda: ToneSpec("gamma", 0.0), "gamma"),
        ("text_gamma", lambda: ToneSpec("gamma", "x"), "gamma"),
        ("srgb_negative_gamma", lambda: ToneSpec("srgb", -1.0), "gamma"),
        ("filmic_nan_gamma", lambda: ToneSpec("filmic", NAN), "gamma"),
    ],
    "SyntheticCamera": [
        ("text_seed", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(), seed="x"),
         "seed"),
        ("negative_seed", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(), seed=-1),
         "seed"),
        ("fractional_seed", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                    seed=1.5), "seed"),
        ("singular_matrix", lambda: SyntheticCamera(
            ColorMatrix([[1, 0, 0], [1, 0, 0], [0, 0, 1]]), ToneSpec()), "matrix"),
        ("negative_warp", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                  warp_scale=-0.1), "warp_scale"),
        ("warp_without_gamut", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                       warp_scale=0.1), "gamut"),
        ("infinite_noise", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                   noise_sigma=INF), "noise_sigma"),
        ("line_break_id", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                  camera_id="a\rb"), "camera_id"),
        ("int_id", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(), camera_id=5),
         "camera_id must be a str, got int"),
        ("array_matrix", lambda: SyntheticCamera(np.eye(3), ToneSpec()),
         "matrix must be a ColorMatrix, got ndarray"),
        ("function_tone", lambda: SyntheticCamera(ColorMatrix.identity(), np.sqrt),
         "tone must be a ToneSpec, got ufunc"),
        ("array_gamut", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                gamut=np.eye(3)),
         "gamut must be a AffineGamutMap, got ndarray"),
        ("text_quantize", lambda: SyntheticCamera(ColorMatrix.identity(), ToneSpec(),
                                                  quantize="no"),
         "quantize must be a bool, got str"),
    ],
    "PixelPairSet": [
        ("nan_raw", lambda: pairs(4, raw=with_value(GREYS, 1, 1, NAN)), "raw"),
        ("infinite_rendered", lambda: pairs(4, rendered=with_value(GREYS, 0, 2, INF)),
         "rendered"),
        ("raw_two_columns", lambda: pairs(4, raw=np.zeros((4, 2))), "raw"),
        ("complex_raw", lambda: pairs(4, raw=GREYS + 0j), "raw"),
        ("text_rendered", lambda: pairs(1, rendered=[["a", "b", "c"]]), "rendered"),
        ("rendered_over_1", lambda: pairs(4, rendered=with_value(GREYS, 0, 0, 1.5)),
         "rendered"),
        ("negative_raw", lambda: pairs(4, raw=with_value(GREYS, 3, 0, -0.1)), "raw"),
        ("short_tags", lambda: pairs(4, patch=("p0",)), "patch"),
        ("short_rendered", lambda: pairs(4, rendered=GREYS[:3]),
         "raw and rendered must have the same shape, got (4, 3) and (3, 3)"),
        ("bare_string_tags", lambda: pairs(4, camera="cam0"), "camera tags must have shape"),
        ("two_d_tags", lambda: pairs(4, illuminant=[["i0"]] * 4), "illuminant tags must"),
        ("int_tags", lambda: pairs(4, exposure=[0, 1, 2, 3]), "exposure tags must all be str"),
        ("bytes_tag", lambda: pairs(2, patch=["p0", b"p1"]), "patch tags must all be str"),
        ("from_int_tag", lambda: PixelPairSet.from_arrays(GREYS, GREYS, camera=5),
         "camera tags must all be str"),
        ("subset_outside", lambda: pairs(4).subset([4]), "subset index"),
        ("subset_floats", lambda: pairs(4).subset([0.5]), "subset indices"),
        ("subset_short_mask", lambda: pairs(4).subset([True]), "subset mask"),
        ("from_scalar", lambda: PixelPairSet.from_arrays(5.0, 0.5), "raw"),
        ("from_complex", lambda: PixelPairSet.from_arrays(GREYS * 1j, GREYS), "raw"),
    ],
    "PipelineModel": [
        ("zero_degree", lambda: PipelineModel.identity(degree=0), "degree"),
        ("fractional_degree", lambda: PipelineModel.identity(degree=1.5), "degree"),
        ("one_node", lambda: PipelineModel.identity(resolution=1), "resolution"),
        ("negative_resolution", lambda: PipelineModel.identity(resolution=-3), "resolution"),
        ("fractional_resolution", lambda: PipelineModel.identity(resolution=2.5),
         "resolution"),
        ("two_tone_curves", lambda: PipelineModel(
            **{**vars(PipelineModel.identity()),
               "forward_tones": PipelineModel.identity().forward_tones[:2]}),
         "forward tone curves"),
        ("mixed_degrees", lambda: PipelineModel(
            **{**vars(PipelineModel.identity()),
               "inverse_tones": PipelineModel.identity(degree=3).inverse_tones}), "degree"),
        ("int_tone_curves", lambda: identity_with(forward_tones=(1, 2, 3)),
         "forward_tones[0] must be a ToneCurve, got int"),
        ("int_inverse_tones", lambda: identity_with(inverse_tones=5),
         "need exactly three inverse tone curves"),
        ("array_matrix", lambda: identity_with(matrix=np.eye(3)),
         "matrix must be a ColorMatrix, got ndarray"),
        ("array_lattice", lambda: identity_with(forward_lut=np.zeros((5, 5, 5, 3))),
         "forward_lut must be a Lattice3, got ndarray"),
        ("array_backward_lattice", lambda: identity_with(backward_lut=np.zeros((5, 5, 5, 3))),
         "backward_lut must be a Lattice3, got ndarray"),
        ("dict_metadata", lambda: identity_with(metadata={}),
         "metadata must be a ModelMetadata, got dict"),
        ("negative_samples", lambda: identity_with(metadata=ModelMetadata(samples=-3)),
         "samples must be an integer >= 0, got -3"),
        ("fractional_samples", lambda: identity_with(metadata=ModelMetadata(samples=2.7)),
         "samples must be an integer >= 0, got 2.7"),
        ("int_camera", lambda: identity_with(metadata=ModelMetadata(camera=5)),
         "camera must be a str, got int"),
        ("str_settings", lambda: ModelMetadata(settings="ab"),
         "settings must be a tuple or list of (key, value) pairs, got str"),
        ("dict_settings", lambda: ModelMetadata(settings={"ab": 1, "cd": 2}),
         "settings must be a tuple or list of (key, value) pairs, got dict"),
        ("none_settings", lambda: ModelMetadata(settings=None),
         "settings must be a tuple or list of (key, value) pairs, got NoneType"),
        ("str_setting", lambda: ModelMetadata(settings=["ab"]),
         "settings entries must be (key, value) pairs, got 'ab'"),
        ("short_setting", lambda: ModelMetadata(settings=[("a",)]),
         "settings entries must be (key, value) pairs, got ('a',)"),
        ("long_setting", lambda: ModelMetadata(settings=[["a", "b", "c"]]),
         "settings entries must be (key, value) pairs, got ['a', 'b', 'c']"),
    ],
}

NOT_COVERED = {
    "calibrate(cfg.sphere_count)": "a huge even count is valid, and is not tried: its sphere "
                                   "would take gigabytes",
    "calibrate(progress)": "what a callable callback raises when called is passed on",
    "load_corpus(path)": "a path that cannot be read raises OSError",
    "save_corpus(path)": "a path that cannot be written raises OSError",
    **{name: "an exception class: it carries any message"
       for name, value in vars(errors).items()
       if isinstance(value, type) and issubclass(value, CalibrationError)},
}

SWEEP = [pytest.param(call, cause, id=f"{name}-{label}")
         for name, cases in CASES.items() for label, call, cause in cases]


def test_sweep_covers_every_public_name():
    excused = {key for key in NOT_COVERED if "(" not in key}
    assert set(CASES).isdisjoint(excused)
    assert set(CASES) | excused == set(rankcal.__all__)
    assert {key.split("(")[0] for key in NOT_COVERED} <= set(rankcal.__all__)


@pytest.mark.parametrize("call, cause", SWEEP)
def test_bad_argument_raises_named_error(call, cause, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        # a bad value is refused, not converted with a warning
        warnings.simplefilter("error")
        with pytest.raises((ValueError, CalibrationError)) as info:
            call()
    assert cause in str(info.value)


# min 0.5 |x|^2 - 2 x1 - 2 x2 subject to x1 + x2 <= 1: unconstrained at
# (2, 2), which violates the row by 3; the answer is (0.5, 0.5)
ONE_ROW_QP = QuadProgram(np.eye(2), np.array([-2.0, -2.0]), np.array([[1.0, 1.0]]),
                         np.array([1.0]))

# The stage functions behind calibrate keep its entry checks: an argument
# of the wrong type raises ValueError naming it. build_half_spaces checks
# pairs for estimate_row and estimate_matrix.
STAGE_CASES = {
    "build_half_spaces": (lambda: build_half_spaces("x", 1), "pairs must be a PixelPairSet"),
    "estimate_row": (lambda: estimate_row("x", 1, sample_sphere(6)), "pairs must be a"),
    "estimate_matrix": (lambda: estimate_matrix("x", sample_sphere(6)), "pairs must be a"),
    "monotonicity_score": (lambda: monotonicity_score("x", np.ones(3), 1), "pairs must be a"),
    "rescale_achromatic-pairs": (lambda: rescale_achromatic(ColorMatrix.identity(), "x"),
                                 "pairs must be a PixelPairSet, got str"),
    "rescale_achromatic-m": (lambda: rescale_achromatic("m", pairs()),
                             "m must be a ColorMatrix, got str"),
    "fit_forward_tones-pairs": (lambda: fit_forward_tones(ColorMatrix.identity(), "x"),
                                "pairs must be a PixelPairSet, got str"),
    "fit_forward_tones-m": (lambda: fit_forward_tones("m", pairs()),
                            "m must be a ColorMatrix, got str"),
    "fit_inverse_tones-m": (lambda: fit_inverse_tones("m", pairs()),
                            "m must be a ColorMatrix, got str"),
    "render_batch": (lambda: render_batch("cam", ROWS), "camera must be a SyntheticCamera"),
    "serialize_camera": (lambda: serialize_camera(None),
                         "camera must be a SyntheticCamera, got NoneType"),
    "deserialize_camera": (lambda: deserialize_camera(5), "text must be a str, got int"),
    "apply_lattice": (lambda: apply_lattice("lut", ROWS), "lut must be a Lattice3, got str"),
    "solve_qp": (lambda: solve_qp("p"), "prob must be a QuadProgram, got str"),
    **{f"solve_qp-{label}_tol": (lambda tol=tol: solve_qp(ONE_ROW_QP, tol),
                                 f"tol must be finite and > 0, got {tol!r}")
       for label, tol in [("inf", np.inf), ("nan", np.nan), ("negative", -1.0),
                          ("zero", 0.0), ("text", "a"), ("bool", True)]},
    "loads_corpus-int": (lambda: loads_corpus(123), "text must be a str, got int"),
    "loads_corpus-bytes": (lambda: loads_corpus(b"x"), "text must be a str, got bytes"),
    "parse_subset_spec": (lambda: parse_subset_spec(5), "text must be a str, got int"),
    "make_illuminants-fractional_seed": (lambda: make_illuminants(2, seed=1.5),
                                         "seed must be an integer >= 0, got 1.5"),
    "make_illuminants-negative_seed": (lambda: make_illuminants(2, seed=-1),
                                       "seed must be an integer >= 0, got -1"),
}


@pytest.mark.parametrize("call, cause", STAGE_CASES.values(), ids=STAGE_CASES.keys())
def test_stage_function_names_a_wrong_typed_argument(call, cause):
    with pytest.raises(ValueError) as info:
        call()
    assert cause in str(info.value)


# Stage functions take their arrays through the value types' checks:
# complex, ragged or NaN input raises ValueError naming the argument,
# never a warning or a result of NaN rows.
STAGE_ARRAY_CASES = {
    "fit_monotone-complex_x": (lambda: fit_monotone(np.linspace(0, 1, 20) + 0j,
                                                    np.linspace(0, 1, 20)),
                               "x must be an array of real numbers, got dtype complex128"),
    "fit_monotone-complex_y": (lambda: fit_monotone(np.linspace(0, 1, 20),
                                                    np.linspace(0, 1, 20) + 0j),
                               "y must be an array of real numbers, got dtype complex128"),
    "fit_monotone-overflowing_y": (lambda: fit_monotone(np.linspace(0, 1, 20),
                                                        np.full(20, 1e307)),
                                   "y is too large to fit"),
    "solve_affine_gamut-overflowing_points": (
        lambda: solve_affine_gamut(np.random.default_rng(0).uniform(0, 1, (10, 3)) * 1e300),
        "points are too large to fit"),
    "AffineGamutMap.apply-complex": (lambda: AffineGamutMap(np.eye(3), np.zeros(3)).apply(
        ROWS + 0j), "v must be an array of real numbers, got dtype complex128"),
    "apply_lattice-ragged": (lambda: apply_lattice(Lattice3.identity(2),
                                                   [[0.1, 0.2, 0.3], [0.1]]),
                             "v must be an array of real numbers, got a ragged nesting"),
    "render_batch-nan_raw": (lambda: render_batch(plain_camera(), [[NAN, 0.2, 0.3]]),
                             "raws row 0 is not finite"),
    "render_batch-int_rng": (lambda: render_batch(plain_camera(noise_sigma=0.01), ROWS, rng=5),
                             "rng must be a Generator, got int"),
    "render_batch-int_rng_clean": (lambda: render_batch(plain_camera(), ROWS, rng=5),
                                   "rng must be a Generator, got int"),
}


@pytest.mark.parametrize("call, cause", STAGE_ARRAY_CASES.values(),
                         ids=STAGE_ARRAY_CASES.keys())
def test_stage_function_names_a_bad_array(call, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    assert str(info.value).startswith(cause)


def program(**arrays):
    """A two-variable program with one constraint, with ``arrays`` replaced."""
    fields = dict(q=np.eye(2), c=np.zeros(2), a=np.ones((1, 2)), b=np.ones(1))
    return QuadProgram(**{**fields, **arrays})


# Every value type takes its arrays through model._as_float_array: complex
# or text input raises ValueError naming the field, never a warning.
ARRAY_FIELDS = {
    "ColorMatrix.rows": lambda bad: ColorMatrix(bad(np.eye(3))),
    "ToneCurve.coefficients": lambda bad: ToneCurve(bad(ToneCurve.linear().coefficients)),
    "Lattice3.nodes": lambda bad: Lattice3(bad(Lattice3.identity(2).nodes)),
    "AffineGamutMap.t": lambda bad: AffineGamutMap(bad(np.eye(3)), np.zeros(3)),
    "AffineGamutMap.o": lambda bad: AffineGamutMap(np.eye(3), bad(np.zeros(3))),
    "Q": lambda bad: program(q=bad(np.eye(2))),
    "c": lambda bad: program(c=bad(np.zeros(2))),
    "A": lambda bad: program(a=bad(np.ones((1, 2)))),
    "b": lambda bad: program(b=bad(np.ones(1))),
}
BAD_ARRAYS = {
    "complex": (lambda a: a + 1j, "got dtype complex128"),
    "text": (lambda a: a.astype(str), "got dtype <U"),
}


@pytest.mark.parametrize("kind", BAD_ARRAYS)
@pytest.mark.parametrize("field", ARRAY_FIELDS)
def test_value_type_refuses_complex_and_text_by_field(field, kind):
    bad, cause = BAD_ARRAYS[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            ARRAY_FIELDS[field](bad)
    assert str(info.value).startswith(f"{field} must be an array of real numbers, {cause}")


# builders of two equal instances of each value type; those that hold an
# array compare and hash by identity, the others by value
VALUE_TYPES = {
    "CalibrationConfig": (lambda: CalibrationConfig(sphere_count=2000), True),
    "SubsetSpec": (lambda: SubsetSpec("uniform", k=5), True),
    "ToneSpec": (lambda: ToneSpec("srgb"), True),
    "PipelineModel": (PipelineModel.identity, False),
    "PixelPairSet": (pairs, False),
    "SyntheticCamera": (plain_camera, False),
    "ColorMatrix": (ColorMatrix.identity, False),
    "ToneCurve": (ToneCurve.linear, False),
    "Lattice3": (Lattice3.identity, False),
}


def test_every_root_value_type_is_compared():
    assert {name for name in rankcal.__all__
            if dataclasses.is_dataclass(getattr(rankcal, name))} <= set(VALUE_TYPES)


@pytest.mark.parametrize("build, by_value", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_equality_and_hash_never_raise(build, by_value):
    a, b = build(), build()
    assert a == a and not a != a
    assert hash(a) == hash(a)
    assert (a == b) is by_value
    assert len({a, b}) == (1 if by_value else 2)


def test_pair_set_equals_only_itself():
    corpus = pairs()
    assert corpus != corpus.subset(np.arange(len(corpus)))
    assert corpus in {corpus}


CORPUS_KINDS = ("camera", "grey", "planar", "reversed", "random", "tiny", "few_levels",
                "swapped")


def adversarial_pairs(kind: str, n: int, levels: int, seed: int) -> PixelPairSet:
    """An n-pair corpus of ``kind``, drawn from a quantized camera's
    corpus: the corpus itself, or its raws made all grey or coplanar, its
    renderings reversed, random, cut to ``levels`` values or with their
    channels swapped; "tiny" keeps fewer pairs than calibration needs."""
    camera = make_camera(seed=seed, gamut_mode="none", quantize=True)
    corpus = make_corpus(camera, n % 29 + 1 if kind == "tiny" else n, rng_seed=seed)
    raw, rendered = corpus.raw, corpus.rendered
    rng = np.random.default_rng(seed)
    if kind == "grey":
        raw = np.repeat(raw.mean(axis=1, keepdims=True), 3, axis=1)
    elif kind == "planar":
        raw = np.column_stack([raw[:, :2], 0.5 * (raw[:, 0] + raw[:, 1])])
    if kind in ("grey", "planar"):
        rendered = render_batch(camera, raw)
    elif kind == "reversed":
        rendered = 1.0 - rendered
    elif kind == "random":
        rendered = np.round(rng.uniform(0.0, 1.0, size=raw.shape) * 255.0) / 255.0
    elif kind == "few_levels":
        rendered = np.round(rendered * (levels - 1)) / (levels - 1)
    elif kind == "swapped":
        rendered = np.roll(rendered, 1 + seed % 2, axis=1)
    return PixelPairSet.from_arrays(raw, rendered, camera="sim")


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(CORPUS_KINDS), n=st.integers(30, 160), levels=st.integers(2, 14),
       seed=st.integers(0, 2 ** 16))
@example(kind="camera", n=140, levels=2, seed=1)
@example(kind="grey", n=60, levels=2, seed=2)
@example(kind="planar", n=60, levels=2, seed=3)
@example(kind="reversed", n=60, levels=2, seed=4)
@example(kind="random", n=60, levels=2, seed=5)
@example(kind="tiny", n=60, levels=2, seed=6)
@example(kind="few_levels", n=60, levels=9, seed=7)
@example(kind="swapped", n=60, levels=2, seed=8)
def test_calibrate_ends_in_named_error_or_valid_model(kind, n, levels, seed):
    corpus = adversarial_pairs(kind, n, levels, seed)
    try:
        model = calibrate(corpus, CalibrationConfig(rng_seed=seed, sphere_count=2000, trials=2))
    except CalibrationError as exc:
        event(f"{kind}: {type(exc).__name__}")
        # a stage's error is prefixed with its name; the input check's
        # names the pairs or the channel it found wanting
        assert str(exc).startswith("stage '") or isinstance(exc, InsufficientData), exc
        return
    event(f"{kind}: model")
    text = serialize_model(model)
    assert serialize_model(deserialize_model(text)) == text
    for mapped in (map_forward(model, corpus.raw), map_backward(model, corpus.rendered)):
        assert np.isfinite(mapped).all() and mapped.min() >= 0.0 and mapped.max() <= 1.0
