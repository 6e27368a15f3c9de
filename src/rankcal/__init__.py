"""Rank-based radiometric calibration of camera rendering pipelines.

Recovers, from corresponding RAW/rendered pixel pairs, a colour
correction matrix, per-channel monotone tone curves, and a small
gamut-correction lattice, and applies them in both directions.
"""

from .dataset import SubsetSpec, load_corpus, rmse, save_corpus, select_subset
from .errors import (
    CalibrationError,
    CorpusFormatError,
    DegenerateChannel,
    DegenerateGeometry,
    DegenerateSpan,
    EmptyCorpus,
    Infeasible,
    InsufficientData,
    InsufficientVariety,
    MaxIterations,
    ModelParseError,
    NoAchromaticSample,
    SingularMatrix,
)
from .gamut import AffineGamutMap, apply_lattice, fit_lattice, solve_affine_gamut
from .model import (
    ColorMatrix,
    Lattice3,
    ModelMetadata,
    PipelineModel,
    PixelPairSet,
    ToneCurve,
    backward_parameter_count,
    parameter_count,
)
from .modelfile import deserialize_model, serialize_model
from .pipeline import (
    CalibrationConfig,
    calibrate,
    estimate_matrix,
    map_backward,
    map_forward,
)
from .qp import QuadProgram, QpSolution, solve_qp
from .ranking import (
    SphereSample,
    build_half_spaces,
    estimate_row,
    monotonicity_score,
    rescale_achromatic,
    sample_sphere,
)
from .simulate import (
    SyntheticCamera,
    ToneSpec,
    make_camera,
    make_corpus,
)
from .tonefit import fit_forward_tones, fit_inverse_tones, fit_monotone

__version__ = "0.1.0"

__all__ = [
    "AffineGamutMap",
    "CalibrationConfig",
    "CalibrationError",
    "ColorMatrix",
    "CorpusFormatError",
    "DegenerateChannel",
    "DegenerateGeometry",
    "DegenerateSpan",
    "EmptyCorpus",
    "Infeasible",
    "InsufficientData",
    "InsufficientVariety",
    "Lattice3",
    "MaxIterations",
    "ModelMetadata",
    "ModelParseError",
    "NoAchromaticSample",
    "PipelineModel",
    "PixelPairSet",
    "QpSolution",
    "QuadProgram",
    "SingularMatrix",
    "SphereSample",
    "SubsetSpec",
    "SyntheticCamera",
    "ToneCurve",
    "ToneSpec",
    "apply_lattice",
    "backward_parameter_count",
    "build_half_spaces",
    "calibrate",
    "deserialize_model",
    "estimate_matrix",
    "estimate_row",
    "fit_forward_tones",
    "fit_inverse_tones",
    "fit_lattice",
    "fit_monotone",
    "load_corpus",
    "make_camera",
    "make_corpus",
    "map_backward",
    "map_forward",
    "monotonicity_score",
    "parameter_count",
    "rescale_achromatic",
    "rmse",
    "sample_sphere",
    "save_corpus",
    "select_subset",
    "serialize_model",
    "solve_affine_gamut",
    "solve_qp",
]
