"""Rank-based radiometric calibration of camera rendering pipelines.

Recovers, from corresponding RAW/rendered pixel pairs, a colour
correction matrix, per-channel monotone tone curves, and a small
gamut-correction lattice, and applies them in both directions.

The package root holds the workflow: calibration, the two maps, model
and corpus files, subsets and RMSE, the simulator, and the error
classes. The stages behind ``calibrate`` are imported from their modules:
``ranking``, ``pipeline``, ``tonefit``, ``gamut``, ``qp`` and ``model``.
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
    SingularMatrix,
)
from .model import PipelineModel, PixelPairSet, backward_parameter_count, parameter_count
from .modelfile import deserialize_model, serialize_model
from .pipeline import CalibrationConfig, calibrate, map_backward, map_forward
from .simulate import SyntheticCamera, ToneSpec, make_camera, make_corpus

__version__ = "0.1.0"

__all__ = [
    "CalibrationConfig",
    "CalibrationError",
    "CorpusFormatError",
    "DegenerateChannel",
    "DegenerateGeometry",
    "DegenerateSpan",
    "EmptyCorpus",
    "Infeasible",
    "InsufficientData",
    "InsufficientVariety",
    "MaxIterations",
    "ModelParseError",
    "PipelineModel",
    "PixelPairSet",
    "SingularMatrix",
    "SubsetSpec",
    "SyntheticCamera",
    "ToneSpec",
    "backward_parameter_count",
    "calibrate",
    "deserialize_model",
    "load_corpus",
    "make_camera",
    "make_corpus",
    "map_backward",
    "map_forward",
    "parameter_count",
    "rmse",
    "save_corpus",
    "select_subset",
    "serialize_model",
]
