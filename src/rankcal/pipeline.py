"""End-to-end calibration and bidirectional application.

Forward rendering is modelled as LUT(f(M rho)): colour correction, then
per-channel tone curves, then a small gamut-correction lattice. The
backward path reuses the forward matrix: raw = LUT_b(M^-1 f^-1(P)), with
its lattice fitted in linear raw where coarse uniform nodes are better
justified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, InsufficientData
from .gamut import apply_lattice, fit_lattice
from .model import (
    ColorMatrix,
    ModelMetadata,
    PipelineModel,
    PixelPairSet,
    _as_rows,
    _check_finite,
    _check_integer,
    _check_rows,
    _check_type,
)
from .ranking import (
    DEFAULT_SPHERE_COUNT,
    DEFAULT_TRIALS,
    MAX_COLORS,
    SphereSample,
    _check_sphere_count,
    estimate_row,
    rescale_achromatic,
    sample_sphere,
)
from .tonefit import TONE_DEGREE, TONE_SMOOTHNESS, fit_forward_tones, fit_inverse_tones

MIN_CALIBRATION_PAIRS = 30
MIN_DISTINCT_RENDERED = 10
# Nodes per axis of both lattices. With degree-7 tone curves this keeps
# the forward model at 9 + 3 * 8 + 3 * 5^3 = 408 parameters.
LATTICE_RESOLUTION = 5

# Rows mapped per block by map_forward, map_backward and
# simulate.render_batch. The scratch of a map's block (a few (n, 3) arrays
# for the tone and lattice layers) is then about 11 MB. At 1M pixels,
# blocks of 8k to 64k rows map equally fast and larger ones are slower.
_MAP_BLOCK = 65_536


@dataclass(frozen=True)
class CalibrationConfig:
    """Settings for a full calibration run.

    The lattice regularization here is deliberately stiffer than the
    fit_lattice default: calibration targets are quantized or noisy
    renderings, and at small sample counts a loose lattice chases
    per-cell noise (measured 1.7x worse backward error at 140 pairs),
    while rich corpora are insensitive to the extra stiffness. It stays a
    setting because the right value depends on the camera: on an
    sRGB-toned camera, whose finite-slope toe a degree-7 curve misses
    near black, the forward error at black (seed-11 camera, 140 pairs)
    is 3.18/255 at 1e-3 and 6.70/255 at 0.05.
    """

    rng_seed: int = 0
    sphere_count: int = DEFAULT_SPHERE_COUNT
    trials: int = DEFAULT_TRIALS
    lattice_regularization: float = 0.05

    def __post_init__(self) -> None:
        _check_integer(self.rng_seed, "rng_seed", 0)
        _check_sphere_count(self.sphere_count, "sphere_count")
        _check_integer(self.trials, "trials", 1)
        _check_finite(self.lattice_regularization, "lattice_regularization",
                      positive=True)

    def settings_dict(self) -> dict:
        return {
            "seed": self.rng_seed,
            "sphere_count": self.sphere_count,
            "trials": self.trials,
            "max_colors": MAX_COLORS,
            "tone_degree": TONE_DEGREE,
            "tone_smoothness": TONE_SMOOTHNESS,
            "lattice_resolution": LATTICE_RESOLUTION,
            "lattice_regularization": self.lattice_regularization,
        }


class _Stage:
    """Context manager adding the stage name to errors and timing it."""

    def __init__(self, name: str, progress):
        self.name = name
        self.progress = progress

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            message = f"stage {self.name!r}: {exc}"
            if isinstance(exc, CalibrationError):
                raise type(exc)(message) from exc
            if isinstance(exc, Exception):
                raise CalibrationError(message) from exc
            return False
        if self.progress is not None:
            self.progress(self.name, time.perf_counter() - self.t0)
        return False


def _check_calibration_input(pairs: PixelPairSet) -> PixelPairSet:
    pool = pairs.unsaturated()
    if len(pool) < MIN_CALIBRATION_PAIRS:
        raise InsufficientData(
            f"calibration needs at least {MIN_CALIBRATION_PAIRS} unsaturated "
            f"pairs, have {len(pool)}"
        )
    for ch in range(3):
        # sorted, not np.unique, which imports numpy.ma
        values = np.sort(pool.rendered[:, ch])
        distinct = 1 + np.count_nonzero(values[1:] != values[:-1])
        if distinct < MIN_DISTINCT_RENDERED:
            raise InsufficientData(
                f"channel {ch + 1} has {distinct} distinct rendered values; "
                f"need {MIN_DISTINCT_RENDERED}"
            )
    return pool


def estimate_matrix(pairs: PixelPairSet, sphere: SphereSample,
                    trials: int = DEFAULT_TRIALS, *, rng_seed: int = 0) -> ColorMatrix:
    """Estimate all three rows as unit directions; row ch is seeded with
    ``rng_seed + 101 * (ch - 1)``."""
    rows = [
        estimate_row(pairs, ch, sphere, trials, rng_seed=rng_seed + 101 * (ch - 1))
        for ch in (1, 2, 3)
    ]
    return ColorMatrix(np.vstack(rows))


def calibrate(pairs: PixelPairSet, cfg: CalibrationConfig = CalibrationConfig(),
              progress=None) -> PipelineModel:
    """Recover the full pipeline from pixel pairs.

    Stages: matrix row directions, row scales (``rescale_achromatic``),
    forward tone curves, forward lattice, inverse tone curves, backward
    lattice.
    Deterministic for a fixed seed. ``progress(stage, seconds)`` is
    called after each stage when provided. Arguments of the wrong type
    raise ValueError naming the argument before any stage runs.
    """
    _check_type(pairs, PixelPairSet, "pairs")
    _check_type(cfg, CalibrationConfig, "cfg")
    if progress is not None and not callable(progress):
        raise ValueError(f"progress must be None or callable, got {progress!r}")
    pool = _check_calibration_input(pairs)

    with _Stage("matrix", progress):
        directions = estimate_matrix(pairs, sample_sphere(cfg.sphere_count),
                                     cfg.trials, rng_seed=cfg.rng_seed)

    with _Stage("achromatic_rescale", progress):
        matrix = rescale_achromatic(directions, pairs)
        matrix_inv = matrix.inverse()  # raises SingularMatrix

    with _Stage("forward_tones", progress):
        forward_tones = fit_forward_tones(matrix, pairs)

    with _Stage("forward_lattice", progress):
        toned = _toned(pool.raw, matrix.rows.T, forward_tones)
        forward_lut = fit_lattice(toned, pool.rendered, LATTICE_RESOLUTION,
                                  cfg.lattice_regularization)

    with _Stage("inverse_tones", progress):
        inverse_tones = fit_inverse_tones(matrix, pairs)

    with _Stage("backward_lattice", progress):
        back = _linear_raw(pool.rendered, matrix_inv.T, inverse_tones)
        backward_lut = fit_lattice(back, pool.raw, LATTICE_RESOLUTION,
                                   cfg.lattice_regularization)

    with _Stage("assemble", progress):
        cameras = sorted(set(pairs.camera))
        camera_id = cameras[0] if len(cameras) == 1 else "mixed"
        model = PipelineModel(
            matrix=matrix,
            forward_tones=forward_tones,
            forward_lut=forward_lut,
            inverse_tones=inverse_tones,
            backward_lut=backward_lut,
            metadata=ModelMetadata.from_dict(
                camera_id, len(pairs), cfg.settings_dict()
            ),
        )
    return model


def _toned(raw: np.ndarray, rows_t: np.ndarray, forward_tones) -> np.ndarray:
    """Raw rows colour-corrected, clipped to [0, 1] and toned: the input
    of the forward lattice."""
    corrected = np.clip(raw @ rows_t, 0.0, 1.0)
    return np.column_stack([forward_tones[ch](corrected[:, ch]) for ch in range(3)])


def _linear_raw(rendered: np.ndarray, inverse_t: np.ndarray, inverse_tones) -> np.ndarray:
    """Rendered rows clipped to [0, 1], linearized, taken through M^-1 and
    clipped again: the input of the backward lattice."""
    rendered = np.clip(rendered, 0.0, 1.0)
    linearized = np.column_stack([inverse_tones[ch](rendered[:, ch]) for ch in range(3)])
    return np.clip(linearized @ inverse_t, 0.0, 1.0)


def _map_in_blocks(rows: np.ndarray, layers) -> np.ndarray:
    """Run ``layers`` over row blocks and clamp each result into one output.

    The rows are split into ceil(n / _MAP_BLOCK) near-equal blocks, so the
    layers' scratch stays fixed per block whatever n is, and no block holds
    a single row unless n == 1: numpy forms a one-row product with gemv,
    which rounds differently from the batched product.
    """
    out = np.empty_like(rows)
    sections = max(1, -(-rows.shape[0] // _MAP_BLOCK))
    for block, dest in zip(np.array_split(rows, sections), np.array_split(out, sections)):
        np.clip(layers(block), 0.0, 1.0, out=dest)
    return out


def map_forward(model: PipelineModel, raws: np.ndarray) -> np.ndarray:
    """Raw rows (n, 3) to predicted rendered rows in [0, 1]^3.

    Raises ValueError naming the first row with a NaN or infinite value.
    """
    _check_type(model, PipelineModel, "model")
    raws = _as_rows(raws, "raw")
    _check_rows(raws, "raw", finite=True)
    rows_t = model.matrix.rows.T

    def layers(block):
        return apply_lattice(model.forward_lut, _toned(block, rows_t, model.forward_tones))

    return _map_in_blocks(raws, layers)


def map_backward(model: PipelineModel, rendered: np.ndarray) -> np.ndarray:
    """Rendered rows (n, 3) to predicted raw rows in [0, 1]^3.

    Rendered values are clipped to [0, 1], the domain of the inverse tone
    curves, as ``map_forward`` clips the corrected values before its tone
    curves. Raises ValueError naming the first row with a NaN or infinite
    value.
    """
    _check_type(model, PipelineModel, "model")
    rendered = _as_rows(rendered, "rendered")
    _check_rows(rendered, "rendered", finite=True)
    inverse_t = model.matrix.inverse().T

    def layers(block):
        return apply_lattice(model.backward_lut,
                             _linear_raw(block, inverse_t, model.inverse_tones))

    return _map_in_blocks(rendered, layers)
