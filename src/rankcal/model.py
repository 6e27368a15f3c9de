"""Value types shared by every stage of the calibration toolkit.

All colour math runs on normalized intensities: raw values are divided by
the sensor white level and rendered values by 255 at ingestion, so both
sides live in (or near) the unit interval. Types are immutable after
construction and validate their own invariants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Integral, Real

import numpy as np

# Grid used to validate tone-curve monotonicity, and the slack allowed
# between consecutive grid values.
TONE_GRID_POINTS = 1024
TONE_MONOTONE_TOL = 1e-9

# |det M| must exceed this once the rows are scaled.
MATRIX_DET_MIN = 1e-8

# Forward/inverse tone curves must invert each other to within this bound
# on the 256-point grid, wherever the forward slope is at least 0.05.
TONE_ROUNDTRIP_TOL = 0.05
TONE_ROUNDTRIP_SLOPE_MIN = 0.05

# Raw components at or above this fraction of the white level are
# clipped: their rows are flagged saturated (see PixelPairSet), and no
# rendered component at or above it is used as rank evidence.
SATURATION_FRACTION = 0.995

# The tag columns of a PixelPairSet, in field order.
_TAGS = ("camera", "illuminant", "exposure", "patch")


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as an array of real numbers; an array is not copied.

    Anything else raises ValueError naming ``name``: a complex value would
    otherwise lose its imaginary part with a warning.
    """
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValueError(f"{name} must be an array of real numbers, got a ragged "
                         f"nesting") from None
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be an array of real numbers, got dtype {arr.dtype}")
    return arr


def _as_rows(values, name: str) -> np.ndarray:
    """``values`` as float colour rows (n, 3); a single (3,) row becomes (1, 3).

    Anything but an array of real numbers raises ValueError naming ``name``.
    A float64 array is taken as it is, without a pass over its values.
    """
    rows = _real_array(values, name).astype(float, copy=False)
    if rows.shape == (3,):
        return rows.reshape(1, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3) or (3,), got {rows.shape}")
    return rows


def _check_rows(rows: np.ndarray, name: str, finite: bool) -> None:
    """Raise ValueError naming the first row of ``rows`` holding a NaN, or
    any non-finite value when ``finite`` is set."""
    with np.errstate(invalid="ignore", over="ignore"):
        total = rows.sum()
    if np.isfinite(total):
        # a finite sum rules both out without a mask the size of rows
        return
    bad = ~np.isfinite(rows) if finite else np.isnan(rows)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"{name} row {row} is {'not finite' if finite else 'NaN'}: "
                         f"{rows[row]}")


def _horner(coefficients: np.ndarray, t) -> np.ndarray:
    """The polynomial with ascending ``coefficients`` at t, by Horner's rule.

    These are the operations of ``np.polynomial.polynomial.polyval``, so
    the values are the same bits, without importing ``numpy.polynomial``.
    """
    x = np.asarray(t, dtype=float)
    value = coefficients[-1] + x * 0
    for c in coefficients[-2::-1]:
        value = c + value * x
    return value


def _check_integer(value, name: str, least: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >=
    least (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_type(value, cls: type, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _check_channel(value) -> None:
    """Raise ValueError naming ``channel`` unless ``value`` is the integer
    1, 2 or 3 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not 1 <= value <= 3:
        raise ValueError(f"channel must be 1..3 as an integer, got {value!r}")


def _check_finite(value, name: str, positive: bool) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite real
    > 0, or >= 0 when not ``positive``."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
            or value < 0 or (positive and value == 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _as_float_array(values, shape: tuple, name: str) -> np.ndarray:
    """``values`` as a read-only float copy of ``shape``, where a None entry
    matches any length: the one way a value type takes an array.

    Anything but a finite array of real numbers of that shape raises
    ValueError naming ``name``.
    """
    arr = _real_array(values, name)
    if arr.ndim != len(shape) or any(want not in (None, got)
                                     for want, got in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    arr = arr.astype(float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PixelPairSet:
    """Corresponding raw and rendered samples, the calibration input.

    ``raw`` and ``rendered`` are (n, 3) arrays of normalized intensities.
    Rendered components must lie in [0, 1] and raw components must be
    non-negative. ``saturated`` is derived from the values, the one place
    the rule lives: a row is flagged when a raw component is at or above
    SATURATION_FRACTION or a rendered component is exactly 0 or 1, where
    some stage clipped it. Saturated entries are retained for evaluation
    but excluded from all estimation steps. The tags are columns too:
    read-only (n,) object arrays of ``str``, copied from any sequence.
    """

    raw: np.ndarray
    rendered: np.ndarray
    camera: np.ndarray
    illuminant: np.ndarray
    exposure: np.ndarray
    patch: np.ndarray
    saturated: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        raw = _as_rows(self.raw, "raw")
        rendered = _as_rows(self.rendered, "rendered")
        if rendered.shape != raw.shape:
            raise ValueError(f"raw and rendered must have the same shape, got {raw.shape} "
                             f"and {rendered.shape}")
        n = raw.shape[0]
        _check_rows(raw, "raw", finite=True)
        _check_rows(rendered, "rendered", finite=True)
        if rendered.size and (rendered.min() < 0.0 or rendered.max() > 1.0):
            raise ValueError("rendered values must lie in [0, 1]")
        if raw.size and raw.min() < 0.0:
            raise ValueError("raw values must be non-negative")
        columns = {name: np.array(getattr(self, name), dtype=object) for name in _TAGS}
        for name, tags in columns.items():
            if tags.shape != (n,):
                raise ValueError(f"{name} tags must have shape ({n},), got {tags.shape}")
            if not all(map(isinstance, tags.tolist(), repeat(str))):
                raise ValueError(f"{name} tags must all be str")
            object.__setattr__(self, name, tags)
        raw = raw.copy()
        rendered = rendered.copy()
        sat = ((raw >= SATURATION_FRACTION).any(axis=1)
               | (rendered == 0.0).any(axis=1) | (rendered == 1.0).any(axis=1))
        for a in (raw, rendered, sat, *columns.values()):
            a.setflags(write=False)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "rendered", rendered)
        object.__setattr__(self, "saturated", sat)

    def __len__(self) -> int:
        return self.raw.shape[0]

    def subset(self, indices) -> "PixelPairSet":
        """The entries at integer ``indices``, in that order, or where a
        boolean mask of length n is set."""
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise ValueError(f"subset indices must be one-dimensional, got shape {idx.shape}")
        if idx.dtype == bool:
            if idx.size != len(self):
                raise ValueError(f"subset mask must have length {len(self)}, got {idx.size}")
            idx = np.flatnonzero(idx)
        elif idx.size == 0:
            idx = np.zeros(0, dtype=np.intp)
        elif not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        else:
            outside = idx[(idx < -len(self)) | (idx >= len(self))]
            if outside.size:
                raise ValueError(f"subset index {outside[0]} is outside [-{len(self)}, "
                                 f"{len(self)}) for a set of {len(self)} entries")
        return PixelPairSet(self.raw[idx], self.rendered[idx],
                            *(getattr(self, name)[idx] for name in _TAGS))

    def unsaturated(self) -> "PixelPairSet":
        """The unflagged entries: the set itself when none is flagged.

        Built on first use and kept, as the set is immutable.
        """
        return self._unsaturated

    @functools.cached_property
    def _unsaturated(self) -> "PixelPairSet":
        if not self.saturated.any():
            return self
        return self.subset(np.flatnonzero(~self.saturated))

    @functools.cached_property
    def _rank_pool(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank evidence of the set, built on first use; see
        ``ranking._constraint_pool``."""
        from .ranking import _constraint_pool  # ranking imports this module

        return _constraint_pool(self)

    @classmethod
    def from_arrays(cls, raw, rendered, *, camera="cam0", illuminant="i0",
                    exposure="e0") -> "PixelPairSet":
        """Build a set from bare arrays with uniform tags (mainly for tests)."""
        raw = _as_rows(raw, "raw")
        n = raw.shape[0]
        return cls(raw, rendered, *(np.full(n, tag, dtype=object)
                                    for tag in (camera, illuminant, exposure)),
                   [f"p{i}" for i in range(n)])


@dataclass(frozen=True, eq=False)
class ColorMatrix:
    """The 3x3 colour-correction matrix; rows are estimated independently."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = _as_float_array(self.rows, (3, 3), "ColorMatrix.rows")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(rows, axis=1)
            # bounds |det M| (Hadamard's inequality), so det() cannot overflow
            volume = norms.prod()
        if np.any(norms < 1e-12):
            raise ValueError("ColorMatrix rows must be non-zero")
        if not np.isfinite(volume):
            raise ValueError("ColorMatrix rows are too large: the product of their norms "
                             "overflows")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls) -> "ColorMatrix":
        return cls(np.eye(3))

    def det(self) -> float:
        return float(np.linalg.det(self.rows))

    def inverse(self) -> np.ndarray:
        from .errors import SingularMatrix

        if abs(self.det()) <= MATRIX_DET_MIN:
            raise SingularMatrix(f"|det M| = {abs(self.det()):.3e} <= {MATRIX_DET_MIN}")
        return np.linalg.inv(self.rows)


@dataclass(frozen=True, eq=False)
class ToneCurve:
    """A monotone polynomial tone curve on [0, 1] in the power basis.

    ``coefficients[i]`` multiplies t**i. Validation checks that the curve
    is non-decreasing on a uniform 1024-point grid (slack 1e-9). A curve's
    direction and channel are its place in ``PipelineModel.forward_tones``
    or ``inverse_tones``.
    """

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = _as_float_array(self.coefficients, (None,), "ToneCurve.coefficients")
        if coef.size < 2:
            raise ValueError("ToneCurve needs at least two coefficients")
        with np.errstate(over="ignore"):
            # sum (i + 1) |c_i| bounds the curve and its slope on [0, 1], so
            # twice it bounds any difference of two values
            bound = 2.0 * (np.abs(coef) * np.arange(1, coef.size + 1)).sum()
        if not np.isfinite(bound):
            raise ValueError("ToneCurve coefficients are too large: the curve or its slope "
                             "overflows on [0, 1]")
        object.__setattr__(self, "coefficients", coef)
        grid = np.linspace(0.0, 1.0, TONE_GRID_POINTS)
        values = self(grid)
        drops = np.diff(values)
        if drops.size and drops.min() < -TONE_MONOTONE_TOL:
            raise ValueError(
                f"ToneCurve is not monotone: drop {drops.min():.3e} on the "
                f"{TONE_GRID_POINTS}-point grid"
            )

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, t) -> np.ndarray:
        return _horner(self.coefficients, t)

    def derivative(self, t) -> np.ndarray:
        return _horner(self.coefficients[1:] * np.arange(1, self.coefficients.size), t)

    @classmethod
    def linear(cls, degree: int = 7) -> "ToneCurve":
        _check_integer(degree, "degree", 1)
        coef = np.zeros(degree + 1)
        coef[1] = 1.0
        return cls(coef)


@dataclass(frozen=True, eq=False)
class Lattice3:
    """A cubic LUT over [0, 1]^3 evaluated by trilinear interpolation.

    ``nodes[i, j, k]`` is the RGB value stored at grid position
    (i, j, k) / (resolution - 1).
    """

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = _as_float_array(self.nodes, (None, None, None, 3), "Lattice3.nodes")
        r = nodes.shape[0]
        if nodes.shape[:3] != (r, r, r) or r < 2:
            raise ValueError("Lattice3 must be cubic with resolution >= 2")
        object.__setattr__(self, "nodes", nodes)

    @property
    def resolution(self) -> int:
        return self.nodes.shape[0]

    @classmethod
    def identity(cls, resolution: int = 5) -> "Lattice3":
        _check_integer(resolution, "resolution", 2)
        axis = np.linspace(0.0, 1.0, resolution)
        rr, gg, bb = np.meshgrid(axis, axis, axis, indexing="ij")
        return cls(np.stack([rr, gg, bb], axis=-1))


@dataclass(frozen=True)
class ModelMetadata:
    """Provenance carried inside a serialized model."""

    camera: str = ""
    samples: int = 0
    settings: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # a model file must read back what is written: no other type is
        # turned into a camera string or truncated into a sample count
        _check_type(self.camera, str, "camera")
        _check_integer(self.samples, "samples", 0)
        object.__setattr__(self, "samples", int(self.samples))
        # a str or a mapping would iterate as characters or keys
        if not isinstance(self.settings, (tuple, list)):
            raise ValueError(f"settings must be a tuple or list of (key, value) pairs, "
                             f"got {type(self.settings).__name__}")
        for entry in self.settings:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ValueError(f"settings entries must be (key, value) pairs, got {entry!r}")
        pairs = tuple((str(k), str(v)) for k, v in self.settings)
        object.__setattr__(self, "settings", pairs)
        # a model file holds one value per line
        for text in (self.camera, *(t for pair in pairs for t in pair)):
            if "\r" in text or "\n" in text:
                raise ValueError(f"model metadata {text!r} holds a line break")
        # the reader splits a line at its first " = " and strips the key
        for key, _ in pairs:
            if " = " in key + " " or key != key.rstrip():
                raise ValueError(f"settings key {key!r} holds ' = ', or ends in ' =' or "
                                 f"white space: a model file cannot read it back")

    @classmethod
    def from_dict(cls, camera: str, samples: int, settings: dict) -> "ModelMetadata":
        pairs = tuple((k, str(settings[k])) for k in sorted(settings))
        return cls(camera=camera, samples=samples, settings=pairs)


@dataclass(frozen=True, eq=False)
class PipelineModel:
    """The full recovered pipeline, applicable in both directions."""

    matrix: ColorMatrix
    forward_tones: tuple[ToneCurve, ToneCurve, ToneCurve]
    forward_lut: Lattice3
    inverse_tones: tuple[ToneCurve, ToneCurve, ToneCurve]
    backward_lut: Lattice3
    metadata: ModelMetadata = field(default_factory=ModelMetadata)

    def __post_init__(self) -> None:
        _check_type(self.matrix, ColorMatrix, "matrix")
        for direction in ("forward", "inverse"):
            name = f"{direction}_tones"
            curves = getattr(self, name)
            if not isinstance(curves, (tuple, list)) or len(curves) != 3:
                raise ValueError(f"need exactly three {direction} tone curves")
            for k, curve in enumerate(curves):
                _check_type(curve, ToneCurve, f"{name}[{k}]")
            object.__setattr__(self, name, tuple(curves))
        _check_type(self.forward_lut, Lattice3, "forward_lut")
        _check_type(self.backward_lut, Lattice3, "backward_lut")
        _check_type(self.metadata, ModelMetadata, "metadata")
        degrees = {c.degree for c in self.forward_tones + self.inverse_tones}
        if len(degrees) != 1:
            raise ValueError(f"tone curves disagree on degree: {sorted(degrees)}")
        self.matrix.inverse()  # raises SingularMatrix when degenerate
        self._check_tone_roundtrip()

    def _check_tone_roundtrip(self) -> None:
        t = np.linspace(0.0, 1.0, 256)
        for channel, (fwd, inv) in enumerate(zip(self.forward_tones, self.inverse_tones), 1):
            slope = fwd.derivative(t)
            mask = slope >= TONE_ROUNDTRIP_SLOPE_MIN
            if not np.any(mask):
                continue
            back = inv(np.clip(fwd(t[mask]), 0.0, 1.0))
            gap = np.abs(back - t[mask]).max()
            if gap > TONE_ROUNDTRIP_TOL:
                raise ValueError(
                    f"forward/inverse tone curves disagree by {gap:.4f} on "
                    f"channel {channel} (limit {TONE_ROUNDTRIP_TOL})"
                )

    @classmethod
    def identity(cls, resolution: int = 5, degree: int = 7) -> "PipelineModel":
        tones = (ToneCurve.linear(degree),) * 3
        return cls(
            matrix=ColorMatrix.identity(),
            forward_tones=tones,
            forward_lut=Lattice3.identity(resolution),
            inverse_tones=tones,
            backward_lut=Lattice3.identity(resolution),
        )


def parameter_count(model: PipelineModel) -> int:
    """Number of scalars in the forward model: matrix + tones + forward LUT."""
    _check_type(model, PipelineModel, "model")
    tone = sum(c.coefficients.size for c in model.forward_tones)
    lut = model.forward_lut.resolution ** 3 * 3
    return 9 + tone + lut


def backward_parameter_count(model: PipelineModel) -> int:
    """Scalars specific to the backward direction (the matrix is shared)."""
    _check_type(model, PipelineModel, "model")
    tone = sum(c.coefficients.size for c in model.inverse_tones)
    lut = model.backward_lut.resolution ** 3 * 3
    return tone + lut
