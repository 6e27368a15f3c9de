"""Synthetic cameras with known ground truth.

A camera is a colour matrix, an analytic strictly increasing tone curve,
an optional gamut map fitted over a reference colour cloud, and optional
rendered-domain noise and 8-bit quantization. Rendering follows
matrix -> gamut -> tone, so the recoverable row directions are those of
the gamut-folded matrix (``effective_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelParseError
from .gamut import AffineGamutMap, solve_affine_gamut
from .model import (ColorMatrix, PixelPairSet, _as_rows, _check_finite, _check_integer,
                    _check_rows, _check_type)
from .modelfile import _fmt, _Reader
from .pipeline import _map_in_blocks

TONE_FAMILIES = ("gamma", "srgb", "filmic")
GAMUT_MODES = ("none", "affine", "warped")

DEFAULT_WARP_SCALE = 0.02

# ACES-style rational S-curve, normalized to hit 1 at 1.
_FILMIC_NORM = (1.0 * (2.51 * 1.0 + 0.03)) / (1.0 * (2.43 * 1.0 + 0.59) + 0.14)


@dataclass(frozen=True)
class ToneSpec:
    """Analytic tone curve: 'gamma' (t**g), 'srgb', or 'filmic'."""

    family: str = "gamma"
    gamma: float = 1.0 / 2.2

    def __post_init__(self) -> None:
        if self.family not in TONE_FAMILIES:
            raise ValueError(f"unknown tone family {self.family!r}")
        # checked for every family, as the camera sidecar records it for each
        _check_finite(self.gamma, "gamma", positive=True)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.family == "gamma":
            return np.power(np.maximum(t, 0.0), self.gamma)
        if self.family == "srgb":
            lin = np.maximum(t, 0.0)
            return np.where(
                lin <= 0.0031308,
                12.92 * lin,
                1.055 * np.power(np.maximum(lin, 0.0031308), 1.0 / 2.4) - 0.055,
            )
        x = np.maximum(t, 0.0)
        return (x * (2.51 * x + 0.03)) / (x * (2.43 * x + 0.59) + 0.14) / _FILMIC_NORM


@dataclass(frozen=True, eq=False)
class SyntheticCamera:
    """Ground-truth rendering pipeline for simulation."""

    matrix: ColorMatrix
    tone: ToneSpec
    gamut: AffineGamutMap | None = None
    warp_scale: float = 0.0
    noise_sigma: float = 0.0
    quantize: bool = False
    camera_id: str = "sim"
    seed: int = 0

    def __post_init__(self) -> None:
        _check_type(self.matrix, ColorMatrix, "matrix")
        _check_type(self.tone, ToneSpec, "tone")
        if self.gamut is not None:
            _check_type(self.gamut, AffineGamutMap, "gamut")
        # the camera sidecar records quantize as 1 or 0
        _check_type(self.quantize, bool, "quantize")
        if abs(self.matrix.det()) < 1e-8:
            raise ValueError("camera matrix must be invertible")
        grid = np.linspace(0.0, 1.0, 512)
        if np.any(np.diff(self.tone(grid)) <= 0.0):
            raise ValueError("tone curve must be strictly increasing on [0, 1]")
        _check_finite(self.warp_scale, "warp_scale", positive=False)
        _check_finite(self.noise_sigma, "noise_sigma", positive=False)
        if self.warp_scale > 0.0 and self.gamut is None:
            raise ValueError("a warped camera needs a fitted gamut map")
        # the camera sidecar holds one value per line and reads back an integer seed
        _check_integer(self.seed, "seed", 0)
        _check_type(self.camera_id, str, "camera_id")  # the camera tag of its corpora
        if "\r" in self.camera_id or "\n" in self.camera_id:
            raise ValueError(f"camera_id {self.camera_id!r} holds a line break")

    def effective_matrix(self) -> np.ndarray:
        """Row directions recoverable from rank evidence: T @ M."""
        if self.gamut is None:
            return self.matrix.rows.copy()
        return self.gamut.t @ self.matrix.rows


def _warp(v: np.ndarray, scale: float) -> np.ndarray:
    """Smooth in-cube perturbation, zero on every cube face."""
    bump = np.sin(np.pi * v[:, 0]) * np.sin(np.pi * v[:, 1]) * np.sin(np.pi * v[:, 2])
    direction = np.array([1.0, -0.7, 0.4])
    return v + scale * bump[:, None] * direction


def render_batch(camera: SyntheticCamera, raws: np.ndarray,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Render raw rows (n, 3), or one (3,) row, to rendered rows in [0, 1]^3.

    Rows are rendered in the blocks that ``map_forward`` maps, so the
    scratch of every step stays fixed per block whatever n is. Noise is
    drawn block after block, which is the same draw as one for all rows.
    """
    _check_type(camera, SyntheticCamera, "camera")
    raws = _as_rows(raws, "raws")
    _check_rows(raws, "raws", finite=True)
    if rng is not None:
        _check_type(rng, np.random.Generator, "rng")
    if camera.noise_sigma > 0.0 and rng is None:
        raise ValueError("rendering with noise requires an explicit rng")
    rows_t = camera.matrix.rows.T

    def layers(block):
        v = block @ rows_t
        if camera.gamut is not None:
            v = camera.gamut.apply(v)
            if camera.warp_scale > 0.0:
                v = _warp(np.clip(v, 0.0, 1.0), camera.warp_scale)
        # v and out are built here, never the caller's rows, so each step
        # after the first product works in place
        out = camera.tone(np.clip(v, 0.0, 1.0, out=v))
        if camera.noise_sigma > 0.0:
            out += rng.normal(0.0, camera.noise_sigma, size=out.shape)
        if camera.quantize:
            np.clip(out, 0.0, 1.0, out=out)
            out *= 255.0
            np.round(out, out=out)
            out /= 255.0
        return out

    return _map_in_blocks(raws, layers)


def make_camera(seed: int = 0, delta: float = 0.25,
                tone: ToneSpec = ToneSpec(),
                gamut_mode: str = "affine",
                noise_sigma: float = 0.0,
                quantize: bool = False,
                warp_scale: float = DEFAULT_WARP_SCALE,
                camera_id: str | None = None) -> SyntheticCamera:
    """Build a random but reproducible camera.

    The matrix is the identity plus off-diagonal perturbations of size
    ``delta`` (at most 0.4), renormalized to unit row sums so greys stay
    grey through colour correction. For 'affine' and 'warped' gamut
    modes, (T, o) is fitted over a seeded reference cloud of corrected
    colours, exactly the affine formulation the calibration assumes.
    """
    _check_integer(seed, "seed", 0)
    _check_finite(delta, "delta", positive=False)
    if delta > 0.4:
        raise ValueError(f"delta must be in [0, 0.4], got {delta!r}")
    if gamut_mode not in GAMUT_MODES:
        raise ValueError(f"unknown gamut_mode {gamut_mode!r}")
    rng = np.random.default_rng(seed)
    rows = np.eye(3)
    off = rng.uniform(-delta, delta, size=(3, 3))
    off[np.diag_indices(3)] = 0.0
    rows = rows + off
    rows /= rows.sum(axis=1, keepdims=True)
    matrix = ColorMatrix(rows)

    gamut = None
    if gamut_mode in ("affine", "warped"):
        cloud = rng.uniform(0.0, 1.0, size=(2000, 3))
        corners = np.array(np.meshgrid([0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
                                       indexing="ij")).reshape(3, -1).T
        # real gamut mapping preserves the neutral axis; replicating axis
        # samples weights the least-squares fit the same way
        axis = np.linspace(0.02, 0.98, 200)[:, None] * np.ones((1, 3))
        cloud = np.vstack([cloud, corners, np.tile(axis, (3, 1))])
        gamut = solve_affine_gamut(cloud @ matrix.rows.T)

    return SyntheticCamera(
        matrix=matrix,
        tone=tone,
        gamut=gamut,
        warp_scale=warp_scale if gamut_mode == "warped" else 0.0,
        noise_sigma=noise_sigma,
        quantize=quantize,
        camera_id=camera_id if camera_id is not None else f"sim{seed}",
        seed=seed,
    )


def make_illuminants(count: int, seed: int = 0) -> list[np.ndarray]:
    """Diagonal illuminant gains; the first is always neutral."""
    _check_integer(count, "count", 1)
    out = [np.ones(3)]
    rng = np.random.default_rng(seed)
    for _ in range(count - 1):
        d = rng.uniform(0.55, 1.0, size=3)
        out.append(d / d.max())
    return out


def make_exposures(count: int) -> list[float]:
    """Half-stop exposure ladder centred on 1."""
    _check_integer(count, "count", 1)
    return [float(2.0 ** (0.5 * (i - (count - 1) / 2))) for i in range(count)]


def _reflectances(n_patches: int, rng: np.random.Generator) -> np.ndarray:
    """Scene-like patch reflectances: a grey series, a low-chroma
    population, and saturated colours.

    Real charts carry a roughly logarithmic grey ramp ending in a deep
    black, and real scenes are full of near-neutral surfaces. Without
    dark patches the tone fit extrapolates blindly at the dark end. The
    0.2% black stays above the rendered-zero saturation cut.
    """
    n_grey = min(8, max(3, n_patches // 18)) if n_patches >= 3 else n_patches
    ramp = np.geomspace(0.002, 0.9, max(2, n_grey - 1)).tolist()
    ramp.append(0.25)  # a mid grey renders near mid-range for every tone family
    greys = np.array(sorted(ramp))[:n_grey, None] * np.ones((1, 3))
    n_rest = n_patches - greys.shape[0]
    n_neutral = n_rest // 6
    base = rng.uniform(0.08, 0.92, size=(n_neutral, 1))
    neutrals = np.clip(base + rng.uniform(-0.02, 0.02, size=(n_neutral, 3)),
                       0.002, 0.98)
    colours = rng.uniform(0.02, 0.98, size=(n_rest - n_neutral, 3))
    return np.vstack([greys, neutrals, colours])[:n_patches]


def make_corpus(camera: SyntheticCamera, n_patches: int,
                illuminants=None, exposures=None,
                rng_seed: int = 0) -> PixelPairSet:
    """Labelled raw/rendered pairs over patches x illuminants x exposures.

    ``n_patches`` must be an integer >= 1 and ``rng_seed`` one >= 0.
    There must be at least one illuminant, each three finite gains > 0,
    and at least one exposure, each a finite real >= 0 (0 renders black,
    flagged as saturated).
    """
    _check_type(camera, SyntheticCamera, "camera")
    _check_integer(n_patches, "n_patches", 1)
    _check_integer(rng_seed, "rng_seed", 0)
    illuminants = [np.ones(3)] if illuminants is None else list(illuminants)
    exposures = [1.0] if exposures is None else list(exposures)
    for name, values in (("illuminants", illuminants), ("exposures", exposures)):
        if not values:
            raise ValueError(f"{name} must not be empty")
    for i, d in enumerate(illuminants):
        gains = _as_rows(d, f"illuminants[{i}]")
        if gains.shape != (1, 3):
            raise ValueError(f"illuminants[{i}] must hold 3 gains, got shape {gains.shape}")
        for c, gain in enumerate(gains[0].tolist()):
            _check_finite(gain, f"illuminants[{i}][{c}]", positive=True)
        illuminants[i] = gains[0]
    for i, exposure in enumerate(exposures):
        _check_finite(exposure, f"exposures[{i}]", positive=False)
    exposures = [float(e) for e in exposures]
    rng = np.random.default_rng(rng_seed)
    refl = _reflectances(n_patches, rng)

    raw_rows, rend_rows = [], []
    for exposure in exposures:
        for d in illuminants:
            raws = np.clip(exposure * refl * d[None, :], 0.0, 1.0)
            raw_rows.append(raws)
            rend_rows.append(render_batch(camera, raws, rng))

    raw = np.vstack(raw_rows)
    rendered = np.vstack(rend_rows)
    # tags by repetition: exposures vary slowest, then illuminants, then patches
    lights, shots = len(illuminants), len(exposures)
    i, e, p = (np.array([f"{prefix}{k}" for k in range(count)], dtype=object)
               for prefix, count in (("i", lights), ("e", shots), ("p", n_patches)))
    return PixelPairSet(
        raw=raw,
        rendered=rendered,
        camera=np.full(raw.shape[0], camera.camera_id, dtype=object),
        illuminant=np.tile(np.repeat(i, n_patches), shots),
        exposure=np.repeat(e, n_patches * lights),
        patch=np.tile(p, lights * shots),
    )


def serialize_camera(camera: SyntheticCamera) -> str:
    """Sidecar ground-truth document in the keyed text style."""
    _check_type(camera, SyntheticCamera, "camera")
    lines = ["camera.version = 1"]
    lines.append(f"camera.id = {camera.camera_id}")
    lines.append(f"camera.seed = {camera.seed}")
    for i in range(3):
        for j in range(3):
            lines.append(f"matrix.r{i + 1}.c{j + 1} = {_fmt(camera.matrix.rows[i, j])}")
    lines.append(f"tone.family = {camera.tone.family}")
    lines.append(f"tone.gamma = {_fmt(camera.tone.gamma)}")
    lines.append(f"gamut.mode = "
                 f"{'none' if camera.gamut is None else ('warped' if camera.warp_scale > 0 else 'affine')}")
    if camera.gamut is not None:
        for i in range(3):
            for j in range(3):
                lines.append(f"gamut.t.r{i + 1}.c{j + 1} = {_fmt(camera.gamut.t[i, j])}")
        for i in range(3):
            lines.append(f"gamut.o.{i + 1} = {_fmt(camera.gamut.o[i])}")
    lines.append(f"warp.scale = {_fmt(camera.warp_scale)}")
    lines.append(f"noise.sigma = {_fmt(camera.noise_sigma)}")
    lines.append(f"quantize = {1 if camera.quantize else 0}")
    return "\n".join(lines) + "\n"


def deserialize_camera(text: str) -> SyntheticCamera:
    """Parse a camera sidecar document, in serialize_camera's field order."""
    _check_type(text, str, "text")
    reader = _Reader(text)
    version = reader.take("camera.version")
    if version != "1":
        raise ModelParseError(f"unknown camera version {version!r}")
    camera_id = reader.take("camera.id")
    seed = reader.take_int("camera.seed")
    rows = np.array([
        [reader.take_float(f"matrix.r{i + 1}.c{j + 1}") for j in range(3)]
        for i in range(3)
    ])
    family = reader.take("tone.family")
    gamma = reader.take_float("tone.gamma")
    mode = reader.take("gamut.mode")
    if mode not in GAMUT_MODES:
        raise ModelParseError(f"unknown gamut.mode {mode!r}")
    gamut = None
    if mode != "none":
        t = np.array([
            [reader.take_float(f"gamut.t.r{i + 1}.c{j + 1}") for j in range(3)]
            for i in range(3)
        ])
        o = np.array([reader.take_float(f"gamut.o.{i + 1}") for i in range(3)])
        gamut = AffineGamutMap(t, o)
    warp_scale = reader.take_float("warp.scale")
    noise_sigma = reader.take_float("noise.sigma")
    quantize = reader.take("quantize") == "1"
    reader.finish()
    try:
        return SyntheticCamera(
            matrix=ColorMatrix(rows),
            tone=ToneSpec(family, gamma),
            gamut=gamut,
            warp_scale=warp_scale,
            noise_sigma=noise_sigma,
            quantize=quantize,
            camera_id=camera_id,
            seed=seed,
        )
    except ValueError as exc:
        raise ModelParseError(f"camera fails validation: {exc}") from exc
