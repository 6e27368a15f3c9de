"""Reading and writing pipeline models as versioned keyed text.

The format is one scalar per line, ``section.key = value``, UTF-8 with LF
line endings, decimal scalars at 17 significant digits, and a fixed field
order. Round trips are exact: deserialize(serialize(m)) reproduces every
scalar bit-for-bit, and serialize(deserialize(text)) reproduces the text.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelParseError, SingularMatrix
from .model import ColorMatrix, Lattice3, ModelMetadata, PipelineModel, ToneCurve, _check_type

FORMAT_VERSION = "1"
_CHANNEL_NAMES = ("r", "g", "b")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def serialize_model(model: PipelineModel) -> str:
    """Render a model as the canonical keyed text document."""
    _check_type(model, PipelineModel, "model")
    lines: list[str] = [f"model.version = {FORMAT_VERSION}"]
    meta = model.metadata
    lines.append(f"meta.camera = {meta.camera}")
    lines.append(f"meta.samples = {meta.samples}")
    for key, value in meta.settings:
        lines.append(f"meta.setting.{key} = {value}")
    degree = model.forward_tones[0].degree
    lines.append(f"tone.degree = {degree}")
    for i in range(3):
        for j in range(3):
            lines.append(f"matrix.r{i + 1}.c{j + 1} = {_fmt(model.matrix.rows[i, j])}")
    _emit_tones(lines, "forward", model.forward_tones)
    _emit_lut(lines, "forward", model.forward_lut)
    _emit_tones(lines, "inverse", model.inverse_tones)
    _emit_lut(lines, "backward", model.backward_lut)
    return "\n".join(lines) + "\n"


def _emit_tones(lines: list[str], direction: str, curves) -> None:
    for k, curve in enumerate(curves, start=1):
        for i, c in enumerate(curve.coefficients):
            lines.append(f"tone.{direction}.{k}.c{i} = {_fmt(c)}")


def _emit_lut(lines: list[str], name: str, lut: Lattice3) -> None:
    r = lut.resolution
    lines.append(f"lut.{name}.resolution = {r}")
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for c, ch in enumerate(_CHANNEL_NAMES):
                    lines.append(
                        f"lut.{name}.node.{i}.{j}.{k}.{ch} = {_fmt(lut.nodes[i, j, k, c])}"
                    )


class _Reader:
    """Sequential reader over parsed key/value lines with strict ordering."""

    def __init__(self, text: str):
        self.items: list[tuple[str, str]] = []
        # an editor may start a UTF-8 file with a byte-order mark
        for lineno, raw_line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
            line = raw_line.rstrip("\r")
            if not line.strip():
                continue
            if " = " not in line:
                raise ModelParseError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, value = line.split(" = ", 1)
            self.items.append((key.strip(), value))
        self.pos = 0

    def take(self, expected_key: str) -> str:
        if self.pos >= len(self.items):
            raise ModelParseError(f"missing key {expected_key!r}")
        key, value = self.items[self.pos]
        if key != expected_key:
            raise ModelParseError(f"expected key {expected_key!r}, found {key!r}")
        self.pos += 1
        return value

    def take_float(self, expected_key: str) -> float:
        value = self.take(expected_key)
        try:
            parsed = float(value)
        except ValueError:
            raise ModelParseError(f"invalid number {value!r} for key {expected_key!r}") from None
        if not np.isfinite(parsed):
            raise ModelParseError(f"non-finite value for key {expected_key!r}")
        return parsed

    def take_int(self, expected_key: str) -> int:
        value = self.take(expected_key)
        try:
            return int(value)
        except ValueError:
            raise ModelParseError(f"invalid integer {value!r} for key {expected_key!r}") from None

    def expect_lines(self, count: int, what: str) -> None:
        """Refuse a size that the remaining lines cannot fill, before
        anything of that size is allocated."""
        left = len(self.items) - self.pos
        if count > left:
            raise ModelParseError(f"{what} needs {count} lines, only {left} remain")

    def peek_key(self) -> str | None:
        if self.pos >= len(self.items):
            return None
        return self.items[self.pos][0]

    def finish(self) -> None:
        if self.pos < len(self.items):
            raise ModelParseError(f"unexpected key {self.items[self.pos][0]!r}")


def deserialize_model(text: str) -> PipelineModel:
    """Parse the keyed text document back into a validated model."""
    _check_type(text, str, "text")
    reader = _Reader(text)
    version = reader.take("model.version")
    if version != FORMAT_VERSION:
        raise ModelParseError(f"unknown model version {version!r}")
    camera = reader.take("meta.camera")
    samples = reader.take_int("meta.samples")
    if samples < 0:
        raise ModelParseError(f"meta.samples must be >= 0, got {samples}")
    settings = []
    while True:
        key = reader.peek_key()
        if key is None or not key.startswith("meta.setting."):
            break
        settings.append((key[len("meta.setting."):], reader.take(key)))
    degree = reader.take_int("tone.degree")
    if degree < 1:
        raise ModelParseError(f"tone.degree must be >= 1, got {degree}")
    reader.expect_lines(6 * (degree + 1), f"tone.degree = {degree}")

    rows = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            rows[i, j] = reader.take_float(f"matrix.r{i + 1}.c{j + 1}")

    forward_tones = _read_tones(reader, "forward", degree)
    forward_lut = _read_lut(reader, "forward")
    inverse_tones = _read_tones(reader, "inverse", degree)
    backward_lut = _read_lut(reader, "backward")
    reader.finish()

    try:
        return PipelineModel(
            matrix=ColorMatrix(rows),
            forward_tones=forward_tones,
            forward_lut=forward_lut,
            inverse_tones=inverse_tones,
            backward_lut=backward_lut,
            metadata=ModelMetadata(camera=camera, samples=samples,
                                   settings=tuple(settings)),
        )
    except (ValueError, SingularMatrix) as exc:
        raise ModelParseError(f"model fails validation: {exc}") from exc


def _read_tones(reader: _Reader, direction: str, degree: int):
    curves = []
    for ch in (1, 2, 3):
        coef = np.empty(degree + 1)
        for i in range(degree + 1):
            coef[i] = reader.take_float(f"tone.{direction}.{ch}.c{i}")
        try:
            curves.append(ToneCurve(coef))
        except ValueError as exc:
            raise ModelParseError(f"tone.{direction}.{ch}: {exc}") from exc
    return tuple(curves)


def _read_lut(reader: _Reader, name: str) -> Lattice3:
    r = reader.take_int(f"lut.{name}.resolution")
    if r < 2:
        raise ModelParseError(f"lut.{name}.resolution must be >= 2, got {r}")
    reader.expect_lines(3 * r ** 3, f"lut.{name}.resolution = {r}")
    nodes = np.empty((r, r, r, 3))
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for c, ch in enumerate(_CHANNEL_NAMES):
                    nodes[i, j, k, c] = reader.take_float(f"lut.{name}.node.{i}.{j}.{k}.{ch}")
    return Lattice3(nodes)
