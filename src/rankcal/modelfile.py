"""Reading and writing pipeline models as versioned keyed text.

The format is one scalar per line, ``section.key = value``, UTF-8 with LF
line endings, decimal scalars at 17 significant digits, and a fixed field
order. Round trips are exact: deserialize(serialize(m)) reproduces every
scalar bit-for-bit, and serialize(deserialize(text)) reproduces the text.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ModelParseError, SingularMatrix
from .model import ColorMatrix, Lattice3, ModelMetadata, PipelineModel, ToneCurve, _check_type

FORMAT_VERSION = "1"
_CHANNEL_NAMES = ("r", "g", "b")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# The keys of each array in a keyed-text file, in the order np.ravel gives
# its entries: the writer and the reader both take them from here.
def _matrix_keys(prefix: str) -> list[str]:
    return [f"{prefix}.r{i}.c{j}" for i, j in itertools.product(range(1, 4), repeat=2)]


def _tone_keys(direction: str, degree: int) -> list[str]:
    return [f"tone.{direction}.{k}.c{i}"
            for k, i in itertools.product(range(1, 4), range(degree + 1))]


def _lut_keys(name: str, r: int) -> list[str]:
    return [f"lut.{name}.node.{i}.{j}.{k}.{ch}"
            for i, j, k, ch in itertools.product(range(r), range(r), range(r), _CHANNEL_NAMES)]


def _emit(lines: list[str], keys: list[str], values) -> None:
    """Append ``key = value`` for each key and entry of ``values`` in ravel order."""
    lines.extend(f"{key} = {_fmt(value)}" for key, value in zip(keys, np.ravel(values)))


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
    _emit(lines, _matrix_keys("matrix"), model.matrix.rows)
    for direction, curves, name, lut in (
            ("forward", model.forward_tones, "forward", model.forward_lut),
            ("inverse", model.inverse_tones, "backward", model.backward_lut)):
        _emit(lines, _tone_keys(direction, degree), [c.coefficients for c in curves])
        lines.append(f"lut.{name}.resolution = {lut.resolution}")
        _emit(lines, _lut_keys(name, lut.resolution), lut.nodes)
    return "\n".join(lines) + "\n"


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

    def take_floats(self, keys: list[str]) -> np.ndarray:
        return np.array([self.take_float(key) for key in keys])

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

    rows = reader.take_floats(_matrix_keys("matrix")).reshape(3, 3)
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
    coef = reader.take_floats(_tone_keys(direction, degree)).reshape(3, degree + 1)
    curves = []
    for ch, row in enumerate(coef, start=1):
        try:
            curves.append(ToneCurve(row))
        except ValueError as exc:
            raise ModelParseError(f"tone.{direction}.{ch}: {exc}") from exc
    return tuple(curves)


def _read_lut(reader: _Reader, name: str) -> Lattice3:
    r = reader.take_int(f"lut.{name}.resolution")
    if r < 2:
        raise ModelParseError(f"lut.{name}.resolution must be >= 2, got {r}")
    reader.expect_lines(3 * r ** 3, f"lut.{name}.resolution = {r}")
    return Lattice3(reader.take_floats(_lut_keys(name, r)).reshape(r, r, r, 3))
