"""Round-trip and rejection tests for the model text format."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankcal.errors import ModelParseError
from rankcal.model import (
    ColorMatrix,
    Lattice3,
    ModelMetadata,
    PipelineModel,
    ToneCurve,
    parameter_count,
)
from rankcal.modelfile import deserialize_model, serialize_model


def random_monotone_curve(rng):
    """Degree-7 monotone polynomial: integral of a squared cubic."""
    p = rng.uniform(-1.0, 1.0, size=4)
    sq = np.polynomial.polynomial.polymul(p, p)  # degree 6, non-negative
    coef = np.zeros(8)
    coef[1:] = sq / np.arange(1, 8)
    coef[0] = rng.uniform(-0.2, 0.2)
    return ToneCurve(coef)


def random_model(seed):
    rng = np.random.default_rng(seed)
    rows = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
    lut_f = Lattice3(rng.uniform(-0.1, 1.1, size=(5, 5, 5, 3)))
    lut_b = Lattice3(rng.uniform(-0.1, 1.1, size=(5, 5, 5, 3)))
    curve = tuple(random_monotone_curve(rng) for _ in range(3))
    # reuse the forward shapes for the inverse so the roundtrip invariant
    # check is exercised with consistent curves
    inverse = (ToneCurve.linear(),) * 3
    fwd = (ToneCurve.linear(),) * 3
    return PipelineModel(
        matrix=ColorMatrix(rows),
        forward_tones=fwd,
        forward_lut=lut_f,
        inverse_tones=inverse,
        backward_lut=lut_b,
        metadata=ModelMetadata.from_dict(
            "sim-a", 140, {"seed": 3, "sphere_count": 100000}
        ),
    ), curve


def test_identity_model_roundtrip():
    model = PipelineModel.identity()
    text = serialize_model(model)
    back = deserialize_model(text)
    assert np.array_equal(back.matrix.rows, model.matrix.rows)
    assert np.array_equal(back.forward_lut.nodes, model.forward_lut.nodes)
    for a, b in zip(back.forward_tones, model.forward_tones):
        assert np.array_equal(a.coefficients, b.coefficients)
    assert back.metadata == model.metadata


# A calibrated model written while the tone fit still had a
# constraint_grid setting, which its metadata keeps.
CONSTRAINT_GRID_MODEL = Path(__file__).parent / "data" / "model_with_constraint_grid.txt"


@pytest.mark.parametrize("seed", [*range(8), "constraint_grid"])
def test_random_model_roundtrip_exact(seed):
    if seed == "constraint_grid":
        text = CONSTRAINT_GRID_MODEL.read_text(encoding="utf-8")
        model = deserialize_model(text)
        assert ("constraint_grid", "257") in model.metadata.settings
    else:
        model, _ = random_model(seed)
        text = serialize_model(model)
    back = deserialize_model(text)
    assert np.array_equal(back.matrix.rows, model.matrix.rows)
    assert np.array_equal(back.forward_lut.nodes, model.forward_lut.nodes)
    assert np.array_equal(back.backward_lut.nodes, model.backward_lut.nodes)
    for a, b in zip(back.forward_tones + back.inverse_tones,
                    model.forward_tones + model.inverse_tones):
        assert np.array_equal(a.coefficients, b.coefficients)
    assert back.metadata == model.metadata
    # text -> model -> text is also the identity
    assert serialize_model(back) == text


def test_byte_order_mark_is_skipped():
    # an editor may save a UTF-8 model with a byte-order mark
    text = serialize_model(random_model(0)[0])
    assert serialize_model(deserialize_model("\ufeff" + text)) == text


def test_format_is_lf_keyed_lines():
    text = serialize_model(PipelineModel.identity())
    assert "\r" not in text
    assert text.startswith("model.version = 1\n")
    for line in text.strip().split("\n"):
        assert " = " in line


def test_forward_parameter_lines_sum_to_count():
    model = PipelineModel.identity()
    text = serialize_model(model)
    scalars = 0
    for line in text.strip().split("\n"):
        key = line.split(" = ")[0]
        if key.startswith("matrix.") or key.startswith("tone.forward."):
            scalars += 1
        elif key.startswith("lut.forward.node."):
            scalars += 1
    assert scalars == parameter_count(model) == 408


def test_nan_node_rejected_with_key_name():
    text = serialize_model(PipelineModel.identity())
    needle = "lut.forward.node.2.1.0.g = "
    start = text.index(needle)
    end = text.index("\n", start)
    broken = text[:start] + needle + "nan" + text[end:]
    with pytest.raises(ModelParseError, match=r"lut\.forward\.node\.2\.1\.0\.g"):
        deserialize_model(broken)


def test_unknown_version_rejected():
    text = serialize_model(PipelineModel.identity())
    broken = text.replace("model.version = 1", "model.version = 9", 1)
    with pytest.raises(ModelParseError, match="version"):
        deserialize_model(broken)


def test_missing_field_rejected():
    text = serialize_model(PipelineModel.identity())
    lines = [l for l in text.strip().split("\n") if not l.startswith("matrix.r2.c2")]
    with pytest.raises(ModelParseError, match=r"matrix\.r2\.c2"):
        deserialize_model("\n".join(lines) + "\n")


def test_wrong_node_count_rejected():
    text = serialize_model(PipelineModel.identity())
    broken = text.replace("lut.forward.resolution = 5", "lut.forward.resolution = 4", 1)
    with pytest.raises(ModelParseError):
        deserialize_model(broken)


def test_trailing_garbage_rejected():
    text = serialize_model(PipelineModel.identity()) + "extra.key = 1\n"
    with pytest.raises(ModelParseError, match="extra.key"):
        deserialize_model(text)


def test_malformed_line_reports_line_number():
    text = "model.version = 1\nthis is not a key value line\n"
    with pytest.raises(ModelParseError, match="line 2"):
        deserialize_model(text)


def test_singular_matrix_rejected_as_parse_error():
    text = serialize_model(PipelineModel.identity())
    broken = text.replace("matrix.r2.c1 = 0", "matrix.r2.c1 = 1", 1)
    broken = broken.replace("matrix.r2.c2 = 1", "matrix.r2.c2 = 0", 1)
    with pytest.raises(ModelParseError, match="det"):
        deserialize_model(broken)


@pytest.mark.parametrize("line, value", [
    ("tone.degree = 7", "1000000000000"),
    ("lut.forward.resolution = 5", "100000"),
    ("lut.backward.resolution = 5", "6"),
])
def test_size_beyond_remaining_lines_rejected(line, value):
    text = serialize_model(PipelineModel.identity())
    broken = text.replace(line, line.split(" = ")[0] + " = " + value, 1)
    with pytest.raises(ModelParseError, match="remain"):
        deserialize_model(broken)


CORRUPTIBLE = serialize_model(random_model(3)[0]).split("\n")
# lines whose values shape the rest of the document
STRUCTURE_LINES = [i for i, line in enumerate(CORRUPTIBLE)
                   if line.startswith(("model.", "meta.", "tone.degree", "lut.")) and
                   ".node." not in line]

SIZE_LINES = [i for i, line in enumerate(CORRUPTIBLE)
              if line.startswith(("tone.degree", "lut.forward.resolution",
                                  "lut.backward.resolution"))]

line_numbers = st.one_of(st.integers(0, len(CORRUPTIBLE) - 1),
                         st.sampled_from(STRUCTURE_LINES), st.sampled_from(SIZE_LINES))
values = st.one_of(
    st.text(max_size=12),
    st.integers(-10 ** 12, 10 ** 12).map(str),
    st.sampled_from(["0", "1", "2", "-1", "100000", "1000000000000", "nan", "inf",
                     "-inf", "1e308", "1e-320", "", " ", "0x10", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
corruptions = st.one_of(
    st.tuples(st.just("delete"), line_numbers),
    st.tuples(st.just("duplicate"), line_numbers),
    st.tuples(st.just("truncate"), line_numbers, st.integers(0, 40)),
    st.tuples(st.just("value"), line_numbers, values),
    st.tuples(st.just("line"), line_numbers, st.text(max_size=30)),
)


def corrupt(lines: list[str], change) -> list[str]:
    kind, i = change[:2]
    i = min(i, len(lines) - 1)
    if kind == "delete":
        return lines[:i] + lines[i + 1:]
    if kind == "duplicate":
        return lines[:i + 1] + lines[i:]
    if kind == "truncate":
        return lines[:i] + [lines[i][:change[2]]]
    if kind == "value":
        return lines[:i] + [lines[i].split(" = ")[0] + " = " + change[2]] + lines[i + 1:]
    return lines[:i] + [change[2]] + lines[i + 1:]


@settings(max_examples=400, deadline=None)
@given(changes=st.lists(corruptions, min_size=1, max_size=3))
# a matrix entry whose row norm overflows, and a forward tone coefficient
# whose slope does: both warned of an overflow and were not refused
@example(changes=[("delete", 3), ("value", 5, "1e308")])
@example(changes=[("duplicate", 3), ("value", 39, "1e308")])
def test_corrupted_model_raises_only_parse_error(changes):
    lines = CORRUPTIBLE
    for change in changes:
        lines = corrupt(lines, change) or [""]
    try:
        model = deserialize_model("\n".join(lines))
    except ModelParseError:
        return
    assert isinstance(model, PipelineModel)
