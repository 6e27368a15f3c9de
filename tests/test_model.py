"""Tests for the shared value types and their invariants."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcal import make_camera, make_corpus
from rankcal.errors import SingularMatrix
from rankcal.model import (
    SATURATION_FRACTION,
    ColorMatrix,
    Lattice3,
    ModelMetadata,
    PipelineModel,
    PixelPairSet,
    ToneCurve,
    backward_parameter_count,
    parameter_count,
)


class TestPixelPairSet:
    def test_basic_construction_and_access(self):
        raw = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        rendered = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]])
        pairs = PixelPairSet.from_arrays(raw, rendered)
        assert len(pairs) == 2
        assert pairs.raw[1][0] == pytest.approx(0.4)
        assert pairs.patch[1] == "p1"
        assert not pairs.saturated[1]

    def test_tags_are_read_only_object_columns(self):
        raw = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        tags = np.array(["a\x00", "b"], dtype=object)
        pairs = PixelPairSet(raw, raw, tags, tags, ("e0", "e1"), ["p0", "p1"])
        tags[0] = "z"  # the set holds a copy
        for name in ("camera", "illuminant", "exposure", "patch"):
            column = getattr(pairs, name)
            assert column.dtype == object and column.shape == (2,)
            assert not column.flags.writeable
        assert pairs.camera.tolist() == ["a\x00", "b"]  # a trailing NUL is kept
        assert pairs.subset([1, 0]).exposure.tolist() == ["e1", "e0"]

    def test_rendered_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            PixelPairSet.from_arrays([[0.1, 0.1, 0.1]], [[0.2, 1.2, 0.2]])

    def test_negative_raw_rejected(self):
        with pytest.raises(ValueError):
            PixelPairSet.from_arrays([[-0.1, 0.1, 0.1]], [[0.2, 0.2, 0.2]])

    def test_raw_above_one_is_flagged(self):
        pairs = PixelPairSet.from_arrays([[1.4, 0.1, 0.1]], [[0.2, 0.2, 0.2]])
        assert pairs.saturated.tolist() == [True]

    def test_unsaturated_filters_flagged_entries(self):
        raw = np.array([[0.1, 0.2, 0.3], [1.0, 0.5, 0.6], [0.7, 0.8, 0.9]])
        rendered = raw.copy()
        rendered[1] = 0.5
        pairs = PixelPairSet.from_arrays(raw, rendered)
        assert pairs.saturated.tolist() == [False, True, False]
        kept = pairs.unsaturated()
        assert len(kept) == 2
        assert kept.patch.tolist() == ["p0", "p2"]

    def test_unsaturated_is_built_once(self):
        raw = np.array([[0.1, 0.2, 0.3], [1.0, 0.5, 0.6], [0.7, 0.8, 0.9]])
        pairs = PixelPairSet.from_arrays(raw, raw)
        assert pairs.saturated.tolist() == [False, True, False]
        kept = pairs.unsaturated()
        assert pairs.unsaturated() is kept
        assert kept.unsaturated() is kept

    def test_unsaturated_of_unflagged_set_is_itself(self):
        raw = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        pairs = PixelPairSet.from_arrays(raw, raw)
        assert pairs.unsaturated() is pairs

    def test_empty_subset(self):
        pairs = PixelPairSet.from_arrays([[0.1, 0.2, 0.3]], [[0.2, 0.3, 0.4]])
        for empty in ([], np.array([], dtype=np.int64)):
            none = pairs.subset(empty)
            assert len(none) == 0
            assert none.raw.shape == (0, 3) and none.patch.tolist() == []

    def test_subset_by_mask(self):
        raw = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        pairs = PixelPairSet.from_arrays(raw, raw)
        kept = pairs.subset(np.array([True, False, True]))
        assert kept.patch.tolist() == ["p0", "p2"]
        assert np.array_equal(kept.raw, raw[[0, 2]])
        assert pairs.subset([2, 0]).patch.tolist() == ["p2", "p0"]
        assert pairs.subset([-1, -3]).patch.tolist() == ["p2", "p0"]

    @pytest.mark.parametrize("bad, match", [
        (np.array([True, False]), "mask must have length 3"),
        ([0.0, 1.0], "must be integers"),
        ([[0, 1]], "one-dimensional"),
        ([0, 3], r"index 3 is outside \[-3, 3\) for a set of 3 entries"),
        ([10_000], "index 10000 is outside"),
        ([-4, 0], "index -4 is outside"),
    ])
    def test_subset_rejects_bad_indices(self, bad, match):
        raw = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        pairs = PixelPairSet.from_arrays(raw, raw)
        with pytest.raises(ValueError, match=match):
            pairs.subset(bad)

    def test_arrays_are_immutable(self):
        pairs = PixelPairSet.from_arrays([[0.1, 0.2, 0.3]], [[0.2, 0.3, 0.4]])
        with pytest.raises(ValueError):
            pairs.raw[0, 0] = 0.5
        with pytest.raises(ValueError):
            pairs.saturated[0] = True

    def test_saturated_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            PixelPairSet([[0.1, 0.2, 0.3]], [[0.2, 0.3, 0.4]], ("c",), ("i",), ("e",),
                         ("p",), saturated=[True])
        with pytest.raises(TypeError):
            PixelPairSet.from_arrays([[0.1, 0.2, 0.3]], [[0.2, 0.3, 0.4]], [True])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_flags_follow_the_rule_in_sets_and_subsets(self, data, n):
        edges = st.sampled_from([0.0, 1.0, SATURATION_FRACTION,
                                 np.nextafter(SATURATION_FRACTION, 0.0)])
        raw = np.array(data.draw(st.lists(edges | st.floats(0.0, 4.0),
                                          min_size=3 * n, max_size=3 * n))).reshape(n, 3)
        rendered = np.array(data.draw(st.lists(edges | st.floats(0.0, 1.0),
                                               min_size=3 * n, max_size=3 * n))).reshape(n, 3)

        def rule(raw, rendered):
            return [any(r >= SATURATION_FRACTION for r in raw_row)
                    or any(v in (0.0, 1.0) for v in rendered_row)
                    for raw_row, rendered_row in zip(raw.tolist(), rendered.tolist())]

        pairs = PixelPairSet.from_arrays(raw, rendered)
        assert pairs.saturated.dtype == bool
        assert pairs.saturated.tolist() == rule(raw, rendered)
        index = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([]))
        part = pairs.subset(np.array(index, dtype=np.intp))
        assert part.saturated.tolist() == rule(raw[index], rendered[index])
        assert part.unsaturated().saturated.tolist() == [False] * len(part.unsaturated())

    def test_bare_arrays_of_a_simulated_corpus_flag_as_it_does(self):
        # from_arrays once left every row unflagged, so raws clipped at 1
        # and black renders reached the rank and tone fits
        flagged = 0
        for seed in range(20):
            camera = make_camera(seed=seed, gamut_mode="none", quantize=True)
            corpus = make_corpus(camera, 140, rng_seed=seed)
            bare = PixelPairSet.from_arrays(corpus.raw, corpus.rendered)
            assert bare.saturated.tolist() == corpus.saturated.tolist()
            flagged += corpus.saturated.any()
        assert flagged >= 10


class TestColorMatrix:
    def test_identity_and_apply(self):
        m = ColorMatrix.identity()
        raws = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert np.allclose(raws @ m.rows.T, raws)

    def test_zero_row_rejected(self):
        rows = np.eye(3)
        rows[1] = 0.0
        with pytest.raises(ValueError):
            ColorMatrix(rows)

    def test_singular_matrix_has_no_inverse(self):
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        m = ColorMatrix(rows)
        with pytest.raises(SingularMatrix):
            m.inverse()


class TestToneCurve:
    def test_identity_curve_valid(self):
        curve = ToneCurve.linear()
        t = np.linspace(0, 1, 11)
        assert np.allclose(curve(t), t)
        assert np.allclose(curve.derivative(t), 1.0)

    def test_monotone_grid_check_rejects_decreasing(self):
        coef = np.zeros(8)
        coef[0], coef[1] = 1.0, -1.0  # f(t) = 1 - t
        with pytest.raises(ValueError):
            ToneCurve(coef)

    def test_quadratic_is_monotone_on_unit_interval(self):
        coef = np.zeros(8)
        coef[2] = 1.0  # f(t) = t^2, non-decreasing on [0, 1]
        ToneCurve(coef)

    def test_needs_two_coefficients(self):
        with pytest.raises(ValueError, match="ToneCurve needs at least two coefficients"):
            ToneCurve([0.5])

    def test_a_curve_is_its_coefficients(self):
        # direction and channel are the curve's place in a PipelineModel
        assert [f.name for f in dataclasses.fields(ToneCurve)] == ["coefficients"]
        assert ToneCurve.linear(3).coefficients.tolist() == [0.0, 1.0, 0.0, 0.0]


class TestLattice3:
    def test_identity_nodes_are_grid_positions(self):
        lut = Lattice3.identity(5)
        assert lut.resolution == 5
        assert np.allclose(lut.nodes[2, 0, 4], [0.5, 0.0, 1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Lattice3(np.zeros((5, 5, 4, 3)))
        with pytest.raises(ValueError):
            Lattice3(np.zeros((1, 1, 1, 3)))

    def test_non_finite_nodes_rejected(self):
        nodes = Lattice3.identity(3).nodes.copy()
        nodes[1, 1, 1, 0] = np.nan
        with pytest.raises(ValueError):
            Lattice3(nodes)


class TestPipelineModel:
    def test_identity_model_validates(self):
        model = PipelineModel.identity()
        assert parameter_count(model) == 408

    def test_parameter_count_resolution_2(self):
        model = PipelineModel.identity(resolution=2)
        assert parameter_count(model) == 9 + 24 + 8 * 3

    def test_backward_parameter_count(self):
        model = PipelineModel.identity()
        assert backward_parameter_count(model) == 24 + 375

    def test_inconsistent_tones_rejected(self):
        # forward halves the signal, inverse pretends to be the identity
        half = np.zeros(8)
        half[1] = 0.5
        fwd = (ToneCurve(half),) * 3
        inv = (ToneCurve.linear(),) * 3
        with pytest.raises(ValueError, match="tone curves disagree by 0.5000 on channel 1"):
            PipelineModel(
                matrix=ColorMatrix.identity(),
                forward_tones=fwd,
                forward_lut=Lattice3.identity(),
                inverse_tones=inv,
                backward_lut=Lattice3.identity(),
            )

    def test_roundtrip_checked_only_where_forward_slope_reaches_the_minimum(self):
        # a forward slope of 0.01 everywhere leaves nothing to check, so
        # an inverse that undoes nothing passes; at 0.06 it is checked
        fwd, inv = np.zeros(8), ToneCurve.linear()
        for slope, passes in ((0.01, True), (0.06, False)):
            fwd[1] = slope
            fields = dict(matrix=ColorMatrix.identity(), forward_tones=(ToneCurve(fwd),) * 3,
                          forward_lut=Lattice3.identity(), inverse_tones=(inv,) * 3,
                          backward_lut=Lattice3.identity())
            if passes:
                PipelineModel(**fields)
            else:
                with pytest.raises(ValueError, match="tone curves disagree by 0.94"):
                    PipelineModel(**fields)

    def test_singular_matrix_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 1e-12, 0.0], [0.0, 0.0, 1.0]])
        tones = (ToneCurve.linear(),) * 3
        with pytest.raises(SingularMatrix):
            PipelineModel(
                matrix=ColorMatrix(rows),
                forward_tones=tones,
                forward_lut=Lattice3.identity(),
                inverse_tones=tones,
                backward_lut=Lattice3.identity(),
            )


def test_metadata_normalizes_settings():
    meta = ModelMetadata.from_dict("cam", 140, {"b": 2, "a": 1.5})
    assert meta.settings == (("a", "1.5"), ("b", "2"))


@pytest.mark.parametrize("camera, settings, bad", [
    ("cam\nA", {}, "cam\nA"), ("cam\r", {}, "cam\r"),
    ("cam", {"note": "a\r\nb"}, "a\r\nb"), ("cam", {"k\n": 1}, "k\n"),
])
def test_metadata_refuses_line_breaks(camera, settings, bad):
    with pytest.raises(ValueError, match=re.escape(f"model metadata {bad!r} holds a line break")):
        ModelMetadata.from_dict(camera, 140, settings)


@pytest.mark.parametrize("key", ["a = b", "a =", "x ", "x\t", " = ", "k\u2028"],
                         ids=["holds_equals", "ends_in_equals", "ends_in_space", "ends_in_tab",
                              "is_equals", "ends_in_line_separator"])
def test_metadata_refuses_keys_a_model_file_cannot_read_back(key):
    # a model file line is split at its first " = " and its key stripped
    with pytest.raises(ValueError, match=re.escape(f"settings key {key!r} holds ' = '")):
        ModelMetadata(camera="cam", samples=1, settings=((key, "v"),))
