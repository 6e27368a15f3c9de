"""Tests for sphere sampling, half-space scoring, and row estimation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    angle_degrees,
    brute_force_max_nn_gap,
    dense_search_trials,
    dense_tied_points,
    disable_memo,
    grid_max_nn_gap,
    isotonic_fit_reference,
    monotonicity_score_reference,
    score_all,
    score_candidate,
)

from rankcal import (CalibrationConfig, ToneSpec, calibrate, make_camera, make_corpus,
                     map_forward, ranking, rmse)
from rankcal.cli import main as cli_main
from rankcal.errors import CalibrationError, DegenerateChannel, InsufficientData
from rankcal.model import SATURATION_FRACTION, ColorMatrix, PixelPairSet
from rankcal.ranking import (
    SphereSample,
    build_half_spaces,
    estimate_row,
    monotonicity_score,
    rescale_achromatic,
    sample_sphere,
    _count_above,
    _median_direction,
    _monotone_bound,
    _pair_indices,
    _pool_adjacent_violators,
    _search_trials,
    _unit_rows,
)


class TestSampleSphere:
    def test_rejects_fewer_than_six(self):
        with pytest.raises(ValueError):
            sample_sphere(5)

    @pytest.mark.parametrize("n", [6.9, "8", True, 6.0])
    def test_non_integer_count_rejected_by_name(self, n):
        sample_sphere(6)  # a cached 6 must not answer for 6.0
        with pytest.raises(ValueError, match=f"n must be an integer >= 6, got {n!r}"):
            sample_sphere(n)

    def test_octahedral_fallback_gap(self):
        sphere = sample_sphere(6)
        gap = brute_force_max_nn_gap(sphere.points)
        assert gap == pytest.approx(90.0, abs=1e-9)

    def test_unit_norm_and_both_hemispheres(self):
        sphere = sample_sphere(4002)
        norms = np.linalg.norm(sphere.points, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert sphere.points[:, 2].max() > 0.99
        assert sphere.points[:, 2].min() < -0.99

    def test_gap_2000_matches_brute_force(self):
        sphere = sample_sphere(2000)
        exact = brute_force_max_nn_gap(sphere.points)
        grid = grid_max_nn_gap(sphere.points, cell=0.2)
        assert grid == pytest.approx(exact, abs=1e-12)

    def test_default_count_meets_resolution_bound(self, sphere100k):
        # the full 100k check is the acceptance criterion; spot-check a
        # 20k sample here so a sampler regression fails fast
        sphere = sample_sphere(20_000)
        assert grid_max_nn_gap(sphere.points, cell=0.1) <= 1.15 * np.sqrt(5)
        assert sphere100k.count == 100_000

    def test_even_samples_are_antipodal(self):
        for n in (6, 1000, 4002):
            points = sample_sphere(n).points
            assert np.array_equal(points[n // 2:], -points[:n // 2])
        with pytest.raises(ValueError, match="n must be even, got 4001"):
            sample_sphere(4001)

    @pytest.mark.parametrize("count, match", [
        (5, "count must be an integer >= 6, got 5"),
        (4001, "count must be even, got 4001"),
        (6.0, "count must be an integer >= 6, got 6.0"),
        (True, "count must be an integer >= 6, got True"),
        ("8", "count must be an integer >= 6, got '8'"),
    ])
    def test_sample_is_built_from_an_even_count_of_at_least_six(self, count, match):
        with pytest.raises(ValueError, match=match):
            SphereSample(count)

    @pytest.mark.parametrize("n", [6, 2000])
    def test_sample_built_from_its_count_is_the_cached_one(self, n):
        sphere = SphereSample(n)
        assert sphere.count == n
        assert sphere.points.tobytes() == sample_sphere(n).points.tobytes()
        assert not sphere.points.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            sphere.points = sphere.points[::-1]

    def test_deterministic(self):
        a = sample_sphere(5000).points
        b = sample_sphere(5000).points
        assert a.tobytes() == b.tobytes()
        fresh = sample_sphere.__wrapped__(5000).points
        assert fresh.tobytes() == a.tobytes()

    def test_cached_sample_is_shared_and_read_only(self, monkeypatch):
        built = []
        build = ranking._build_caps

        def counting(scored):
            built.append(scored.shape[0])
            return build(scored)

        monkeypatch.setattr(ranking, "_build_caps", counting)
        sample_sphere.cache_clear()
        sphere = sample_sphere(3000)
        assert sample_sphere(3000) is sphere
        assert sample_sphere(3000).caps is sample_sphere(3000).caps
        assert built == [1500]
        assert not sphere.points.flags.writeable
        for name, value in vars(sphere.caps).items():
            assert not value.flags.writeable, name

    def test_cache_holds_a_few_sizes(self):
        sample_sphere.cache_clear()
        for n in (1000, 1002, 1004):
            sample_sphere(n)
        assert sample_sphere.cache_info().currsize <= 2


def clipped(raw, flags):
    """``raw`` with its first component at 1.0 on the rows where ``flags``
    is set, the value of a clipped raw: a set flags those rows saturated."""
    raw = np.array(raw, dtype=float)
    raw[flags, 0] = 1.0
    return raw


def synthetic_channel_pairs(rng, n, row, tone=lambda v: v ** (1 / 2.2)):
    """Pairs whose rendered channel 1 is a monotone map of row @ raw."""
    raw = rng.uniform(0.02, 0.95, size=(n, 3))
    lin = np.clip(raw @ row, 0.0, 1.0)
    rendered = np.column_stack([tone(lin)] * 3) * np.array([1.0, 0.98, 0.96])
    rendered = np.clip(rendered, 0.0, 1.0)
    return PixelPairSet.from_arrays(raw, rendered)


class TestBuildHalfSpaces:
    def test_fifty_colours_give_1225_differences(self):
        # 50 unique greys spaced so every rendered gap clears the tie
        # threshold: all C(50, 2) pairs contribute
        v = np.linspace(0.1, 0.95, 50)
        raw = np.column_stack([v, v, v])
        rendered = np.clip(np.column_stack([v ** (1 / 2.2)] * 3), 0.0, 1.0)
        pairs = PixelPairSet.from_arrays(raw, rendered)
        diffs = build_half_spaces(pairs, 1, rng_seed=1)
        assert diffs.shape == (50 * 49 // 2, 3) == (1225, 3)
        assert not diffs.flags.writeable

    @pytest.mark.parametrize("rendered", [[[0.5, 0.5, 0.5]],
                                          [[0.5, 0.5, 0.5], [0.997, 0.3, 0.4]]])
    def test_fewer_than_two_eligible_rows(self, rendered):
        # the second set's second row is too near the clip to rank
        raw = [[0.5, 0.5, 0.5], [0.2, 0.3, 0.4]][:len(rendered)]
        pairs = PixelPairSet.from_arrays(raw, rendered)
        with pytest.raises(InsufficientData,
                           match="need at least 2 distinct unsaturated raw colours, have 1"):
            build_half_spaces(pairs, 1)

    def test_three_colours_ordered(self):
        row = np.array([0.7, 0.2, 0.1])
        raw = np.array([[0.9, 0.8, 0.9], [0.5, 0.4, 0.5], [0.1, 0.1, 0.1]])
        rendered = np.column_stack([[0.9, 0.5, 0.1]] * 3).astype(float)
        pairs = PixelPairSet.from_arrays(raw, rendered)
        diffs = build_half_spaces(pairs, 1, rng_seed=0)
        assert len(diffs) == 3
        assert np.all(diffs @ row > 0)

    def test_all_equal_rendered_is_degenerate(self):
        raw = np.random.default_rng(1).uniform(0.1, 0.9, size=(10, 3))
        rendered = np.full((10, 3), 0.5)
        pairs = PixelPairSet.from_arrays(raw, rendered)
        with pytest.raises(DegenerateChannel):
            build_half_spaces(pairs, 1, rng_seed=0)

    def test_ties_below_two_levels_excluded(self):
        raw = np.array([[0.2, 0.2, 0.2], [0.4, 0.4, 0.4], [0.8, 0.8, 0.8]])
        rendered = np.array([
            [0.500, 0.5, 0.5],
            [0.503, 0.5, 0.5],   # 0.003 < 2/255 from both others
            [0.505, 0.5, 0.5],
        ])
        pairs = PixelPairSet.from_arrays(raw, rendered)
        with pytest.raises(DegenerateChannel):
            build_half_spaces(pairs, 1, rng_seed=0)

    @pytest.mark.parametrize("field, value", [("rng_seed", -1), ("rng_seed", 1.5)])
    def test_bad_argument_rejected_by_name(self, field, value):
        rng = np.random.default_rng(4)
        pairs = synthetic_channel_pairs(rng, 40, np.array([0.6, 0.3, 0.1]))
        with pytest.raises(ValueError, match=f"{field} must be an integer >= ., got {value!r}"):
            build_half_spaces(pairs, 1, **{field: value})

    def test_saturated_entries_excluded(self):
        rng = np.random.default_rng(2)
        pairs = synthetic_channel_pairs(rng, 40, np.array([0.6, 0.3, 0.1]))
        flagged = PixelPairSet.from_arrays(clipped(pairs.raw, np.arange(40) < 20),
                                           pairs.rendered)
        assert flagged.saturated.sum() == 20
        diffs = build_half_spaces(flagged, 1, rng_seed=0)
        assert len(diffs) <= 20 * 19 // 2

    def test_pair_indices_cached_read_only(self):
        ii, jj = _pair_indices(50)
        assert _pair_indices(50)[0] is ii
        expect_i, expect_j = np.triu_indices(50, 1)
        assert np.array_equal(ii, expect_i) and np.array_equal(jj, expect_j)
        assert not ii.flags.writeable and not jj.flags.writeable

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        pairs = synthetic_channel_pairs(rng, 90, np.array([0.5, 0.4, 0.1]))
        a = build_half_spaces(pairs, 1, rng_seed=7)
        b = build_half_spaces(pairs, 1, rng_seed=7)
        c = build_half_spaces(pairs, 1, rng_seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_same_bytes_on_fresh_and_memoised_sets(self, monkeypatch):
        rng = np.random.default_rng(5)
        base = synthetic_channel_pairs(rng, 300, np.array([0.5, 0.4, 0.1]))
        raw = np.vstack([base.raw, base.raw[:40]])  # repeated colours
        rendered = np.vstack([base.rendered, base.rendered[:40]])
        raw = clipped(raw, rng.uniform(size=raw.shape[0]) < 0.1)

        def pairs():
            return PixelPairSet.from_arrays(raw, rendered)

        warm = pairs()
        build_half_spaces(warm, 2, rng_seed=99)
        # a drawn subset, and every colour of the pool
        for max_colors in (ranking.MAX_COLORS, 1000):
            monkeypatch.setattr(ranking, "MAX_COLORS", max_colors)
            for channel in (1, 2, 3):
                for seed in range(4):
                    want = build_half_spaces(pairs(), channel, rng_seed=seed)
                    got = build_half_spaces(warm, channel, rng_seed=seed)
                    assert got.tobytes() == want.tobytes()

    def test_pool_matches_unmemoised_selection(self):
        rng = np.random.default_rng(6)
        pairs = synthetic_channel_pairs(rng, 200, np.array([0.5, 0.4, 0.1]))
        # repeated raw rows render differently, so the pool must keep the first
        flagged = PixelPairSet.from_arrays(
            clipped(np.vstack([pairs.raw, pairs.raw]), rng.uniform(size=400) < 0.2),
            np.vstack([pairs.rendered, 0.9 * pairs.rendered]))
        raws, rendered = flagged._rank_pool
        assert flagged._rank_pool[0] is raws
        ok = ~flagged.saturated
        ok &= (flagged.raw < SATURATION_FRACTION).all(axis=1)
        ok &= (flagged.rendered < SATURATION_FRACTION).all(axis=1)
        _, first = np.unique(flagged.raw[ok], axis=0, return_index=True)
        first = np.sort(first)
        assert np.array_equal(raws, flagged.raw[ok][first])
        assert np.array_equal(rendered, flagged.rendered[ok][first])
        assert not raws.flags.writeable and not rendered.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(
        st.tuples(*[st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300])] * 3),
        min_size=1, max_size=80))
    def test_first_of_each_row_matches_unique(self, rows):
        raw = np.array(rows, dtype=float)
        _, want = np.unique(raw, axis=0, return_index=True)
        assert np.array_equal(ranking._first_of_each_row(raw), np.sort(want))


CHANNEL_ENTRIES = {
    "build_half_spaces": lambda pairs, channel: build_half_spaces(pairs, channel),
    "monotonicity_score": lambda pairs, channel: monotonicity_score(
        pairs, np.array([0.5, 0.3, 0.2]), channel),
    "estimate_row": lambda pairs, channel: estimate_row(
        pairs, channel, sample_sphere(2000), trials=2),
}


class TestChannelCheck:
    @pytest.mark.parametrize("entry", sorted(CHANNEL_ENTRIES))
    @pytest.mark.parametrize("channel", [1.0, True, "1", 0, 4])
    def test_non_channel_rejected_by_name(self, entry, channel):
        rng = np.random.default_rng(5)
        pairs = synthetic_channel_pairs(rng, 40, np.array([0.6, 0.3, 0.1]))
        with pytest.raises(ValueError, match=f"channel must be 1..3 as an integer, got {channel!r}"):
            CHANNEL_ENTRIES[entry](pairs, channel)

    @pytest.mark.parametrize("entry", sorted(CHANNEL_ENTRIES))
    def test_numpy_integer_accepted(self, entry):
        rng = np.random.default_rng(5)
        pairs = synthetic_channel_pairs(rng, 40, np.array([0.6, 0.3, 0.1]))
        want = CHANNEL_ENTRIES[entry](pairs, 2)
        got = CHANNEL_ENTRIES[entry](pairs, np.int64(2))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestScoreCandidate:
    def make(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        row = np.array([0.6, 0.3, 0.1])
        pairs = synthetic_channel_pairs(rng, n, row)
        diffs = build_half_spaces(pairs, 1, rng_seed=1)
        return row / np.linalg.norm(row), diffs

    def test_truth_satisfies_all(self):
        row, diffs = self.make()
        assert score_candidate(row, diffs) == len(diffs)

    def test_antipodal_satisfies_none(self):
        row, diffs = self.make()
        assert score_candidate(-row, diffs) == 0

    def test_matches_direct_loop_recount(self):
        rng = np.random.default_rng(9)
        diffs = rng.normal(size=(200, 3))
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        expected = sum(1 for d in diffs if float(np.dot(m, d)) > 0.0)
        assert score_candidate(m, diffs) == expected

    def test_scale_invariance(self):
        row, diffs = self.make(seed=4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=3)
            for s in (1e-3, 0.5, 7.0, 1e4):
                assert score_candidate(m, diffs) == score_candidate(s * m, diffs)

    def test_antipodal_complementarity(self):
        rng = np.random.default_rng(6)
        diffs = rng.normal(size=(300, 3))
        for _ in range(25):
            m = rng.normal(size=3)
            if np.abs(diffs @ m).min() == 0.0:
                continue
            assert score_candidate(m, diffs) + score_candidate(-m, diffs) == len(diffs)

    def test_score_all_matches_per_point_scoring(self):
        row, diffs = self.make(seed=8, n=50)
        sphere = sample_sphere(2000)
        fast = score_all(sphere, diffs)
        slow = np.array([score_candidate(p, diffs) for p in sphere.points])
        # product signs are read in float32; only razor-thin constraints
        # (|dot| under ~1e-6) may disagree with the float64 recount
        diff = np.abs(fast - slow)
        assert diff.max() <= 1
        assert np.mean(diff == 0) > 0.999


SEARCH_SPHERE_COUNTS = (6, 2000, 4002, 20000)


@pytest.fixture(scope="module")
def search_spheres():
    return {n: sample_sphere(n) for n in SEARCH_SPHERE_COUNTS}


@st.composite
def half_space_sets(draw):
    """Constraint differences (m, 3) from easy to hard to prune.

    ``coplanar`` differences lie within a hair of one plane, so the best
    points hug a great circle; ``one_direction`` ones all lean the same
    way, so about a hemisphere ties and pruning removes almost nothing;
    ``grid`` ones are small integer steps, as quantized colours give,
    with exact zero products on the octahedron's axes.
    """
    kind = draw(st.sampled_from(["random", "coplanar", "one_direction", "grid"]))
    m = draw(st.integers(1, 3) | st.integers(4, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        d = rng.normal(size=(m, 3))
    elif kind == "coplanar":
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        d = rng.normal(size=(m, 3))
        d -= np.outer(d @ normal, normal)
        d += 10.0 ** draw(st.integers(-9, -3)) * rng.normal(size=(m, 1)) * normal
    elif kind == "one_direction":
        spread = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3]))
        d = rng.normal(size=3) + spread * rng.normal(size=(m, 3))
    else:
        d = rng.integers(-3, 4, size=(m, 3)).astype(float)
    d[np.linalg.norm(d, axis=1) < 1e-6] = [0.0, 0.0, 1.0]
    return d * 10.0 ** draw(st.integers(-4, 2))


class TestTiedPoints:
    @pytest.mark.row_search
    @settings(max_examples=300, deadline=None)
    @given(diffs=half_space_sets(), n=st.sampled_from(SEARCH_SPHERE_COUNTS))
    def test_matches_dense_scan(self, search_spheres, diffs, n):
        sphere = search_spheres[n]
        [(best, tied)] = _search_trials(sphere, [diffs])
        dense_best, dense_tied = dense_tied_points(sphere, diffs)
        assert best == dense_best
        assert np.array_equal(tied, dense_tied)

    @pytest.mark.row_search
    @settings(max_examples=150, deadline=None)
    @given(diffs=st.lists(half_space_sets(), min_size=1, max_size=8)
           | half_space_sets().map(lambda d: [d, -d, d, -d]),
           n=st.sampled_from(SEARCH_SPHERE_COUNTS + (100_000,)),
           bound_entries=st.sampled_from([2 ** 19, 4096, 1]))
    def test_stack_matches_dense_scan(self, search_spheres, sphere100k, diffs, n,
                                      bound_entries):
        # trials of mixed sizes, m = 1 among them, each on its own arrays;
        # small product budgets split the caps into pieces of one centre
        # and the scored points into blocks of two. A set and its negation
        # in turn floor each trial on the points that score lowest under it
        sphere = sphere100k if n == 100_000 else search_spheres[n]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ranking, "_BOUND_ENTRIES", bound_entries)
            found = _search_trials(sphere, diffs)
        assert len(found) == len(diffs)
        for (best, tied), d in zip(found, diffs):
            dense_best, dense_tied = dense_tied_points(sphere, d)
            assert best == dense_best
            assert np.array_equal(tied, dense_tied)

    @pytest.mark.row_search
    @pytest.mark.parametrize("n", SEARCH_SPHERE_COUNTS + (100_000,))
    def test_caps_partition_scored_points_within_radius(self, n):
        sphere = sample_sphere(n)
        caps = sphere.caps
        sizes = np.diff(caps.offsets)
        assert caps.offsets[0] == 0 and caps.offsets[-1] == n and np.all(sizes > 0)
        assert caps.centres.shape[0] == sizes.size == caps.radius.size
        # the points of cap k are those of its slice of the sample
        centre = np.repeat(caps.centres, sizes, axis=0)
        radius = np.repeat(caps.radius, sizes)
        cosine = np.einsum("ij,ij->i", sphere.points, centre)
        assert np.all(cosine >= np.cos(radius) - 1e-12)
        assert np.degrees(caps.radius.max()) <= 5.0

    @pytest.mark.row_search
    @pytest.mark.parametrize("n", SEARCH_SPHERE_COUNTS + (100_000,))
    def test_groups_partition_caps_within_radius(self, n):
        sphere = sample_sphere(n)
        caps = sphere.caps
        sizes = np.diff(caps.group_offsets)
        assert caps.group_offsets[0] == 0 and np.all(sizes > 0)
        assert caps.group_offsets[-1] == caps.centres.shape[0]
        assert caps.group_centres.shape[0] == sizes.size == caps.group_radius.size
        # the points of group j are the slice of the sample that its caps span
        edges = caps.offsets[caps.group_offsets]
        centre = np.repeat(caps.group_centres, np.diff(edges), axis=0)
        radius = np.repeat(caps.group_radius, np.diff(edges))
        cosine = np.einsum("ij,ij->i", sphere.points, centre)
        assert np.all(cosine >= np.cos(radius) - 1e-12)

    def test_cell_labels_fit_the_sort_key(self):
        # the caps are sorted by a 16-bit key, and a group is a square of
        # whole cells on one face
        k, s = ranking._CUBE_CELLS, ranking._GROUP_CELLS
        assert 6 * k ** 2 <= 2 ** 16
        assert k % s == 0
        # axes, edges and corners of the cube, where a component ties the
        # largest or a face coordinate reaches 1, stay in range
        edge = _unit_rows(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 0.0],
                                    [-1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [0.0, -1.0, 1e-300],
                                    [1.0, 1.0, 1.0 + 2e-16]]))
        labels = ranking._cube_cells(edge)
        assert labels.dtype == np.uint16 and labels.max() < 6 * k ** 2

    @pytest.mark.row_search
    @pytest.mark.parametrize("n", SEARCH_SPHERE_COUNTS + (100_000,))
    def test_caps_are_cells_stored_group_by_group(self, n):
        # every cap's points share one cell, its negation's in the last
        # half, and the group of the caps never falls within a half
        sphere = sample_sphere(n)
        caps = sphere.caps
        label = np.tile(ranking._cube_cells(sphere.points[:n // 2]), 2)
        starts, sizes = caps.offsets[:-1], np.diff(caps.offsets)
        assert np.array_equal(label, np.repeat(label[starts], sizes))
        group = label[starts] // ranking._GROUP_CELLS ** 2
        for half in np.split(group, 2):
            assert np.all(half[1:] >= half[:-1])
        assert np.array_equal(group, np.repeat(group[caps.group_offsets[:-1]],
                                               np.diff(caps.group_offsets)))

    @pytest.mark.row_search
    @pytest.mark.parametrize("n", (6, 1000))
    def test_one_point_incumbent_matches_dense_scan(self, n, monkeypatch):
        # the floor comes from scoring one cap's points; a cap of one
        # point must score as it does within the final pass's blocks.
        # Both samples have fewer points than caps, each cap holding one
        sphere = sample_sphere(n)
        calls = []
        score = ranking._scores

        def spy(sample, indices, dt):
            calls.append(indices.size)
            return score(sample, indices, dt)

        monkeypatch.setattr(ranking, "_scores", spy)
        rng = np.random.default_rng(n)
        one_point = 0
        for _ in range(100):
            d = rng.normal(size=(int(rng.integers(2, 300)), 3))
            calls.clear()
            [(best, tied)] = _search_trials(sphere, [d])
            dense_best, dense_tied = dense_tied_points(sphere, d)
            assert best == dense_best
            assert np.array_equal(tied, dense_tied)
            one_point += calls[0] == 1
        assert one_point >= 50

    def test_later_trials_are_floored_on_earlier_ties(self, search_spheres, monkeypatch):
        # the first trial has no floor points; each later one scores the
        # points the trial before it tied on
        sphere = search_spheres[20000]
        floors = []
        search_trial = ranking._search_trial

        def spy(sample, groups, centres, unit, dt, floor_points):
            floors.append(floor_points)
            return search_trial(sample, groups, centres, unit, dt, floor_points)

        monkeypatch.setattr(ranking, "_search_trial", spy)
        rng = np.random.default_rng(3)
        diffs = [rng.normal(size=(100, 3)) + [0.5, 0.3, 0.1] for _ in range(12)]
        found = _search_trials(sphere, diffs)
        assert len(floors) == len(diffs) and floors[0] is None
        for k in range(1, len(diffs)):
            assert np.array_equal(floors[k], found[k - 1][1])

    def test_every_product_keeps_to_the_budget(self, sphere100k, monkeypatch):
        # every bound and score product is formed in _count_above, with the
        # constraints on its right; none may hold more than _BOUND_ENTRIES
        # values, but for a product of the two-row minimum
        shapes = []

        class Recorded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                out = getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)
                if ufunc is np.matmul:
                    shapes.append(out.shape)
                return out

        count_above = ranking._count_above

        def spy(rows, cols, threshold):
            return count_above(rows, cols.view(Recorded), threshold)

        monkeypatch.setattr(ranking, "_count_above", spy)
        rng = np.random.default_rng(11)
        _search_trials(sphere100k, [rng.normal(size=(300, 3)) for _ in range(6)])
        assert shapes
        assert all(rows * cols <= ranking._BOUND_ENTRIES or rows == 2 for rows, cols in shapes)

    def test_index_built_once_per_sample(self, monkeypatch):
        # the sample builds its index, and no search builds another
        built = []
        build = ranking._build_caps

        def counting(scored):
            built.append(scored.shape[0])
            return build(scored)

        monkeypatch.setattr(ranking, "_build_caps", counting)
        sphere = SphereSample(2000)
        rng = np.random.default_rng(5)
        _search_trials(sphere, [rng.normal(size=(50, 3)) for _ in range(3)])
        assert built == [1000]


@pytest.mark.row_search
class TestCapBounds:
    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from((6, 2000, 20000)), m=st.integers(1, 300),
           zero_share=st.sampled_from([0.0, 0.1, 1.0]),
           near_share=st.sampled_from([0.0, 0.5, 1.0]),
           scale=st.integers(-4, 2), seed=st.integers(0, 2 ** 32 - 1))
    def test_bounds_reach_the_dense_score_of_every_point(self, search_spheres, n, m,
                                                          zero_share, near_share, scale,
                                                          seed):
        # near-plane constraints pass within 1e-12 to 1e-5 rad of a sample
        # point, where its float32 sign may err; zero constraints count
        # for no point. Every cap and group, of both halves, bounds the
        # dense score of each of its points
        sphere = search_spheres[n]
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(m, 3))
        near = rng.random(m) < near_share
        anchor = sphere.points[rng.integers(sphere.count, size=near.sum())]
        tilt = rng.choice([-1.0, 1.0], (near.sum(), 1)) * 10.0 ** rng.uniform(
            -12, -5, (near.sum(), 1))
        d[near] = _unit_rows(np.cross(anchor, d[near])) + tilt * anchor
        d[rng.random(m) < zero_share] = 0.0
        d *= 10.0 ** scale
        norm = np.linalg.norm(d, axis=1)
        unit = np.ascontiguousarray((d / np.where(norm > 0.0, norm, 1.0)[:, None]).T,
                                    dtype=np.float32)
        caps = sphere.caps
        cap_best = np.maximum.reduceat(score_all(sphere, d), caps.offsets[:-1])
        group_best = np.maximum.reduceat(cap_best, caps.group_offsets[:-1])
        for centres, radius, best in ((caps.centres, caps.radius, cap_best),
                                      (caps.group_centres, caps.group_radius, group_best)):
            bounds = ranking._upper_bounds(ranking._bound_centres(centres, radius), unit)
            assert bounds.shape == best.shape
            assert np.all(bounds >= best)


@pytest.mark.row_search
class TestCountAbove:
    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 1232).filter(lambda w: w % 8),
           block=st.integers(1, 40), blocks=st.integers(0, 4),
           rest=st.one_of(st.just(1), st.integers(0, 39)),
           threshold=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_count_nonzero(self, width, block, blocks, rest, threshold, seed):
        # the budget is set to give blocks of the drawn size, or of the
        # two-row minimum at size 1; n = 1 takes the gemv guard, and
        # n % block == 1 the repeated row. Zero and unit columns form
        # products of exactly 0 and 1, which count for neither threshold
        n = max(1, blocks * block + rest % max(block, 2))
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, 3)).astype(np.float32)
        rows[rng.random(n) < 0.3, 0] = 1.0
        cols = rng.normal(size=(3, width)).astype(np.float32)
        cols[:, rng.random(width) < 0.1] = 0.0
        cols[:, rng.random(width) < 0.1] = [[1.0], [0.0], [0.0]]
        # the oracle forms one matrix product, of two rows when n = 1
        want = np.count_nonzero(np.vstack([rows, rows])[:max(n, 2)] @ cols > threshold,
                                axis=1)[:n]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ranking, "_BOUND_ENTRIES", block * width)
            got = _count_above(rows, cols, threshold)
        assert got.shape == (n,)
        assert np.array_equal(got, want)

    def test_counts_of_a_full_trial_do_not_wrap(self):
        # each block is summed in uint16, exact up to 65535 entries a row;
        # a trial has at most C(MAX_COLORS, 2) constraints
        width = math.comb(ranking.MAX_COLORS, 2)
        assert width < 2 ** 16
        rows = np.ones((5, 3), dtype=np.float32)
        cols = np.ones((3, width), dtype=np.float32)
        assert np.array_equal(_count_above(rows, cols, 0.0), np.full(5, width))


class TestPruning:
    # measured: 0.24% of the half-sphere per search at 140 pairs and
    # 0.27% at 8000, the floor points included; a floor 33 constraints
    # low, as cap hit counts give, scored about 2%. The share is taken of
    # half the sample, as it was when the caps indexed only that half
    MAX_SCORED_SHARE = 0.007

    @pytest.mark.parametrize("pairs", [140, 8000])
    def test_scored_share_on_criterion9_sets(self, tmp_path, monkeypatch, pairs):
        corpus = tmp_path / "image.csv"
        assert cli_main(["simulate", "--out", str(corpus), "--patches", "8100",
                         "--seed", "17", "--quantize"]) == 0
        searched = []
        scored = []
        search = ranking._search_trials
        score = ranking._scores

        def count_search(sphere, diffs):
            searched.append((len(diffs), sphere.count // 2))
            return search(sphere, diffs)

        def count_scored(sample, indices, dt):
            scored.append(indices.size)
            return score(sample, indices, dt)

        monkeypatch.setattr(ranking, "_search_trials", count_search)
        monkeypatch.setattr(ranking, "_scores", count_scored)
        assert cli_main(["calibrate", "--data", str(corpus), "--subset",
                         f"uniform:{pairs}", "--out", str(tmp_path / "m.txt"),
                         "--seed", "2"]) == 0
        assert len(searched) == 3
        assert sum(trials for trials, _ in searched) == 75
        total = sum(trials * points for trials, points in searched)
        assert sum(scored) / total <= self.MAX_SCORED_SHARE


@pytest.mark.row_search
class TestDenseOracle:
    """Model files are byte-identical to those of the dense scan."""

    @pytest.mark.parametrize("simulate, calibrate", [
        # acceptance criterion 10
        (["--patches", 140, "--seed", 9, "--noise", 0.004, "--quantize"],
         ["--subset", "uniform:120", "--seed", 4, "--sphere-count", 20000,
          "--trials", 4]),
        # acceptance criterion 9, one-shot 140 pairs
        (["--patches", 8100, "--seed", 17, "--quantize"],
         ["--subset", "uniform:140", "--seed", 2]),
    ], ids=["criterion10", "criterion9_140"])
    def test_model_bytes_match(self, tmp_path, monkeypatch, simulate, calibrate):
        corpus = tmp_path / "c.csv"
        assert cli_main([str(a) for a in ["simulate", "--out", corpus, *simulate]]) == 0

        def model_bytes(tag):
            out = tmp_path / f"{tag}.txt"
            argv = ["calibrate", "--data", corpus, "--out", out, *calibrate]
            assert cli_main([str(a) for a in argv]) == 0
            return out.read_bytes()

        pruned = model_bytes("pruned")
        monkeypatch.setattr(ranking, "_search_trials", dense_search_trials)
        assert model_bytes("dense") == pruned


class TestCapPartition:
    @pytest.mark.row_search
    def test_model_bytes_do_not_depend_on_the_partition(self, tmp_path, monkeypatch):
        # the search finds exactly the dense scan's points for any cap
        # partition, so a coarser or a finer one must write the same model
        corpus = tmp_path / "c.csv"
        assert cli_main(["simulate", "--out", str(corpus), "--patches", "140",
                         "--seed", "9", "--noise", "0.004", "--quantize"]) == 0

        def model_bytes(tag):
            out = tmp_path / f"{tag}.txt"
            assert cli_main(["calibrate", "--data", str(corpus), "--out", str(out),
                             "--sphere-count", "20000", "--trials", "3"]) == 0
            return out.read_bytes()

        default = model_bytes("default")
        # 6 cells a face in groups of 3 by 3, and 12 in one group a face
        for cells, group, groups in ((6, 3, 4), (12, 12, 1)):
            monkeypatch.setattr(ranking, "_CUBE_CELLS", cells)
            monkeypatch.setattr(ranking, "_GROUP_CELLS", group)
            sample_sphere.cache_clear()
            try:
                caps = sample_sphere(20000).caps
                # the upper half meets five faces, and the lower half their negations
                assert caps.centres.shape[0] <= 2 * 5 * cells ** 2
                assert caps.group_centres.shape[0] <= 2 * 5 * groups
                assert model_bytes(f"cube{cells}x{group}") == default
            finally:
                sample_sphere.cache_clear()


class TestMemoOracle:
    """Model files are byte-identical to those built without memoised inputs."""

    @pytest.mark.parametrize("simulate, calibrate", [
        # acceptance criterion 10
        (["--patches", 140, "--seed", 9, "--noise", 0.004, "--quantize"],
         ["--subset", "uniform:120", "--seed", 4, "--sphere-count", 20000,
          "--trials", 4]),
        # acceptance criterion 9, one-shot 140 pairs
        (["--patches", 8100, "--seed", 17, "--quantize"],
         ["--subset", "uniform:140", "--seed", 2]),
    ], ids=["criterion10", "criterion9_140"])
    def test_model_bytes_match(self, tmp_path, monkeypatch, simulate, calibrate):
        corpus = tmp_path / "c.csv"
        assert cli_main([str(a) for a in ["simulate", "--out", corpus, *simulate]]) == 0

        def model_bytes(tag):
            out = tmp_path / f"{tag}.txt"
            argv = ["calibrate", "--data", corpus, "--out", out, *calibrate]
            assert cli_main([str(a) for a in argv]) == 0
            return out.read_bytes()

        memoised = model_bytes("memoised")
        again = model_bytes("again")  # sphere and cap index from the cache
        disable_memo(monkeypatch)
        assert ranking.sample_sphere(6) is not ranking.sample_sphere(6)
        assert model_bytes("fresh") == memoised == again


def pav(values, weights=None) -> np.ndarray:
    """``_pool_adjacent_violators`` of float arrays, weighted 1 by default."""
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    return _pool_adjacent_violators(y.tolist(), w.tolist())


class TestIsotonic:
    def test_monotone_input_unchanged(self):
        y = np.array([0.1, 0.2, 0.2, 0.7, 0.9])
        assert np.allclose(pav(y), y)

    def test_decreasing_input_collapses_to_mean(self):
        y = np.array([0.9, 0.5, 0.1])
        assert np.allclose(pav(y), [0.5, 0.5, 0.5])

    def test_output_is_non_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.normal(size=30)
            fit = pav(y)
            assert np.all(np.diff(fit) >= -1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(
            st.floats(-1e6, 1e6),
            st.sampled_from([0.0, -0.0, 0.5, 1.0]),  # ties
        ), max_size=60),
        arrangement=st.sampled_from(["as drawn", "sorted", "reversed"]),
        weights=st.sampled_from(["none", "float", "integer"]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_array_reference(self, values, arrangement, weights, seed):
        y = np.array(values, dtype=float)
        if arrangement == "sorted":
            y = np.sort(y)
        elif arrangement == "reversed":
            y = np.sort(y)[::-1]
        rng = np.random.default_rng(seed)
        w = {
            "none": None,
            "float": rng.uniform(0.01, 100.0, size=y.size),
            "integer": rng.integers(1, 50, size=y.size),
        }[weights]
        got = pav(y, w)
        want = isotonic_fit_reference(y, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def dp_isotonic_residual(x, y):
    """Exhaustive partition search: blocks of consecutive sorted points,
    each fitted by its mean, accepted when block means are non-decreasing."""
    order = np.argsort(x, kind="stable")
    ys = y[order]
    n = ys.size
    prefix = np.concatenate([[0.0], np.cumsum(ys)])
    prefix2 = np.concatenate([[0.0], np.cumsum(ys * ys)])

    def block(i, j):  # [i, j)
        s = prefix[j] - prefix[i]
        q = prefix2[j] - prefix2[i]
        mean = s / (j - i)
        return mean, q - s * mean

    best = np.inf
    for mask in range(1 << (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        sse = 0.0
        prev = -np.inf
        ok = True
        for a, b in zip(bounds[:-1], bounds[1:]):
            mean, cost = block(a, b)
            if mean < prev - 1e-12:
                ok = False
                break
            prev = mean
            sse += cost
        if ok and sse < best:
            best = sse
    return float(np.sqrt(best / n))


def candidate_corpus(tied):
    """2,400 pairs, 2,000 of them unsaturated, and 25 candidate rows, as
    many as a row's trials give; with ``tied``, every candidate ties some
    projections."""
    rng = np.random.default_rng(31 if tied else 30)
    raw = rng.uniform(0.0, 0.9, size=(2400, 3))
    rows = rng.normal(size=(25, 3))
    if tied:
        # dyadic raws and small integer rows give exactly equal projections
        raw = np.round(raw * 8.0) / 8.0
        # a black raw renders black, which the set flags
        raw[~raw.any(axis=1)] = 0.125
        rows = rng.integers(-2, 3, size=(25, 3)).astype(float)
        rows[~rows.any(axis=1), 0] = 1.0
    rendered = np.round(np.clip(raw @ np.array([0.6, 0.3, 0.1]), 0.0, 1.0) ** 0.45
                        * 255.0) / 255.0
    rendered = np.column_stack([rendered, rendered[::-1], rendered])
    pairs = PixelPairSet.from_arrays(clipped(raw, np.arange(2400) % 6 == 0), rendered)
    return pairs, rows


class TestMonotonicityScore:
    def test_perfectly_monotone_scores_zero(self):
        rng = np.random.default_rng(0)
        row = np.array([0.5, 0.3, 0.2])
        pairs = synthetic_channel_pairs(rng, 100, row)
        assert monotonicity_score(pairs, row, 1) <= 1e-12

    def test_no_unsaturated_pair(self):
        pairs = PixelPairSet.from_arrays(np.full((3, 3), 0.5), np.ones((3, 3)))
        with pytest.raises(InsufficientData, match="no unsaturated pairs to score"):
            monotonicity_score(pairs, np.array([1.0, 0.0, 0.0]), 1)

    def test_shuffled_relation_scores_near_std(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.0, 1.0, size=(4000, 3))
        y = rng.permutation(np.linspace(0.05, 0.95, 4000))
        rendered = np.column_stack([y, y, y])
        pairs = PixelPairSet.from_arrays(raw, rendered)
        score = monotonicity_score(pairs, np.array([1.0, 0.0, 0.0]), 1)
        assert abs(score - y.std()) <= 0.1 * y.std()

    def test_matches_exhaustive_dp_on_20_points(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.0, 1.0, size=(20, 3))
        rendered = rng.uniform(0.1, 0.9, size=(20, 3))
        pairs = PixelPairSet.from_arrays(raw, rendered)
        m = np.array([0.6, 0.3, 0.1])
        got = monotonicity_score(pairs, m, 2)
        want = dp_isotonic_residual(raw @ m, rendered[:, 1])
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("channel", [0, 4, -1])
    def test_channel_outside_one_to_three_rejected(self, channel):
        rng = np.random.default_rng(3)
        pairs = synthetic_channel_pairs(rng, 30, np.array([0.5, 0.3, 0.2]))
        with pytest.raises(ValueError, match="channel must be 1..3"):
            monotonicity_score(pairs, np.array([0.5, 0.3, 0.2]), channel)

    @pytest.mark.parametrize("flagged", [False, True])
    def test_same_bytes_on_fresh_and_memoised_sets(self, flagged):
        rng = np.random.default_rng(4)
        # below the flagging limit, so that only the clipped rows are flagged
        raw = rng.uniform(0.0, 0.99, size=(500, 3))
        rendered = rng.uniform(0.1, 0.9, size=(500, 3))
        raw = clipped(raw, rng.uniform(size=500) < (0.2 if flagged else 0.0))

        def pairs():
            return PixelPairSet.from_arrays(raw, rendered)

        warm = pairs()
        warm.unsaturated()
        assert warm.saturated.any() == flagged
        for channel in (1, 2, 3):
            for m in rng.normal(size=(5, 3)):
                want = monotonicity_score(pairs(), m, channel)
                assert monotonicity_score(warm, m, channel) == want
                keep = ~warm.saturated
                assert monotonicity_score(
                    PixelPairSet.from_arrays(raw[keep], rendered[keep]), m, channel) == want

    @pytest.mark.row_search
    @pytest.mark.parametrize("tied", [False, True])
    def test_each_candidate_matches_the_oracle(self, tied):
        # 25 candidates over 2,000 unsaturated pairs, scored one at a time
        # as estimate_row scores them
        pairs, rows = candidate_corpus(tied)
        pool = pairs.unsaturated()
        assert len(pool) == 2000
        distinct = [len(np.unique(pool.raw @ row)) for row in rows]
        assert (max(distinct) < len(pool)) if tied else (min(distinct) == len(pool))
        for row in rows:
            got = monotonicity_score(pairs, row, 2)
            want = monotonicity_score_reference(pairs, row, 2)
            assert abs(got - want) <= 1e-12 * want + 1e-15

    def test_traced_memory_bounded(self):
        # 25 candidates over 6,000 pairs, scored one at a time: each work
        # array holds one candidate's 6,000 values, where all 25 at once
        # would hold 1.2 MB an array
        rng = np.random.default_rng(32)
        raw = rng.uniform(0.0, 0.9, size=(6000, 3))
        rendered = np.round(raw ** 0.45 * 255.0) / 255.0
        pairs = PixelPairSet.from_arrays(raw, rendered)
        pairs.unsaturated()
        rows = rng.normal(size=(25, 3))
        tracemalloc.start()
        try:
            for row in rows:
                monotonicity_score(pairs, row, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


def cascade_pairs(n=600, outliers=5):
    """Rendered channel 1 rises with raw channel 1, except that the
    ``outliers`` lowest raw values render brighter than everything: their
    pooled block absorbs one neighbour after another."""
    rng = np.random.default_rng(20)
    raw = rng.uniform(0.02, 0.95, size=(n, 3))
    y = np.round(np.interp(raw[:, 0], [0.0, 1.0], [0.05, 0.9]) * 255.0) / 255.0
    y[np.argsort(raw[:, 0])[:outliers]] = 0.95
    return PixelPairSet.from_arrays(raw, np.column_stack([y, y, y]))


class TestStackedMonotonicityScore:
    """k candidate rows, each scored alone, as ``estimate_row`` scores
    them, against the one-candidate oracle."""

    @pytest.mark.row_search
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 9),
        ties=st.booleans(),
        levels=st.sampled_from([0, 8, 255]),
        saturated=st.booleans(),
        channel=st.integers(1, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_one_candidate_oracle(self, n, k, ties, levels, saturated, channel, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 0.9, size=(n, 3))
        rows = rng.normal(size=(k, 3))
        if ties:
            # dyadic raws and small integer rows give exactly equal projections
            raw = np.round(raw * 4.0) / 4.0
            rows = rng.integers(-2, 3, size=(k, 3)).astype(float)
            rows[~rows.any(axis=1), 0] = 1.0
        rendered = rng.uniform(0.0, 0.9, size=(n, 3))
        if levels:
            rendered = np.round(rendered * levels) / levels
        flags = rng.uniform(size=n) < 0.3 if saturated else np.zeros(n, dtype=bool)
        flags[0] = False
        # a raw 1 and a rendered 0 are flagged too; row 0 stays unflagged,
        # so the pool is never empty
        raw[0] = rendered[0] = 0.5
        pairs = PixelPairSet.from_arrays(clipped(raw, flags), rendered)
        for row in rows:
            got = monotonicity_score(pairs, row, channel)
            want = monotonicity_score_reference(pairs, row, channel)
            assert type(got) is float
            assert abs(got - want) <= 1e-12 * want + 1e-15

    def test_tied_projections_pool_in_pair_order(self):
        # 40 runs of equal x whose pooled means already rise, so nothing
        # but the tie pooling acts; the order in which a run's values are
        # summed changes their bits, so the residuals match the oracle's
        # bit for bit only if each run is summed in pair order
        rng = np.random.default_rng(21)
        level = rng.integers(0, 40, size=800)
        raw = np.column_stack([level / 64.0, np.zeros(800), np.full(800, 0.5)])
        y = (level + rng.uniform(0.0, 1.0, size=800)) / 41.0
        pairs = PixelPairSet.from_arrays(raw, np.column_stack([y, y, y]))
        rows = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        for row in rows:
            assert monotonicity_score(pairs, row, 1) == monotonicity_score_reference(pairs, row, 1)

    def test_outlier_cascade_is_finished_on_the_stack(self, monkeypatch):
        pairs = cascade_pairs()
        rows = np.array([[1.0, 0.0, 0.0], [0.99, 0.1, 0.0], [0.98, 0.0, 0.1]])
        stacked = []

        def counting_fit(values, weights):
            stacked.append(len(values))
            return _pool_adjacent_violators(values, weights)

        monkeypatch.setattr(ranking, "_pool_adjacent_violators", counting_fit)
        for row in rows:
            stacked.clear()
            got = monotonicity_score(pairs, row, 1)
            assert stacked, f"row {row} did not reach the stack"
            want = monotonicity_score_reference(pairs, row, 1)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("m, match", [
        ([np.nan, 1.0, 0.0], "^m contains non-finite values$"),
        ([np.inf, 1.0, 0.0], "^m contains non-finite values$"),
        # a stack of rows is refused by its shape, before its values are read
        ([[1.0, 0.0, 0.0], [0.0, -np.inf, 1.0]], r"^m must have shape \(3,\), got \(2, 3\)$"),
        ([[1.0, 0.0, 0.0], [1.0]], "m must be an array of real numbers, got a ragged nesting"),
        ([None, 1.0, 0.0], "m must be an array of real numbers, got dtype object"),
        (np.ones(4), r"m must have shape \(3,\), got \(4,\)"),
        (np.ones(0), r"got \(0,\)"),
        (np.ones((2, 4)), r"got \(2, 4\)"),
        (np.ones((3, 1)), r"got \(3, 1\)"),
        (np.ones((1, 2, 3)), r"got \(1, 2, 3\)"),
        ([1j, 0.0, 0.0], "m must be an array of real numbers, got dtype complex128"),
        ("abc", "m must be an array of real numbers, got dtype <U3"),
        (np.ones((1, 3)), r"m must have shape \(3,\), got \(1, 3\)"),
        (np.ones((0, 3)), r"m must have shape \(3,\), got \(0, 3\)"),
    ])
    def test_rejects_bad_rows_at_entry(self, m, match):
        with pytest.raises(ValueError, match=match):
            monotonicity_score(cascade_pairs(60), m, 1)

    def test_zero_row_is_scored(self):
        # a zero row projects every pair to 0, so its fit is the mean
        pairs = cascade_pairs(60)
        y = pairs.unsaturated().rendered[:, 0]
        spread = np.sqrt(np.mean((y - y.mean()) ** 2))
        assert monotonicity_score(pairs, [0.0, 0.0, 0.0], 1) == pytest.approx(spread, rel=1e-12)


@pytest.mark.row_search
class TestMonotoneBound:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 80),
        ties=st.booleans(),
        levels=st.sampled_from([0, 8, 255]),
        monotone=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_bounds_the_residual_from_below(self, n, ties, levels, monotone, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.05, 0.9, size=n)
        if ties:
            x = np.round(x * 8.0) / 8.0
        y = 0.1 + 0.8 * x ** 2 if monotone else rng.uniform(0.1, 0.9, size=n)
        if levels:
            y = np.round(y * levels) / levels
        # x is the projection on the first axis, exactly
        raw = np.column_stack([x, np.full(n, 0.5), np.full(n, 0.5)])
        pairs = PixelPairSet.from_arrays(raw, np.column_stack([y, y, y]))
        row = np.array([1.0, 0.0, 0.0])
        pool = pairs.unsaturated()
        bound = _monotone_bound(pool.raw @ row, pool.rendered[:, 0])
        residual = monotonicity_score(pairs, row, 1)
        assert type(bound) is float
        assert bound <= residual * (1.0 + 1e-12)
        if monotone:
            assert bound == 0.0

    def test_is_tight_on_one_fall_and_counts_odd_starts(self):
        # a fall from 0.6 to 0.4 costs its pair at least 0.2^2 / 2, and the
        # fit (0.5, 0.5) pays exactly that
        pairs = PixelPairSet.from_arrays(np.array([[0.2, 0.5, 0.5], [0.4, 0.5, 0.5]]),
                                         np.array([[0.6] * 3, [0.4] * 3]))
        pool = pairs.unsaturated()
        row = np.array([1.0, 0.0, 0.0])
        assert _monotone_bound(pool.raw @ row, pool.rendered[:, 0]) == pytest.approx(
            monotonicity_score(pairs, row, 1), rel=1e-12)
        # a fall that starts at an odd index counts, spread over all n values
        assert _monotone_bound(np.arange(3.0), np.array([0.0, 1.0, 0.0])) == np.sqrt(1.0 / 6.0)


class TestEstimateRow:
    def test_median_direction_of_a_tie_set(self):
        tied = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        assert np.allclose(_median_direction(tied), [0.8, 0.4, 0.0] / np.sqrt(0.8))
        # an antipodal pair has a zero median: the first point stands for it
        antipodal = np.array([[0.6, 0.0, -0.8], [-0.6, 0.0, 0.8]])
        assert _median_direction(antipodal).tolist() == [0.6, 0.0, -0.8]

    @staticmethod
    def grey_ramp_pairs(seed):
        """Raws a hair off a shuffled grey ramp, whose rendered values are
        noisy: candidates that order the ramp alike score the same bits."""
        rng = np.random.default_rng(seed)
        t = rng.permutation(np.linspace(0.1, 0.9, 120))
        raw = t[:, None] + rng.uniform(-1e-4, 1e-4, size=(120, 3))
        y = np.clip(t ** 0.45 + rng.normal(0.0, 0.03, size=120), 0.01, 0.9)
        return PixelPairSet.from_arrays(raw, np.column_stack([y, y, y]))

    # On the camera corpora the bounds leave most candidates unscored; on
    # the grey ramps every candidate is scored and two distinct ones tie.
    @pytest.mark.parametrize("case, channel, trials, seed, ties", [
        ("camera", 3, 8, 0, 0), ("camera", 2, 8, 1, 0),
        ("grey_ramp", 1, 6, 2, 2), ("grey_ramp", 1, 6, 5, 2),
    ], ids=["camera-seed0", "camera-seed1", "grey_ramp-seed2", "grey_ramp-seed5"])
    def test_returns_the_first_argmin_over_all_candidates(self, case, channel, trials,
                                                          seed, ties):
        if case == "camera":
            pairs = make_corpus(make_camera(seed=seed), 140, rng_seed=seed)
        else:
            pairs = self.grey_ramp_pairs(seed)
        sphere = sample_sphere(2000)
        diffs = [build_half_spaces(pairs, channel, rng_seed=seed + trial)
                 for trial in range(trials)]
        candidates = np.array([_median_direction(sphere.points[tied])
                               for _, tied in _search_trials(sphere, diffs)])
        residuals = np.array([monotonicity_score(pairs, c, channel) for c in candidates])
        best = np.flatnonzero(residuals == residuals.min())
        if ties:
            # distinct candidates share the least residual: the first wins
            assert len({tuple(c) for c in candidates[best]}) == ties
        row = estimate_row(pairs, channel, sphere, trials=trials, rng_seed=seed)
        assert row.tobytes() == candidates[best[0]].tobytes()

    def test_recovers_reference_row_direction(self, sphere100k):
        rng = np.random.default_rng(10)
        row = np.array([0.6, 0.3, 0.1])
        row = row / np.linalg.norm(row)
        pairs = synthetic_channel_pairs(rng, 140, row)
        got = estimate_row(pairs, 1, sphere100k, trials=5, rng_seed=2)
        assert angle_degrees(got, row) <= 1.2

    def test_identity_camera_recovers_axes(self, sphere100k):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.02, 0.95, size=(140, 3))
        rendered = raw ** (1 / 2.2)
        pairs = PixelPairSet.from_arrays(raw, rendered)
        for ch in (1, 2, 3):
            got = estimate_row(pairs, ch, sphere100k, trials=5, rng_seed=4)
            assert angle_degrees(got, np.eye(3)[ch - 1]) <= 1.2

    def test_deterministic_for_fixed_seed(self, sphere100k):
        rng = np.random.default_rng(12)
        pairs = synthetic_channel_pairs(rng, 120, np.array([0.55, 0.35, 0.10]))
        a = estimate_row(pairs, 1, sphere100k, trials=3, rng_seed=6)
        b = estimate_row(pairs, 1, sphere100k, trials=3, rng_seed=6)
        assert a.tobytes() == b.tobytes()

    def test_non_integer_trials_rejected_by_name(self):
        rng = np.random.default_rng(15)
        pairs = synthetic_channel_pairs(rng, 60, np.array([0.5, 0.4, 0.1]))
        with pytest.raises(ValueError, match="trials must be an integer >= 1, got 1.5"):
            estimate_row(pairs, 1, sample_sphere(2000), trials=1.5)

    @pytest.mark.parametrize("sphere", ["s", 2000, np.eye(3)])
    def test_sphere_must_be_a_sample(self, sphere):
        rng = np.random.default_rng(15)
        pairs = synthetic_channel_pairs(rng, 60, np.array([0.5, 0.4, 0.1]))
        with pytest.raises(ValueError, match="sphere must be a SphereSample, got "):
            estimate_row(pairs, 1, sphere)

    def test_scale_invariance_of_direction(self, sphere100k):
        rng = np.random.default_rng(13)
        pairs = synthetic_channel_pairs(rng, 120, np.array([0.5, 0.4, 0.1]))
        base = estimate_row(pairs, 1, sphere100k, trials=3, rng_seed=6)
        scaled = PixelPairSet.from_arrays(
            pairs.raw, np.clip(pairs.rendered * 0.9, 0.0, 1.0)
        )
        got = estimate_row(scaled, 1, sphere100k, trials=3, rng_seed=6)
        assert angle_degrees(base, got) <= 0.2


class TestRescaleAchromatic:
    ROWS = np.array([
        [0.8, 0.1, 0.1],
        [0.2, 0.7, 0.1],
        [0.1, 0.2, 0.7],
    ])
    ROWS = ROWS / np.linalg.norm(ROWS, axis=1, keepdims=True)

    def test_rows_take_the_slope_of_a_linear_rendering(self):
        # rendered = c * (raw @ row): each row comes back scaled by c, as the
        # largest corrected value stays below 1 / 1.02
        raw = np.random.default_rng(0).uniform(0.05, 0.45, size=(40, 3))
        c = np.array([0.9, 1.3, 0.7])
        pairs = PixelPairSet.from_arrays(raw, c * (raw @ self.ROWS.T))
        m = rescale_achromatic(ColorMatrix(self.ROWS), pairs)
        assert np.allclose(m.rows, c[:, None] * self.ROWS, rtol=1e-12, atol=0.0)

    def test_gauge_puts_the_corrected_peak_below_one(self):
        # a concave rendering pushes the slope's peak above 1 / 1.02, so
        # every row is shrunk to put it there, keeping its direction
        raw = np.random.default_rng(1).uniform(0.02, 0.9, size=(60, 3))
        corrected = raw @ self.ROWS.T
        rendered = 0.95 * (corrected / corrected.max(axis=0)) ** 0.45
        pairs = PixelPairSet.from_arrays(raw, rendered)
        m = rescale_achromatic(ColorMatrix(self.ROWS), pairs)
        assert np.allclose((raw @ m.rows.T).max(axis=0), 1 / 1.02, rtol=1e-12, atol=0.0)
        directions = m.rows / np.linalg.norm(m.rows, axis=1, keepdims=True)
        assert np.allclose(directions, self.ROWS, rtol=1e-12, atol=0.0)

    def test_already_consistent_matrix_unchanged(self):
        rows = np.eye(3)
        raw = np.vstack([
            np.array([[0.5, 0.5, 0.5]]),
            np.random.default_rng(1).uniform(0.1, 0.9, size=(5, 3)),
        ])
        rendered = raw.copy()
        pairs = PixelPairSet.from_arrays(raw, rendered)
        m = rescale_achromatic(ColorMatrix(rows), pairs)
        assert np.allclose(m.rows, rows, atol=1e-15)

    @pytest.mark.parametrize("case, channel", [("empty", 1), ("zero", 3), ("negative", 2)])
    def test_no_positive_slope_raises_naming_the_channel(self, case, channel):
        raw = np.random.default_rng(2).uniform(0.1, 0.9, size=(20, 3))
        raw[:, 1] = raw[:, 0]
        rows = np.eye(3)
        rendered = np.full((20, 3), 0.5)
        if case == "empty":
            # every pair flagged: the pool is empty
            rendered[:, 0] = 1.0
        elif case == "zero":
            rows[2] = [1.0, -1.0, 0.0]  # every corrected value is 0
        else:
            rows[1] = -rows[1]
        pairs = PixelPairSet.from_arrays(raw, rendered)
        # filterwarnings = error turns any 0/0 warning into a failure here
        with pytest.raises(CalibrationError, match=f"^channel {channel}: .*no positive slope"):
            rescale_achromatic(ColorMatrix(rows), pairs)

    def test_calibrates_a_corpus_with_no_near_grey_pair(self):
        camera = make_camera(seed=7, tone=ToneSpec("gamma", 1 / 2.2))
        corpus = make_corpus(camera, 200, rng_seed=7)
        spread = np.ptp(corpus.rendered, axis=1)
        colourful = corpus.subset(spread > 0.08)
        assert len(colourful) == 148
        model = calibrate(colourful, CalibrationConfig(rng_seed=0))
        fit = rmse(map_forward(model, colourful.raw), colourful.rendered, "rendered255")
        assert fit <= 1.0

    def test_synthetic_camera_recovers_matrix_up_to_row_scale(self, clean_bundle):
        estimated = rescale_achromatic(clean_bundle["estimated"],
                                       clean_bundle["corpus"])
        truth = clean_bundle["camera"].effective_matrix()
        for k in range(3):
            est = estimated.rows[k]
            s = float(np.dot(est, truth[k]) / np.dot(est, est))
            rel = np.linalg.norm(s * est - truth[k]) / np.linalg.norm(truth[k])
            assert rel <= 0.02
