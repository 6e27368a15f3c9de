"""Rank-based estimation of the colour-correction matrix rows.

Each pair of pixels whose rendered values differ in a channel pins the
corresponding matrix row to one side of a plane through the origin. Rows
are recovered by finding the candidate directions, from a fixed dense
sample of the unit sphere, that satisfy the most of those half-space
constraints. A row's trials are searched one after the other by a
branch-and-bound over two levels of caps of the sample, which finds
exactly the points a dense scan would. Each trial's floor is the best
score of a few points: those the trial before it tied on, or for the
first trial those of its best cap. Each side of the antipodal sample is
bounded on its own, and only the points of the (cap, side) pairs whose
bounds reach the floor are scored: about 0.36% of the half-sphere on the
benchmark's constraint sets. Repeated trials over random colour subsets
are arbitrated by how monotone the induced raw-to-rendered relation is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import CalibrationError, DegenerateChannel, InsufficientData
from .model import (SATURATION_FRACTION, ColorMatrix, PixelPairSet, _as_float_array,
                    _as_rows, _check_channel, _check_integer, _check_rows, _check_type)

DEFAULT_SPHERE_COUNT = 100_000
DEFAULT_TRIALS = 25
# Unique raw colours drawn per trial: C(50, 2) = 1225 constraints at most.
MAX_COLORS = 50

# Rendered-channel differences below two quantization levels are treated
# as ties: one-level gaps are unreliable rank evidence.
RANK_TIE_EPS = 2.0 / 255.0

# A row is shrunk until the training data's largest corrected value
# leaves this headroom below 1, the top of the tone curves' domain.
_GAUGE_HEADROOM = 1.02

# Values in one float32 product of the row search (2 MB): centres are
# bounded, and points scored, in pieces that keep within it.
_BOUND_ENTRIES = 2 ** 19

# uint64 words that ``_count_true`` sums at once: each of a sum's 8 byte
# lanes then counts at most 255 entries.
_LANE_WORDS = 255

# Candidate x pair elements scored together by ``monotonicity_score``:
# each of its (k, n) float64 work arrays stays near 256 KiB, so a batch's
# arrays fit together in a core's 2 MiB L2 cache. On 8000 pairs, 2**14
# was slower, 2**16 no faster at twice the memory, and 2**20 (8 MiB an
# array) a third slower.
_RESIDUAL_POINTS = 2 ** 15

# Caps of the row search: the upper half of the sample is cut into this
# many equal-area zones, about 4.5 degrees across. 256 caps prune too
# little and 4096 spend more on bounds than they save.
_CAP_CENTRES = 1024

# Cap groups: the caps are grouped in turn by which of this many coarser
# equal-area zones holds their centre, so that a search bounds the groups
# first and the caps of the groups it opens.
_CAP_GROUPS = 64

# Angular margin (radians) added to each cap radius. The float32 sign
# test errs only for constraints within about 1e-6 rad of a point's
# plane, and the float32 bound products by under 1e-6 rad, so a
# constraint that a bound finds 1e-5 rad clear of a cap reads the same
# sign at every point in it.
_CAP_MARGIN = 1e-5


@dataclass(frozen=True, eq=False)
class SphereSample:
    """Unit direction candidates covering the whole sphere, built from
    their even ``count`` >= 6 as ``sample_sphere`` describes: the last
    half of the points negates the first, so the cap index covers the
    first half and each cap bound reads one product both ways.
    """

    count: int
    points: np.ndarray = field(init=False)
    # read by perfbench's sample_sphere counter; ROADMAP item 1 drops both
    antipodal: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _check_sphere_count(self.count, "count")
        upper = np.eye(3) if self.count == 6 else _hemisphere_spiral(self.count // 2)
        points = np.vstack([upper, -upper])
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @functools.cached_property
    def caps(self) -> CapIndex:
        """Cap index of the first half of the points, built on first use."""
        return _build_caps(self.points[:self.count // 2])


@dataclass(frozen=True, eq=False)
class CapIndex:
    """Scored sphere points grouped into caps, and caps into groups.

    Cap k holds the points ``order[offsets[k]:offsets[k + 1]]``, each
    within ``radius[k]`` radians of ``centres[k]``. Group j holds the
    caps ``group_offsets[j]:group_offsets[j + 1]``, whose points all lie
    within ``group_radius[j]`` radians of ``group_centres[j]``. The
    index covers the first half of a sample, whose points and centres
    all lie in the upper hemisphere. Empty caps and empty groups are
    dropped.
    """

    centres: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    radius: np.ndarray
    group_centres: np.ndarray
    group_offsets: np.ndarray
    group_radius: np.ndarray

    def __post_init__(self) -> None:
        # shared by every search of the cached sample
        for value in vars(self).values():
            value.setflags(write=False)


def _hemisphere_spiral(count: int) -> np.ndarray:
    """Fibonacci spiral of ``count`` unit vectors over the open upper hemisphere."""
    z = 1.0 - (np.arange(count, dtype=float) + 0.5) / count  # z in (0, 1)
    i = np.arange(count, dtype=float)
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    return _unit_rows(np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z]))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _check_sphere_count(value, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an even integer >= 6."""
    _check_integer(value, name, 6)
    if value % 2:
        raise ValueError(f"{name} must be even, got {value!r}")


# typed, so that a cached 6 does not answer for 6.0 before the check
@functools.lru_cache(maxsize=2, typed=True)
def sample_sphere(n: int) -> SphereSample:
    """Deterministic, near-uniform unit vectors over the full sphere.

    n must be an even integer: a Fibonacci spiral of n / 2 points over
    the open upper hemisphere is followed by its negation, so every
    direction appears with its negation and the cap bounds can share
    products between the two. At n = 100000 the largest
    nearest-neighbour gap is about 0.65 degrees. n = 6 is the
    axis-aligned octahedron.

    The sample is immutable and depends on n alone, so the process keeps
    the last two ``SphereSample(n)`` it built, each with its cap index once
    searched: at n = 100000 that is about 3 MB.
    """
    _check_sphere_count(n, "n")
    return SphereSample(n)


def _zone_labels(points: np.ndarray, count: int) -> np.ndarray:
    """Region of each unit row of ``points``, which lie in the upper
    hemisphere, in an equal-area partition of it into ``count`` regions
    (Leopardi, ETNA 25, 2006).

    Region 0 is a polar cap. Below it lie collars about as tall as a
    region is wide, each cut into equal azimuth sectors; the count of
    regions above each collar edge is rounded to whole regions, and the
    edge put where they fill the area above it, at z = 1 - above / count.
    """
    polar = np.arccos(1.0 - 1.0 / count)
    collars = max(1, round((np.pi / 2 - polar) / np.sqrt(2 * np.pi / count)))
    edges = np.append(0.0, np.linspace(polar, np.pi / 2, collars + 1))
    above = np.rint(count * (1.0 - np.cos(edges))).astype(np.int64)  # 0, 1, ..., count
    zone = np.clip(np.searchsorted(above, count * (1.0 - points[:, 2]), side="right") - 1,
                   0, collars)
    sectors = np.diff(above)[zone]
    azimuth = np.arctan2(points[:, 1], points[:, 0]) % (2 * np.pi)
    return above[zone] + np.minimum((azimuth * sectors / (2 * np.pi)).astype(np.int64),
                                    sectors - 1)


def _largest_angles(points: np.ndarray, centres: np.ndarray,
                    edges: np.ndarray) -> np.ndarray:
    """Largest angle between ``centres[k]`` and the points ``edges[k]:edges[k + 1]``."""
    cosine = np.einsum("ij,ij->i", points, np.repeat(centres, np.diff(edges), axis=0))
    return np.arccos(np.clip(np.minimum.reduceat(cosine, edges[:-1]), -1.0, 1.0))


def _build_caps(scored: np.ndarray) -> CapIndex:
    # each point joins its zone of _CAP_CENTRES, and each cap, centred on
    # the normalized mean of its points, the zone of _CAP_GROUPS that its
    # centre lies in; the radii below hold for any such partition
    label = _zone_labels(scored, _CAP_CENTRES)
    counts = np.bincount(label, minlength=_CAP_CENTRES)
    used = np.flatnonzero(counts)
    centres = _unit_rows(np.column_stack([
        np.bincount(label, weights=column, minlength=_CAP_CENTRES)[used]
        for column in scored.T]))
    owner = _zone_labels(centres, _CAP_GROUPS)
    # the non-empty caps are numbered group by group, so that a group's
    # caps are contiguous
    by_group = np.argsort(owner, kind="stable")
    centres, zones = centres[by_group], used[by_group]
    rank = np.empty(_CAP_CENTRES, dtype=np.int64)
    rank[zones] = np.arange(zones.size)
    # the ranks fit 16 bits, and a 16-bit key is sorted by radix, several times faster
    order = np.argsort(rank[label].astype(np.uint16), kind="stable")
    offsets = np.concatenate([[0], np.cumsum(counts[zones])])
    group_sizes = np.bincount(owner, minlength=_CAP_GROUPS)
    group_offsets = np.concatenate([[0], np.cumsum(group_sizes[group_sizes > 0])])
    members = scored[order]
    group_edges = offsets[group_offsets]
    group_centres = _unit_rows(np.add.reduceat(members, group_edges[:-1], axis=0))
    return CapIndex(centres=centres, order=order, offsets=offsets,
                    radius=_largest_angles(members, centres, offsets),
                    group_centres=group_centres, group_offsets=group_offsets,
                    group_radius=_largest_angles(members, group_centres, group_edges))


def _constraint_pool(pairs: PixelPairSet) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank evidence of a pair set, which no trial changes.

    Rows are eligible when unflagged and no rendered component is at or
    above SATURATION_FRACTION, too near the clip to rank. Returns how many
    are, and the raw and rendered rows of the first eligible occurrence of
    each distinct raw row, in order. A set keeps its pool as
    ``PixelPairSet._rank_pool``, so a calibration builds it once.
    """
    ok = ~pairs.saturated & (pairs.rendered < SATURATION_FRACTION).all(axis=1)
    raw = pairs.raw[ok]
    first = _first_of_each_row(raw)
    raws = raw[first]
    rendered = pairs.rendered[ok][first]
    for a in (raws, rendered):
        a.setflags(write=False)
    return raw.shape[0], raws, rendered


def _first_of_each_row(rows: np.ndarray) -> np.ndarray:
    """Ascending index of the first occurrence of each distinct row.

    A stable lexicographic sort puts equal rows (compared by value, so
    0.0 equals -0.0) next to each other in their original order.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[starts])


@functools.lru_cache(maxsize=8)
def _pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, read-only: every trial of a calibration
    draws the same number of colours."""
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def build_half_spaces(pairs: PixelPairSet, channel: int, *,
                      rng_seed: int = 0) -> np.ndarray:
    """Oriented rank constraints for one channel from a random colour subset.

    Up to MAX_COLORS unique raw colours are drawn (seeded); every pair
    whose rendered values differ by at least RANK_TIE_EPS contributes one
    difference vector d, oriented so the brighter rendered value comes
    first: the true row satisfies row @ d > 0. Returns the read-only
    (m, 3) differences, m >= 1.
    """
    _check_type(pairs, PixelPairSet, "pairs")
    _check_channel(channel)
    _check_integer(rng_seed, "rng_seed", 0)
    eligible, raws, rendered = pairs._rank_pool
    if eligible < 2:
        raise InsufficientData(
            f"need at least 2 unsaturated entries, have {eligible}"
        )
    rend = rendered[:, channel - 1]
    if raws.shape[0] > MAX_COLORS:
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(raws.shape[0], size=MAX_COLORS, replace=False)
        raws = raws[chosen]
        rend = rend[chosen]
    ii, jj = _pair_indices(raws.shape[0])
    gap = rend[ii] - rend[jj]
    keep = np.abs(gap) >= RANK_TIE_EPS
    if not np.any(keep):
        raise DegenerateChannel(
            f"channel {channel} has no rendered differences above the tie threshold"
        )
    sign = np.where(gap[keep] > 0.0, 1.0, -1.0)
    # np.take gathers rows several times faster than fancy indexing
    diffs = np.take(raws, ii[keep], axis=0) - np.take(raws, jj[keep], axis=0)
    diffs *= sign[:, None]
    diffs.setflags(write=False)
    return diffs


def _count_true(mask: np.ndarray) -> np.ndarray:
    """True entries along the last axis of a C-contiguous bool array
    whose last axis is a multiple of 8 long, as every padded constraint
    stack is.

    Its bytes are read as uint64 words and summed _LANE_WORDS words at a
    time, so each of the 8 byte lanes of a sum counts at most 255
    entries and none carries into the next; the lanes are then added.
    This is several times faster than ``np.count_nonzero(mask, axis=-1)``.
    """
    words = mask.view(np.uint64)
    total = np.zeros(words.shape[:-1], dtype=np.int64)
    for start in range(0, words.shape[-1], _LANE_WORDS):
        lanes = words[..., start:start + _LANE_WORDS].sum(
            axis=-1, keepdims=True, dtype=np.uint64)
        total += lanes.view(np.uint8).sum(axis=-1, dtype=np.int64)
    return total


def _bound_centres(centres: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Float32 ``centres``, each divided by the sine of its radius plus
    _CAP_MARGIN, as ``_upper_bounds`` takes them."""
    return (centres / np.sin(radius + _CAP_MARGIN)[:, None]).astype(np.float32)


def _upper_bounds(scaled: np.ndarray, unit: np.ndarray,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    """Most constraints any point within a radius of each centre satisfies.

    ``unit`` holds one trial's unit constraints as float32 (3, p), padded
    with zeros, and ``size`` their count; ``scaled`` holds the centres as
    ``_bound_centres`` gives them. Returns (k,) bounds for the points near
    each centre and for their negations. With g = c . d and s = sin(radius
    + margin), every such point fails the constraints with g < -s, and its
    negation those with g > s; each centre is divided by its s, so both
    tests compare with 1, and a zero constraint never fails. The products
    are float32, whose error the margin covers, and are taken for pieces
    of centres that hold at most _BOUND_ENTRIES values.
    """
    plus = np.empty(scaled.shape[0], dtype=np.int64)
    minus = np.empty_like(plus)
    step = max(1, _BOUND_ENTRIES // unit.shape[1])
    for start in range(0, scaled.shape[0], step):
        g = scaled[start:start + step] @ unit
        plus[start:start + step] = size - _count_true(g < -1.0)
        minus[start:start + step] = size - _count_true(g > 1.0)
    return plus, minus


def _scores(points: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Constraint counts (n,) of float32 points (n, 3) against one
    trial's float32 differences ``dt`` (3, p): a point's count is how
    many of its products are positive. Products are formed in blocks of
    points that hold at most _BOUND_ENTRIES values, and never fewer than
    two points.
    """
    n = points.shape[0]
    block = max(2, _BOUND_ENTRIES // dt.shape[1])
    if n % block == 1:
        # numpy forms a one-row product with gemv, which may round
        # differently from a matrix product, as a one-column product
        # does; a repeated row keeps every product a matrix product
        points = np.concatenate([points, points[-1:]])
    counts = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, n, block):
        counts[start:start + block] = _count_true(points[start:start + block] @ dt > 0.0)
    return counts[:n]


def _search_trials(sphere: SphereSample,
                   diffs: list[np.ndarray]) -> list[tuple[int, np.ndarray]]:
    """Most constraints any sphere point satisfies, and the points that
    do, for each of a stack of trials' differences (m, 3).

    The indices come in ascending order and equal those of scoring every
    point. The trials are searched one after the other, each floored on
    the points the trial before it tied on. Differences are padded by
    zero rows to a common multiple of 8.
    """
    sizes = [d.shape[0] for d in diffs]
    width = -(-max(sizes) // 8) * 8
    padded = np.zeros((len(diffs), 3, width))
    for row, d in enumerate(diffs):
        padded[row, :, :d.shape[0]] = d.T
    norm = np.sqrt(padded[:, 0] ** 2 + padded[:, 1] ** 2 + padded[:, 2] ** 2)[:, None]
    unit = (padded / np.where(norm > 0.0, norm, 1.0)).astype(np.float32)
    dt = padded.astype(np.float32)
    caps = sphere.caps
    groups = _bound_centres(caps.group_centres, caps.group_radius)
    centres = _bound_centres(caps.centres, caps.radius)
    found = []
    for size, trial_unit, trial_dt in zip(sizes, unit, dt):
        found.append(_search_trial(sphere, groups, centres, trial_unit, trial_dt, size,
                                   found[-1][1] if found else None))
    return found


def _best_cap_points(sphere: SphereSample, centres: np.ndarray, unit: np.ndarray,
                     size: int, group_plus: np.ndarray,
                     group_minus: np.ndarray) -> np.ndarray:
    """Sphere indices of the points of one trial's best-bounded cap in its
    best-bounded group, on the cap's better side, given the trial's group
    bounds and its caps' ``_bound_centres``."""
    caps = sphere.caps
    top = int(np.argmax(np.maximum(group_plus, group_minus)))
    near = np.arange(caps.group_offsets[top], caps.group_offsets[top + 1])
    plus, minus = _upper_bounds(centres[near], unit, size)
    best = int(np.argmax(np.maximum(plus, minus)))
    side = 0 if plus[best] >= minus[best] else sphere.count // 2
    return np.sort(_members(caps, near[best:best + 1])) + side


def _search_trial(sphere: SphereSample, groups: np.ndarray, centres: np.ndarray,
                  unit: np.ndarray, dt: np.ndarray, size: int,
                  floor_points: np.ndarray | None) -> tuple[int, np.ndarray]:
    """Branch-and-bound over the cap index for one trial.

    ``groups`` and ``centres`` are the ``_bound_centres`` of the index's
    groups and caps. ``unit`` and ``dt`` (3, p) hold the trial's unit and
    raw differences as float32, padded with zeros: a zero product counts
    for no side, and zero columns leave the other products as the dense
    blocks form them. The floor is the best score of the sphere indices
    ``floor_points``, or of ``_best_cap_points`` when there are none. The
    caps of every group whose bound reaches it on either side are
    bounded, and the points of each (cap, side) whose cap bound reaches
    it are scored, a minus side by its members' negations. The floor is
    a score that some point reaches, so every tied point is among them.
    """
    caps = sphere.caps
    group_plus, group_minus = _upper_bounds(groups, unit, size)
    if floor_points is None:
        floor_points = _best_cap_points(sphere, centres, unit, size, group_plus, group_minus)
    floor = _scores(sphere.points[floor_points].astype(np.float32), dt).max()

    open_groups = np.maximum(group_plus, group_minus) >= floor
    near = np.flatnonzero(np.repeat(open_groups, np.diff(caps.group_offsets)))
    cap_plus, cap_minus = _upper_bounds(centres[near], unit, size)
    rows = np.concatenate([_members(caps, near[cap_plus >= floor]),
                           _members(caps, near[cap_minus >= floor]) + sphere.count // 2])
    scores = _scores(sphere.points[rows].astype(np.float32), dt)
    best = int(scores.max())
    return best, np.sort(rows[scores == best])


def _members(caps: CapIndex, which: np.ndarray) -> np.ndarray:
    """Scored points of the caps ``which``, cap after cap."""
    sizes = caps.offsets[which + 1] - caps.offsets[which]
    shift = caps.offsets[which] - (np.cumsum(sizes) - sizes)
    return caps.order[np.repeat(shift, sizes) + np.arange(sizes.sum())]


def isotonic_fit(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Best non-decreasing L2 fit by pool-adjacent-violators.

    The stack runs on Python floats, which round exactly as float64 array
    elements do and cost far less to index one at a time. Values must be
    finite and weights finite and > 0, or ValueError names the argument.
    """
    y = _as_float_array(values, (None,), "values")
    w = np.ones_like(y) if weights is None else _as_float_array(weights, y.shape, "weights")
    if w.size and w.min() <= 0.0:
        raise ValueError(f"weights must be > 0, got {float(w.min())}")
    level: list[float] = []
    weight: list[float] = []
    length: list[int] = []
    for y_new, w_new in zip(y.tolist(), w.tolist()):
        count = 1
        while level and level[-1] >= y_new:
            w_old = weight.pop()
            total = w_old + w_new
            y_new = (w_old * level.pop() + w_new * y_new) / total
            w_new = total
            count += length.pop()
        level.append(y_new)
        weight.append(w_new)
        length.append(count)
    return np.repeat(np.array(level, dtype=float), np.array(length, dtype=np.int64))


def monotonicity_score(pairs: PixelPairSet, m: np.ndarray,
                       channel: int) -> float | np.ndarray:
    """RMS residual of the best monotone fit of rendered on corrected raw.

    ``m`` is one candidate row (3,), which gives a float, or a stack of
    k rows (k, 3), which gives their k residuals; the one-row form is the
    stack form on a stack of one, so a row scores the same bits either
    way. Pairs with identical projections are pooled first (a monotone
    function must map them to one value), so the residual includes their
    spread. ``m`` takes the rows rule of ``map_forward``: a row that is not
    finite raises ValueError naming it.
    """
    _check_type(pairs, PixelPairSet, "pairs")
    _check_channel(channel)
    stack = _as_rows(m, "m")
    _check_rows(stack, "m", finite=True)
    pool = pairs.unsaturated()
    if len(pool) == 0:
        raise InsufficientData("no unsaturated pairs to score")
    y = pool.rendered[:, channel - 1]
    batch = max(1, _RESIDUAL_POINTS // len(pool))
    residuals = np.empty(len(stack))
    for s in range(0, len(stack), batch):
        residuals[s:s + batch] = _monotone_residuals(pool.raw, y, stack[s:s + batch])
    return float(residuals[0]) if np.ndim(m) == 1 else residuals


def _monotone_residuals(raw: np.ndarray, y: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """Residual of the best monotone fit of ``y`` on ``raw @ row``, per row.

    The k candidates' pooled blocks lie end to end in flat arrays, and
    pool-adjacent-violators runs on all of them at once, in rounds: each
    round merges every block into its left neighbour when that one's
    mean is not lower. The order in which violators are pooled does not
    change the fit (Barlow et al., 1972). A candidate that is monotone is
    done; one whose round would merge fewer than 1/8 of its blocks, as
    when one outlier cascades through the rest, is finished on the
    ``isotonic_fit`` stack, which bounds the rounds. Both decisions are
    made per candidate, so a row gets the same bits in any batch. When
    no two of a batch's projections are equal, the usual case, the tie
    re-order and pooling are skipped: each pair starts as its own block.
    """
    k = rows.shape[0]
    x = np.stack([raw @ row for row in rows])
    n = x.shape[1]
    order = np.argsort(x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    first = np.ones((k, n), dtype=bool)
    first[:, 1:] = np.diff(xs, axis=1) > 0.0
    if first.all():
        # no ties, the usual case: every pair is a block of one, whose sum
        # is the bits a singleton reduceat returns
        ys = y[order]
        sums = ys.ravel()
        counts = np.ones(k * n, dtype=np.int64)
        owner = np.repeat(np.arange(k), n)
    else:
        # the unstable sort, several times faster, may permute a run of
        # equal x; ordering each run by pair index gives the order of
        # np.argsort(x, axis=1, kind="stable"), so tie sums add as before
        key = np.cumsum(first, axis=1) * n + order
        key.sort(axis=1)
        ys = y[key % n]
        # pool exact ties in x: group sums and sizes, never across candidates
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(ys.ravel(), starts)
        counts = np.diff(np.append(starts, k * n))
        owner = starts // n
    fit = np.empty((k, n))
    while owner.size:
        means = sums / counts
        joins = np.zeros(owner.size, dtype=bool)
        joins[1:] = (means[:-1] >= means[1:]) & (owner[:-1] == owner[1:])
        blocks = np.bincount(owner, minlength=k)
        merges = np.bincount(owner[joins], minlength=k)
        done = (blocks > 0) & (8 * merges < blocks)
        if done.any():
            offsets = np.append(0, np.cumsum(blocks))
            for c in np.flatnonzero(done & (merges > 0)):
                lo, hi = offsets[c], offsets[c + 1]
                means[lo:hi] = isotonic_fit(means[lo:hi], counts[lo:hi])
            out = done[owner]
            fit[done] = np.repeat(means[out], counts[out]).reshape(-1, n)
            keep = ~out
            sums, counts, owner, joins = sums[keep], counts[keep], owner[keep], joins[keep]
        heads = np.flatnonzero(~joins)
        if heads.size:
            sums = np.add.reduceat(sums, heads)
            counts = np.add.reduceat(counts, heads)
            owner = owner[heads]
    return np.sqrt(np.mean((ys - fit) ** 2, axis=1))


def _median_direction(tied: np.ndarray) -> np.ndarray:
    # the componentwise median as np.median forms it, which imports numpy.ma
    ordered = np.sort(tied, axis=0)
    half = ordered.shape[0] // 2
    med = ordered[half] if ordered.shape[0] % 2 else (ordered[half - 1] + ordered[half]) / 2
    norm = np.linalg.norm(med)
    if norm < 1e-12:
        # antipodal tie cluster; fall back to the first point
        return tied[0]
    return med / norm


def estimate_row(pairs: PixelPairSet, channel: int, sphere: SphereSample,
                 trials: int = DEFAULT_TRIALS, *, rng_seed: int = 0) -> np.ndarray:
    """Estimate one matrix row direction (unit vector).

    Runs ``trials`` seeded colour subsets; in each, the sphere point(s)
    satisfying the most half-space constraints are reduced to one
    candidate by a renormalized componentwise median. Across trials, the
    candidate whose induced mapping has the lowest monotone-fit residual
    on the full pair set wins.
    """
    _check_type(sphere, SphereSample, "sphere")
    _check_integer(trials, "trials", 1)
    diffs = [build_half_spaces(pairs, channel, rng_seed=rng_seed + trial)
             for trial in range(trials)]
    found = _search_trials(sphere, diffs)
    candidates = np.array([_median_direction(sphere.points[tied]) for _, tied in found])
    residuals = monotonicity_score(pairs, candidates, channel)
    return candidates[int(np.argmin(residuals))]


def rescale_achromatic(m: ColorMatrix, pairs: PixelPairSet) -> ColorMatrix:
    """Fix the scale of each row of M, which rank order leaves free.

    Each row is scaled by the least-squares slope through the origin of
    its channel's rendered values on its corrected raw values over the
    unflagged pairs. Where that puts the largest corrected value of
    those pairs above 1 / 1.02, the row is shrunk to put it there: tone
    curves are defined on [0, 1], and application clamps there. The tone
    fit absorbs any row scale. The function keeps the name of the
    grey-pair rule it replaced, as ``perfbench`` times it by that name.
    """
    _check_type(m, ColorMatrix, "m")
    _check_type(pairs, PixelPairSet, "pairs")
    pool = pairs.unsaturated()
    corrected = pool.raw @ m.rows.T
    sxy = np.sum(corrected * pool.rendered, axis=0)
    sxx = np.sum(corrected * corrected, axis=0)
    for k in range(3):
        if not (sxy[k] > 0.0 and sxx[k] > 0.0):
            raise CalibrationError(
                f"channel {k + 1}: the rendered values have no positive slope on "
                f"the row's corrected raw values over {len(pool)} unflagged pairs"
            )
    scaled = m.rows * (sxy / sxx)[:, None]
    peak = (pool.raw @ scaled.T).max(axis=0)
    return ColorMatrix(scaled / np.maximum(1.0, _GAUGE_HEADROOM * peak)[:, None])
