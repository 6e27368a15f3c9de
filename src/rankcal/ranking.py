"""Rank-based estimation of the colour-correction matrix rows.

Each pair of pixels whose rendered values differ in a channel pins the
corresponding matrix row to one side of a plane through the origin. Rows
are recovered by finding the candidate directions, from a fixed dense
sample of the unit sphere, that satisfy the most of those half-space
constraints. A row's trials are searched one after the other by a
branch-and-bound over two levels of caps of the sample, which finds
exactly the points a dense scan would. Each trial's floor is the best
score of a few points: those the trial before it tied on, or for the
first trial those of its best cap. The caps cover the whole sample, and
only the points of the caps whose bounds reach the floor are scored:
about 0.18% of the sample on the benchmark's constraint sets. Repeated
trials over random colour subsets are arbitrated by how monotone the
induced raw-to-rendered relation is, scored in increasing order of a
lower bound until no bound can win.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import CalibrationError, DegenerateChannel, InsufficientData
from .model import (SATURATION_FRACTION, ColorMatrix, PixelPairSet, _as_float_array,
                    _check_channel, _check_integer, _check_type)

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

# Caps of the row search: the upper half of the sample is cut into this
# many equal-area zones, about 4.5 degrees across, and the lower half
# into their negations. 256 zones prune too little and 4096 spend more
# on bounds than they save.
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
    half of the points negates the first, so the cap index of the first
    half, negated, indexes the last.
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
        """Cap index of all the points, built on first use."""
        return _build_caps(self.points[:self.count // 2])


@dataclass(frozen=True, eq=False)
class CapIndex:
    """Scored sphere points grouped into caps, and caps into groups.

    Cap k holds the points ``order[offsets[k]:offsets[k + 1]]``, each
    within ``radius[k]`` radians of ``centres[k]``. Group j holds the
    caps ``group_offsets[j]:group_offsets[j + 1]``, whose points all lie
    within ``group_radius[j]`` radians of ``group_centres[j]``. The
    index covers every point of a sample. Empty caps and empty groups
    are dropped.
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
    direction appears with its negation and the caps of the first half
    serve the last negated. At n = 100000 the largest nearest-neighbour
    gap is about 0.65 degrees. n = 6 is the axis-aligned octahedron.

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
    """Cap index of the sample whose first half is ``scored``, all in the
    upper hemisphere, and whose last half negates it."""
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
    radius = _largest_angles(members, centres, offsets)
    group_radius = _largest_angles(members, group_centres, group_edges)
    # the last half's caps and groups negate the first's, numbered after them
    half = scored.shape[0]
    return CapIndex(centres=np.vstack([centres, -centres]),
                    order=np.concatenate([order, order + half]),
                    offsets=np.concatenate([offsets, offsets[1:] + half]),
                    radius=np.tile(radius, 2),
                    group_centres=np.vstack([group_centres, -group_centres]),
                    group_offsets=np.concatenate([group_offsets,
                                                  group_offsets[1:] + centres.shape[0]]),
                    group_radius=np.tile(group_radius, 2))


def _constraint_pool(pairs: PixelPairSet) -> tuple[np.ndarray, np.ndarray]:
    """Rank evidence of a pair set, which no trial changes.

    Rows are eligible when unflagged and no rendered component is at or
    above SATURATION_FRACTION, too near the clip to rank. Returns the raw
    and rendered rows of the first eligible occurrence of each distinct
    raw row, in order. A set keeps its pool as
    ``PixelPairSet._rank_pool``, so a calibration builds it once.
    """
    ok = ~pairs.saturated & (pairs.rendered < SATURATION_FRACTION).all(axis=1)
    raw = pairs.raw[ok]
    first = _first_of_each_row(raw)
    raws = raw[first]
    rendered = pairs.rendered[ok][first]
    for a in (raws, rendered):
        a.setflags(write=False)
    return raws, rendered


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
    raws, rendered = pairs._rank_pool
    if raws.shape[0] < 2:
        raise InsufficientData(
            f"need at least 2 distinct unsaturated raw colours, have {raws.shape[0]}"
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


def _count_above(rows: np.ndarray, cols: np.ndarray, threshold: float) -> np.ndarray:
    """How many products of each float32 row (n, 3) with the float32
    columns ``cols`` (3, p) exceed ``threshold``.

    Products are formed in blocks of rows that hold at most
    _BOUND_ENTRIES values, and never fewer than two rows: numpy forms a
    one-row product with gemv, which may round differently from a matrix
    product, as a one-column product does, so a repeated row keeps every
    product a matrix product. Each block's signs are summed as bytes
    into uint16, which cannot wrap: a trial has at most C(MAX_COLORS, 2)
    = 1225 constraints.
    """
    n = rows.shape[0]
    block = max(2, _BOUND_ENTRIES // cols.shape[1])
    if n % block == 1:
        rows = np.concatenate([rows, rows[-1:]])
    counts = np.empty(rows.shape[0], dtype=np.int64)
    for start in range(0, n, block):
        above = rows[start:start + block] @ cols > threshold
        counts[start:start + block] = above.view(np.uint8).sum(axis=1, dtype=np.uint16)
    return counts[:n]


def _bound_centres(centres: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Float32 ``centres``, each divided by minus the sine of its radius
    plus _CAP_MARGIN, as ``_upper_bounds`` takes them."""
    return (centres / -np.sin(radius + _CAP_MARGIN)[:, None]).astype(np.float32)


def _upper_bounds(scaled: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Most constraints any point within a radius of each centre satisfies.

    ``unit`` holds one trial's m unit constraints as float32 (3, m), and
    ``scaled`` the centres as ``_bound_centres`` gives them. Returns (k,)
    bounds. With g = c . d and s = sin(radius + margin), every point near
    c fails the constraints with g < -s; each centre is divided by -s, so
    the test reads a product above 1, and a zero constraint never fails.
    The products are float32, whose error the margin covers.
    """
    return unit.shape[1] - _count_above(scaled, unit, 1.0)


def _scores(sphere: SphereSample, indices: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Constraint counts of the sphere points ``indices`` against one
    trial's float32 differences ``dt`` (3, m): a point's count is how
    many of its float32 products are positive."""
    return _count_above(sphere.points[indices].astype(np.float32), dt, 0.0)


def _search_trials(sphere: SphereSample,
                   diffs: list[np.ndarray]) -> list[tuple[int, np.ndarray]]:
    """Most constraints any sphere point satisfies, and the points that
    do, for each of a list of trials' differences (m, 3).

    The indices come in ascending order and equal those of scoring every
    point. The trials are searched one after the other, each floored on
    the points the trial before it tied on.
    """
    caps = sphere.caps
    groups = _bound_centres(caps.group_centres, caps.group_radius)
    centres = _bound_centres(caps.centres, caps.radius)
    found = []
    for d in diffs:
        dt = d.T.copy()
        # the squares of a tiny difference may underflow: its unit column stays zero
        norm = np.sqrt(dt[0] ** 2 + dt[1] ** 2 + dt[2] ** 2)
        unit = (dt / np.where(norm > 0.0, norm, 1.0)).astype(np.float32)
        found.append(_search_trial(sphere, groups, centres, unit, dt.astype(np.float32),
                                   found[-1][1] if found else None))
    return found


def _search_trial(sphere: SphereSample, groups: np.ndarray, centres: np.ndarray,
                  unit: np.ndarray, dt: np.ndarray,
                  floor_points: np.ndarray | None) -> tuple[int, np.ndarray]:
    """Branch-and-bound over the cap index for one trial.

    ``groups`` and ``centres`` are the ``_bound_centres`` of the index's
    groups and caps. ``unit`` and ``dt`` (3, m) hold the trial's unit and
    raw differences as float32; a zero difference scores for no point
    and fails within no cap. The floor is the best score of the sphere
    indices ``floor_points``, or, when there are none, of the points of
    the best-bounded cap of the best-bounded group. The caps of every
    group whose bound reaches it are bounded, and the points of each cap
    whose bound reaches it are scored. The floor is a score that some
    point reaches, so every tied point is among them.
    """
    caps = sphere.caps
    group_bounds = _upper_bounds(groups, unit)
    if floor_points is None:
        top = int(np.argmax(group_bounds))
        near = np.arange(caps.group_offsets[top], caps.group_offsets[top + 1])
        cap = near[np.argmax(_upper_bounds(centres[near], unit))]
        floor_points = caps.order[caps.offsets[cap]:caps.offsets[cap + 1]]
    floor = _scores(sphere, floor_points, dt).max()

    near = np.flatnonzero(np.repeat(group_bounds >= floor, np.diff(caps.group_offsets)))
    rows = _members(caps, near[_upper_bounds(centres[near], unit) >= floor])
    scores = _scores(sphere, rows, dt)
    best = int(scores.max())
    return best, np.sort(rows[scores == best])


def _members(caps: CapIndex, which: np.ndarray) -> np.ndarray:
    """Scored points of the caps ``which``, cap after cap."""
    sizes = caps.offsets[which + 1] - caps.offsets[which]
    shift = caps.offsets[which] - (np.cumsum(sizes) - sizes)
    return caps.order[np.repeat(shift, sizes) + np.arange(sizes.sum())]


def _pool_adjacent_violators(y: list[float], w: list[float]) -> np.ndarray:
    """Best non-decreasing L2 fit of ``y`` with weights ``w``, by
    pool-adjacent-violators.

    The stack runs on Python floats, which round exactly as float64 array
    elements do and cost far less to index one at a time. The values must
    be finite and the weights > 0, and no pooled sum may overflow.
    """
    level: list[float] = []
    weight: list[float] = []
    length: list[int] = []
    for y_new, w_new in zip(y, w):
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


def monotonicity_score(pairs: PixelPairSet, m: np.ndarray, channel: int) -> float:
    """RMS residual of the best monotone fit of rendered on corrected raw.

    ``m`` is one candidate row (3,); any other shape, or a value that is
    not finite, raises ValueError naming it. Pairs with identical
    projections are pooled first (a monotone function must map them to
    one value), so the residual includes their spread.
    """
    _check_type(pairs, PixelPairSet, "pairs")
    _check_channel(channel)
    row = _as_float_array(m, (3,), "m")
    pool = pairs.unsaturated()
    if len(pool) == 0:
        raise InsufficientData("no unsaturated pairs to score")
    return _monotone_residual(pool.raw @ row, pool.rendered[:, channel - 1])


def _monotone_residual(x: np.ndarray, y: np.ndarray) -> float:
    """RMS residual of the best monotone fit of ``y`` on ``x``.

    Pool-adjacent-violators runs in numpy rounds: each round merges every
    block into its left neighbour when that one's mean is not lower. The
    order in which violators are pooled does not change the fit (Barlow
    et al., 1972). When a round would merge fewer than 1/8 of the blocks,
    as when one outlier cascades through the rest, the fit is finished by
    ``_pool_adjacent_violators`` one block at a time, which bounds the
    rounds; the block means lie within the range of ``y`` and the weights
    are counts of at most n, so no pooled sum can overflow. When no two
    projections are equal, the usual case, the tie re-order and pooling
    are skipped: each pair starts as its own block.
    """
    n = x.size
    order = np.argsort(x)
    first = np.ones(n, dtype=bool)
    first[1:] = np.diff(x[order]) > 0.0
    if first.all():
        # no ties, the usual case: every pair is a block of one, whose sum
        # is the bits a singleton reduceat returns
        ys = sums = y[order]
        counts = np.ones(n, dtype=np.int64)
    else:
        # the unstable sort, several times faster, may permute a run of
        # equal x; ordering each run by pair index gives the order of
        # np.argsort(x, kind="stable"), so tie sums add as before
        key = np.cumsum(first) * n + order
        key.sort()
        ys = y[key % n]
        # pool exact ties in x: group sums and sizes
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(ys, starts)
        counts = np.diff(np.append(starts, n))
    while True:
        means = sums / counts
        joins = np.zeros(means.size, dtype=bool)
        joins[1:] = means[:-1] >= means[1:]
        merges = np.count_nonzero(joins)
        if 8 * merges < means.size:
            break
        heads = np.flatnonzero(~joins)
        sums = np.add.reduceat(sums, heads)
        counts = np.add.reduceat(counts, heads)
    if merges:
        means = _pool_adjacent_violators(means.tolist(), counts.astype(float).tolist())
    return float(np.sqrt(np.mean((ys - np.repeat(means, counts)) ** 2)))


def _monotone_bound(x: np.ndarray, y: np.ndarray) -> float:
    """Lower bound of ``_monotone_residual(x, y)`` from one pass.

    A non-decreasing fit f of ``y`` sorted by ``x`` has f_i <= f_i+1, so
    each neighbour pair whose values fall from a to b costs it at least
    (a - b)^2 / 2; a tied pair gets one fitted value, so this holds in
    any order of a run of equal x. The costs of disjoint pairs add, so
    the larger of the sums over all even and all odd starts bounds the
    residual sum from below.
    """
    fall = np.minimum(np.diff(y[np.argsort(x)]), 0.0) ** 2
    return float(np.sqrt(max(fall[0::2].sum(), fall[1::2].sum()) / (2 * x.size)))


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
    candidate with the lowest ``monotonicity_score`` on the full pair set
    wins, the lowest trial on a tie. By branch-and-bound (Land & Doig,
    1960), candidates are scored in increasing order of ``_monotone_bound``,
    ties by trial, until a bound exceeds the best residual so far.
    """
    _check_type(sphere, SphereSample, "sphere")
    _check_integer(trials, "trials", 1)
    diffs = [build_half_spaces(pairs, channel, rng_seed=rng_seed + trial)
             for trial in range(trials)]
    found = _search_trials(sphere, diffs)
    candidates = np.array([_median_direction(sphere.points[tied]) for _, tied in found])
    pool = pairs.unsaturated()
    bounds = [_monotone_bound(pool.raw @ c, pool.rendered[:, channel - 1]) for c in candidates]
    best, least = 0, np.inf
    for i in np.argsort(bounds, kind="stable"):
        # the bound and the residual sum their terms in different orders,
        # so a bound may round above a residual it equals: the margin keeps
        # such a candidate in, where it may tie the best
        if bounds[i] > least * (1 + 1e-9):
            break
        residual = monotonicity_score(pairs, candidates[i], channel)
        if residual < least or (residual == least and i < best):
            best, least = i, residual
    return candidates[best]


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
