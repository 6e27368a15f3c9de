"""Rank-based estimation of the colour-correction matrix rows.

Each pair of pixels whose rendered values differ in a channel pins the
corresponding matrix row to one side of a plane through the origin. Rows
are recovered by finding the candidate directions, from a fixed dense
sample of the unit sphere, that satisfy the most of those half-space
constraints. A row's trials are searched by a branch-and-bound over two
levels of caps of the sample, which finds exactly the points a dense
scan would. Each trial's floor is the best score of a few points: those
its row's earlier trials tied on, or for the first trial its best cap.
Each bound pass is one product for a chunk of trials, each side of the
antipodal sample is bounded on its own, and only the points of the (cap,
side) pairs whose bounds reach the floor are scored, on that side alone.
That is about 0.35% of the half-sphere on the benchmark's constraint
sets. Repeated trials over random colour subsets are arbitrated by how
monotone the induced raw-to-rendered relation is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DegenerateChannel, InsufficientData, NoAchromaticSample
from .errors import CalibrationError
from .model import SATURATION_FRACTION, ColorMatrix, PixelPairSet, _check_integer, _check_rows

DEFAULT_SPHERE_COUNT = 100_000
DEFAULT_TRIALS = 25
DEFAULT_MAX_COLORS = 50

# Rendered-channel differences below two quantization levels are treated
# as ties: one-level gaps are unreliable rank evidence.
RANK_TIE_EPS = 2.0 / 255.0

# Achromatic reference selection: rendered max-min spread and mid-range
# brightness window.
ACHROMATIC_SPREAD = 0.04
ACHROMATIC_BRIGHTNESS = (0.25, 0.75)

_SCORE_BLOCK = 4096

# Values in one float32 product of the cap bounds (2 MB): trials are
# searched in chunks, and centres bounded in pieces, that keep within it.
_BOUND_ENTRIES = 2 ** 19

# uint64 words that ``_count_true`` sums at once: each of a sum's 8 byte
# lanes then counts at most 255 entries.
_LANE_WORDS = 255

# Candidate x pair elements scored together by ``monotonicity_score``:
# its (k, n) work arrays stay near 8 MB each, about what one candidate
# over 2**20 pairs needs.
_RESIDUAL_POINTS = 2 ** 20

# Caps of the row search: points are grouped around this many Fibonacci
# spiral centres over the upper hemisphere. 256 caps prune too little and
# 4096 spend more on bounds than they save.
_CAP_CENTRES = 1024

# Cap groups: the fine caps are grouped in turn around this many coarser
# spiral centres, so that a search bounds the groups first and the fine
# caps of the groups it opens.
_CAP_GROUPS = 64

# Reach (radians) beyond a group's farthest point within which a cap may
# take that group's points. Every scored direction lies within about
# 4.6 degrees of a cap centre, so each point finds its nearest cap.
_LABEL_REACH = 0.1

# Angular margin (radians) added to each cap radius. The float32 sign
# test errs only for constraints within about 1e-6 rad of a point's
# plane, and the float32 bound products by under 1e-6 rad, so a
# constraint that a bound finds 1e-5 rad clear of a cap reads the same
# sign at every point in it.
_CAP_MARGIN = 1e-5


@dataclass(frozen=True)
class SphereSample:
    """Unit direction candidates covering the whole sphere, in antipodal
    pairs: the second half of the points is exactly the negation of the
    first, so scoring needs only half the dot products, reading each
    one's sign both ways.
    """

    points: np.ndarray
    # read by perfbench's sample_sphere counter; ROADMAP item 2 drops both
    antipodal: ClassVar[bool] = True

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
            raise ValueError(f"sphere points must have shape (n, 3) with n >= 1, "
                             f"got {pts.shape}")
        # written so that a NaN or infinite point fails it
        bad = np.flatnonzero(~(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-12))
        if bad.size:
            raise ValueError(f"sphere point {bad[0]} = {pts[bad[0]]} is not a finite "
                             f"unit vector")
        n = pts.shape[0]
        if n % 2 or not np.array_equal(pts[n // 2:], -pts[:n // 2]):
            raise ValueError(f"sphere points must be antipodal: the last half of the "
                             f"{n} points must negate the first half")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def caps(self) -> CapIndex:
        """Cap index of the first half of the points, built on first use."""
        return _build_caps(self.points[:self.count // 2])


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class HalfSpaceSet:
    """Oriented difference vectors d with the convention row @ d > 0."""

    differences: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.differences, dtype=float)
        if d.ndim != 2 or d.shape[1] != 3:
            raise ValueError("differences must have shape (m, 3)")
        if d.shape[0] == 0:
            raise ValueError("half-space set must be non-empty")
        norms = np.linalg.norm(d, axis=1)
        if not np.isfinite(norms).all():
            _check_rows(d, "differences", finite=True)
        if np.any(norms < 1e-15):
            raise ValueError("half-space set contains a zero vector")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "differences", d)

    def __len__(self) -> int:
        return self.differences.shape[0]


def _hemisphere_spiral(count: int) -> np.ndarray:
    """Fibonacci spiral of ``count`` unit vectors over the open upper hemisphere."""
    z = 1.0 - (np.arange(count, dtype=float) + 0.5) / count  # z in (0, 1)
    i = np.arange(count, dtype=float)
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


# typed, so that a cached 6 does not answer for 6.0 before the check
@functools.lru_cache(maxsize=2, typed=True)
def sample_sphere(n: int) -> SphereSample:
    """Deterministic, near-uniform unit vectors over the full sphere.

    n must be an even integer: a Fibonacci spiral of n / 2 points over
    the open upper hemisphere is followed by its negation, so every
    direction appears with its negation and scoring can share dot
    products between the two. At n = 100000 the largest
    nearest-neighbour gap is about 0.65 degrees. n = 6 is the
    axis-aligned octahedron.

    The sample is immutable and depends on n alone, so the process keeps
    the last two it built, each with its cap index once searched: at
    n = 100000 that is about 3 MB.
    """
    _check_integer(n, "n", 6)
    if n % 2:
        raise ValueError(f"sphere sample needs an even count of at least 6 points, "
                         f"got {n}")
    upper = np.eye(3) if n == 6 else _hemisphere_spiral(n // 2)
    return SphereSample(np.vstack([upper, -upper]))


def _largest_angles(points: np.ndarray, centres: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """Largest angle between a point and its centre in each run from ``starts``."""
    cosine = np.einsum("ij,ij->i", points, centres)
    return np.maximum.reduceat(np.arccos(np.clip(cosine, -1.0, 1.0)), starts)


def _build_caps(scored: np.ndarray) -> CapIndex:
    centres = _hemisphere_spiral(_CAP_CENTRES)
    groups = _hemisphere_spiral(_CAP_GROUPS)
    # each cap centre joins its nearest group, and each point its nearest
    # group and then the nearest cap within reach of that group, by
    # float32 products: a near tie may go either way, and the radii below
    # hold for whichever cap was picked
    closeness = centres @ groups.T
    owner = np.argmax(closeness, axis=1)
    p32 = scored.astype(np.float32)
    g32 = np.ascontiguousarray(groups.T, dtype=np.float32)
    point_group = np.concatenate([
        np.argmax(p32[s:s + _SCORE_BLOCK] @ g32, axis=1)
        for s in range(0, scored.shape[0], _SCORE_BLOCK)
    ])
    grouped = np.argsort(point_group, kind="stable")
    starts = np.searchsorted(point_group[grouped], np.arange(groups.shape[0] + 1))
    label = np.empty(scored.shape[0], dtype=np.int64)
    for j in range(groups.shape[0]):
        members = grouped[starts[j]:starts[j + 1]]
        if members.size == 0:
            continue
        spread = np.arccos(np.clip(scored[members] @ groups[j], -1.0, 1.0)).max()
        within = np.flatnonzero(closeness[:, j] >= np.cos(spread + _LABEL_REACH))
        prod = p32[members] @ np.ascontiguousarray(centres[within].T, dtype=np.float32)
        label[members] = within[np.argmax(prod, axis=1)]
    counts = np.bincount(label, minlength=centres.shape[0])
    used = np.flatnonzero(counts)
    # the non-empty caps are numbered group by group, so that a group's
    # caps are contiguous
    by_group = used[np.argsort(owner[used], kind="stable")]
    rank = np.empty(centres.shape[0], dtype=np.int64)
    rank[by_group] = np.arange(by_group.size)
    order = np.argsort(rank[label], kind="stable")
    offsets = np.concatenate([[0], np.cumsum(counts[by_group])])
    group_sizes = np.bincount(owner[used], minlength=groups.shape[0])
    group_offsets = np.concatenate([[0], np.cumsum(group_sizes[group_sizes > 0])])
    members = scored[order]
    member_cap = label[order]
    return CapIndex(
        centres=centres[by_group],
        order=order,
        offsets=offsets,
        radius=_largest_angles(members, centres[member_cap], offsets[:-1]),
        group_centres=groups[group_sizes > 0],
        group_offsets=group_offsets,
        group_radius=_largest_angles(members, groups[owner[member_cap]],
                                     offsets[group_offsets[:-1]]),
    )


def _constraint_pool(pairs: PixelPairSet) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank evidence of a pair set, which no trial changes.

    Rows are eligible when unflagged and unclipped. Returns how many are,
    and the raw and rendered rows of the first eligible occurrence of each
    distinct raw row, in order. A set keeps its pool as
    ``PixelPairSet._rank_pool``, so a calibration builds it once.
    """
    ok = (
        ~pairs.saturated
        & (pairs.raw < SATURATION_FRACTION).all(axis=1)
        & (pairs.rendered < SATURATION_FRACTION).all(axis=1)
    )
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


def build_half_spaces(pairs: PixelPairSet, channel: int,
                      max_colors: int = DEFAULT_MAX_COLORS,
                      rng_seed: int = 0) -> HalfSpaceSet:
    """Oriented rank constraints for one channel from a random colour subset.

    Up to ``max_colors`` unique raw colours are drawn (seeded); every pair
    whose rendered values differ by at least RANK_TIE_EPS contributes one
    difference vector, oriented so the brighter rendered value comes first.
    """
    if channel not in (1, 2, 3):
        raise ValueError(f"channel must be 1..3, got {channel}")
    _check_integer(max_colors, "max_colors", 2)  # a pair needs two colours
    _check_integer(rng_seed, "rng_seed", 0)
    eligible, raws, rendered = pairs._rank_pool
    if eligible < 2:
        raise InsufficientData(
            f"need at least 2 unsaturated entries, have {eligible}"
        )
    rend = rendered[:, channel - 1]
    if raws.shape[0] > max_colors:
        rng = np.random.default_rng(rng_seed)
        chosen = rng.choice(raws.shape[0], size=max_colors, replace=False)
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
    return HalfSpaceSet(diffs)


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


def _upper_bounds(centres: np.ndarray, radius: np.ndarray, unit: np.ndarray,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Most constraints any point within ``radius`` of each centre satisfies.

    ``unit`` holds a stack of trials' unit constraints as float32 (3, t,
    p), padded with zeros, and ``sizes`` their counts. Returns (k, t)
    bounds for the points near each centre and for their negations. With
    g = c . d and s = sin(radius + margin), every such point fails the
    constraints with g < -s, and its negation those with g > s; each
    centre is divided by its s, so both tests compare with 1, and a zero
    constraint never fails. The products are float32, whose error the
    margin covers, and are taken for pieces of centres that hold at most
    _BOUND_ENTRIES values.
    """
    _, trials, width = unit.shape
    flat = unit.reshape(3, -1)
    scaled = (centres / np.sin(radius + _CAP_MARGIN)[:, None]).astype(np.float32)
    plus = np.empty((centres.shape[0], trials), dtype=np.int64)
    minus = np.empty_like(plus)
    step = max(1, _BOUND_ENTRIES // (trials * width))
    for start in range(0, centres.shape[0], step):
        g = (scaled[start:start + step] @ flat).reshape(-1, trials, width)
        plus[start:start + step] = sizes - _count_true(g < -1.0)
        minus[start:start + step] = sizes - _count_true(g > 1.0)
    return plus, minus


def _scores(points: np.ndarray, dt: np.ndarray, plus_end: int,
            minus_start: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint counts of float32 points (t, n, 3), trial by trial.

    Trial i's points are scored against its differences ``dt[i]`` (3, p);
    points of shape (1, n, 3) are shared by every trial.
    Returns the counts (t, plus_end) of the points ``[:, :plus_end]``
    themselves and (t, n - minus_start) of the negations of the points
    ``[:, minus_start:]``: a product counts for a point when positive and
    for its negation when negative. Products are formed in blocks of
    _SCORE_BLOCK points, shared out among the trials.
    """
    trials, n = dt.shape[0], points.shape[1]
    block = max(2, _SCORE_BLOCK // trials)
    if n % block == 1:
        # numpy forms a one-row product with gemv, which may round
        # differently from a matrix product, as a one-column product
        # does; a repeated row keeps every product a matrix product
        points = np.concatenate([points, points[:, -1:]], axis=1)
    plus = np.empty((trials, plus_end), dtype=np.int64)
    minus = np.empty((trials, n - minus_start), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        prod = points[:, start:start + block] @ dt
        if start < plus_end:
            end = min(stop, plus_end)
            plus[:, start:end] = _count_true(prod[:, :end - start] > 0.0)
        if stop > minus_start:
            begin = max(start, minus_start)
            minus[:, begin - minus_start:stop - minus_start] = _count_true(
                prod[:, begin - start:stop - start] < 0.0)
    return plus, minus


def _search_trials(sphere: SphereSample,
                   diffs: list[np.ndarray]) -> list[tuple[int, np.ndarray]]:
    """Most constraints any sphere point satisfies, and the points that
    do, for each of a stack of trials' differences (m, 3).

    The indices come in ascending order and equal those of scoring every
    point. The first trial is searched alone; the rest in chunks whose
    group bounds hold at most _BOUND_ENTRIES values, floored on the
    points every earlier trial tied on. Differences are padded by zero
    rows to a common multiple of 8.
    """
    sizes = np.array([d.shape[0] for d in diffs])
    width = -(-int(sizes.max()) // 8) * 8
    step = max(1, _BOUND_ENTRIES // (sphere.caps.group_centres.shape[0] * width))
    edges = [0, *range(1, sizes.size, step), sizes.size]
    found = []
    for start, stop in zip(edges, edges[1:]):
        chunk = diffs[start:stop]
        padded = np.zeros((3, len(chunk), width))
        for row, d in enumerate(chunk):
            padded[:, row, :d.shape[0]] = d.T
        norm = np.sqrt(padded[0] ** 2 + padded[1] ** 2 + padded[2] ** 2)
        unit = (padded / np.where(norm > 0.0, norm, 1.0)).astype(np.float32)
        dt = np.ascontiguousarray(padded.transpose(1, 0, 2), dtype=np.float32)
        if found:
            floor_points = np.unique(np.concatenate([tied for _, tied in found]))
        else:
            floor_points = _best_cap_points(sphere, unit, sizes[:1])
        found += _search_chunk(sphere, unit, dt, sizes[start:stop], floor_points)
    return found


def _best_cap_points(sphere: SphereSample, unit: np.ndarray,
                     sizes: np.ndarray) -> np.ndarray:
    """Sphere indices of the points of one trial's best-bounded cap in its
    best-bounded group, on the cap's better side."""
    caps = sphere.caps
    plus, minus = _upper_bounds(caps.group_centres, caps.group_radius, unit, sizes)
    top = int(np.argmax(np.maximum(plus, minus)))
    near = np.arange(caps.group_offsets[top], caps.group_offsets[top + 1])
    plus, minus = _upper_bounds(caps.centres[near], caps.radius[near], unit, sizes)
    best = int(np.argmax(np.maximum(plus, minus)))
    side = 0 if plus[best, 0] >= minus[best, 0] else sphere.count // 2
    return np.sort(_members(caps, near[best:best + 1])) + side


def _search_chunk(sphere: SphereSample, unit: np.ndarray, dt: np.ndarray,
                  sizes: np.ndarray,
                  floor_points: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Branch-and-bound over the cap index for a chunk of trials.

    ``unit`` (3, t, p) and ``dt`` (t, 3, p) hold the trials' unit and
    raw differences as float32, padded with zeros: a zero product counts
    for no side, and zero columns leave the other products as the dense
    blocks form them. Each trial's floor is the best score of the
    ascending sphere indices ``floor_points``. The caps of every group
    that reaches a trial's floor are bounded, in one product for the
    chunk, and the points of each (cap, side) whose group and cap bounds
    still reach it are scored, on that side alone. The floor is a score
    that some point reaches, so every tied point is among them.
    """
    caps = sphere.caps
    half = sphere.count // 2
    upper = int(np.searchsorted(floor_points, half))
    points = sphere.points[floor_points % half].astype(np.float32)[None]
    floor = np.concatenate(_scores(points, dt, upper, upper), axis=1).max(axis=1)

    group_caps = np.diff(caps.group_offsets)
    group_plus, group_minus = _upper_bounds(caps.group_centres, caps.group_radius,
                                            unit, sizes)
    open_plus = np.repeat(group_plus >= floor, group_caps, axis=0)
    open_minus = np.repeat(group_minus >= floor, group_caps, axis=0)
    near = np.flatnonzero((open_plus | open_minus).any(axis=1))
    cap_plus, cap_minus = _upper_bounds(caps.centres[near], caps.radius[near],
                                        unit, sizes)
    open_plus = open_plus[near] & (cap_plus >= floor)
    open_minus = open_minus[near] & (cap_minus >= floor)

    found = []
    for i in range(sizes.size):
        plus = near[open_plus[:, i]]
        rows = _members(caps, np.concatenate([plus, near[open_minus[:, i]]]))
        split = int(caps.offsets[plus + 1].sum() - caps.offsets[plus].sum())
        plus_scores, minus_scores = _scores(
            sphere.points[rows].astype(np.float32)[None], dt[i:i + 1], split, split)
        rows[split:] += half
        scores = np.concatenate([plus_scores[0], minus_scores[0]])
        best = int(scores.max())
        found.append((best, np.sort(rows[scores == best])))
    return found


def _members(caps: CapIndex, which: np.ndarray) -> np.ndarray:
    """Scored points of the caps ``which``, cap after cap."""
    sizes = caps.offsets[which + 1] - caps.offsets[which]
    shift = caps.offsets[which] - (np.cumsum(sizes) - sizes)
    return caps.order[np.repeat(shift, sizes) + np.arange(sizes.sum())]


def isotonic_fit(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Best non-decreasing L2 fit by pool-adjacent-violators.

    The stack runs on Python floats, which round exactly as float64 array
    elements do and cost far less to index one at a time.
    """
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape:
        raise ValueError(f"weights shape {w.shape} does not match values {y.shape}")
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
    spread.
    """
    if channel not in (1, 2, 3):
        raise ValueError(f"channel must be 1..3, got {channel}")
    rows = np.asarray(m, dtype=float)
    if rows.shape != (3,) and (rows.ndim != 2 or rows.shape[1] != 3 or len(rows) == 0):
        raise ValueError(f"m must have shape (3,) or (k, 3) with k >= 1, got {rows.shape}")
    stack = rows.reshape(-1, 3)
    finite = np.isfinite(stack).all(axis=1)
    bad = np.flatnonzero(~finite | (np.linalg.norm(stack, axis=1) < 1e-15))
    if bad.size:
        j = int(bad[0])
        name = "m" if rows.ndim == 1 else f"m[{j}]"
        cause = "is not finite" if not finite[j] else "must be non-zero"
        raise ValueError(f"candidate row {name} = {stack[j]} {cause}")
    pool = pairs.unsaturated()
    if len(pool) == 0:
        raise InsufficientData("no unsaturated pairs to score")
    y = pool.rendered[:, channel - 1]
    batch = max(1, _RESIDUAL_POINTS // len(pool))
    residuals = np.concatenate([
        _monotone_residuals(pool.raw, y, stack[s:s + batch])
        for s in range(0, len(stack), batch)
    ])
    return float(residuals[0]) if rows.ndim == 1 else residuals


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
    made per candidate, so a row gets the same bits in any batch.
    """
    k = rows.shape[0]
    x = np.stack([raw @ row for row in rows])
    n = x.shape[1]
    order = np.argsort(x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    first = np.ones((k, n), dtype=bool)
    first[:, 1:] = np.diff(xs, axis=1) > 0.0
    if not first.all():
        # the unstable sort, several times faster, may permute a run of
        # equal x; ordering each run by pair index gives the order of
        # np.argsort(x, axis=1, kind="stable"), so tie sums add as before
        key = np.cumsum(first, axis=1) * n + order
        key.sort(axis=1)
        order = key % n
    ys = y[order]
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
    med = np.median(tied, axis=0)
    norm = np.linalg.norm(med)
    if norm < 1e-12:
        # antipodal tie cluster; fall back to the first point
        return tied[0]
    return med / norm


def estimate_row(pairs: PixelPairSet, channel: int, sphere: SphereSample,
                 trials: int = DEFAULT_TRIALS,
                 max_colors: int = DEFAULT_MAX_COLORS,
                 rng_seed: int = 0) -> np.ndarray:
    """Estimate one matrix row direction (unit vector).

    Runs ``trials`` seeded colour subsets; in each, the sphere point(s)
    satisfying the most half-space constraints are reduced to one
    candidate by a renormalized componentwise median. Across trials, the
    candidate whose induced mapping has the lowest monotone-fit residual
    on the full pair set wins.
    """
    _check_integer(trials, "trials", 1)
    sets = [build_half_spaces(pairs, channel, max_colors, rng_seed + trial)
            for trial in range(trials)]
    found = _search_trials(sphere, [hs.differences for hs in sets])
    candidates = np.array([_median_direction(sphere.points[tied]) for _, tied in found])
    residuals = monotonicity_score(pairs, candidates, channel)
    return candidates[int(np.argmin(residuals))]


def rescale_achromatic(m: ColorMatrix, pairs: PixelPairSet) -> ColorMatrix:
    """Fix the per-row scale of M using a grey reference pair.

    Picks the near-achromatic pair whose rendered triple is closest to
    mid grey and rescales each row so the matrix maps that raw triple to
    its rendered triple exactly.
    """
    pool = pairs.unsaturated()
    if len(pool) == 0:
        raise NoAchromaticSample("no unsaturated pairs available")
    spread = pool.rendered.max(axis=1) - pool.rendered.min(axis=1)
    brightness = pool.rendered.mean(axis=1)
    lo, hi = ACHROMATIC_BRIGHTNESS
    ok = (spread <= ACHROMATIC_SPREAD) & (brightness >= lo) & (brightness <= hi)
    if not np.any(ok):
        raise NoAchromaticSample(
            f"no rendered triple with spread <= {ACHROMATIC_SPREAD} and "
            f"brightness in [{lo}, {hi}]"
        )
    idx = np.flatnonzero(ok)
    dist = np.linalg.norm(pool.rendered[idx] - 0.5, axis=1)
    pick = idx[int(np.argmin(dist))]
    raw_ref = pool.raw[pick]
    rend_ref = pool.rendered[pick]
    response = m.rows @ raw_ref
    if np.any(response <= 1e-12):
        raise CalibrationError(
            "achromatic reference produces a non-positive row response; "
            "the estimated row directions are unusable"
        )
    scale = rend_ref / response
    return ColorMatrix(m.rows * scale[:, None])
