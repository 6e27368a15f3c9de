"""Rank-based estimation of the colour-correction matrix rows.

Each pair of pixels whose rendered values differ in a channel pins the
corresponding matrix row to one side of a plane through the origin. Rows
are recovered by finding the candidate directions, from a fixed dense
sample of the unit sphere, that satisfy the most of those half-space
constraints. A best-first branch-and-bound over two levels of caps of
the sample finds exactly the points a dense scan would: it scores one
cap to set a floor, then only the points of caps whose bound reaches
it, about 0.5% of the half-sphere on the benchmark's constraint sets.
Repeated trials over random colour subsets are arbitrated by how
monotone the induced raw-to-rendered relation is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannel, InsufficientData, NoAchromaticSample
from .errors import CalibrationError
from .model import SATURATION_FRACTION, ColorMatrix, PixelPairSet

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

# Angular margin (radians) added to each cap radius. The float32 sign
# test errs only for constraints within about 1e-6 rad of a point's
# plane, so a constraint 1e-5 rad clear of a cap reads the same sign at
# every point in it.
_CAP_MARGIN = 1e-5


@dataclass(frozen=True)
class SphereSample:
    """Unit direction candidates covering the whole sphere.

    ``antipodal`` is set when the second half of the points is exactly
    the negation of the first half; scoring then needs only half the
    dot products, reading each one's sign both ways.
    """

    points: np.ndarray
    antipodal: bool = False

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("sphere points must have shape (n, 3)")
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("sphere points must have unit norm")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        n = pts.shape[0]
        paired = n % 2 == 0 and np.array_equal(pts[n // 2:], -pts[:n // 2])
        object.__setattr__(self, "antipodal", paired)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @functools.cached_property
    def caps(self) -> CapIndex:
        """Cap index of the scored points, built on first use."""
        return _build_caps(self.points, self.antipodal)


@dataclass(frozen=True)
class CapIndex:
    """Scored sphere points grouped into caps, and caps into groups.

    Cap k holds the points ``order[offsets[k]:offsets[k + 1]]``, each
    within ``radius[k]`` radians of ``centres[k]``. Group j holds the
    caps ``group_offsets[j]:group_offsets[j + 1]``, whose points all lie
    within ``group_radius[j]`` radians of ``group_centres[j]``. An
    antipodal sample indexes its first half; any other sample indexes
    every point, around the hemisphere centres and their negations.
    Empty caps and empty groups are dropped.
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
        if np.any(np.linalg.norm(d, axis=1) < 1e-15):
            raise ValueError("half-space set contains a zero vector")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "differences", d)

    def __len__(self) -> int:
        return self.differences.shape[0]


def _fibonacci_spiral(z: np.ndarray) -> np.ndarray:
    i = np.arange(z.size, dtype=float)
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (3.0 - np.sqrt(5.0)) * i
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@functools.lru_cache(maxsize=2)
def sample_sphere(n: int) -> SphereSample:
    """Deterministic, near-uniform unit vectors over the full sphere.

    Even n builds a Fibonacci spiral over the open upper hemisphere and
    mirrors it, so every direction appears with its negation and scoring
    can share dot products between the two. Odd n uses one full-sphere
    spiral. At n = 100000 the largest nearest-neighbour gap is about
    0.65 degrees. n = 6 is the axis-aligned octahedron.

    The sample is immutable and depends on n alone, so the process keeps
    the last two it built, each with its cap index once searched: at
    n = 100000 that is about 3 MB.
    """
    n = int(n)
    if n < 6:
        raise ValueError(f"sphere sample needs at least 6 points, got {n}")
    if n == 6:
        pts = np.vstack([np.eye(3), -np.eye(3)])
        return SphereSample(pts)
    if n % 2 == 0:
        half = n // 2
        z = 1.0 - (np.arange(half, dtype=float) + 0.5) / half  # z in (0, 1)
        upper = _fibonacci_spiral(z)
        return SphereSample(np.vstack([upper, -upper]))
    z = 1.0 - 2.0 * (np.arange(n, dtype=float) + 0.5) / n
    return SphereSample(_fibonacci_spiral(z))


def _spiral_centres(count: int, antipodal: bool) -> np.ndarray:
    """Fibonacci centres over the upper hemisphere, and their negations
    unless the scored points are the upper half of an antipodal sample."""
    z = 1.0 - (np.arange(count, dtype=float) + 0.5) / count
    centres = _fibonacci_spiral(z)
    return centres if antipodal else np.vstack([centres, -centres])


def _largest_angles(points: np.ndarray, centres: np.ndarray,
                    starts: np.ndarray) -> np.ndarray:
    """Largest angle between a point and its centre in each run from ``starts``."""
    cosine = np.einsum("ij,ij->i", points, centres)
    return np.maximum.reduceat(np.arccos(np.clip(cosine, -1.0, 1.0)), starts)


def _build_caps(points: np.ndarray, antipodal: bool) -> CapIndex:
    scored = points[:points.shape[0] // 2] if antipodal else points
    centres = _spiral_centres(_CAP_CENTRES, antipodal)
    # nearest centre by float32 products: a near tie may go either way,
    # and the radii below hold for whichever centre was picked
    c32 = np.ascontiguousarray(centres.T, dtype=np.float32)
    p32 = scored.astype(np.float32)
    label = np.concatenate([
        np.argmax(p32[s:s + _SCORE_BLOCK] @ c32, axis=1)
        for s in range(0, scored.shape[0], _SCORE_BLOCK)
    ])
    counts = np.bincount(label, minlength=centres.shape[0])
    used = np.flatnonzero(counts)
    # each non-empty cap joins its nearest group, and the caps are
    # numbered group by group so that a group's caps are contiguous
    groups = _spiral_centres(_CAP_GROUPS, antipodal)
    owner = np.zeros(centres.shape[0], dtype=np.int64)
    owner[used] = np.argmax(centres[used] @ groups.T, axis=1)
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
    if max_colors < 2:
        raise ValueError(f"max_colors must be >= 2 to form a pair, got {max_colors}")
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
    ii, jj = np.triu_indices(raws.shape[0], k=1)
    gap = rend[ii] - rend[jj]
    keep = np.abs(gap) >= RANK_TIE_EPS
    if not np.any(keep):
        raise DegenerateChannel(
            f"channel {channel} has no rendered differences above the tie threshold"
        )
    sign = np.where(gap[keep] > 0.0, 1.0, -1.0)
    diffs = (raws[ii[keep]] - raws[jj[keep]]) * sign[:, None]
    return HalfSpaceSet(diffs)


def _upper_bounds(centres: np.ndarray, radius: np.ndarray, unit: np.ndarray,
                  antipodal: bool) -> np.ndarray:
    """Most constraints any point within ``radius`` of each centre satisfies.

    With g = c . d/|d| and s = sin(radius + margin), every such point
    fails the constraints with g < -s, and its negation those with g > s.
    """
    g = centres @ unit.T
    s = np.sin(radius + _CAP_MARGIN)[:, None]
    m = unit.shape[0]
    upper = m - np.count_nonzero(g < -s, axis=1)
    if antipodal:
        upper = np.maximum(upper, m - np.count_nonzero(g > s, axis=1))
    return upper


def _scores(sphere: SphereSample, dt: np.ndarray,
            idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constraint counts of the points ``idx``, and the indices they belong to.

    Products are formed in float32 blocks and read by sign; for an
    antipodal sample each product also serves the point's negation.
    """
    p32 = sphere.points[idx].astype(np.float32)
    if p32.shape[0] % _SCORE_BLOCK == 1:
        # numpy forms a one-row product with gemv, which may round
        # differently from a matrix product, as a one-column product
        # does; a repeated row keeps every product a matrix product
        p32 = np.vstack([p32, p32[-1:]])
    pos = np.empty(p32.shape[0], dtype=np.int64)
    neg = np.empty(p32.shape[0], dtype=np.int64)
    for start in range(0, p32.shape[0], _SCORE_BLOCK):
        prod = p32[start:start + _SCORE_BLOCK] @ dt
        pos[start:start + prod.shape[0]] = np.count_nonzero(prod > 0.0, axis=1)
        neg[start:start + prod.shape[0]] = np.count_nonzero(prod < 0.0, axis=1)
    pos = pos[:idx.size]
    if sphere.antipodal:
        return (np.concatenate([pos, neg[:idx.size]]),
                np.concatenate([idx, idx + sphere.count // 2]))
    return pos, idx


def _tied_points(sphere: SphereSample, diffs: np.ndarray) -> tuple[int, np.ndarray]:
    """Most constraints any sphere point satisfies, and the points that do.

    The indices come in ascending order and equal those of scoring every
    point. The search is a best-first branch-and-bound over the cap
    index: it bounds the cap groups, descends into the group with the
    highest bound, and scores the points of that group's best cap. Their
    best score is a floor that only groups, and then caps within them,
    whose upper bound reaches it can beat or tie; only those points are
    scored again. On the criterion-9 constraint sets both passes together
    score about 0.5% of the half-sphere. Every product has at least two
    rows, so the floor is a score the final pass reproduces.
    """
    caps = sphere.caps
    dt = np.ascontiguousarray(diffs.T, dtype=np.float32)
    if diffs.shape[0] == 1:
        # numpy forms a one-column product with gemv, which rounds the
        # last rows of a call differently from the rest; scoring every
        # point keeps each product as the dense blocks form it
        idx = np.arange(caps.order.size)
    else:
        unit = diffs / np.linalg.norm(diffs, axis=1)[:, None]
        group_upper = _upper_bounds(caps.group_centres, caps.group_radius, unit,
                                    sphere.antipodal)
        top = int(np.argmax(group_upper))
        first, last = caps.group_offsets[top:top + 2]
        cap_upper = _upper_bounds(caps.centres[first:last], caps.radius[first:last],
                                  unit, sphere.antipodal)
        best_cap = first + int(np.argmax(cap_upper))
        incumbent = caps.order[caps.offsets[best_cap]:caps.offsets[best_cap + 1]]
        floor = _scores(sphere, dt, incumbent)[0].max()

        candidates = np.flatnonzero(
            np.repeat(group_upper >= floor, np.diff(caps.group_offsets)))
        open_caps = np.zeros(caps.centres.shape[0], dtype=bool)
        open_caps[candidates] = _upper_bounds(
            caps.centres[candidates], caps.radius[candidates], unit,
            sphere.antipodal) >= floor
        idx = np.sort(caps.order[np.repeat(open_caps, np.diff(caps.offsets))])
    scores, idx = _scores(sphere, dt, idx)
    best = int(scores.max())
    return best, idx[scores == best]


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    candidates = []
    for trial in range(trials):
        hs = build_half_spaces(pairs, channel, max_colors, rng_seed + trial)
        _, tied = _tied_points(sphere, hs.differences)
        candidates.append(_median_direction(sphere.points[tied]))
    residuals = monotonicity_score(pairs, np.array(candidates), channel)
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
