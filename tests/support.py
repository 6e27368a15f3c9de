"""Shared test helpers: exact nearest-neighbour search, angle math, and the
reference implementations the optimised code is checked against (the
per-point constraint count, the dense sphere scan, the array-based
isotonic fit, the one-candidate monotone residual, the unblocked maps,
the trilinear corner weights and the gathered lattice interpolation built
on them, the unblocked and the dense lattice fits, the unblocked render,
calibration without memoised inputs and the row-at-a-time corpus
parser)."""

import csv
import io
import math
import re
from collections import defaultdict

import numpy as np

from rankcal import pipeline, ranking, simulate
from rankcal.dataset import CSV_COLUMNS
from rankcal.errors import CorpusFormatError, EmptyCorpus
from rankcal.gamut import (_cells, _corner_offsets, _corner_weights, _grid_laplacian,
                           _solve_lattice, apply_lattice)
from rankcal.model import Lattice3, PixelPairSet, _as_rows


def chord_to_degrees(chord: float) -> float:
    return float(np.degrees(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))))


def angle_degrees(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def brute_force_max_nn_gap(points: np.ndarray) -> float:
    """Max nearest-neighbour angle (degrees) by exhaustive pairwise search."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    worst_chord = float(np.sqrt(d2.min(axis=1)).max())
    return chord_to_degrees(worst_chord)


def grid_max_nn_gap(points: np.ndarray, cell: float = 0.05) -> float:
    """Max nearest-neighbour angle (degrees) by grid-accelerated exact search.

    Points are bucketed into cubic cells of edge ``cell``; each point's
    nearest neighbour is found among the 27 surrounding cells. The result
    is exact whenever every nearest-neighbour chord is below ``cell``,
    which is asserted.
    """
    pts = np.asarray(points, dtype=float)
    keys = np.floor((pts + 1.5) / cell).astype(np.int64)
    buckets: dict[tuple, list] = defaultdict(list)
    for i, key in enumerate(map(tuple, keys)):
        buckets[key].append(i)
    arrays = {k: np.array(v) for k, v in buckets.items()}

    worst_chord = 0.0
    for key, idx in arrays.items():
        neighbourhoods = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    other = (key[0] + dx, key[1] + dy, key[2] + dz)
                    if other in arrays:
                        neighbourhoods.append(arrays[other])
        cand = np.concatenate(neighbourhoods)
        d2 = ((pts[idx][:, None, :] - pts[cand][None, :, :]) ** 2).sum(-1)
        d2[idx[:, None] == cand[None, :]] = np.inf
        best = np.sqrt(d2.min(axis=1))
        assert best.max() < cell, "cell too small for exact grid search"
        worst_chord = max(worst_chord, float(best.max()))
    return chord_to_degrees(worst_chord)


_SCORE_BLOCK = 4096


def score_candidate(m, diffs) -> int:
    """Number of constraints a candidate row direction satisfies strictly:
    the per-point oracle of the dense scan."""
    m = np.asarray(m, dtype=float).reshape(3)
    return int(np.count_nonzero(diffs @ m > 0.0))


def score_all(sphere, diffs: np.ndarray) -> np.ndarray:
    """Constraint counts for every sphere point: the dense-scan oracle.

    Products are formed in float32 in blocks of 4096 points of the first
    half and read by sign: the negated half, the second, reuses the same
    products with the opposite sign test.
    """
    half = sphere.count // 2
    p32 = sphere.points[:half].astype(np.float32)
    dt = np.ascontiguousarray(diffs.T, dtype=np.float32)
    pos = np.empty(half, dtype=np.int64)
    neg = np.empty(half, dtype=np.int64)
    for s in range(0, half, _SCORE_BLOCK):
        prod = p32[s:s + _SCORE_BLOCK] @ dt
        pos[s:s + prod.shape[0]] = np.count_nonzero(prod > 0.0, axis=1)
        neg[s:s + prod.shape[0]] = np.count_nonzero(prod < 0.0, axis=1)
    return np.concatenate([pos, neg])


def dense_tied_points(sphere, diffs: np.ndarray):
    """Best score and ascending tied indices, read off the dense scan."""
    scores = score_all(sphere, diffs)
    best = int(scores.max())
    return best, np.flatnonzero(scores == best)


def dense_search_trials(sphere, diffs):
    """``dense_tied_points`` of each trial of a stack: the oracle of the
    row search."""
    return [dense_tied_points(sphere, d) for d in diffs]


def isotonic_fit_reference(values, weights=None) -> np.ndarray:
    """Pool-adjacent-violators on float64 array elements: the isotonic oracle."""
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    n = y.size
    level = np.empty(n)
    weight = np.empty(n)
    length = np.empty(n, dtype=np.int64)
    top = 0
    for i in range(n):
        level[top] = y[i]
        weight[top] = w[i]
        length[top] = 1
        top += 1
        while top > 1 and level[top - 2] >= level[top - 1]:
            total = weight[top - 2] + weight[top - 1]
            level[top - 2] = (
                weight[top - 2] * level[top - 2] + weight[top - 1] * level[top - 1]
            ) / total
            weight[top - 2] = total
            length[top - 2] += length[top - 1]
            top -= 1
    return np.repeat(level[:top], length[:top])


def monotonicity_score_reference(pairs, m, channel: int) -> float:
    """Residual of one candidate row, pooled by ``isotonic_fit_reference``
    alone: the oracle of ``monotonicity_score``."""
    m = np.asarray(m, dtype=float).reshape(3)
    pool = pairs.unsaturated()
    x = pool.raw @ m
    y = pool.rendered[:, channel - 1]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    # pool exact ties in x: group means with group sizes as weights
    boundary = np.flatnonzero(np.diff(xs) > 0.0) + 1
    starts = np.concatenate([[0], boundary])
    ends = np.concatenate([boundary, [xs.size]])
    counts = (ends - starts).astype(float)
    means = np.add.reduceat(ys, starts) / counts
    fit = np.repeat(isotonic_fit_reference(means, counts), ends - starts)
    return float(np.sqrt(np.mean((ys - fit) ** 2)))


def map_forward_unblocked(model, raws) -> np.ndarray:
    """Raw to rendered over all rows at once: the blocked map's oracle."""
    raws = np.asarray(raws, dtype=float).reshape(-1, 3)
    corrected = np.clip(raws @ model.matrix.rows.T, 0.0, 1.0)
    toned = np.column_stack([
        model.forward_tones[ch](corrected[:, ch]) for ch in range(3)
    ])
    return np.clip(apply_lattice(model.forward_lut, toned), 0.0, 1.0)


def map_backward_unblocked(model, rendered) -> np.ndarray:
    """Rendered to raw over all rows at once: the blocked map's oracle."""
    rendered = np.clip(np.asarray(rendered, dtype=float).reshape(-1, 3), 0.0, 1.0)
    linearized = np.column_stack([
        model.inverse_tones[ch](rendered[:, ch]) for ch in range(3)
    ])
    back = np.clip(linearized @ model.matrix.inverse().T, 0.0, 1.0)
    return np.clip(apply_lattice(model.backward_lut, back), 0.0, 1.0)


def trilinear_weights(v: np.ndarray, resolution: int):
    """Corner node indices and weights for points in [0, 1]^3.

    Returns (flat_indices, weights), both (n, 8), in ``_CORNERS`` order.
    Inputs are clamped to the cube first; weights are non-negative and
    sum to one per point.
    """
    r = int(resolution)
    flat, frac = _cells(_as_rows(v, "v"), r)
    return flat[:, None] + _corner_offsets(r), np.ascontiguousarray(_corner_weights(frac).T)


def apply_lattice_einsum(lut, v) -> np.ndarray:
    """Trilinear interpolation by gathering every row's (8, 3) corner nodes
    and summing them with ``einsum``: the corner-by-corner kernel's oracle."""
    idx, w = trilinear_weights(v, lut.resolution)
    return np.einsum("nc,ncd->nd", w, lut.nodes.reshape(-1, 3)[idx])


def fit_lattice_unblocked(inputs, targets, resolution: int = 5,
                          regularization: float = 1e-3) -> Lattice3:
    """Lattice fit whose normal equations are summed by one ``np.bincount``
    over every sample's 64 corner pairs: the blocked fit's oracle."""
    v = np.clip(np.asarray(inputs, dtype=float).reshape(-1, 3), 0.0, 1.0)
    y = _as_rows(targets, "targets")
    r = int(resolution)
    n_nodes = r ** 3

    # corners (8, n), summed corner pair by corner pair in sample order
    idx, w = (a.T for a in trilinear_weights(v, r))
    pairs = (idx[:, None, :] * n_nodes + idx[None, :, :]).ravel()
    gram = np.bincount(pairs, weights=(w[:, None, :] * w[None, :, :]).ravel(),
                       minlength=n_nodes * n_nodes).reshape(n_nodes, n_nodes)
    rhs = np.column_stack([
        np.bincount(idx.ravel(), weights=(w * (y[:, c] - v[:, c])).ravel(), minlength=n_nodes)
        for c in range(3)
    ])
    touched = np.zeros(n_nodes, dtype=bool)
    touched[idx[w > 1e-12]] = True
    return _solve_lattice(gram, rhs, touched, r, regularization)


def fit_lattice_dense(inputs, targets, resolution: int = 5,
                      regularization: float = 1e-3) -> Lattice3:
    """Lattice fit from one dense (n, r^3) design and ``np.linalg.solve``:
    an oracle of the normal equations and of their Cholesky solve."""
    v = np.clip(np.asarray(inputs, dtype=float).reshape(-1, 3), 0.0, 1.0)
    y = _as_rows(targets, "targets")
    r = int(resolution)
    n_nodes = r ** 3

    idx, w = trilinear_weights(v, r)
    design = np.zeros((v.shape[0], n_nodes))
    np.put_along_axis(design, idx, w, axis=1)

    lap = _grid_laplacian(r)
    touched = (design > 1e-12).any(axis=0)
    anchor = np.where(touched, 0.0, 1.0)
    system = design.T @ design + regularization * (lap + np.diag(anchor))

    identity_nodes = Lattice3.identity(r).nodes.reshape(n_nodes, 3)
    nodes = np.empty((n_nodes, 3))
    for c in range(3):
        rhs = design.T @ (y[:, c] - v[:, c])
        residual = np.linalg.solve(system, rhs)
        nodes[:, c] = identity_nodes[:, c] + residual
    return Lattice3(nodes.reshape(r, r, r, 3))


def render_batch_reference(camera, raws, rng=None) -> np.ndarray:
    """Rendering of all rows at once, with a new array at every step: the
    blocked, in-place render's oracle."""
    raws = _as_rows(raws, "raws")
    v = raws @ camera.matrix.rows.T
    if camera.gamut is not None:
        v = camera.gamut.apply(v)
        if camera.warp_scale > 0.0:
            v = simulate._warp(np.clip(v, 0.0, 1.0), camera.warp_scale)
    v = np.clip(v, 0.0, 1.0)
    out = camera.tone(v)
    if camera.noise_sigma > 0.0:
        out = out + rng.normal(0.0, camera.noise_sigma, size=out.shape)
    if camera.quantize:
        out = np.round(np.clip(out, 0.0, 1.0) * 255.0) / 255.0
    return np.clip(out, 0.0, 1.0)


def disable_memo(monkeypatch) -> None:
    """Recompute every memoised calibration input on each use: the memo's oracle.

    Each ``sample_sphere`` call builds a new sample (and so a new cap
    index), ``unsaturated`` always builds a new subset, and the rank pool
    is rebuilt on every read.
    """
    fresh_sphere = ranking.sample_sphere.__wrapped__
    monkeypatch.setattr(ranking, "sample_sphere", fresh_sphere)
    monkeypatch.setattr(pipeline, "sample_sphere", fresh_sphere)
    monkeypatch.setattr(PixelPairSet, "unsaturated",
                        lambda self: self.subset(np.flatnonzero(~self.saturated)))
    monkeypatch.setattr(PixelPairSet, "_rank_pool", property(ranking._constraint_pool))


def data_rows(fh, origin: str):
    """(line number, fields) of each data row of a corpus CSV, in file order.

    Blank lines and lines whose first field starts with '#' are skipped;
    the first other line must be the header. A row's line number is that
    of its last physical line.
    """
    header = False
    reader = csv.reader(fh)
    for row in reader:
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not header:
            if tuple(c.strip() for c in row) != CSV_COLUMNS:
                raise CorpusFormatError(
                    f"{origin}: line {reader.line_num}: expected header "
                    f"{','.join(CSV_COLUMNS)}"
                )
            header = True
            continue
        yield reader.line_num, row
    if not header:
        raise CorpusFormatError(f"{origin}: missing header line")


def parse_rows(fh, origin: str, keep_texts: bool):
    """The row parser: the numbers (n, 7), the four tag lists and, when
    ``keep_texts``, one block of the rows as ``csv.writer`` writes them.

    The corpus reader's oracle: one csv record at a time, every check
    in Python on that record.
    """
    numbers, tags, texts = [], [], []
    for lineno, row in data_rows(fh, origin):
        escaped = re.search("[\udc80-\udcff]", ",".join(row))
        if escaped:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: not UTF-8 text "
                f"(byte 0x{ord(escaped.group()) - 0xDC00:02x})"
            )
        if len(row) != len(CSV_COLUMNS):
            raise CorpusFormatError(
                f"{origin}: line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                f"got {len(row)}"
            )
        try:
            values = [float(v) for v in row[4:]]
        except ValueError:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: non-numeric value"
            ) from None
        if not all(map(math.isfinite, values)):
            raise CorpusFormatError(f"{origin}: line {lineno}: non-finite value")
        raw, jpeg, white = values[0:3], values[3:6], values[6]
        if white <= 0:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: white_level must be positive"
            )
        if min(jpeg) < 0 or max(jpeg) > 255 or min(raw) < 0:
            raise CorpusFormatError(
                f"{origin}: line {lineno}: values out of range"
            )
        if max(raw) / white == math.inf:
            raise CorpusFormatError(f"{origin}: line {lineno}: raw / white_level overflows")
        # flat lists hold a row in the fewest Python objects
        numbers += values
        tags += row[:4]
        if keep_texts:
            line = io.StringIO()
            csv.writer(line).writerow(row)
            texts.append(line.getvalue()[:-2])  # less the writer's "\r\n"
    if not numbers:
        raise EmptyCorpus(f"{origin}: no data rows")
    return (np.array(numbers).reshape(-1, 7), [tags[k::4] for k in range(4)],
            [texts] if keep_texts else None)


def loads_corpus_reference(text: str, origin: str = "<string>"):
    """What ``loads_corpus(text)`` returns, with the rows' texts and white
    levels, by the row parser; a csv.Error becomes the CorpusFormatError
    that names the line the csv reader stopped on."""
    try:
        table, tags, texts = parse_rows(io.StringIO(text), origin, True)
    except csv.Error as exc:
        reader = csv.reader(io.StringIO(text))
        try:
            for _ in reader:
                pass
        except csv.Error:
            raise CorpusFormatError(f"{origin}: line {reader.line_num}: {exc}") from None
        raise
    raw, jpeg, white = table[:, 0:3], table[:, 3:6], table[:, 6]
    pairs = PixelPairSet(raw / white[:, None], jpeg / 255.0, *tags)
    return pairs, texts[0], white
