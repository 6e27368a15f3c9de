"""Shared test helpers: exact nearest-neighbour search, angle math, and the
reference implementations the optimised code is checked against (the
dense sphere scan, the array-based isotonic fit, the unblocked maps and
the unblocked lattice fit)."""

from collections import defaultdict

import numpy as np

from rankcal.gamut import _as_triples, _grid_laplacian, apply_lattice, trilinear_weights
from rankcal.model import Lattice3


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


def score_all(sphere, diffs: np.ndarray) -> np.ndarray:
    """Constraint counts for every sphere point: the dense-scan oracle.

    Products are formed in float32 in blocks of 4096 points and read by
    sign. For an antipodal sample the negated half reuses the same
    products with the opposite sign test.
    """
    points = sphere.points
    n = points.shape[0]
    dt = np.ascontiguousarray(diffs.T, dtype=np.float32)
    if sphere.antipodal:
        half = n // 2
        p32 = points[:half].astype(np.float32)
        pos = np.empty(half, dtype=np.int64)
        neg = np.empty(half, dtype=np.int64)
        for s in range(0, half, _SCORE_BLOCK):
            prod = p32[s:s + _SCORE_BLOCK] @ dt
            pos[s:s + prod.shape[0]] = np.count_nonzero(prod > 0.0, axis=1)
            neg[s:s + prod.shape[0]] = np.count_nonzero(prod < 0.0, axis=1)
        return np.concatenate([pos, neg])
    p32 = points.astype(np.float32)
    out = np.empty(n, dtype=np.int64)
    for s in range(0, n, _SCORE_BLOCK):
        prod = p32[s:s + _SCORE_BLOCK] @ dt
        out[s:s + prod.shape[0]] = np.count_nonzero(prod > 0.0, axis=1)
    return out


def dense_tied_points(sphere, diffs: np.ndarray):
    """Best score and ascending tied indices, read off the dense scan."""
    scores = score_all(sphere, diffs)
    best = int(scores.max())
    return best, np.flatnonzero(scores == best)


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
    rendered = np.asarray(rendered, dtype=float).reshape(-1, 3)
    linearized = np.column_stack([
        model.inverse_tones[ch](rendered[:, ch]) for ch in range(3)
    ])
    back = np.clip(linearized @ model.matrix.inverse().T, 0.0, 1.0)
    return np.clip(apply_lattice(model.backward_lut, back), 0.0, 1.0)


def fit_lattice_unblocked(inputs, targets, resolution: int = 5,
                          regularization: float = 1e-3) -> Lattice3:
    """Lattice fit from one dense (n, r^3) design: the blocked fit's oracle."""
    v = np.clip(np.asarray(inputs, dtype=float).reshape(-1, 3), 0.0, 1.0)
    y = _as_triples(targets)
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
