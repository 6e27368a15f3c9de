"""Gamut handling: the affine in-cube mapping and the correction LUT.

The affine solver finds the (T, o) closest to the identity, in the
least-squares sense, that places every fitted point inside the unit
cube; it doubles as the ground-truth gamut model of the simulator. The
LUT is a small cubic lattice fitted by regularized least squares and
evaluated by trilinear interpolation; it mops up whatever residual the
matrix and tone curves leave behind.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .errors import DegenerateGeometry
from .model import (Lattice3, _as_float_array, _as_rows, _check_finite, _check_integer,
                    _check_rows, _check_type)
from .qp import QuadProgram, solve_qp

_QP_TOL = 1e-8
_CUBE_SLACK = 1e-6

# Samples per block of the lattice fit: a block's corner pairs are summed
# into the normal equations from arrays of 28 values a sample, 3.7 MB each,
# so a fit's memory does not grow with its sample count beyond the inputs.
_FIT_BLOCK = 16_384

# The 8 corners of a lattice cell as per-axis steps from its lowest node,
# in the order 000, 001, ..., 111.
_CORNERS = tuple((di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1))
# Corner pairs (a, b) with a < b: the Gram entries above the diagonal.
_UPPER_PAIRS = np.triu_indices(8, 1)


@dataclass(frozen=True, eq=False)
class AffineGamutMap:
    """v -> T v + o, feasible on the points it was fitted to."""

    t: np.ndarray
    o: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _as_float_array(self.t, (3, 3), "AffineGamutMap.t"))
        object.__setattr__(self, "o", _as_float_array(self.o, (3,), "AffineGamutMap.o"))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The map at v, a 3-vector or rows (n, 3)."""
        out = _as_rows(v, "v") @ self.t.T + self.o
        return out[0] if np.ndim(v) == 1 else out


def solve_affine_gamut(points) -> AffineGamutMap:
    """Least-disturbing affine map that brings points into [0, 1]^3.

    The twelve unknowns separate by output channel into three 4-variable
    programs sharing the same design matrix, which is how the QP is
    solved here; the combined optimum is identical. (T = 0, o = 0.5) is
    always feasible, so the program cannot be infeasible; coplanar input
    raises DegenerateGeometry, and a point that is not finite, or points
    whose sums of products overflow, ValueError naming them.
    """
    v = _as_rows(points, "points")
    _check_rows(v, "points", finite=True)
    n = v.shape[0]
    if n < 4:
        raise DegenerateGeometry(f"need at least 4 points, have {n}")
    design = np.hstack([v, np.ones((n, 1))])
    with np.errstate(over="ignore"):
        gram = 2.0 * (design.T @ design)
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"points are too large to fit: the sums of their products "
                         f"overflow (largest |component| is {np.abs(v).max():.3g})")
    centered = v - v.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[2] <= 1e-9 * max(1.0, svals[0]):
        raise DegenerateGeometry("points are coplanar")

    a = np.vstack([design, -design])
    b = np.concatenate([np.ones(n), np.zeros(n)])

    t = np.empty((3, 3))
    o = np.empty(3)
    for k in range(3):
        c = -2.0 * (design.T @ v[:, k])
        sol = solve_qp(QuadProgram(q=gram, c=c, a=a, b=b), _QP_TOL)
        t[k] = sol.x[:3]
        o[k] = sol.x[3]

    mapped = v @ t.T + o
    if mapped.min() < -_CUBE_SLACK or mapped.max() > 1.0 + _CUBE_SLACK:
        raise ArithmeticError("gamut QP produced an out-of-cube mapping")
    return AffineGamutMap(t, o)


def _cells(v: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's lattice cell: the flat index (n,) of its lowest node, and
    the row's fraction (3, n) of the way across the cell on each axis.

    Rows (n, 3) are clamped to the cube first; the cell's lowest node has
    per-axis index in [0, r - 2], and node (i, j, k) has flat index
    (i * r + j) * r + k. The cell's corners are ``_CORNERS``.
    """
    scaled = v.T.copy()
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled *= r - 1
    base = np.minimum(scaled.astype(np.int64), r - 2)
    scaled -= base
    return (base[0] * r + base[1]) * r + base[2], scaled


def _corner_offsets(r: int) -> np.ndarray:
    """Flat-index offset of each of ``_CORNERS`` from the cell's lowest node."""
    return np.array([(di * r + dj) * r + dk for di, dj, dk in _CORNERS])


def _corner_weights(frac: np.ndarray) -> np.ndarray:
    """Weights (8, n) of the ``_CORNERS`` of each row's cell, from the
    fractions (3, n) of ``_cells``: the product (wi * wj) * wk of the
    per-axis fractions or their complements."""
    sides = (1.0 - frac, frac)
    w = np.empty((8, frac.shape[1]))
    for corner, (di, dj, dk) in enumerate(_CORNERS):
        w[corner] = sides[di][0] * sides[dj][1] * sides[dk][2]
    return w


def apply_lattice(lut: Lattice3, v):
    """Trilinear interpolation of the LUT at v (a 3-vector or (n, 3)).

    Points are clamped to the cube, so an infinite coordinate reads the
    nearest face; a NaN raises ValueError naming its row. The weighted
    corner nodes are added one corner at a time, in ``_CORNERS`` order,
    so no (n, 8) index, weight or gathered-node array is formed.
    """
    _check_type(lut, Lattice3, "lut")
    rows = _as_rows(v, "v")
    _check_rows(rows, "v", finite=False)
    r = lut.resolution
    flat, frac = _cells(rows, r)
    sides = (1.0 - frac, frac)
    nodes = lut.nodes.reshape(-1, 3)
    out = np.zeros((flat.size, 3))
    for offset, (di, dj, dk) in zip(_corner_offsets(r).tolist(), _CORNERS):
        if dk == 0:
            wij = sides[di][0] * sides[dj][1]
        term = nodes[flat + offset]
        term *= (wij * sides[dk][2])[:, None]
        out += term
    return out[0] if np.ndim(v) == 1 else out


def _grid_laplacian(resolution: int) -> np.ndarray:
    """Graph Laplacian of the node lattice with 6-neighbour edges: -1 for
    each pair of neighbours, and each node's neighbour count on the
    diagonal. Node (i, j, k) is row (i * r + j) * r + k."""
    r = resolution
    node = np.arange(r ** 3).reshape(r, r, r)
    lap = np.zeros((r ** 3, r ** 3))
    for axis in range(3):
        line = np.moveaxis(node, axis, 0)
        lap[line[:-1].ravel(), line[1:].ravel()] = -1.0
    lap += lap.T
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def _normal_equations(v: np.ndarray, y: np.ndarray, r: int):
    """Gram matrix (r^3, r^3), right-hand sides (r^3, 3) and touched-node
    mask of the trilinear design of inputs v against targets y.

    Each sample adds its 8 corner weights to the right-hand sides and
    their 64 pairwise products to the Gram matrix. ``np.bincount`` sums
    them corner pair by corner pair, each in sample order, so the result
    does not depend on how a BLAS splits its work. A corner with the
    lower index in ``_CORNERS`` has the lower node index, so the pairs
    a < b fill the upper triangle, which is mirrored.
    """
    n_nodes = r ** 3
    flat, frac = _cells(v, r)
    w = _corner_weights(frac)
    offsets = _corner_offsets(r)
    a, b = _UPPER_PAIRS
    pairs = flat * (n_nodes + 1) + (offsets[a] * n_nodes + offsets[b])[:, None]
    products = w[a]
    products *= w[b]
    upper = np.bincount(pairs.ravel(), weights=products.ravel(),
                        minlength=n_nodes * n_nodes).reshape(n_nodes, n_nodes)
    idx = flat + offsets[:, None]
    diagonal = np.bincount(idx.ravel(), weights=(w * w).ravel(), minlength=n_nodes)
    gram = upper + upper.T + np.diag(diagonal)
    residual = (y - v).T
    rhs = np.column_stack([
        np.bincount(idx.ravel(), weights=(w * residual[c]).ravel(), minlength=n_nodes)
        for c in range(3)
    ])
    touched = np.bincount(idx[w > 1e-12], minlength=n_nodes) > 0
    return gram, rhs, touched


def _solve_lattice(gram: np.ndarray, rhs: np.ndarray, touched: np.ndarray,
                   r: int, regularization: float) -> Lattice3:
    """Nodes from the normal equations: identity plus the solution of
    (G + regularization (L + A)) x = rhs, with L the grid Laplacian and A
    the anchor of the untouched nodes.

    The system is symmetric positive definite, so it is factored by
    Cholesky, L D L^T with L unit lower triangular, and solved by a
    forward and a back substitution, column by column in numpy.
    """
    n_nodes = r ** 3
    anchor = np.where(touched, 0.0, 1.0)
    system = gram + regularization * (_grid_laplacian(r) + np.diag(anchor))
    low = np.linalg.cholesky(system)
    scale = np.diag(low).copy()
    unit = low / scale
    down = unit.T.copy()
    x = rhs.copy()
    for j in range(n_nodes - 1):
        x[j + 1:] -= down[j, j + 1:, None] * x[j]
    x /= (scale * scale)[:, None]
    for j in range(n_nodes - 1, 0, -1):
        x[:j] -= unit[j, :j, None] * x[j]
    nodes = Lattice3.identity(r).nodes.reshape(n_nodes, 3) + x
    return Lattice3(nodes.reshape(r, r, r, 3))


def fit_lattice(inputs, targets, resolution: int = 5,
                regularization: float = 1e-3) -> Lattice3:
    """Fit LUT nodes so trilinear interpolation matches the targets.

    The solve is regularized in the deviation from the identity map:
    a graph-Laplacian term keeps the correction smooth across the
    lattice, and nodes untouched by any sample are anchored to the
    identity. Gamut correction is a small residual, so an unobserved
    region simply passes colours through. The three output channels
    share one closed-form linear solve; regularization > 0 makes it
    unique. The normal equations are accumulated over blocks of
    _FIT_BLOCK samples. Inputs are clamped to the cube; a NaN input, or
    a target that is not finite, raises ValueError naming its row.
    """
    v = _as_rows(inputs, "inputs")
    y = _as_rows(targets, "targets")
    _check_rows(v, "inputs", finite=False)
    _check_rows(y, "targets", finite=True)
    v = np.clip(v, 0.0, 1.0)
    if v.shape[0] == 0:
        raise ValueError("need at least one sample")
    if v.shape != y.shape:
        raise ValueError("inputs and targets must have equal length")
    _check_finite(regularization, "regularization", positive=True)
    _check_integer(resolution, "resolution", 2)
    r = int(resolution)

    gram, rhs, touched = _normal_equations(v[:_FIT_BLOCK], y[:_FIT_BLOCK], r)
    for start in range(_FIT_BLOCK, v.shape[0], _FIT_BLOCK):
        block = _normal_equations(v[start:start + _FIT_BLOCK], y[start:start + _FIT_BLOCK], r)
        gram += block[0]
        rhs += block[1]
        touched |= block[2]
    return _solve_lattice(gram, rhs, touched, r, regularization)
