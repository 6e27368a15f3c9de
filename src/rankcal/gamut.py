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
from .model import Lattice3
from .qp import QuadProgram, solve_qp

_QP_TOL = 1e-8
_CUBE_SLACK = 1e-6

# Samples per block of the lattice fit: its normal equations are summed
# over dense (block, r^3) designs, 16 MB each at resolution 5, so a fit's
# memory does not grow with its sample count beyond the inputs.
_FIT_BLOCK = 16_384


@dataclass(frozen=True)
class AffineGamutMap:
    """v -> T v + o, feasible on the points it was fitted to."""

    t: np.ndarray
    o: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        o = np.asarray(self.o, dtype=float)
        if t.shape != (3, 3) or o.shape != (3,):
            raise ValueError("T must be 3x3 and o a 3-vector")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(o))):
            raise ValueError("gamut map must be finite")
        t = t.copy()
        o = o.copy()
        t.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "o", o)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float) @ self.t.T + self.o


def solve_affine_gamut(points) -> AffineGamutMap:
    """Least-disturbing affine map that brings points into [0, 1]^3.

    The twelve unknowns separate by output channel into three 4-variable
    programs sharing the same design matrix, which is how the QP is
    solved here; the combined optimum is identical. (T = 0, o = 0.5) is
    always feasible, so the program cannot be infeasible; coplanar input
    raises DegenerateGeometry.
    """
    v = np.asarray(points, dtype=float).reshape(-1, 3)
    n = v.shape[0]
    if n < 4:
        raise DegenerateGeometry(f"need at least 4 points, have {n}")
    centered = v - v.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[2] <= 1e-9 * max(1.0, svals[0]):
        raise DegenerateGeometry("points are coplanar")

    design = np.hstack([v, np.ones((n, 1))])
    gram = 2.0 * (design.T @ design)
    a = np.vstack([design, -design])
    b = np.concatenate([np.ones(n), np.zeros(n)])
    start = np.array([0.0, 0.0, 0.0, 0.5])

    t = np.empty((3, 3))
    o = np.empty(3)
    for k in range(3):
        c = -2.0 * (design.T @ v[:, k])
        sol = solve_qp(QuadProgram(q=gram, c=c, a=a, b=b), _QP_TOL, start=start)
        t[k] = sol.x[:3]
        o[k] = sol.x[3]

    mapped = v @ t.T + o
    if mapped.min() < -_CUBE_SLACK or mapped.max() > 1.0 + _CUBE_SLACK:
        raise ArithmeticError("gamut QP produced an out-of-cube mapping")
    return AffineGamutMap(t, o)


def trilinear_weights(v: np.ndarray, resolution: int):
    """Corner node indices and weights for points in [0, 1]^3.

    Returns (flat_indices, weights), both (n, 8). Inputs are clamped to
    the cube first; weights are non-negative and sum to one per point.
    """
    v = np.clip(np.asarray(v, dtype=float).reshape(-1, 3), 0.0, 1.0)
    r = int(resolution)
    scaled = v * (r - 1)
    base = np.minimum(scaled.astype(np.int64), r - 2)
    frac = scaled - base

    n = v.shape[0]
    idx = np.empty((n, 8), dtype=np.int64)
    w = np.empty((n, 8))
    corner = 0
    for di in (0, 1):
        wi = frac[:, 0] if di else 1.0 - frac[:, 0]
        for dj in (0, 1):
            wj = frac[:, 1] if dj else 1.0 - frac[:, 1]
            for dk in (0, 1):
                wk = frac[:, 2] if dk else 1.0 - frac[:, 2]
                idx[:, corner] = (
                    (base[:, 0] + di) * r * r + (base[:, 1] + dj) * r + (base[:, 2] + dk)
                )
                w[:, corner] = wi * wj * wk
                corner += 1
    return idx, w


def apply_lattice(lut: Lattice3, v):
    """Trilinear interpolation of the LUT at v (a 3-vector or (n, 3))."""
    arr = np.asarray(v, dtype=float)
    single = arr.ndim == 1
    idx, w = trilinear_weights(arr, lut.resolution)
    flat = lut.nodes.reshape(-1, 3)
    out = np.einsum("nc,ncd->nd", w, flat[idx])
    return out[0] if single else out


def _grid_laplacian(resolution: int) -> np.ndarray:
    """Graph Laplacian of the node lattice with 6-neighbour edges."""
    r = resolution
    n = r ** 3
    lap = np.zeros((n, n))
    def flat(i, j, k):
        return (i * r + j) * r + k
    for i in range(r):
        for j in range(r):
            for k in range(r):
                here = flat(i, j, k)
                for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    ni, nj, nk = i + di, j + dj, k + dk
                    if ni < r and nj < r and nk < r:
                        there = flat(ni, nj, nk)
                        lap[here, here] += 1.0
                        lap[there, there] += 1.0
                        lap[here, there] -= 1.0
                        lap[there, here] -= 1.0
    return lap


def fit_lattice(inputs, targets, resolution: int = 5,
                regularization: float = 1e-3) -> Lattice3:
    """Fit LUT nodes so trilinear interpolation matches the targets.

    The solve is regularized in the deviation from the identity map:
    a graph-Laplacian term keeps the correction smooth across the
    lattice, and nodes untouched by any sample are anchored to the
    identity. Gamut correction is a small residual, so an unobserved
    region simply passes colours through. Each output channel is one
    closed-form linear solve; regularization > 0 makes it unique. The
    normal equations are accumulated over blocks of _FIT_BLOCK samples,
    so a fit of one block forms them in a single product.
    """
    v = np.clip(np.asarray(inputs, dtype=float).reshape(-1, 3), 0.0, 1.0)
    y = _as_triples(targets)
    if v.shape[0] == 0:
        raise ValueError("need at least one sample")
    if v.shape != y.shape:
        raise ValueError("inputs and targets must have equal length")
    if regularization <= 0:
        raise ValueError("regularization must be positive")
    r = int(resolution)
    n_nodes = r ** 3

    gram = np.zeros((n_nodes, n_nodes))
    rhs = np.zeros((n_nodes, 3))
    touched = np.zeros(n_nodes, dtype=bool)
    for start in range(0, v.shape[0], _FIT_BLOCK):
        vb = v[start:start + _FIT_BLOCK]
        yb = y[start:start + _FIT_BLOCK]
        idx, w = trilinear_weights(vb, r)
        design = np.zeros((vb.shape[0], n_nodes))
        np.put_along_axis(design, idx, w, axis=1)
        gram += design.T @ design
        touched |= (design > 1e-12).any(axis=0)
        for c in range(3):
            rhs[:, c] += design.T @ (yb[:, c] - vb[:, c])

    lap = _grid_laplacian(r)
    anchor = np.where(touched, 0.0, 1.0)
    system = gram + regularization * (lap + np.diag(anchor))

    identity_nodes = Lattice3.identity(r).nodes.reshape(n_nodes, 3)
    nodes = np.empty((n_nodes, 3))
    for c in range(3):
        residual = np.linalg.solve(system, rhs[:, c])
        nodes[:, c] = identity_nodes[:, c] + residual
    return Lattice3(nodes.reshape(r, r, r, 3))


def _as_triples(values) -> np.ndarray:
    if hasattr(values, "__len__") and len(values) and hasattr(values[0], "as_array"):
        return np.vstack([t.as_array() for t in values])
    return np.asarray(values, dtype=float).reshape(-1, 3)
