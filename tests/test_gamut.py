"""Tests for the affine gamut solver and the lattice LUT."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from support import (apply_lattice_einsum, fit_lattice_dense, fit_lattice_unblocked,
                     trilinear_weights)

from rankcal import gamut
from rankcal.errors import DegenerateGeometry
from rankcal.gamut import apply_lattice, fit_lattice, solve_affine_gamut
from rankcal.model import Lattice3


class TestSolveAffineGamut:
    def test_out_of_cube_solution_is_refused(self, monkeypatch):
        # a QP solution that maps the points outside the cube: (T, o) = (0, 2)
        solve = gamut.solve_qp
        monkeypatch.setattr(gamut, "solve_qp", lambda prob, tol: dataclasses.replace(
            solve(prob, tol), x=np.array([0.0, 0.0, 0.0, 2.0])))
        pts = np.random.default_rng(0).uniform(0.05, 0.95, size=(10, 3))
        with pytest.raises(ArithmeticError, match="gamut QP produced an out-of-cube mapping"):
            solve_affine_gamut(pts)

    def test_in_cube_points_map_to_themselves(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.05, 0.95, size=(60, 3))
        gm = solve_affine_gamut(pts)
        mapped = gm.apply(pts)
        assert np.abs(mapped - pts).max() <= 1e-6
        assert np.allclose(gm.t, np.eye(3), atol=1e-6)
        assert np.allclose(gm.o, 0.0, atol=1e-6)

    def test_cluster_outside_projects_to_face(self):
        rng = np.random.default_rng(1)
        cluster = np.array([1.2, 0.5, 0.5]) + 3e-4 * rng.normal(size=(4, 3))
        anchors = np.array([
            [0.30, 0.30, 0.30],
            [0.70, 0.40, 0.30],
            [0.40, 0.70, 0.60],
        ])
        pts = np.vstack([cluster, anchors])
        gm = solve_affine_gamut(pts)
        mapped = gm.apply(pts)
        projections = np.clip(cluster, 0.0, 1.0)
        assert np.abs(mapped[:4] - projections).max() <= 1e-3
        assert np.abs(mapped[4:] - anchors).max() <= 1e-2

    def test_objective_beats_offset_only_grid_search(self):
        rng = np.random.default_rng(2)
        inside = rng.uniform(0.1, 0.88, size=(180, 3))
        outside = rng.uniform(0.1, 0.88, size=(20, 3))
        outside[:, 0] = rng.uniform(1.0, 1.06, size=20)
        pts = np.vstack([inside, outside])
        gm = solve_affine_gamut(pts)
        objective = float(np.sum((gm.apply(pts) - pts) ** 2))

        # brute-force oracle over pure offsets on a 0.01 grid
        axis = np.arange(-0.2, 0.2001, 0.01)
        best = np.inf
        lo = -pts.min(axis=0)
        hi = 1.0 - pts.max(axis=0)
        for ox in axis:
            if not lo[0] <= ox <= hi[0]:
                continue
            for oy in axis:
                if not lo[1] <= oy <= hi[1]:
                    continue
                for oz in axis:
                    if not lo[2] <= oz <= hi[2]:
                        continue
                    cost = pts.shape[0] * (ox * ox + oy * oy + oz * oz)
                    best = min(best, cost)
        assert np.isfinite(best)
        assert objective <= best + 1e-9

    def test_fitted_outputs_stay_in_slack_cube(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.1, 1.15, size=(300, 3))
        gm = solve_affine_gamut(pts)
        mapped = gm.apply(pts)
        assert mapped.min() >= -1e-6
        assert mapped.max() <= 1.0 + 1e-6

    def test_objective_zero_iff_inside(self):
        rng = np.random.default_rng(4)
        inside = rng.uniform(0.0, 1.0, size=(50, 3))
        assert np.sum((solve_affine_gamut(inside).apply(inside) - inside) ** 2) <= 1e-10
        poked = inside.copy()
        poked[0, 0] = 1.2
        gm = solve_affine_gamut(poked)
        assert np.sum((gm.apply(poked) - poked) ** 2) > 1e-4

    def test_coplanar_points_rejected(self):
        rng = np.random.default_rng(5)
        flat = rng.uniform(0.0, 1.0, size=(30, 3))
        flat[:, 2] = 0.5 * flat[:, 0] + 0.1 * flat[:, 1]
        with pytest.raises(DegenerateGeometry):
            solve_affine_gamut(flat)

    def test_too_few_points_rejected(self):
        with pytest.raises(DegenerateGeometry):
            solve_affine_gamut(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_named(self, bad):
        pts = np.random.default_rng(6).uniform(0.0, 1.0, size=(20, 3))
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="points row 7 is not finite"):
            solve_affine_gamut(pts)


class TestApplyLattice:
    def test_reproduces_nodes(self):
        rng = np.random.default_rng(6)
        lut = Lattice3(rng.uniform(0.0, 1.0, size=(5, 5, 5, 3)))
        for (i, j, k) in [(0, 0, 0), (4, 4, 4), (2, 3, 1)]:
            v = np.array([i, j, k]) / 4.0
            assert np.allclose(apply_lattice(lut, v), lut.nodes[i, j, k], atol=1e-14)

    def test_cell_centre_is_mean_of_corners(self):
        rng = np.random.default_rng(7)
        lut = Lattice3(rng.uniform(0.0, 1.0, size=(5, 5, 5, 3)))
        centre = np.array([1.5, 2.5, 0.5]) / 4.0
        corners = lut.nodes[1:3, 2:4, 0:2].reshape(8, 3)
        assert np.allclose(apply_lattice(lut, centre), corners.mean(axis=0), atol=1e-14)

    def test_identity_lattice_is_exact(self):
        lut = Lattice3.identity(5)
        rng = np.random.default_rng(8)
        v = rng.uniform(0.0, 1.0, size=(500, 3))
        assert np.abs(apply_lattice(lut, v) - v).max() <= 1e-12

    def test_weights_partition_of_unity(self):
        rng = np.random.default_rng(9)
        v = rng.uniform(-0.5, 1.5, size=(1000, 3))
        _, w = trilinear_weights(v, 5)
        assert w.min() >= 0.0
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12

    def test_continuity_across_faces(self):
        rng = np.random.default_rng(10)
        lut = Lattice3(rng.uniform(0.0, 1.0, size=(5, 5, 5, 3)))
        for boundary in (0.25, 0.5, 0.75):
            v = rng.uniform(0.0, 1.0, size=(50, 3))
            lo = v.copy()
            hi = v.copy()
            lo[:, 0] = boundary - 1e-9
            hi[:, 0] = boundary + 1e-9
            gap = np.abs(apply_lattice(lut, lo) - apply_lattice(lut, hi)).max()
            assert gap <= 1e-6


    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_matches_gathered_einsum_bit_for_bit(self, r):
        rng = np.random.default_rng(r)
        lut = Lattice3(rng.normal(size=(r, r, r, 3)))
        v = rng.uniform(-0.2, 1.2, size=(20_000, 3))
        # rows on lattice planes, on the upper face and clamped from +-inf
        v[:500] = rng.integers(0, r, size=(500, 3)) / (r - 1)
        v[500:510] = [np.inf, -np.inf, 0.5]
        v[510:520, 1] = -np.inf
        v[520:530, 2] = np.inf
        got = apply_lattice(lut, v)
        assert got.tobytes() == apply_lattice_einsum(lut, v).tobytes()

    def test_nan_row_named_and_infinities_clamped(self):
        lut = Lattice3.identity(5)
        with pytest.raises(ValueError, match=r"v row 0 is NaN"):
            apply_lattice(lut, [np.nan, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"v row 2 is NaN"):
            apply_lattice(lut, [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.5, np.nan, 0.5]])
        clamped = apply_lattice(lut, [[np.inf, -np.inf, 0.5]])
        assert np.array_equal(clamped, [[1.0, 0.0, 0.5]])


class TestGridLaplacian:
    @pytest.mark.parametrize("r", [2, 3, 5, 9])
    def test_six_neighbour_graph_laplacian(self, r):
        lap = gamut._grid_laplacian(r)
        node = np.array(np.unravel_index(np.arange(r ** 3), (r, r, r))).T
        steps = np.abs(node[:, None, :] - node[None, :, :]).sum(axis=2)
        neighbours = steps == 1
        assert lap.shape == (r ** 3, r ** 3)
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap.sum(axis=1), np.zeros(r ** 3))
        assert np.array_equal(np.diag(lap), neighbours.sum(axis=1))
        assert np.array_equal(lap[neighbours], np.full(neighbours.sum(), -1.0))
        assert np.array_equal(lap[steps > 1], np.zeros((steps > 1).sum()))


class TestFitLattice:
    def test_identity_targets_recover_grid_coordinates(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.0, 1.0, size=(500, 3))
        lut = fit_lattice(v, v, resolution=5)
        assert np.abs(lut.nodes - Lattice3.identity(5).nodes).max() <= 1e-3

    def test_generate_and_recover_with_full_coverage(self):
        rng = np.random.default_rng(12)
        truth = Lattice3(Lattice3.identity(5).nodes + 0.05 * rng.normal(size=(5, 5, 5, 3)))
        # several samples inside every one of the 64 cells
        base = (np.indices((4, 4, 4)).reshape(3, -1).T) / 4.0
        offsets = rng.uniform(0.02, 0.23, size=(10, 64, 3))
        v = np.clip((base[None, :, :] + offsets).reshape(-1, 3), 0.0, 1.0)
        corners = np.array(np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij"),
                           dtype=float).reshape(3, -1).T
        v = np.vstack([v, corners, np.full((1, 3), 0.5)])
        y = apply_lattice(truth, v)
        lut = fit_lattice(v, y, resolution=5, regularization=1e-6)
        assert np.abs(lut.nodes - truth.nodes).max() <= 1e-4

    def test_single_sample_moves_only_local_nodes(self):
        lut = fit_lattice(np.array([[0.5, 0.5, 0.5]]),
                          np.array([[1.0, 0.0, 0.0]]), resolution=5)
        identity = Lattice3.identity(5).nodes
        # far corners barely move
        for idx in [(0, 0, 0), (4, 4, 4), (0, 4, 0), (4, 0, 4)]:
            assert np.abs(lut.nodes[idx] - identity[idx]).max() <= 1e-2
        # the eight enclosing nodes move materially
        centre_block = lut.nodes[2:3, 2:3, 2:3] - identity[2:3, 2:3, 2:3]
        assert np.abs(centre_block).max() > 0.05

    def test_residual_non_increasing_in_resolution(self):
        rng = np.random.default_rng(13)
        v = rng.uniform(0.0, 1.0, size=(500, 3))
        y = np.clip(v + 0.05 * np.sin(2 * np.pi * v), 0.0, 1.0)
        residuals = []
        for resolution in (2, 3, 5):
            lut = fit_lattice(v, y, resolution=resolution)
            residuals.append(float(np.mean((apply_lattice(lut, v) - y) ** 2)))
        assert residuals[0] >= residuals[1] >= residuals[2]

    @pytest.mark.parametrize("n, exact", [
        (1, True), (2, True), (gamut._FIT_BLOCK - 1, True), (gamut._FIT_BLOCK, True),
        (gamut._FIT_BLOCK + 1, False), (2 * gamut._FIT_BLOCK + 17, False),
    ])
    def test_blocks_match_unblocked_fit(self, n, exact):
        rng = np.random.default_rng(n)
        # a corner of the cube left empty, so some nodes are anchored
        v = rng.uniform(0.0, 1.0, size=(n, 3)) * [1.0, 1.0, 0.6]
        y = np.clip(v + 0.05 * np.sin(2 * np.pi * v) + 0.01 * rng.normal(size=v.shape),
                    0.0, 1.0)
        blocked = fit_lattice(v, y, resolution=5, regularization=1e-3)
        reference = fit_lattice_unblocked(v, y, resolution=5, regularization=1e-3)
        if exact:
            # one block sums the normal equations as one bincount does
            assert np.array_equal(blocked.nodes, reference.nodes)
        else:
            assert np.abs(blocked.nodes - reference.nodes).max() <= 1e-12

    @pytest.mark.parametrize("n, resolution, regularization", [
        (1, 5, 1e-3), (140, 5, 0.05), (2000, 5, 1e-3), (2000, 3, 1e-6),
        (gamut._FIT_BLOCK + 1, 5, 1e-3),
    ])
    def test_matches_dense_design_solve(self, n, resolution, regularization):
        # the dense design and np.linalg.solve round differently from the
        # bincount sums and the Cholesky solve: by at most 5.7e-15 in these
        # cases, under a bound of 1e-13
        rng = np.random.default_rng(n)
        v = rng.uniform(0.0, 1.0, size=(n, 3)) * [1.0, 1.0, 0.6]
        y = np.clip(v + 0.05 * np.sin(2 * np.pi * v) + 0.01 * rng.normal(size=v.shape),
                    0.0, 1.0)
        got = fit_lattice(v, y, resolution, regularization)
        reference = fit_lattice_dense(v, y, resolution, regularization)
        assert np.abs(got.nodes - reference.nodes).max() <= 1e-13

    def test_traced_memory_bounded_per_sample(self):
        # a dense design would take 1 kB a sample; what remains is the
        # clipped copy of the inputs (24 bytes a sample)
        B = gamut._FIT_BLOCK
        rng = np.random.default_rng(3)
        peaks = []
        for n in (4 * B, 8 * B):
            v = rng.uniform(0.0, 1.0, size=(n, 3))
            tracemalloc.start()
            try:
                fit_lattice(v, v, resolution=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (4 * B) <= 32

    def test_rejects_empty_and_mismatched_input(self):
        with pytest.raises(ValueError):
            fit_lattice(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            fit_lattice(np.zeros((3, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("inputs, targets, name", [
        (np.zeros((3, 3)), np.zeros((9, 1)), "targets"),
        (np.zeros(9), np.zeros((3, 3)), "inputs"),
    ])
    def test_rejects_shapes_other_than_rows(self, inputs, targets, name):
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            fit_lattice(inputs, targets)

    @pytest.mark.parametrize("name, value, match", [
        ("inputs", np.nan, r"inputs row 7 is NaN"),
        ("targets", np.nan, r"targets row 7 is not finite"),
        ("targets", np.inf, r"targets row 7 is not finite"),
    ])
    def test_rejects_bad_row_naming_it(self, name, value, match):
        rng = np.random.default_rng(12)
        data = {"inputs": rng.uniform(0.0, 1.0, size=(10, 3)),
                "targets": rng.uniform(0.0, 1.0, size=(10, 3))}
        data[name][7, 1] = value
        with pytest.raises(ValueError, match=match):
            fit_lattice(data["inputs"], data["targets"])

    @pytest.mark.parametrize("resolution", [1, 0, -2, 2.5, True, "5", np.nan])
    def test_rejects_resolution_below_two_or_fractional(self, resolution):
        with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
            fit_lattice(np.full((4, 3), 0.5), np.full((4, 3), 0.5), resolution)

    @pytest.mark.parametrize("regularization", [0.0, -1e-3, np.nan, np.inf, "x", True, None])
    def test_rejects_regularization_not_finite_and_positive(self, regularization):
        with pytest.raises(ValueError,
                           match=r"regularization must be finite and > 0, got "
                                 + re.escape(repr(regularization))):
            fit_lattice(np.full((4, 3), 0.5), np.full((4, 3), 0.5), 5, regularization)
