"""Tests for monotone polynomial tone-curve fitting."""

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankcal import tonefit
from rankcal.errors import DegenerateSpan, InsufficientData
from rankcal.model import ColorMatrix, PixelPairSet
from rankcal.qp import QuadProgram, solve_qp
from rankcal.tonefit import (
    TONE_DEGREE,
    TONE_SMOOTHNESS,
    _rise_rows,
    curvature_matrix,
    fit_forward_tones,
    fit_inverse_tones,
    fit_monotone,
)

DENSE = np.linspace(0.0, 1.0, 2001)
WINDOW = (DENSE >= 0.05) & (DENSE <= 0.95)


def rms(a):
    return float(np.sqrt(np.mean(np.square(a))))


class TestFitMonotone:
    def test_identity_data_recovers_identity(self):
        x = np.linspace(0.0, 1.0, 257)
        curve = fit_monotone(x, x)
        assert np.abs(curve(DENSE) - DENSE).max() <= 1e-3

    def test_gamma_data_residual_under_two_thousandths(self):
        x = np.linspace(0.02, 0.98, 140)
        y = x ** (1 / 2.2)
        curve = fit_monotone(x, y)
        assert rms(curve(x) - y) <= 2e-3
        assert rms(curve(DENSE[WINDOW]) - DENSE[WINDOW] ** (1 / 2.2)) <= 2e-3

    def test_decreasing_data_yields_monotone_near_constant_fit(self):
        x = np.linspace(0.0, 1.0, 101)
        curve = fit_monotone(x, 1.0 - x)
        assert np.all(curve.derivative(DENSE) >= -1e-8)
        # the monotone cone projection of decreasing data hugs the mean
        assert np.abs(curve(DENSE) - 0.5).max() <= 0.05

    @pytest.mark.parametrize("x, y, message", [
        (np.linspace(0, 1, 20), np.linspace(0, 1, 19), "x and y must have equal length"),
        (np.append(np.linspace(0, 1, 19), np.nan), np.linspace(0, 1, 20),
         "samples must be finite"),
        (np.linspace(0, 1, 20), np.append(np.linspace(0, 1, 19), np.inf),
         "samples must be finite"),
        (np.linspace(0, 1.1, 20), np.linspace(0, 1, 20), r"x samples must lie in \[0, 1\]"),
        (np.linspace(-0.1, 1, 20), np.linspace(0, 1, 20), r"x samples must lie in \[0, 1\]"),
    ])
    def test_bad_samples_named(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            fit_monotone(x, y)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientData):
            fit_monotone(np.linspace(0, 1, 7), np.zeros(7))

    def test_clustered_samples(self):
        x = np.full(50, 0.5) + np.linspace(0, 0.01, 50)
        with pytest.raises(DegenerateSpan):
            fit_monotone(x, x)

    def test_objective_not_worse_than_projected_least_squares(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 1.0, 120))
        y = np.clip(x ** 0.7 + rng.normal(0.0, 0.05, 120), 0.0, 1.0)
        curve = fit_monotone(x, y)

        v = np.vander(x, TONE_DEGREE + 1, increasing=True)
        s = curvature_matrix(TONE_DEGREE)

        def objective(coef):
            r = v @ coef - y
            return float(r @ r + TONE_SMOOTHNESS * coef @ s @ coef)

        ls = np.linalg.lstsq(v, y, rcond=None)[0]
        # the derivative grid the fit was once constrained on
        grid = np.linspace(0.0, 1.0, 257)
        deriv = np.zeros((grid.size, TONE_DEGREE + 1))
        for j in range(1, TONE_DEGREE + 1):
            deriv[:, j] = j * grid ** (j - 1)
        projected = solve_qp(
            QuadProgram(q=2 * np.eye(TONE_DEGREE + 1), c=-2 * ls,
                        a=-deriv, b=np.zeros(grid.size)),
            1e-8,
        ).x
        assert objective(curve.coefficients) <= objective(projected) + 1e-9

    def test_large_smoothness_forces_affine(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0.0, 1.0, 200))
        y = x ** (1 / 2.2)
        monkeypatch.setattr(tonefit, "TONE_SMOOTHNESS", 1e3)
        curve = fit_monotone(x, y)
        values = curve(DENSE)
        design = np.column_stack([np.ones_like(DENSE), DENSE])
        affine = design @ np.linalg.lstsq(design, values, rcond=None)[0]
        assert np.abs(values - affine).max() <= 1e-4

    @pytest.mark.parametrize("seed", range(50))
    def test_randomized_fits_always_monotone(self, seed):
        # ToneCurve construction enforces the 1024-point grid; reaching
        # here means the fit passed it, including on decreasing data
        rng = np.random.default_rng(seed)
        n = int(rng.integers(9, 200))
        x = rng.uniform(0.0, 1.0, n)
        if np.ptp(x) < 0.25:
            x = np.linspace(0.0, 1.0, n)
        kind = seed % 3
        if kind == 0:
            y = rng.normal(0.0, 1.0, n)
        elif kind == 1:
            y = 1.0 - x + rng.normal(0.0, 0.1, n)
        else:
            y = x ** rng.uniform(0.3, 3.0) + rng.normal(0.0, 0.02, n)
        curve = fit_monotone(x, y)
        deltas = np.diff(curve(np.linspace(0.0, 1.0, 1024)))
        assert deltas.min() >= -1e-9

    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-1e3, 1e3)),
        min_size=8, max_size=80,
    ))
    def test_one_solve_and_non_decreasing_bernstein_coefficients(self, data):
        x, y = (np.array(col) for col in zip(*data))
        assume(np.ptp(x) >= 0.2)
        with mock.patch.object(tonefit, "solve_qp", wraps=tonefit.solve_qp) as solve:
            curve = fit_monotone(x, y)
        assert solve.call_count == 1
        assert (_rise_rows(7) @ curve.coefficients).min() >= -1e-9

    def test_constant_fit_with_every_rise_active(self):
        # at the optimum all 16 rises vanish, but only 7 rows are
        # independent; the active set must not stack dependent rows
        x = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.3125])
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0])
        curve = fit_monotone(x, y)
        assert np.abs(curve(DENSE) - 0.625).max() <= 1e-6

    def test_rises_are_those_of_the_bernstein_coefficients(self):
        # sum_k b_k C(16, k) t^k (1 - t)^(16 - k) reproduces the curve
        # when b_0 = a_0 and b_k - b_(k-1) are the rises
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 1.0, 101)
        basis = np.array([math.comb(16, k) * t ** k * (1.0 - t) ** (16 - k)
                          for k in range(17)])
        for _ in range(20):
            coef = rng.normal(size=8)
            bern = coef[0] + np.concatenate([[0.0], np.cumsum(_rise_rows(7) @ coef)])
            assert np.allclose(bern @ basis,
                               np.polynomial.polynomial.polyval(t, coef), atol=1e-12)


class TestChannelFits:
    def test_true_matrix_recovers_true_gamma(self, clean_bundle):
        camera = clean_bundle["camera"]
        curves = fit_forward_tones(camera.matrix, clean_bundle["corpus"])
        t = DENSE[WINDOW]
        for curve in curves:
            assert rms(curve(t) - t ** (1 / 2.2)) <= 5e-3

    def test_identity_relation_fits_identity(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.0, 1.0, size=(200, 3))
        pairs = PixelPairSet.from_arrays(raw, raw)
        curves = fit_forward_tones(ColorMatrix.identity(), pairs)
        for curve in curves:
            assert np.abs(curve(DENSE) - DENSE).max() <= 1e-3

    def test_140_patch_fit_is_fast(self, clean_bundle):
        t0 = time.perf_counter()
        fit_forward_tones(clean_bundle["camera"].matrix, clean_bundle["corpus"])
        assert time.perf_counter() - t0 < 1.0

    def test_inverse_composes_with_forward(self, clean_bundle):
        camera = clean_bundle["camera"]
        fwd = fit_forward_tones(camera.matrix, clean_bundle["corpus"])
        inv = fit_inverse_tones(camera.matrix, clean_bundle["corpus"])
        t = DENSE[WINDOW]
        for f, g in zip(fwd, inv):
            assert np.abs(g(np.clip(f(t), 0.0, 1.0)) - t).max() <= 1e-2

    def test_inverse_of_identity_camera_is_identity(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0.0, 1.0, size=(200, 3))
        pairs = PixelPairSet.from_arrays(raw, raw)
        curves = fit_inverse_tones(ColorMatrix.identity(), pairs)
        for curve in curves:
            assert np.abs(curve(DENSE) - DENSE).max() <= 1e-3

    def test_inverse_recovers_gamma_power(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.0, 1.0, size=(300, 3))
        rendered = raw ** (1 / 2.2)
        pairs = PixelPairSet.from_arrays(raw, rendered)
        curves = fit_inverse_tones(ColorMatrix.identity(), pairs)
        t = DENSE[WINDOW]
        for curve in curves:
            assert rms(curve(t) - t ** 2.2) <= 5e-3
