"""Monotone, smoothness-regularized polynomial tone-curve fitting.

A degree-7 polynomial in the power basis is fitted to (x, y) samples by
minimizing squared error plus a curvature penalty. The curvature integral
over [0, 1] is a closed-form quadratic in the coefficients, so the whole
fit is one quadratic program. Its linear constraints keep the
polynomial's degree-16 Bernstein coefficients non-decreasing, which makes
the curve non-decreasing on all of [0, 1] by construction, not only on a
grid (Lorentz, *Bernstein Polynomials*).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpan, InsufficientData
from .model import ColorMatrix, PixelPairSet, ToneCurve, _check_type, _real_array
from .qp import QuadProgram, solve_qp

# Polynomial degree and curvature weight of every tone curve. The weight
# must stay > 0, so that every tone program is strictly convex.
TONE_DEGREE = 7
TONE_SMOOTHNESS = 1e-5

# Every Bernstein rise ends at >= -_QP_TOL (b = 0), so the coefficients
# are non-decreasing to 1e-9 with room for rounding; at 1e-8 a fit
# ended with a rise of -1.1e-9.
_QP_TOL = 1e-10
_MIN_SPAN = 0.2
# Bernstein degree of the monotonicity constraint. Non-decreasing
# coefficients of any degree are sufficient, and the higher the degree
# the less they exclude: at the curve's own degree 7, gamma-1/2.2
# recovery is 1.1e-3 RMS; degrees 12 to 24 all give 6.7e-4.
_RISE_DEGREE = 16


def curvature_matrix(degree: int) -> np.ndarray:
    """S with a' S a = integral of f''(t)^2 dt over [0, 1]."""
    s = np.zeros((degree + 1, degree + 1))
    for j in range(2, degree + 1):
        for k in range(2, degree + 1):
            s[j, k] = j * (j - 1) * k * (k - 1) / (j + k - 3)
    return s


def _power_basis(x: np.ndarray, degree: int) -> np.ndarray:
    return np.vander(x, degree + 1, increasing=True)


def _rise_rows(degree: int) -> np.ndarray:
    """Rows r with r @ a the rises of the Bernstein coefficients of a.

    ``a`` holds power-basis coefficients; B[k, j] = C(k, j) / C(n, j)
    converts them to the n + 1 Bernstein coefficients of degree
    n = max(_RISE_DEGREE, degree). A polynomial whose Bernstein
    coefficients do not decrease is non-decreasing on [0, 1].
    """
    n = max(_RISE_DEGREE, degree)
    b = np.array([[math.comb(k, j) / math.comb(n, j) for j in range(degree + 1)]
                  for k in range(n + 1)])
    return b[1:] - b[:-1]


def fit_monotone(x, y) -> ToneCurve:
    """Fit one monotone tone curve to samples with x in [0, 1].

    The curve is non-decreasing on all of [0, 1]. Raises InsufficientData
    with fewer than TONE_DEGREE + 1 samples and DegenerateSpan when the x
    values cover less than 0.2 of [0, 1].
    """
    # views, not copies: a copy of a strided y would change the order of
    # the sums in v.T @ y, and so the last digits of the coefficients
    x = _real_array(x, "x").astype(float, copy=False).reshape(-1)
    y = _real_array(y, "y").astype(float, copy=False).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    if x.size < TONE_DEGREE + 1:
        raise InsufficientData(
            f"need at least {TONE_DEGREE + 1} samples, have {x.size}"
        )
    if x.min() < -1e-9 or x.max() > 1.0 + 1e-9:
        raise ValueError("x samples must lie in [0, 1]")
    if np.ptp(x) < _MIN_SPAN:
        raise DegenerateSpan(
            f"x samples span {np.ptp(x):.3f} of [0, 1]; need {_MIN_SPAN}"
        )
    x = np.clip(x, 0.0, 1.0)

    v = _power_basis(x, TONE_DEGREE)
    q = 2.0 * (v.T @ v + TONE_SMOOTHNESS * curvature_matrix(TONE_DEGREE))
    c = -2.0 * (v.T @ y)
    rises = _rise_rows(TONE_DEGREE)
    prob = QuadProgram(q=q, c=c, a=-rises, b=np.zeros(rises.shape[0]))
    coef = solve_qp(prob, _QP_TOL).x
    return ToneCurve(coef)


def _forward_samples(m: ColorMatrix, pairs: PixelPairSet, channel: int):
    pool = pairs.unsaturated()
    x = np.clip(pool.raw @ m.rows[channel - 1], 0.0, 1.0)
    y = pool.rendered[:, channel - 1]
    return x, y


def fit_forward_tones(m: ColorMatrix, pairs: PixelPairSet):
    """Per-channel curves mapping colour-corrected raw to rendered."""
    _check_type(m, ColorMatrix, "m")
    _check_type(pairs, PixelPairSet, "pairs")
    return tuple(fit_monotone(*_forward_samples(m, pairs, ch)) for ch in (1, 2, 3))


def fit_inverse_tones(m: ColorMatrix, pairs: PixelPairSet):
    """Per-channel curves mapping rendered back to colour-corrected raw."""
    _check_type(m, ColorMatrix, "m")
    _check_type(pairs, PixelPairSet, "pairs")
    pool = pairs.unsaturated()
    return tuple(fit_monotone(pool.rendered[:, ch - 1], pool.raw @ m.rows[ch - 1])
                 for ch in (1, 2, 3))
