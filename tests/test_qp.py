"""Tests for the dense dual active-set QP kernel."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcal.errors import Infeasible
from rankcal.qp import QuadProgram, kkt_residuals, solve_qp
from rankcal.tonefit import curvature_matrix

TOL = 1e-8


def dual_projected_gradient(q, c, a, b, iters=200_000):
    """Independent reference: accelerated projected gradient on the dual.

    The dual feasible set is the non-negative orthant, so the projection
    is a clip at zero. Needs Q positive definite. Returns the primal point
    reconstructed from the final multipliers.
    """
    qinv = np.linalg.inv(q)
    h = a @ qinv @ a.T
    step = 1.0 / (np.linalg.eigvalsh(h).max() + 1e-12)
    lam = np.zeros(len(b))
    y = lam.copy()
    t = 1.0
    for _ in range(iters):
        x = -qinv @ (c + a.T @ y)
        lam_next = np.maximum(0.0, y + step * (a @ x - b))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = lam_next + ((t - 1.0) / t_next) * (lam_next - lam)
        lam, t = lam_next, t_next
    x = -qinv @ (c + a.T @ lam)
    return x, lam


def random_program(rng, n=None, m=None):
    """A strictly feasible random program with a PD Hessian."""
    n = int(n if n is not None else rng.integers(2, 11))
    m = int(m if m is not None else rng.integers(1, 21))
    bmat = rng.normal(size=(n, n))
    q = bmat @ bmat.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    x_feas = 0.5 * rng.normal(size=n)
    b = a @ x_feas + np.abs(rng.normal(size=m)) + 0.01
    return QuadProgram(q, c, a, b), x_feas


def test_coordinate_projection():
    # minimize ||x - (2, -1)||^2 subject to x >= 0
    prob = QuadProgram(
        q=2.0 * np.eye(2),
        c=np.array([-4.0, 2.0]),
        a=-np.eye(2),
        b=np.zeros(2),
    )
    sol = solve_qp(prob, TOL)
    assert np.allclose(sol.x, [2.0, 0.0], atol=1e-9)


def test_unconstrained_minimum():
    prob = QuadProgram(
        q=2.0 * np.eye(2),
        c=np.array([-2.0, -4.0]),
        a=np.zeros((0, 2)),
        b=np.zeros(0),
    )
    sol = solve_qp(prob, TOL)
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-10)


def test_random_program_matches_projected_gradient_oracle():
    rng = np.random.default_rng(42)
    prob, _ = random_program(rng, n=6, m=10)
    sol = solve_qp(prob, TOL)
    x_ref, _ = dual_projected_gradient(prob.q, prob.c, prob.a, prob.b)
    assert abs(prob.objective(sol.x) - prob.objective(x_ref)) <= 1e-5


@pytest.mark.parametrize("seed", range(12))
def test_kkt_conditions_hold(seed):
    rng = np.random.default_rng(1000 + seed)
    prob, _ = random_program(rng)
    sol = solve_qp(prob, TOL)
    assert sol.max_violation <= TOL
    assert sol.multipliers.min(initial=0.0) >= -TOL
    stationarity, violation, comp = kkt_residuals(prob, sol.x, sol.multipliers)
    assert stationarity <= TOL
    assert violation <= TOL
    assert comp <= TOL


def test_solution_beats_random_feasible_points():
    rng = np.random.default_rng(7)
    prob, x_feas = random_program(rng, n=5, m=12)
    sol = solve_qp(prob, TOL)
    best = prob.objective(sol.x)
    count = 0
    while count < 1000:
        theta = rng.uniform(0.0, 1.0)
        cand = theta * x_feas + (1 - theta) * sol.x + 0.3 * rng.normal(size=prob.n)
        if (prob.a @ cand - prob.b).max() <= 0.0:
            assert prob.objective(cand) >= best - 1e-9
            count += 1


def test_infeasible_program_detected():
    # x <= -1 and -x <= -1 cannot both hold
    prob = QuadProgram(
        q=np.eye(1),
        c=np.zeros(1),
        a=np.array([[1.0], [-1.0]]),
        b=np.array([-1.0, -1.0]),
    )
    with pytest.raises(Infeasible):
        solve_qp(prob, TOL)


def test_deterministic_for_fixed_inputs():
    rng = np.random.default_rng(5)
    prob, _ = random_program(rng, n=4, m=8)
    a = solve_qp(prob, TOL)
    b = solve_qp(prob, TOL)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.multipliers.tobytes() == b.multipliers.tobytes()


def test_singular_hessian_handled():
    # a singular Q is refused: every program must be strictly convex
    with pytest.raises(ValueError, match="positive definite"):
        QuadProgram(
            q=np.array([[2.0, 0.0], [0.0, 0.0]]),
            c=np.array([-2.0, -1.0]),
            a=np.vstack([np.eye(2), -np.eye(2)]),
            b=np.array([5.0, 5.0, 5.0, 5.0]),
        )


def test_rejects_asymmetric_q():
    with pytest.raises(ValueError):
        QuadProgram(
            q=np.array([[1.0, 0.5], [0.0, 1.0]]),
            c=np.zeros(2),
            a=np.zeros((0, 2)),
            b=np.zeros(0),
        )


def test_rejects_indefinite_q():
    with pytest.raises(ValueError, match="positive definite"):
        QuadProgram(
            q=np.array([[1.0, 0.0], [0.0, -1.0]]),
            c=np.zeros(2),
            a=np.zeros((0, 2)),
            b=np.zeros(0),
        )


@pytest.mark.parametrize("a", [np.arange(12.0).reshape(3, 4), np.ones(2), np.ones((1, 2, 2))])
def test_rejects_constraints_of_the_wrong_shape(a):
    # a (3, 4) A holds 12 values, which would read as 6 rows of 2
    with pytest.raises(ValueError, match=re.escape(f"A must be (m, 2), got {a.shape}")):
        QuadProgram(np.eye(2), np.zeros(2), a, np.ones(a.size // 2))


@pytest.mark.parametrize("q", [np.eye(3), np.ones(4), np.eye(2)[:1]])
def test_rejects_q_of_the_wrong_shape(q):
    with pytest.raises(ValueError, match=re.escape(f"Q must be (2, 2), got {q.shape}")):
        QuadProgram(q, np.zeros(2), np.ones((1, 2)), np.ones(1))


@pytest.mark.parametrize("b", [np.ones(2), np.zeros(0)])
def test_rejects_b_of_another_length(b):
    with pytest.raises(ValueError, match="A and b disagree on the constraint count"):
        QuadProgram(np.eye(2), np.zeros(2), np.ones((1, 2)), b)


@pytest.mark.parametrize("a", [np.zeros(0), np.zeros((0, 2)), np.zeros((0, 0))])
def test_empty_constraints_mean_none(a):
    prob = QuadProgram(2.0 * np.eye(2), np.array([-2.0, -4.0]), a, np.zeros(0))
    assert prob.a.shape == (0, 2) and prob.m == 0
    assert np.allclose(solve_qp(prob, TOL).x, [1.0, 2.0])


@pytest.mark.parametrize("c", [np.zeros(0), 1.0, np.zeros((2, 1))])
def test_rejects_program_without_a_vector_of_variables(c):
    n = np.size(c)
    with pytest.raises(ValueError, match="at least one variable"):
        QuadProgram(np.eye(n), c, np.zeros((0, n)), np.zeros(0))


def derivative_grid_program(seed):
    """A tone fit with the derivative constrained on 257 uniform points.

    The data are those of acceptance criterion 7 for ``seed`` (kind 3,
    sin(6x) + 0.5x). On these seeds an active set that lets rows
    dependent on its working set block a step drifts far off the
    feasible set (violations of 1e3 to 3e71).
    """
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(9, 300))
    x = rng.uniform(0.0, 1.0, n)
    if np.ptp(x) < 0.25:
        x = np.linspace(0.0, 1.0, n)
    y = np.sin(6 * x) + 0.5 * x
    v = np.vander(x, 8, increasing=True)
    t = np.linspace(0.0, 1.0, 257)
    deriv = np.zeros((t.size, 8))
    for j in range(1, 8):
        deriv[:, j] = j * t ** (j - 1)
    return QuadProgram(q=2.0 * (v.T @ v + 1e-5 * curvature_matrix(7)),
                       c=-2.0 * (v.T @ y), a=-deriv, b=np.zeros(t.size))


@pytest.mark.parametrize("seed", [27, 47, 63, 87, 483])
def test_never_returns_a_point_off_the_constraints(seed):
    prob = derivative_grid_program(seed)
    sol = solve_qp(prob, TOL)
    assert np.all(np.isfinite(sol.x))
    assert sol.max_violation <= TOL
    assert sol.multipliers.min() >= -TOL
    assert sol.stationarity <= 1e-8


def scaled_kkt_residual(prob, sol):
    """The largest KKT residual, each relative to the size of its terms."""
    x, lam = sol.x, sol.multipliers
    grad_scale = max(1.0, np.abs(prob.q).max() * np.abs(x).max(), np.abs(prob.c).max(),
                     (np.abs(prob.a).T @ np.abs(lam)).max())
    row_scale = max(1.0, np.abs(prob.b).max(), (np.abs(prob.a) @ np.abs(x)).max())
    lam_scale = max(1.0, lam.max())
    return max(sol.stationarity / grad_scale,
               sol.complementarity / (row_scale * lam_scale),
               -lam.min() / lam_scale)


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["plain", "multiples", "span", "tight"]))
def test_feasible_degenerate_programs_solve_and_contradictions_raise(seed, kind):
    # Q = BB' + 10^U(-6, 0) I; the rows are plain, extended with positive
    # multiples of half of them or with rows in the span of the first
    # three, and are tight at x_feas for half of them (all for "tight")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    bmat = rng.normal(size=(n, n))
    q = bmat @ bmat.T + 10.0 ** rng.uniform(-6.0, 0.0) * np.eye(n)
    c = rng.normal(size=n)
    a = rng.normal(size=(int(rng.integers(1, 21)), n))
    if kind == "multiples":
        half = a[:max(1, len(a) // 2)]
        a = np.vstack([a, rng.uniform(0.1, 3.0, size=(len(half), 1)) * half])
    elif kind == "span":
        a = np.vstack([a, rng.normal(size=(int(rng.integers(1, 20)), len(a[:3]))) @ a[:3]])
    a = a[:39]
    x_feas = rng.normal(size=n)
    slack = np.abs(rng.normal(size=len(a)))
    slack[(rng.random(len(a)) < 0.5) | (kind == "tight")] = 0.0
    b = a @ x_feas + slack

    prob = QuadProgram(q, c, a, b)
    sol = solve_qp(prob, TOL)
    assert sol.max_violation <= TOL * max(1.0, np.abs(b).max())
    assert scaled_kkt_residual(prob, sol) <= 1e-8

    # row @ x <= v - 1 and row @ x >= v + 1 cannot both hold
    row = rng.normal(size=n)
    v = row @ x_feas
    with pytest.raises(Infeasible):
        solve_qp(QuadProgram(q, c, np.vstack([a, row, -row]),
                             np.concatenate([b, [v - 1.0, -v - 1.0]])), TOL)
