"""A minimal dense solver for strictly convex quadratic programs.

Solves ``minimize 0.5 x'Qx + c'x subject to Ax <= b`` for a positive
definite Q with the dual active-set method of Goldfarb and Idnani
(*Math. Programming* 27, 1983). It starts at the unconstrained minimum
and takes the most violated row: a full step makes that row active, a
partial step first drops the active row whose multiplier reaches 0.
Every iterate keeps its multipliers >= 0 (it is dual feasible), so it is
optimal as soon as no row is violated. The active rows stay
linearly independent: a violated row that depends on them is only ever
taken after dropping rows, and when none can drop the program is
infeasible. Problems here are tiny (n <= ~24), so each step factors the
active rows afresh. Results are deterministic for fixed inputs: ties
keep the lowest row index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, MaxIterations
from .model import _as_float_array, _check_finite, _check_type

DEFAULT_TOL = 1e-8
_SYMMETRY_TOL = 1e-10
# A row counts as dependent on the active rows when less than this share
# of J'a, its normal in the metric of Q, lies outside their span: a full
# step onto it would be over 1e12 times its distance in that metric.
_DEPENDENT = 1e-12


@dataclass(frozen=True, eq=False)
class QuadProgram:
    """Data of one program: 0.5 x'Qx + c'x s.t. Ax <= b, Q positive definite."""

    q: np.ndarray
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        # shapes first, so that each shape rule keeps its own message
        n = np.size(self.c)
        if np.ndim(self.c) != 1 or n == 0:
            raise ValueError(f"a program needs at least one variable: c must be a "
                             f"non-empty vector, got shape {np.shape(self.c)}")
        if np.shape(self.q) != (n, n):
            raise ValueError(f"Q must be ({n}, {n}), got {np.shape(self.q)}")
        # an empty A means no constraints
        a = self.a if np.size(self.a) else np.zeros((0, n))
        if np.ndim(a) != 2 or np.shape(a)[1] != n:
            raise ValueError(f"A must be (m, {n}), got {np.shape(a)}")
        m = np.shape(a)[0]
        if np.size(self.b) != m:
            raise ValueError("A and b disagree on the constraint count")
        q = _as_float_array(self.q, (n, n), "Q")
        c = _as_float_array(self.c, (n,), "c")
        a = _as_float_array(a, (m, n), "A")
        b = _as_float_array(np.reshape(self.b, -1), (m,), "b")
        scale = np.abs(q).max()
        if scale > 0 and np.abs(q - q.T).max() > _SYMMETRY_TOL * scale:
            raise ValueError("Q is not symmetric")
        q = 0.5 * (q + q.T)
        try:
            np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            raise ValueError("Q is not positive definite") from None
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.q @ x + self.c @ x)


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Solver output: the point, its multipliers, and KKT diagnostics."""

    x: np.ndarray
    multipliers: np.ndarray
    iterations: int
    stationarity: float
    max_violation: float
    complementarity: float


def kkt_residuals(prob: QuadProgram, x: np.ndarray, lam: np.ndarray):
    """(stationarity, max violation, complementarity gap) at (x, lam)."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    grad = prob.q @ x + prob.c
    if prob.m:
        grad = grad + prob.a.T @ lam
        slack = prob.a @ x - prob.b
        violation = float(max(0.0, slack.max()))
        comp = float(np.abs(lam * slack).max())
    else:
        violation = 0.0
        comp = 0.0
    stationarity = float(np.abs(grad).max())
    return stationarity, violation, comp


def solve_qp(prob: QuadProgram, tol: float = DEFAULT_TOL) -> QpSolution:
    """Solve the program until no row is violated by more than
    ``tol * max(1, max|b|)``.

    Raises ``Infeasible`` when a violated row depends on the active rows
    and no active multiplier can drop, which proves that no point
    satisfies them all, and ``MaxIterations`` after 50 (n + m) steps.
    ``tol`` must be finite and > 0, or ValueError names it.
    """
    _check_type(prob, QuadProgram, "prob")
    _check_finite(tol, "tol", True)
    a, b = prob.a, prob.b
    # J J' = Q^-1; the active rows are factored as J'A_active' = QR
    j = np.linalg.inv(np.linalg.cholesky(prob.q)).T
    x = -(j @ (j.T @ prob.c))
    lam = np.zeros(prob.m)
    active: list[int] = []
    bound = tol * max(1.0, float(np.abs(b).max(initial=0.0)))
    adding = -1  # the violated row being made active
    for iteration in range(1, 50 * (prob.n + prob.m) + 1):
        if adding < 0:
            violation = a @ x - b
            if not prob.m or violation.max() <= bound:
                x.setflags(write=False)
                lam.setflags(write=False)
                return QpSolution(x, lam, iteration, *kkt_residuals(prob, x, lam))
            adding = int(np.argmax(violation))
            if adding in active:
                # rounding moved an active row past the bound: take it
                # again, starting from the multiplier it has
                active.remove(adding)

        k = len(active)
        if k:
            basis, upper = np.linalg.qr(j.T @ a[active].T, mode="complete")
            jq = j @ basis
        else:
            upper, jq = np.zeros((0, 0)), j
        d = jq.T @ a[adding]
        r = np.linalg.solve(upper[:k], d[:k])  # change of active multipliers
        step = -(jq[:, k:] @ d[k:])            # moves row `adding` inward
        dependent = np.linalg.norm(d[k:]) <= _DEPENDENT * np.linalg.norm(d)

        partial, drop = np.inf, -1
        for idx in np.flatnonzero(r > 0):
            ratio = lam[active[idx]] / r[idx]
            if ratio < partial:
                partial, drop = ratio, idx
        full = np.inf if dependent else (a[adding] @ x - b[adding]) / (d[k:] @ d[k:])
        if drop < 0 and dependent:
            raise Infeasible(
                f"row {adding} is violated by {a[adding] @ x - b[adding]:.3e}, depends "
                f"on the {k} active rows, and no active multiplier can drop"
            )

        t = min(partial, full)
        if not dependent:
            x = x + t * step
        lam[active] -= t * r
        lam[adding] += t
        if full <= partial:
            active.append(adding)
            adding = -1
        else:
            lam[active[drop]] = 0.0
            del active[drop]

    raise MaxIterations(f"dual active-set method exceeded {iteration} iterations")

