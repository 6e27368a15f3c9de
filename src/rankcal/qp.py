"""A minimal dense convex quadratic programming kernel.

Solves ``minimize 0.5 x'Qx + c'x subject to Ax <= b`` with a primal
active-set method. Problems here are tiny (n <= ~24), so every
equality-constrained subproblem is solved through its dense KKT system.
Results are deterministic for fixed inputs: ties in the ratio test keep
the lowest constraint index, the most negative multiplier is dropped
first, and a singular reduced Hessian is handled by a fixed 1e-10
diagonal lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, MaxIterations

DEFAULT_TOL = 1e-8
_LIFT = 1e-10
_SYMMETRY_TOL = 1e-10
_EIG_TOL = 1e-8
_DEGENERACY_SHIFT = 1e-10
_SPAN_TOL = 1e-10


@dataclass(frozen=True)
class QuadProgram:
    """Data of one program: 0.5 x'Qx + c'x s.t. Ax <= b."""

    q: np.ndarray
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        c = np.asarray(self.c, dtype=float)
        n = c.shape[0]
        if q.shape != (n, n):
            raise ValueError(f"Q must be ({n}, {n}), got {q.shape}")
        a = np.asarray(self.a, dtype=float).reshape(-1, n)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise ValueError("A and b disagree on the constraint count")
        for name, arr in (("Q", q), ("c", c), ("A", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        scale = np.abs(q).max() if q.size else 0.0
        if scale > 0 and np.abs(q - q.T).max() > _SYMMETRY_TOL * scale:
            raise ValueError("Q is not symmetric")
        q = 0.5 * (q + q.T)
        if n and np.linalg.eigvalsh(q).min() < -_EIG_TOL * max(scale, 1e-300):
            raise ValueError("Q is not positive semidefinite")
        for arr in (q, c, a, b):
            arr.setflags(write=False)
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


@dataclass(frozen=True)
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
    stationarity = float(np.abs(grad).max()) if prob.n else 0.0
    return stationarity, violation, comp


def _solve_eqp_step(q, g, a_active, r_active):
    """Step and multipliers for the working-set subproblem.

    Solves the KKT system of: minimize 0.5 p'Qp + g'p subject to
    a_active @ p = r_active, where g is the objective gradient at the
    current point and r_active the (tiny) residual that re-centres the
    point onto the working boundaries. Falls back to a lifted Hessian
    and then to a least-squares solve when the system is singular (a
    flat Q on the active manifold).
    """
    k = a_active.shape[0]
    n = g.shape[0]
    rhs = np.concatenate([-g, r_active])
    scale = max(1.0, float(np.abs(rhs).max()), float(np.abs(q).max()))

    def assemble(qmat):
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = qmat
        if k:
            kkt[:n, n:] = a_active.T
            kkt[n:, :n] = a_active
        return kkt

    def attempt(qmat):
        kkt = assemble(qmat)
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.abs(kkt @ sol - rhs).max()
        if not residual <= 1e-7 * scale * max(1.0, np.abs(sol).max()):
            return None
        return sol

    sol = attempt(q)
    if sol is None:
        sol = attempt(q + _LIFT * np.eye(n))
    if sol is None:
        sol = np.linalg.lstsq(assemble(q + _LIFT * np.eye(n)), rhs, rcond=None)[0]
    return sol[:n], sol[n:]


def _in_span(rows, row) -> bool:
    """Whether ``row`` is a linear combination of ``rows``."""
    coef = np.linalg.lstsq(rows.T, row, rcond=None)[0]
    return bool(np.abs(rows.T @ coef - row).max() <= _SPAN_TOL * np.abs(row).max())


def _active_set(q, c, a, b, x0, tol, max_iter):
    """Primal active-set loop from a feasible start. Returns (x, lam, iters).

    Steps stay in the null space of the working rows (with a tiny
    recentering correction), so membership on working boundaries is
    preserved. A row in the span of the working rows moves only with
    that correction, so it never blocks a step: the working set stays
    linearly independent, even where many rows are active at once, as
    at a constant tone curve. The multiplier test runs
    exactly when a full step lands on the working set's own minimizer,
    using that same solve's multipliers; nothing depends on re-detecting
    a vanishing step, which ill-conditioned Hessians never deliver.
    """
    n = c.shape[0]
    m = b.shape[0]
    x = np.array(x0, dtype=float)
    working: list[int] = []
    in_working = np.zeros(m, dtype=bool)
    # Constraints whose drop produced no movement at the current point:
    # their computed multiplier sign is numerical noise, so they are not
    # dropped again until the iterate actually moves.
    banned: set[int] = set()
    pending_drop = -1
    # Objective-progress stall detector: steps only ever decrease this
    # convex objective, so sustained working-set churn with no decrease
    # at all means the iterate cannot be improved in float64; the point
    # is returned with its (noisy) multiplier certificate.
    best_objective = np.inf
    stalled = 0
    stall_limit = 50 + 10 * n

    for iteration in range(1, max_iter + 1):
        objective = float(0.5 * x @ q @ x + c @ x)
        if objective < best_objective:
            best_objective = objective
            stalled = 0
        else:
            stalled += 1
        g = q @ x + c
        a_active = a[working] if working else np.zeros((0, n))
        r_active = (b[working] - a_active @ x) if working else np.zeros(0)
        p, lam_w = _solve_eqp_step(q, g, a_active, r_active)

        if stalled > stall_limit:
            lam = np.zeros(m)
            for idx, j in enumerate(working):
                lam[j] = lam_w[idx]
            return x, lam, iteration

        x_scale = max(1.0, np.abs(x).max(initial=0.0))
        wedged = not np.all(np.isfinite(p)) or np.abs(p).max(initial=0.0) > 1e13 * x_scale
        if wedged:
            if not working:
                raise MaxIterations(
                    "subproblem produced no usable step from an empty working set"
                )
            # numerically inconsistent working set; restart it from the
            # current (feasible) point
            working.clear()
            in_working[:] = False
            banned.clear()
            pending_drop = -1
            continue

        tiny_step = np.abs(p).max(initial=0.0) <= 1e-13 * x_scale
        alpha = 1.0
        blocking = -1
        if m and not tiny_step:
            step = a @ p
            slack = b - a @ x
            d_floor = 1e-13 * max(1.0, float(np.abs(step).max()))
            ratios = np.full(m, np.inf)
            movable = ~in_working & (step > d_floor)
            ratios[movable] = np.maximum(slack[movable], 0.0) / step[movable]
            while True:
                best = int(np.argmin(ratios))
                if not ratios[best] < alpha - 1e-15:
                    break
                if working and _in_span(a[working], a[best]):
                    # such a row moves only with the re-centring; adding
                    # it would make the working set rank-deficient
                    ratios[best] = np.inf
                    continue
                alpha = float(ratios[best])
                blocking = best
                break

        moved = (not tiny_step
                 and alpha * np.abs(p).max(initial=0.0) > 1e-13 * x_scale)
        if not tiny_step:
            x = x + alpha * p
        if moved:
            banned.clear()
            pending_drop = -1
        elif pending_drop >= 0:
            # the drop bought no movement, so that multiplier sign was noise
            banned.add(pending_drop)
            pending_drop = -1
        if blocking >= 0:
            working.append(blocking)
            in_working[blocking] = True
            continue

        # Full (or vanishing) step: x minimizes over the current working
        # set and lam_w are its multipliers.
        candidates = [
            idx for idx, j in enumerate(working)
            if lam_w[idx] < -tol and j not in banned
        ]
        if not candidates:
            lam = np.zeros(m)
            for idx, j in enumerate(working):
                lam[j] = lam_w[idx]
            return x, lam, iteration
        worst = min(candidates, key=lambda idx: lam_w[idx])
        pending_drop = working.pop(worst)
        in_working[pending_drop] = False

    raise MaxIterations(f"active-set method exceeded {max_iter} iterations")


def _phase1(a, b, tol, max_iter):
    """Find a feasible point by minimizing a single shared slack variable."""
    n = a.shape[1]
    m = a.shape[0]
    q = np.zeros((n + 1, n + 1))
    q[n, n] = 2.0
    c = np.zeros(n + 1)
    a_aug = np.zeros((m + 1, n + 1))
    a_aug[:m, :n] = a
    a_aug[:m, n] = -1.0
    a_aug[m, n] = -1.0
    b_aug = np.concatenate([b, [0.0]])
    s0 = max(0.0, float(-b.min())) if m else 0.0
    z0 = np.zeros(n + 1)
    z0[n] = s0
    z, _, _ = _active_set(q, c, a_aug, b_aug, z0, tol, max_iter)
    if z[n] > tol:
        raise Infeasible(f"phase 1 slack {z[n]:.3e} exceeds tolerance {tol:.1e}")
    return z[:n]


def solve_qp(prob: QuadProgram, tol: float = DEFAULT_TOL,
             start: np.ndarray | None = None) -> QpSolution:
    """Solve the program to KKT residual ``tol``.

    ``start`` may supply a known feasible point (it is used only when it
    actually satisfies the constraints); otherwise a phase-1 search runs
    first and raises ``Infeasible`` when no feasible point exists.
    Raises ``MaxIterations`` when the active set does not converge or
    ends at a point that violates the constraints by more than
    ``tol * max(1, max|b|)``.
    """
    n, m = prob.n, prob.m
    max_iter = 50 * (n + m)

    # Lexicographic anti-degeneracy shift: distinct tiny offsets keep
    # vertices simple (stacked or rank-deficient active rows otherwise
    # cycle the working set). Well below tol, so the returned point still
    # satisfies the stated constraints to tolerance.
    if m:
        span = max(1.0, float(np.abs(prob.b).max()))
        b_solve = prob.b + _DEGENERACY_SHIFT * span * (1.0 + np.arange(m)) / m
    else:
        b_solve = prob.b

    x0 = None
    if start is not None:
        cand = np.asarray(start, dtype=float).reshape(n)
        if m == 0 or (prob.a @ cand - b_solve).max() <= tol:
            x0 = cand
    if x0 is None:
        if m == 0 or (-b_solve).max() <= 0.0:
            x0 = np.zeros(n)
        else:
            x0 = _phase1(prob.a, b_solve, tol, max_iter)

    x, lam, iterations = _active_set(prob.q, prob.c, prob.a, b_solve, x0, tol, max_iter)
    stationarity, violation, comp = kkt_residuals(prob, x, lam)
    # A stalled or wedged active set can drift off the feasible set
    # without noticing; such a point is no solution of this program.
    bound = tol * max(1.0, float(np.abs(prob.b).max(initial=0.0)))
    if not (np.all(np.isfinite(x)) and violation <= bound):
        raise MaxIterations(
            f"active-set method ended at a point violating its constraints "
            f"by {violation:.3e} (limit {bound:.1e})"
        )
    x = x.copy()
    lam = lam.copy()
    x.setflags(write=False)
    lam.setflags(write=False)
    return QpSolution(
        x=x,
        multipliers=lam,
        iterations=iterations,
        stationarity=stationarity,
        max_violation=violation,
        complementarity=comp,
    )
