"""The one-run-at-a-time BFGS descent and finite-difference gradient that
romc.optimize ran before its descent went lockstep, kept unchanged as the
reference the lockstep descent is held to, bit for bit.

reference_bfgs(func, grad, x0, bounds, max_iters, gtol) minimizes one
scalar function; reference_gradient(func, theta, step) is its gradient.
"""

import numpy as np

from romc.errors import NumericalFailure
from romc.optimize import ARMIJO_C1, MAX_BACKTRACKS


def reference_gradient(func, theta, step=1e-5):
    """Central finite-difference gradient with per-coordinate steps.

    The step along coordinate m is step * max(1, |theta_m|).  Uses exactly
    2 * D function evaluations; raises NumericalFailure at the probed point
    if any evaluation is non-finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for m in range(theta.shape[0]):
        h = step * max(1.0, abs(theta[m]))
        probe = theta.copy()
        probe[m] = theta[m] + h
        f_plus = func(probe)
        probe[m] = theta[m] - h
        f_minus = func(probe)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalFailure(
                f"non-finite objective near coordinate {m}", point=probe
            )
        grad[m] = (f_plus - f_minus) / (2.0 * h)
    return grad


def _step_cap(x, p, lo, hi):
    """Largest t >= 0 with x + t*p inside the box [lo, hi] componentwise."""
    cap = np.inf
    for m in range(x.size):
        if p[m] > 0:
            cap = min(cap, (hi[m] - x[m]) / p[m])
        elif p[m] < 0:
            cap = min(cap, (lo[m] - x[m]) / p[m])
    return max(cap, 0.0)


def reference_bfgs(func, grad, x0, bounds, max_iters, gtol):
    """Quasi-Newton descent with Armijo backtracking, kept inside bounds.

    Returns (x, f, inverse_hessian, iterations).  Non-finite objective
    values during line search simply shrink the step; non-finite gradients
    propagate NumericalFailure from the gradient routine.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    x = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
    f = func(x)
    if not np.isfinite(f):
        raise NumericalFailure("non-finite objective at the start point", point=x)
    g = grad(x)
    d = x.size
    h_inv = np.eye(d)
    identity = np.eye(d)
    iterations = 0
    while iterations < max_iters:
        if np.max(np.abs(g)) <= gtol:
            break
        p = -h_inv @ g
        slope = float(g @ p)
        if slope >= 0.0:
            # stale curvature produced an ascent direction; restart from steepest descent
            h_inv = np.eye(d)
            p = -g
            slope = float(g @ p)
            if slope >= 0.0:
                break
        cap = _step_cap(x, p, lo, hi)
        if cap <= 0.0:
            break
        t = min(1.0, cap)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + t * p
            f_new = func(x_new)
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        s = x_new - x
        g_new = grad(x_new)
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            rho = 1.0 / sy
            v = identity - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        iterations += 1
        if np.linalg.norm(s) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            break
    x = np.clip(x, lo, hi)
    f = func(x)
    return x, f, h_inv, iterations

