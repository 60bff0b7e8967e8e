"""Per-seed optimizers and acceptance filtering.

Each deterministic objective is minimized independently, either with a
quasi-Newton method on finite-difference gradients or, for expensive
simulators, with Bayesian optimization on a Gaussian-process fit of the
distance.  Both report an approximate curvature at the minimizer, which
the region builder turns into box axes.
"""

import logging

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import ndtr
from scipy.stats import qmc

from .errors import NumericalFailure
from .model import finite_difference_gradient

logger = logging.getLogger(__name__)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 30
ROW_BLOCK = 512  # GP rows per kernel block; keeps the temporaries in cache


class OptimisationResult:
    """Outcome of minimizing one objective.

    hess_appr is a symmetric approximation of the curvature at x_min; it
    is stored symmetrized and is not guaranteed positive definite (the
    region builder checks and substitutes a fallback when it is not).
    """

    def __init__(self, x_min, f_min, hess_appr, iterations=None):
        x_min = np.asarray(x_min, dtype=np.float64)
        if x_min.ndim != 1:
            raise ValueError("x_min must be a 1d parameter vector")
        f_min = float(f_min)
        if not np.isfinite(f_min):
            raise ValueError("f_min must be finite")
        hess = np.asarray(hess_appr, dtype=np.float64)
        if hess.shape != (x_min.size, x_min.size):
            raise ValueError("hess_appr must be a square matrix matching x_min")
        if not np.all(np.isfinite(hess)):
            hess = np.eye(x_min.size)
        self.x_min = x_min.copy()
        self.f_min = f_min
        self.hess_appr = (hess + hess.T) / 2.0
        self.iterations = iterations

    def __repr__(self):
        return (
            f"OptimisationResult(x_min={self.x_min!r}, f_min={self.f_min!r})"
        )


def _step_cap(x, p, lo, hi):
    """Largest t >= 0 with x + t*p inside the box [lo, hi] componentwise."""
    cap = np.inf
    for m in range(x.size):
        if p[m] > 0:
            cap = min(cap, (hi[m] - x[m]) / p[m])
        elif p[m] < 0:
            cap = min(cap, (lo[m] - x[m]) / p[m])
    return max(cap, 0.0)


def _bfgs(func, grad, x0, bounds, max_iters, gtol):
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


def _inverse(matrix):
    sym = (matrix + matrix.T) / 2.0
    try:
        inv = np.linalg.inv(sym)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(sym)
    if not np.all(np.isfinite(inv)):
        inv = np.eye(sym.shape[0])
    return inv


def solve_gradient(objective, prior, restarts=1, max_iters=200, seed=0,
                   step=1e-5, gtol=1e-8):
    """Minimize one objective with BFGS from prior-drawn start points.

    Runs `restarts` independent descents and keeps the lowest minimum.
    Returns an OptimisationResult whose x_min lies inside the prior bounds
    and whose f_min is the objective value there, or None when every
    restart fails numerically.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rng = np.random.default_rng(seed)
    bounds = prior.bounds

    def grad(x):
        return finite_difference_gradient(objective, x, step=step)

    best = None
    for attempt in range(restarts):
        x0 = prior.sample(rng)
        try:
            x, f, h_inv, iterations = _bfgs(
                objective, grad, x0, bounds, max_iters, gtol
            )
        except NumericalFailure as exc:
            logger.debug("restart %d failed: %s", attempt, exc)
            continue
        if not np.isfinite(f):
            continue
        if best is None or f < best[1]:
            best = (x, f, h_inv, iterations)
    if best is None:
        return None
    x, f, h_inv, iterations = best
    return OptimisationResult(x, f, _inverse(h_inv), iterations=iterations)


class GaussianProcessSurrogate:
    """Gaussian-process fit of one objective with a squared-exponential
    kernel; the posterior mean doubles as a cheap distance stand-in.

    The kernel is built elementwise and the mean is a row-wise sum, with
    no matrix product, so each row's mean does not depend on the batch it
    is evaluated in: a one-row call returns the same bits as that row of
    any batch.
    """

    def __init__(self, inputs, values, lengthscales, variance, noise_variance):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self.lengthscales = np.asarray(lengthscales, dtype=np.float64)
        self.variance = float(variance)
        self.noise_variance = float(noise_variance)
        if self.inputs.ndim != 2 or self.inputs.shape[0] != self.values.shape[0]:
            raise ValueError("inputs must be (n, D) with one value per row")
        n = self.inputs.shape[0]
        self._mean_offset = float(np.mean(self.values))
        self._scaled = self.inputs / self.lengthscales
        k = self._kernel(self._scaled)
        k[np.diag_indices(n)] += self.noise_variance
        # raises LinAlgError when the matrix is not positive definite
        self._chol = np.linalg.cholesky(k)
        centered = self.values - self._mean_offset
        self._alpha = cho_solve((self._chol, True), centered)

    def _kernel(self, scaled):
        """Kernel between rows of lengthscale-scaled inputs and the training
        inputs, accumulated one input dimension at a time."""
        sq = np.zeros((scaled.shape[0], self._scaled.shape[0]))
        for m in range(scaled.shape[1]):
            diff = np.subtract.outer(scaled[:, m], self._scaled[:, m])
            diff *= diff
            sq += diff
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= self.variance
        return sq

    def _blocks(self, thetas):
        """(rows, kernel, mean) for fixed-size blocks of rows."""
        scaled = np.asarray(thetas, dtype=np.float64) / self.lengthscales
        for start in range(0, scaled.shape[0], ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            k = self._kernel(scaled[rows])
            yield rows, k, self._mean_offset + (k * self._alpha).sum(axis=1)

    def predict_batch(self, thetas):
        """Posterior mean and variance at each row; variance is clipped at 0."""
        n = len(thetas)
        mean, var = np.empty(n), np.empty(n)
        for rows, k, block_mean in self._blocks(thetas):
            mean[rows] = block_mean
            v = solve_triangular(self._chol, k.T, lower=True)
            var[rows] = self.variance - np.sum(v**2, axis=0)
        return mean, np.maximum(var, 0.0)

    def predict(self, theta):
        mean, var = self.predict_batch(np.asarray(theta, dtype=np.float64)[None, :])
        return float(mean[0]), float(var[0])

    def evaluate_batch(self, thetas):
        """Posterior mean at each row, without the variance."""
        mean = np.empty(len(thetas))
        for rows, _, block_mean in self._blocks(thetas):
            mean[rows] = block_mean
        return mean

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return float(self.evaluate_batch(theta[None, :])[0])

    def to_record(self):
        return {
            "inputs": self.inputs.tolist(),
            "values": self.values.tolist(),
            "lengthscales": self.lengthscales.tolist(),
            "variance": self.variance,
            "noise_variance": self.noise_variance,
        }

    @classmethod
    def from_record(cls, record):
        return cls(
            record["inputs"],
            record["values"],
            record["lengthscales"],
            record["variance"],
            record["noise_variance"],
        )


def _fit_gp(inputs, values):
    """Fit hyperparameters by simple heuristics and build the surrogate.

    Lengthscales are per-axis median pairwise distances, kernel variance is
    the sample variance of the targets, and the noise jitter starts at
    1e-6 times that variance, escalating tenfold until the Cholesky
    succeeds.  Raises NumericalFailure if it never does.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n, d = inputs.shape
    first, second = np.triu_indices(n, k=1)
    lengthscales = np.empty(d)
    for m in range(d):
        col = inputs[:, m]
        pairs = np.abs(col[first] - col[second])
        med = float(np.median(pairs)) if pairs.size else 0.0
        if med <= 0.0:
            spread = float(np.ptp(col))
            med = spread if spread > 0.0 else 1.0
        lengthscales[m] = med
    variance = max(float(np.var(values)), 1e-12)
    jitter = 1e-6 * variance
    for _ in range(8):
        try:
            return GaussianProcessSurrogate(
                inputs, values, lengthscales, variance, jitter
            )
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalFailure("kernel matrix stayed singular under jitter escalation")


def _expected_improvement(mean, var, f_best):
    sigma = np.sqrt(var)
    ei = np.zeros_like(mean)
    active = sigma > 1e-12
    z = (f_best - mean[active]) / sigma[active]
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    ei[active] = (f_best - mean[active]) * ndtr(z) + sigma[active] * pdf
    return np.maximum(ei, 0.0)


def _fd_hessian(func, x, step=1e-4):
    """Central-difference Hessian; meant for smooth surrogate means."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    h = step * np.maximum(1.0, np.abs(x))
    hess = np.empty((d, d))
    f0 = func(x)
    for a in range(d):
        ea = np.zeros(d)
        ea[a] = h[a]
        hess[a, a] = (func(x + ea) - 2.0 * f0 + func(x - ea)) / h[a] ** 2
        for b in range(a + 1, d):
            eb = np.zeros(d)
            eb[b] = h[b]
            mixed = (
                func(x + ea + eb)
                - func(x + ea - eb)
                - func(x - ea + eb)
                + func(x - ea - eb)
            ) / (4.0 * h[a] * h[b])
            hess[a, b] = mixed
            hess[b, a] = mixed
    return (hess + hess.T) / 2.0


def solve_bayesian(objective, prior, budget=64, init_points=10, seed=0,
                   n_candidates=512):
    """Minimize one objective with expected-improvement Bayesian optimization.

    Spends `budget` objective evaluations in total: a Latin-hypercube
    design of init_points followed by sequential acquisitions.  Returns
    (OptimisationResult, GaussianProcessSurrogate) where x_min is the best
    evaluated point and hess_appr the finite-difference curvature of the
    surrogate mean there, or None when the surrogate fit fails.
    """
    if init_points < 2:
        raise ValueError("init_points must be at least 2")
    if budget <= init_points:
        raise ValueError("budget must exceed init_points")
    rng = np.random.default_rng(seed)
    bounds = prior.bounds
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = prior.dimension

    sampler = qmc.LatinHypercube(d=d, seed=rng)
    unit = sampler.random(init_points)
    inputs = list(qmc.scale(unit, lo, hi))
    values = [float(objective(x)) for x in inputs]
    if not np.all(np.isfinite(values)):
        return None

    try:
        for _ in range(budget - init_points):
            gp = _fit_gp(np.asarray(inputs), np.asarray(values))
            candidates = rng.uniform(lo, hi, size=(n_candidates, d))
            mean, var = gp.predict_batch(candidates)
            ei = _expected_improvement(mean, var, min(values))
            order = np.argsort(-ei, kind="stable")
            existing = np.asarray(inputs)
            chosen = candidates[order[0]]
            for idx in order:
                gap = np.min(np.max(np.abs(existing - candidates[idx]), axis=1))
                if gap > 1e-10:
                    chosen = candidates[idx]
                    break
            value = float(objective(chosen))
            if not np.isfinite(value):
                return None
            inputs.append(chosen)
            values.append(value)
        gp = _fit_gp(np.asarray(inputs), np.asarray(values))
    except NumericalFailure as exc:
        logger.warning("surrogate fit failed: %s", exc)
        return None

    best = int(np.argmin(values))
    x_min = np.asarray(inputs[best], dtype=np.float64)
    hess = _fd_hessian(lambda t: gp(t), x_min)
    result = OptimisationResult(
        x_min, float(values[best]), hess, iterations=budget
    )
    return result, gp


def compute_eps(values, quantile):
    """Distance threshold at the given quantile of the optimized distances.

    Uses the sorted-order statistic at index floor(quantile * n), clamped
    to the last element, so quantile=0 gives the minimum and quantile=1
    the maximum.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    ordered = np.sort(arr)
    idx = min(int(np.floor(quantile * arr.size)), arr.size - 1)
    return float(ordered[idx])


def filter_solutions(results, eps):
    """Indices of solved problems whose optimized distance is within eps.

    results is an iterable of (problem_index, OptimisationResult or None);
    failed problems are skipped.  The comparison is inclusive and the
    returned indices are sorted ascending.
    """
    if not np.isfinite(eps) or eps < 0.0:
        raise ValueError("eps must be finite and nonnegative")
    return sorted(
        index for index, result in results
        if result is not None and result.f_min <= eps
    )


def distance_histogram(values, bins=20):
    """Histogram of optimized distances, as (counts, bin_edges).

    With identical values the range is widened by a tiny pad so every bin
    has positive width and all mass falls in a single bin.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        pad = max(abs(lo), 1.0) * np.finfo(np.float64).eps * max(bins, 2)
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
    return counts, edges
