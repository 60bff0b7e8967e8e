"""Per-seed optimizers and acceptance filtering.

Each deterministic objective is minimized independently, either with a
quasi-Newton method on finite-difference gradients, whose descents for
many objectives run in lockstep, or, for expensive simulators, with
Bayesian optimization on a Gaussian-process fit of the distance.  Both
report a curvature at the minimizer, the BFGS estimate or the exact
Hessian of the surrogate mean, which the region builder turns into box
axes.
"""

import logging

import numpy as np

from .errors import NumericalFailure
from .model import DistanceStack, finite_difference_gradient

logger = logging.getLogger(__name__)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 30
ROW_BLOCK = 512  # GP rows per kernel block; keeps the temporaries in cache


class OptimisationResult:
    """Outcome of minimizing one objective.

    hess_appr is a finite, symmetric approximation of the curvature at
    x_min; it is stored symmetrized and is not guaranteed positive definite
    (the region builder checks and substitutes a fallback when it is not).
    A non-finite x_min, f_min or hess_appr raises ValueError.
    """

    def __init__(self, x_min, f_min, hess_appr, iterations=None):
        x_min = np.asarray(x_min, dtype=np.float64)
        if x_min.ndim != 1:
            raise ValueError("x_min must be a 1d parameter vector")
        if not np.isfinite(x_min).all():
            raise ValueError("x_min must be finite")
        f_min = float(f_min)
        if not np.isfinite(f_min):
            raise ValueError("f_min must be finite")
        hess = np.asarray(hess_appr, dtype=np.float64)
        if hess.shape != (x_min.size, x_min.size):
            raise ValueError("hess_appr must be a square matrix matching x_min")
        if not np.all(np.isfinite(hess)):
            raise ValueError("hess_appr must be finite")
        self.x_min = x_min.copy()
        self.f_min = f_min
        self.hess_appr = (hess + hess.T) / 2.0
        self.iterations = iterations

    def __repr__(self):
        return (
            f"OptimisationResult(x_min={self.x_min!r}, f_min={self.f_min!r})"
        )


def _rows_dot(a, b):
    """Row-wise dot products as a stack of 1-by-D by D-by-1 matmuls, which
    make the same BLAS call per row as a 1-D a_i @ b_i."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _bfgs(func, x0, bounds, max_iters, gtol, step):
    """Quasi-Newton descent with Armijo backtracking, kept inside bounds,
    for P independent runs in lockstep.

    func(thetas, runs) evaluates row i of thetas under the objective of
    run runs[i] (a DistanceStack); x0 holds one start point per run.
    Each iteration moves the runs still active, each with its own step
    cap, backtracking and inverse-Hessian update, so every run takes
    exactly the steps it would take alone.  A run stops at its first exit:
    gradient within gtol, an ascent direction even after a restart from
    steepest descent, no room inside the bounds, backtracking exhausted, a
    tiny step, or max_iters.  Non-finite values during line search shrink
    the step; a run whose start value or gradient probe is non-finite
    fails.

    Returns (x, f, h_inv, total, iterations): the (P, D) final points,
    clipped to the bounds, their (P,) values (NaN for a failed run), the
    (P, D, D) inverse-Hessian estimates, the iterations summed over the
    runs that did not fail (one int), and the (P,) iterations per run.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    x = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
    n_runs, d = x.shape
    identity = np.eye(d)
    h_inv = np.tile(identity, (n_runs, 1, 1))
    iterations = np.zeros(n_runs, dtype=np.int64)
    g, p, x_new = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    slope, t, f_new = np.zeros(n_runs), np.zeros(n_runs), np.zeros(n_runs)
    f = func(x, np.arange(n_runs))
    failed = ~np.isfinite(f)
    active = np.flatnonzero(~failed)
    g[active], finite = finite_difference_gradient(func, x[active], active,
                                                   step=step)
    failed[active[~finite]] = True
    active = active[finite]
    for _ in range(max_iters):
        active = active[~(np.max(np.abs(g[active]), axis=1) <= gtol)]
        if not active.size:
            break
        p[active] = (-h_inv[active] @ g[active][:, :, None])[:, :, 0]
        slope[active] = _rows_dot(g[active], p[active])
        # stale curvature produced an ascent direction; restart from
        # steepest descent, and stop where that ascends too
        ascent = active[slope[active] >= 0.0]
        h_inv[ascent] = identity
        p[ascent] = -g[ascent]
        slope[ascent] = _rows_dot(g[ascent], p[ascent])
        active = active[~(slope[active] >= 0.0)]

        # largest t >= 0 with x + t*p inside the box, one axis at a time
        cap = np.full(active.size, np.inf)
        for m in range(d):
            pm = p[active, m]
            limit = np.where(pm > 0.0, hi[m], lo[m])
            cap = np.minimum(cap, np.divide(
                limit - x[active, m], pm, out=np.full(active.size, np.inf),
                where=(pm > 0.0) | (pm < 0.0)))
        active, cap = active[cap > 0.0], cap[cap > 0.0]
        t[active] = np.minimum(1.0, cap)

        pending = active
        for _ in range(MAX_BACKTRACKS):
            x_new[pending] = x[pending] + t[pending, None] * p[pending]
            f_new[pending] = func(x_new[pending], pending)
            armijo = (f_new[pending]
                      <= f[pending] + ARMIJO_C1 * t[pending] * slope[pending])
            pending = pending[~(np.isfinite(f_new[pending]) & armijo)]
            if not pending.size:
                break
            t[pending] *= 0.5
        active = active[~np.isin(active, pending)]

        g_new, finite = finite_difference_gradient(func, x_new[active], active,
                                                   step=step)
        failed[active[~finite]] = True
        active, g_new = active[finite], g_new[finite]
        s = x_new[active] - x[active]
        y = g_new - g[active]
        sy = _rows_dot(s, y)
        s_norm = np.sqrt(_rows_dot(s, s))
        y_norm = np.sqrt(_rows_dot(y, y))
        update = sy > 1e-12 * (s_norm * y_norm + 1e-300)
        rows, s_up, y_up = active[update], s[update], y[update]
        rho = (1.0 / sy[update])[:, None, None]
        v = identity - rho * (s_up[:, :, None] * y_up[:, None, :])
        h_inv[rows] = (v @ h_inv[rows] @ v.transpose(0, 2, 1)
                       + rho * (s_up[:, :, None] * s_up[:, None, :]))
        x[active], f[active], g[active] = x_new[active], f_new[active], g_new
        iterations[active] += 1
        x_norm = np.sqrt(_rows_dot(x[active], x[active]))
        active = active[~(s_norm <= 1e-12 * (1.0 + x_norm))]
    x = np.clip(x, lo, hi)
    done = np.flatnonzero(~failed)
    f[done] = func(x[done], done)
    f[failed] = np.nan
    return x, f, h_inv, int(iterations[done].sum()), iterations


def _inverse(matrix):
    sym = (matrix + matrix.T) / 2.0
    try:
        inv = np.linalg.inv(sym)
    except np.linalg.LinAlgError:
        inv = np.linalg.pinv(sym)
    if not np.all(np.isfinite(inv)):
        inv = np.eye(sym.shape[0])
    return inv


def check_gradient_options(restarts, max_iters):
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def solve_gradients(objectives, prior, seeds, restarts=1, max_iters=200,
                    step=1e-5, gtol=1e-8):
    """Minimize several objectives with BFGS from prior-drawn start points.

    Objective k runs `restarts` independent descents from start points
    drawn with seeds[k] and keeps the lowest minimum (the first, on ties).
    All descents of all objectives run in lockstep, and each gives the
    same bits as it would alone, so a result does not depend on which
    other objectives were solved with it.  Returns one entry per
    objective: an OptimisationResult whose x_min lies inside the prior
    bounds and whose f_min is the objective value there, or None when
    every restart fails numerically.
    """
    check_gradient_options(restarts, max_iters)
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        starts.extend(prior.sample(rng) for _ in range(restarts))
    runs = DistanceStack(o for o in objectives for _ in range(restarts))
    x, f, h_inv, _, iterations = _bfgs(runs, np.array(starts), prior.bounds,
                                       max_iters, gtol, step)
    results = []
    for first in range(0, len(starts), restarts):
        best = None
        for r in range(first, first + restarts):
            if np.isfinite(f[r]) and (best is None or f[r] < f[best]):
                best = r
        results.append(None if best is None else OptimisationResult(
            x[best], f[best], _inverse(h_inv[best]),
            iterations=int(iterations[best]),
        ))
    return results


def solve_gradient(objective, prior, restarts=1, max_iters=200, seed=0,
                   step=1e-5, gtol=1e-8):
    """Minimize one objective with BFGS from `restarts` prior-drawn start
    points: solve_gradients for this objective alone, so the result (or
    None when every restart fails) is the one it gets in any batch."""
    return solve_gradients([objective], prior, [seed], restarts=restarts,
                           max_iters=max_iters, step=step, gtol=gtol)[0]


class GaussianProcessSurrogate:
    """Gaussian-process fit of one objective with a squared-exponential
    kernel; the posterior mean doubles as a cheap distance stand-in.

    The kernel is built elementwise and the mean is a row-wise sum, with
    no matrix product, so each row's mean does not depend on the batch it
    is evaluated in: a one-row call returns the same bits as that row of
    any batch.
    """

    def __init__(self, inputs, values, lengthscales, variance, noise_variance):
        # scipy is imported by each GP method that uses it, so that
        # `import romc` and the gradient path never load it
        from scipy.linalg import cho_solve

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
        from scipy.linalg import solve_triangular

        n = len(thetas)
        mean, var = np.empty(n), np.empty(n)
        for rows, k, block_mean in self._blocks(thetas):
            mean[rows] = block_mean
            v = solve_triangular(self._chol, k.T, lower=True)
            var[rows] = self.variance - np.sum(v**2, axis=0)
        return mean, np.maximum(var, 0.0)

    def evaluate_batch(self, thetas):
        """Posterior mean at each row, without the variance."""
        mean = np.empty(len(thetas))
        for rows, _, block_mean in self._blocks(thetas):
            mean[rows] = block_mean
        return mean

    def hessian(self, theta):
        """Exact Hessian of the posterior mean at one point:
        sum_j alpha_j k_j (u_j u_j^T - I) / (l l^T) with u_j = theta/l - x_j/l
        (Rasmussen & Williams 2006, section 9.4).  Each entry sums over the
        training points in the same order, so the result is exactly
        symmetric."""
        scaled = np.asarray(theta, dtype=np.float64) / self.lengthscales
        u = scaled - self._scaled
        weights = self._kernel(scaled[None, :])[0] * self._alpha
        outer = u[:, :, None] * u[:, None, :] - np.eye(scaled.size)
        scale = np.outer(self.lengthscales, self.lengthscales)
        return (weights[:, None, None] * outer).sum(axis=0) / scale

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
    from scipy.special import ndtr

    sigma = np.sqrt(var)
    ei = np.zeros_like(mean)
    active = sigma > 1e-12
    z = (f_best - mean[active]) / sigma[active]
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    ei[active] = (f_best - mean[active]) * ndtr(z) + sigma[active] * pdf
    return np.maximum(ei, 0.0)


def _latin_hypercube(rng, n, lo, hi):
    """n points of a Latin-hypercube design in the box [lo, hi] (McKay et
    al., Technometrics 1979): each axis is cut into n equal strata and
    every stratum holds one point.

    Draws from a child generator spawned from rng, so the points and rng's
    own later draws equal those of
    qmc.scale(scipy.stats.qmc.LatinHypercube(d, seed=rng).random(n), lo, hi),
    bit for bit, without importing scipy.stats.
    """
    child = rng.spawn(1)[0]
    u = child.uniform(size=(n, lo.size))
    perms = np.tile(np.arange(1, n + 1), (lo.size, 1))
    for row in perms:
        child.shuffle(row)
    return (perms.T - u) / n * (hi - lo) + lo


def check_bayesian_options(budget, init_points):
    if init_points < 2:
        raise ValueError("init_points must be at least 2")
    if budget <= init_points:
        raise ValueError("budget must exceed init_points")


def solve_bayesian(objective, prior, budget=64, init_points=10, seed=0,
                   n_candidates=512):
    """Minimize one objective with expected-improvement Bayesian optimization.

    objective is a distance with evaluate_batch(thetas).  Spends `budget`
    evaluations in total: a Latin-hypercube design of init_points in one
    batch, then sequential acquisitions, one row each.  Returns
    (OptimisationResult, GaussianProcessSurrogate) where x_min is the best
    evaluated point and hess_appr the exact Hessian of the surrogate mean
    there, or None when the surrogate fit fails.
    """
    check_bayesian_options(budget, init_points)
    rng = np.random.default_rng(seed)
    bounds = prior.bounds
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = prior.dimension

    inputs = list(_latin_hypercube(rng, init_points, lo, hi))
    values = [float(v) for v in objective.evaluate_batch(np.asarray(inputs))]
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
            value = float(objective.evaluate_batch(chosen[None, :])[0])
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
    result = OptimisationResult(
        x_min, float(values[best]), gp.hessian(x_min), iterations=budget
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
