"""Per-seed optimizers and acceptance filtering.

Each deterministic objective is minimized independently, either with a
quasi-Newton method on finite-difference gradients or, for expensive
simulators, with Bayesian optimization on a Gaussian-process fit of the
distance.  Both run many objectives in lockstep, each bit for bit as it
runs alone, and both report a curvature at the minimizer, the BFGS
estimate or the exact Hessian of the surrogate mean, which the region
builder turns into box axes.
"""

import logging

import numpy as np

from .model import DistanceStack, finite_difference_gradient

logger = logging.getLogger(__name__)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 30
GTOL = 1e-8  # the gradient solve stops where every |df/dx_m| is within it
N_CANDIDATES = 512  # uniform draws scored by expected improvement per step
ROW_BLOCK = 512  # GP rows per kernel block; keeps the temporaries in cache


def check_results(x_min, f_min, hess):
    """The one validation of k results: finite x_min (k, D), f_min (k,)
    and hess (k, D, D), or ValueError for the first check any row fails.
    Returns hess symmetrized, (h + h^T) / 2."""
    if (x_min.ndim != 2 or f_min.shape != x_min.shape[:1]
            or hess.shape != x_min.shape + x_min.shape[1:]):
        raise ValueError("result shapes must be (k, D), (k,) and (k, D, D)")
    for name, values in [("x_min", x_min), ("f_min", f_min), ("hess_appr", hess)]:
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    return (hess + hess.transpose(0, 2, 1)) / 2.0


class OptimisationResult:
    """Outcome of minimizing one objective, the row type of the hooks.

    hess_appr is a finite, symmetric approximation of the curvature at
    x_min; it is stored symmetrized and is not guaranteed positive definite
    (the region builder checks and substitutes a fallback when it is not).
    check_results checks it as a stack of one.
    """

    def __init__(self, x_min, f_min, hess_appr, iterations=None):
        x_min = np.array(x_min, dtype=np.float64)
        self.f_min = float(f_min)
        self.hess_appr = check_results(
            x_min[None], np.array([self.f_min]),
            np.asarray(hess_appr, dtype=np.float64)[None])[0]
        self.x_min = x_min
        self.iterations = iterations


def _rows_dot(a, b):
    """Row-wise dot products as a stack of 1-by-D by D-by-1 matmuls, which
    make the same BLAS call per row as a 1-D a_i @ b_i."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _bfgs(func, x0, bounds, max_iters, gtol, step):
    """Quasi-Newton descent with Armijo backtracking, kept inside bounds,
    for P independent runs in lockstep.

    func(thetas, runs) evaluates row i of thetas under the objective of
    run runs[i], as a DistanceStack does; x0 holds one start point per run.
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


def check_gradient_options(restarts, max_iters):
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def solve_gradients(stack, prior, seeds, restarts=1, max_iters=200,
                    step=1e-5):
    """Minimize a DistanceStack's distances with BFGS from prior draws.

    Distance k runs `restarts` independent descents from start points
    drawn with seeds[k] and keeps the lowest minimum (the first, on ties);
    run r evaluates distance r // restarts.  All descents of all distances
    run in lockstep, and each gives the same bits as it would alone, so a
    result does not depend on which other distances were solved with it.
    Returns (solved, x_min, f_min, hess, iterations): the mask of the
    distances with a finite minimum, and for those the minimizers inside
    the prior bounds, the distances there, the inverses of the kept runs'
    symmetrized inverse-Hessian estimates (a singular one raises
    LinAlgError), checked by check_results, and the kept runs' iterations.
    """
    check_gradient_options(restarts, max_iters)
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        starts.extend(prior.sample(rng) for _ in range(restarts))
    x, f, h_inv, _, iterations = _bfgs(
        lambda thetas, runs: stack(thetas, runs // restarts),
        np.array(starts), prior.bounds, max_iters, GTOL, step)
    # a failed run's NaN counts as inf, and argmin keeps the first minimum
    best = np.where(np.isfinite(f), f, np.inf).reshape(-1, restarts).argmin(1)
    best += restarts * np.arange(best.size)
    solved = np.isfinite(f[best])
    runs = best[solved]
    kept = h_inv[runs]
    hess = np.linalg.inv((kept + kept.transpose(0, 2, 1)) / 2.0)
    return (solved, x[runs], f[runs], check_results(x[runs], f[runs], hess),
            iterations[runs])


def solve_gradient(objective, prior, restarts=1, max_iters=200, seed=0,
                   step=1e-5):
    """Minimize one objective with BFGS from `restarts` prior-drawn start
    points: solve_gradients for this objective alone, so the result (or
    None when every restart fails) is the one it gets in any batch."""
    solved, x_min, f_min, hess, iterations = solve_gradients(
        DistanceStack([objective]), prior, [seed], restarts, max_iters, step)
    return (OptimisationResult(x_min[0], f_min[0], hess[0], int(iterations[0]))
            if solved[0] else None)


def _se_kernel(rows, train, variance):
    """Squared-exponential kernel between lengthscale-scaled rows (..., m, D)
    and training inputs (..., n, D), for one fit or a stack of fits.

    The squared distance is accumulated one input dimension at a time, from
    the first dimension's term, and every step is elementwise, so an
    entry's bits depend on neither the other rows nor the stack; variance
    broadcasts against the (..., m, n) result.
    """
    sq = rows[..., :, None, 0] - train[..., None, :, 0]
    sq *= sq
    for m in range(1, rows.shape[-1]):
        diff = rows[..., :, None, m] - train[..., None, :, m]
        diff *= diff
        sq += diff
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= variance
    return sq


class GaussianProcessSurrogate:
    """Gaussian-process fit of one objective with a squared-exponential
    kernel; the posterior mean doubles as a cheap distance stand-in.

    The kernel is built elementwise and the mean is a row-wise sum, with
    no matrix product, so each row's mean does not depend on the batch it
    is evaluated in: a one-row call returns the same bits as that row of
    any batch.  Hyperparameters that are not one positive finite
    lengthscale per input dimension, a positive finite variance and a
    nonnegative finite noise variance, or non-finite data, raise
    ValueError.
    """

    def __init__(self, inputs, values, lengthscales, variance, noise_variance):
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        self.lengthscales = np.asarray(lengthscales, dtype=np.float64)
        self.variance = float(variance)
        self.noise_variance = float(noise_variance)
        if self.inputs.ndim != 2 or self.inputs.shape[0] != self.values.shape[0]:
            raise ValueError("inputs must be (n, D) with one value per row")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.values).all()):
            raise ValueError("GP inputs and values must be finite")
        if (self.lengthscales.shape != self.inputs.shape[1:]
                or not np.all((self.lengthscales > 0.0)
                              & (self.lengthscales < np.inf))):
            raise ValueError("lengthscales must be one positive finite value "
                             "per input dimension")
        if not 0.0 < self.variance < np.inf:
            raise ValueError("variance must be positive and finite")
        if not 0.0 <= self.noise_variance < np.inf:
            raise ValueError("noise_variance must be nonnegative and finite")
        scaled = self.inputs / self.lengthscales
        k = _se_kernel(scaled, scaled, self.variance)
        k[np.diag_indices(len(k))] += self.noise_variance
        # raises LinAlgError when the matrix is not positive definite
        self._factor(scaled, np.linalg.cholesky(k))

    def _factor(self, scaled, chol):
        """Keep the scaled inputs and the kernel's Cholesky factor; set the
        mean offset and the weights alpha = K^-1 (values - offset)."""
        # scipy is imported by each GP function that uses it, so that
        # `import romc` and the gradient path never load it
        from scipy.linalg import cho_solve

        self._scaled, self._chol = scaled, chol
        self._mean_offset = float(np.mean(self.values))
        self._alpha = cho_solve((chol, True), self.values - self._mean_offset,
                                check_finite=False)

    def _posterior(self, thetas, with_variance):
        """Mean (and clipped variance) at each row, ROW_BLOCK rows at a time."""
        from scipy.linalg import solve_triangular

        scaled = np.asarray(thetas, dtype=np.float64) / self.lengthscales
        mean, var = np.empty(len(scaled)), np.empty(len(scaled))
        for start in range(0, len(scaled), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            k = _se_kernel(scaled[rows], self._scaled, self.variance)
            mean[rows] = self._mean_offset + (k * self._alpha).sum(axis=1)
            if with_variance:
                v = solve_triangular(self._chol, k.T, lower=True,
                                     check_finite=False)
                var[rows] = self.variance - np.sum(v**2, axis=0)
        return (mean, np.maximum(var, 0.0)) if with_variance else mean

    def predict_batch(self, thetas):
        """Posterior mean and variance at each row; variance is clipped at 0."""
        return self._posterior(thetas, with_variance=True)

    def evaluate_batch(self, thetas):
        """Posterior mean at each row, without the variance."""
        return self._posterior(thetas, with_variance=False)

    def evaluate_grid(self, axes):
        """Posterior mean at every cell of the C-order mesh of `axes` (one
        array per input dimension), and a bound on its distance from
        evaluate_batch's mean at any cell.

        The kernel factors over the axes, exp(-|u|^2/2) = prod_m
        exp(-u_m^2/2) (Rasmussen & Williams 2006, section 4.2), so the mean
        takes n exps per axis value and one matrix product, not n per cell.
        With u the machine epsilon and scale = |offset| + variance *
        sum |alpha_j|, the two forms' sums over the n terms differ by at
        most (n - 1) u scale and the rest by under 13 u scale at D <= 3 for
        an exp within 2 ulp, to first order; the bound is 4 (n + 16) u scale.
        """
        n = self._scaled.shape[0]
        factors = [np.exp(-0.5 * (g[:, None] / ell - x) ** 2)
                   for g, ell, x in zip(axes, self.lengthscales, self._scaled.T)]
        weights = self.variance * self._alpha
        folded = factors[0] * weights
        for factor in factors[1:-1]:
            folded = (folded[:, None, :] * factor).reshape(-1, n)
        mean = (folded.sum(axis=1) if len(factors) == 1
                else folded @ factors[-1].T)
        scale = abs(self._mean_offset) + np.abs(weights).sum()
        bound = 4.0 * (n + 16) * np.finfo(np.float64).eps * scale
        return self._mean_offset + mean.ravel(), bound

    def hessian(self, theta):
        """Exact Hessian of the posterior mean at one point:
        sum_j alpha_j k_j (u_j u_j^T - I) / (l l^T) with u_j = theta/l - x_j/l
        (Rasmussen & Williams 2006, section 9.4).  Each entry sums over the
        training points in the same order, so the result is exactly
        symmetric."""
        scaled = np.asarray(theta, dtype=np.float64) / self.lengthscales
        u = scaled - self._scaled
        weights = (_se_kernel(scaled[None, :], self._scaled, self.variance)[0]
                   * self._alpha)
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


SINGULAR = "kernel matrix stayed singular under jitter escalation"


def _fit_gps(inputs, values):
    """Fit P surrogates in lockstep, each bit for bit as it is fitted
    alone, from (P, n, D) inputs and (P, n) finite values.

    Lengthscales are per-axis median pairwise distances (else the axis's
    range, else 1), kernel variance is the sample variance of the values,
    at least 1e-12, and the noise jitter starts at 1e-6 times that
    variance, escalating tenfold for the fits whose Cholesky fails, up to
    8 tries.  Returns one GaussianProcessSurrogate per fit, built on its
    row of the stacked Cholesky factor, or None, with a logged warning,
    for a fit whose kernel never factorizes.
    """
    n_fits, n, d = inputs.shape
    first, second = np.triu_indices(n, k=1)
    lengthscales = np.empty((n_fits, d))
    for m in range(d):
        col = inputs[:, :, m]
        pairs = col[:, first] - col[:, second]
        np.abs(pairs, out=pairs)
        med = (np.median(pairs, axis=1, overwrite_input=True) if pairs.size
               else np.zeros(n_fits))
        spread = np.ptp(col, axis=1)
        lengthscales[:, m] = np.where(med > 0.0, med,
                                      np.where(spread > 0.0, spread, 1.0))
    variance = np.maximum(np.var(values, axis=1), 1e-12)
    noise = 1e-6 * variance
    scaled = inputs / lengthscales[:, None, :]
    kernel = _se_kernel(scaled, scaled, variance[:, None, None])
    diag = np.arange(n)
    base = kernel[:, diag, diag]
    kernel[:, diag, diag] += noise[:, None]
    try:
        chol = np.linalg.cholesky(kernel)
    except np.linalg.LinAlgError:
        # some fit failed: factorize each alone, escalating its own jitter
        chol = np.full_like(kernel, np.nan)
        for p in range(n_fits):
            for _ in range(8):
                try:
                    chol[p] = np.linalg.cholesky(kernel[p])
                    break
                except np.linalg.LinAlgError:
                    noise[p] *= 10.0
                    kernel[p, diag, diag] = base[p] + noise[p]
            else:
                logger.warning("surrogate fit failed: %s", SINGULAR)
    gps = [None] * n_fits
    for p in np.flatnonzero(~np.isnan(chol[:, 0, 0])):
        # valid by construction, so __init__'s checks and factor are skipped
        gps[p] = gp = object.__new__(GaussianProcessSurrogate)
        gp.inputs, gp.values = inputs[p], values[p]
        gp.lengthscales, gp.variance = lengthscales[p], float(variance[p])
        gp.noise_variance = float(noise[p])
        gp._factor(scaled[p], chol[p])
    return gps


def _expected_improvement(mean, var, f_best):
    """Expected improvement over f_best, elementwise; f_best broadcasts
    against mean."""
    from scipy.special import ndtr

    sigma = np.sqrt(var)
    ei = np.zeros_like(mean)
    active = sigma > 1e-12
    gain = np.broadcast_to(f_best, mean.shape)[active] - mean[active]
    z = gain / sigma[active]
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    ei[active] = gain * ndtr(z) + sigma[active] * pdf
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


def _gaps(inputs, point):
    """Largest-coordinate distance from point to its nearest input."""
    return np.abs(inputs - point).max(axis=-1).min(axis=-1)


def check_bayesian_options(budget, init_points):
    if init_points < 2:
        raise ValueError("init_points must be at least 2")
    if budget <= init_points:
        raise ValueError("budget must exceed init_points")


def _acquire(inputs, values, rngs, lo, hi):
    """One lockstep step of P problems with (P, n, D) inputs and (P, n)
    values: fit their surrogates, then draw each problem's candidates from
    its generator in rngs.  Returns (fitted, chosen): the mask of the fits
    that factorized, and for each of those problems the candidate of
    highest expected improvement, the first on ties, that is not already
    an input (or that candidate when every one is)."""
    gps = _fit_gps(inputs, values)
    fitted = np.array([gp is not None for gp in gps])
    inputs, values = inputs[fitted], values[fitted]
    candidates = np.empty((len(inputs), N_CANDIDATES, lo.size))
    mean, var = np.empty((2, len(inputs), N_CANDIDATES))
    for j, p in enumerate(np.flatnonzero(fitted)):
        candidates[j] = rngs[p].uniform(lo, hi, size=(N_CANDIDATES, lo.size))
        mean[j], var[j] = gps[p].predict_batch(candidates[j])
    ei = _expected_improvement(mean, var, values.min(axis=1)[:, None])
    # the first maximum, where a stable sort of -ei starts (NaN last)
    top = np.argmax(np.where(np.isnan(ei), -np.inf, ei), axis=1)
    chosen = candidates[np.arange(len(inputs)), top]
    for j in np.flatnonzero(_gaps(inputs, chosen[:, None, :]) <= 1e-10):
        for idx in np.argsort(-ei[j], kind="stable"):
            if _gaps(inputs[j], candidates[j, idx]) > 1e-10:
                chosen[j] = candidates[j, idx]
                break
    return fitted, chosen


def solve_bayesians(stack, prior, seeds, budget=64, init_points=10):
    """Minimize the distances of a DistanceStack with expected-improvement
    Bayesian optimization, in lockstep.

    Each distance spends `budget` evaluations: a Latin-hypercube design
    of init_points, then per step the candidate of highest expected
    improvement among N_CANDIDATES uniform draws that is not already an
    input.  Distance k draws from its own generator, seeded with
    seeds[k].  All problems have the same number of inputs at each step,
    so a step's GP fits, and the final fit over all evaluations, are one
    stack each, and a step's evaluations one stack call; candidates are
    drawn and scored with predict_batch one problem at a time.  So each
    problem gets the bits it gets alone.  Returns one entry per distance:
    (OptimisationResult, GaussianProcessSurrogate) where x_min is the best
    evaluated point and hess_appr the exact Hessian of the surrogate mean
    there, or None when a value is not finite or the surrogate fit fails.
    """
    check_bayesian_options(budget, init_points)
    lo, hi = prior.bounds[:, 0], prior.bounds[:, 1]
    d = prior.dimension
    rngs = [np.random.default_rng(seed) for seed in seeds]
    inputs = np.empty((len(rngs), budget, d))
    values = np.empty((len(rngs), budget))
    inputs[:, :init_points] = [_latin_hypercube(rng, init_points, lo, hi)
                               for rng in rngs]
    values[:, :init_points] = stack(
        inputs[:, :init_points].reshape(-1, d),
        np.repeat(np.arange(len(rngs)), init_points),
    ).reshape(len(rngs), init_points)
    live = np.flatnonzero(np.isfinite(values[:, :init_points]).all(axis=1))

    for n in range(init_points, budget):
        if not live.size:
            break
        fitted, chosen = _acquire(inputs[live, :n], values[live, :n],
                                  [rngs[p] for p in live], lo, hi)
        live = live[fitted]
        inputs[live, n] = chosen
        values[live, n] = stack(chosen, live)
        live = live[np.isfinite(values[live, n])]

    fits = _fit_gps(inputs[live], values[live])
    rows = live[[gp is not None for gp in fits]]
    gps = [gp for gp in fits if gp is not None]
    best = np.argmin(values[rows], axis=1)
    x_min, f_min = inputs[rows, best], values[rows, best]
    hess = np.array([gp.hessian(x) for gp, x in zip(gps, x_min)]).reshape(-1, d, d)
    return (np.isin(np.arange(len(rngs)), rows), x_min, f_min,
            check_results(x_min, f_min, hess), np.full(rows.size, budget), gps)


def solve_bayesian(objective, prior, budget=64, init_points=10, seed=0):
    """Minimize one objective with expected-improvement Bayesian
    optimization: solve_bayesians for this objective alone, so the result,
    (OptimisationResult, GaussianProcessSurrogate) or None, is the one it
    gets in any batch."""
    solved, x_min, f_min, hess, iterations, gps = solve_bayesians(
        DistanceStack([objective]), prior, [seed], budget, init_points)
    return ((OptimisationResult(x_min[0], f_min[0], hess[0], int(iterations[0])),
             gps[0]) if solved[0] else None)


def compute_eps(values, quantile):
    """Distance threshold at the given quantile of the optimized distances.

    Uses the sorted-order statistic at index floor(quantile * n), clamped
    to the last element, so quantile=0 gives the minimum and quantile=1
    the maximum.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    ordered = np.sort(arr)
    idx = min(int(np.floor(quantile * arr.size)), arr.size - 1)
    return float(ordered[idx])


def filter_solutions(f_min, eps):
    """Mask of the optimized distances f_min within eps, inclusive."""
    if not np.isfinite(eps) or eps < 0.0:
        raise ValueError("eps must be finite and nonnegative")
    return np.asarray(f_min, dtype=np.float64) <= eps


def distance_histogram(values, bins=20):
    """Histogram of optimized distances, as (counts, bin_edges).

    With identical values the range is widened by a tiny pad so every bin
    has positive width and all mass falls in a single bin.
    """
    arr = np.asarray(values, dtype=np.float64)
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
