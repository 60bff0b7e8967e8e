"""The one-problem-at-a-time Bayesian optimization that romc.optimize ran
before its solve went lockstep, with the Gaussian-process fit, kernel and
expected improvement it used, kept unchanged as the reference the
lockstep solve is held to, bit for bit.

reference_bayesian(objective, prior, budget, init_points, seed,
n_candidates) returns (OptimisationResult, ReferenceGP) or None, as
solve_bayesian did; reference_fit_gp(inputs, values) is its GP fit.
"""

import logging

import numpy as np

from romc.errors import NumericalFailure
from romc.optimize import (
    ROW_BLOCK,
    OptimisationResult,
    _latin_hypercube,
    check_bayesian_options,
)

logger = logging.getLogger(__name__)


class ReferenceGP:
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


def reference_fit_gp(inputs, values):
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
            return ReferenceGP(
                inputs, values, lengthscales, variance, jitter
            )
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalFailure("kernel matrix stayed singular under jitter escalation")


def reference_expected_improvement(mean, var, f_best):
    from scipy.special import ndtr

    sigma = np.sqrt(var)
    ei = np.zeros_like(mean)
    active = sigma > 1e-12
    z = (f_best - mean[active]) / sigma[active]
    pdf = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    ei[active] = (f_best - mean[active]) * ndtr(z) + sigma[active] * pdf
    return np.maximum(ei, 0.0)


def reference_bayesian(objective, prior, budget=64, init_points=10, seed=0,
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
            gp = reference_fit_gp(np.asarray(inputs), np.asarray(values))
            candidates = rng.uniform(lo, hi, size=(n_candidates, d))
            mean, var = gp.predict_batch(candidates)
            ei = reference_expected_improvement(mean, var, min(values))
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
        gp = reference_fit_gp(np.asarray(inputs), np.asarray(values))
    except NumericalFailure as exc:
        logger.warning("surrogate fit failed: %s", exc)
        return None

    best = int(np.argmin(values))
    x_min = np.asarray(inputs[best], dtype=np.float64)
    result = OptimisationResult(
        x_min, float(values[best]), gp.hessian(x_min), iterations=budget
    )
    return result, gp
