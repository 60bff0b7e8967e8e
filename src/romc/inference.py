"""Posterior approximation and weighted sampling over the trained regions.

The unnormalized posterior at theta is the prior density times the number
of accepted problems whose distance at theta is within eps.  Sampling
draws uniformly from each proposal region and weights each draw by
indicator * prior / proposal, so expectations are simple weighted
averages and zero-weight draws stay in the output for diagnostics.
"""

import numpy as np

from .errors import DegenerateResult, UnsupportedDimension
from .model import STREAM_SAMPLE, derive_rng, evaluate_distance_batch

GRID_CELLS_PER_AXIS = 200
GRID_MAX_DIMENSION = 3


def midpoint_grid(bounds, grid_step=None):
    """Cell centers and cell volume of a midpoint quadrature grid.

    grid_step may be None (range / 200 per axis), a scalar, or one step
    per axis; the step is rounded so a whole number of cells covers each
    range.  Only defined up to 3 dimensions.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("bounds must have shape (D, 2)")
    d = bounds.shape[0]
    if d > GRID_MAX_DIMENSION:
        raise UnsupportedDimension(
            f"grids are limited to {GRID_MAX_DIMENSION} dimensions, got {d}"
        )
    ranges = bounds[:, 1] - bounds[:, 0]
    if not np.all(np.isfinite(ranges)) or np.any(ranges <= 0):
        raise ValueError("bounds must be finite with positive ranges")
    if grid_step is None:
        n_cells = np.full(d, GRID_CELLS_PER_AXIS, dtype=int)
    else:
        steps = np.asarray(grid_step, dtype=np.float64)
        if steps.ndim == 0:
            steps = np.full(d, float(steps))
        elif steps.shape != (d,):
            raise ValueError("grid_step must be a scalar or one step per axis")
        if np.any(steps <= 0) or not np.all(np.isfinite(steps)):
            raise ValueError("grid_step must be positive and finite")
        n_cells = np.ceil(ranges / steps - 1e-9).astype(int)
        n_cells = np.maximum(n_cells, 1)
    widths = ranges / n_cells
    axes = [
        bounds[m, 0] + (np.arange(n_cells[m]) + 0.5) * widths[m] for m in range(d)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([g.ravel() for g in mesh])
    return points, float(np.prod(widths))


def _grid_key(grid_step):
    return None if grid_step is None else tuple(np.atleast_1d(grid_step).tolist())


class PosteriorApproximation:
    """Mixture-of-regions posterior built from accepted problems.

    regions and distances are aligned lists, one entry per accepted
    problem; problem_indices carries the original problem numbering.
    """

    def __init__(self, prior, eps, regions, distances, problem_indices=None):
        if len(regions) == 0:
            raise ValueError("at least one accepted region is required")
        if len(regions) != len(distances):
            raise ValueError("regions and distances must align")
        if problem_indices is None:
            problem_indices = list(range(len(regions)))
        if len(problem_indices) != len(regions):
            raise ValueError("problem_indices must align with regions")
        self.prior = prior
        self.eps = float(eps)
        self.regions = list(regions)
        self.distances = list(distances)
        self.problem_indices = [int(i) for i in problem_indices]
        self._partition = {}

    @property
    def n_regions(self):
        return len(self.regions)

    def eval_unnorm_batch(self, thetas):
        """Prior density times the count of distances within eps, per row."""
        thetas = np.asarray(thetas, dtype=np.float64)
        pdf = np.asarray(self.prior.pdf_batch(thetas), dtype=np.float64)
        out = np.zeros(thetas.shape[0])
        active = pdf > 0.0
        if np.any(active):
            counts = np.zeros(int(active.sum()))
            subset = thetas[active]
            for distance in self.distances:
                counts += evaluate_distance_batch(distance, subset) <= self.eps
            out[active] = pdf[active] * counts
        return out

    def eval_unnorm(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return float(self.eval_unnorm_batch(theta[None, :])[0])

    def grid(self, grid_step=None):
        """Midpoint grid over the prior bounds: (points, unnorm, mass).

        unnorm is the unnormalized posterior at each cell center and mass
        its midpoint-quadrature integral, which is cached for
        partition_function; raises DegenerateResult when no grid cell
        carries mass.
        """
        points, volume = midpoint_grid(self.prior.bounds, grid_step)
        unnorm = self.eval_unnorm_batch(points)
        mass = float(np.sum(unnorm) * volume)
        if not np.isfinite(mass) or mass <= 0.0:
            raise DegenerateResult("posterior mass is zero on the normalization grid")
        self._partition[_grid_key(grid_step)] = mass
        return points, unnorm, mass

    def partition_function(self, grid_step=None):
        """Midpoint-quadrature mass of the unnormalized posterior, computed
        by grid() once per grid step."""
        key = _grid_key(grid_step)
        if key not in self._partition:
            self.grid(grid_step)
        return self._partition[key]

    def eval_posterior_batch(self, thetas, grid_step=None):
        return self.eval_unnorm_batch(thetas) / self.partition_function(grid_step)

    def eval_posterior(self, theta, grid_step=None):
        theta = np.asarray(theta, dtype=np.float64)
        return float(self.eval_posterior_batch(theta[None, :], grid_step)[0])


class InferenceResult:
    """All draws from all regions with their importance weights.

    Zero-weight draws are kept so acceptance diagnostics remain visible;
    expectations ignore them naturally through the weights.
    """

    def __init__(self, thetas, weights, problem_indices, draw_indices, eps, seed):
        self.thetas = np.asarray(thetas, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.problem_indices = np.asarray(problem_indices, dtype=np.int64)
        self.draw_indices = np.asarray(draw_indices, dtype=np.int64)
        self.eps = float(eps)
        self.seed = int(seed)
        n = self.thetas.shape[0]
        if not (self.weights.shape[0] == n and self.problem_indices.shape[0] == n
                and self.draw_indices.shape[0] == n):
            raise ValueError("all sample columns must have the same length")

    @property
    def n_samples(self):
        return self.thetas.shape[0]

    @property
    def dimension(self):
        return self.thetas.shape[1]

    def expectation(self, h):
        """Self-normalized weighted expectation of h over the samples.

        h maps one parameter vector to a scalar or a vector; returns a float
        or an array accordingly.  Raises DegenerateResult when every weight
        is zero.
        """
        w = self.weights
        total = float(w.sum())
        if total <= 0.0:
            raise DegenerateResult("all sample weights are zero")
        active = np.nonzero(w > 0)[0]
        values = np.asarray([np.asarray(h(self.thetas[j]), dtype=np.float64)
                             for j in active])
        if values.ndim == 1:
            return float((w[active] * values).sum() / total)
        return (w[active, None] * values).sum(axis=0) / total

    def summary(self):
        """Weighted moments and quantiles per parameter, plus sample
        effective size."""
        from .evaluate import compute_ess

        w = self.weights
        total = float(w.sum())
        if total <= 0.0:
            raise DegenerateResult("all sample weights are zero")
        mean = (w[:, None] * self.thetas).sum(axis=0) / total
        var = (w[:, None] * (self.thetas - mean) ** 2).sum(axis=0) / total
        params = []
        for m in range(self.dimension):
            params.append({
                "mean": float(mean[m]),
                "sd": float(np.sqrt(var[m])),
                "q025": _weighted_quantile(self.thetas[:, m], w, 0.025),
                "median": _weighted_quantile(self.thetas[:, m], w, 0.5),
                "q975": _weighted_quantile(self.thetas[:, m], w, 0.975),
            })
        return {
            "n_samples": int(self.n_samples),
            "n_regions": int(np.unique(self.problem_indices).size),
            "eps": self.eps,
            "sum_weights": total,
            "ess": compute_ess(w),
            "nonzero_fraction": float(np.mean(w > 0)),
            "parameters": params,
        }


def _weighted_quantile(values, weights, q):
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, q * cum[-1], side="left"))
    return float(v[min(idx, v.size - 1)])


def sample(posterior, n2, seed):
    """Draw n2 weighted samples from every region of the posterior.

    Each region i gets its own generator derived from (seed, problem
    index), so results do not depend on evaluation order.  Weights are
    indicator(distance <= eps) * prior(theta) * box volume, the box volume
    being 1 / proposal density.
    """
    if n2 < 1:
        raise ValueError("n2 must be positive")
    k = posterior.n_regions
    d = posterior.regions[0].box.dimension
    thetas = np.empty((k * n2, d))
    weights = np.empty(k * n2)
    problem_indices = np.empty(k * n2, dtype=np.int64)
    draw_indices = np.tile(np.arange(n2, dtype=np.int64), k)
    for pos, (pi, region, distance) in enumerate(
        zip(posterior.problem_indices, posterior.regions, posterior.distances)
    ):
        rng = derive_rng(seed, pi, STREAM_SAMPLE)
        block = slice(pos * n2, (pos + 1) * n2)
        draws = region.sample(n2, rng)
        dist = evaluate_distance_batch(distance, draws)
        pdf = np.asarray(posterior.prior.pdf_batch(draws), dtype=np.float64)
        thetas[block] = draws
        weights[block] = np.where(dist <= posterior.eps, pdf * region.box.volume, 0.0)
        problem_indices[block] = pi
    return InferenceResult(thetas, weights, problem_indices, draw_indices,
                           posterior.eps, seed)
