"""Posterior approximation and weighted sampling over the trained regions.

The unnormalized posterior at theta is the prior density times the number
of accepted problems whose distance at theta is within eps.  Its mass is
a midpoint quadrature over the prior bounds, where a Gaussian-process
mean is taken in product form over the grid's axes and checked row-wise
near eps, so the grid counts the acceptance sets the sampler does.  Sampling
draws uniformly from every region's box through one RegionStack and
weights each draw by indicator * prior / proposal, so expectations are
simple weighted averages and zero-weight draws stay in the output.
"""

import numpy as np

from .errors import DegenerateResult, UnsupportedDimension
from .model import STREAM_SAMPLE, derive_rng

GRID_CELLS_PER_AXIS = 200
GRID_MAX_DIMENSION = 3
# the default grid at the largest dimension; no grid_step may ask for more
GRID_MAX_CELLS = GRID_CELLS_PER_AXIS ** GRID_MAX_DIMENSION


def grid_axes(bounds, grid_step=None):
    """Cell centers along each axis and the cell volume of a midpoint
    quadrature grid.

    grid_step may be None (range / 200 per axis), a scalar, or one step
    per axis; the step is rounded so a whole number of cells covers each
    range.  Only defined up to 3 dimensions and GRID_MAX_CELLS cells.
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
        # counted in floating point, so a tiny step cannot overflow the
        # int conversion into a small or negative count
        with np.errstate(over="ignore"):
            n_cells = np.maximum(np.ceil(ranges / steps - 1e-9), 1.0)
            total = np.prod(n_cells)
        if total > GRID_MAX_CELLS:
            raise ValueError(
                f"grid_step {grid_step} asks for more than {GRID_MAX_CELLS} cells"
            )
        n_cells = n_cells.astype(int)
    widths = ranges / n_cells
    axes = [
        bounds[m, 0] + (np.arange(n_cells[m]) + 0.5) * widths[m] for m in range(d)
    ]
    return axes, float(np.prod(widths))


def _mesh(axes):
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def midpoint_grid(bounds, grid_step=None):
    """Cell centers, in C order over grid_axes, and cell volume of a
    midpoint quadrature grid."""
    axes, volume = grid_axes(bounds, grid_step)
    return _mesh(axes), volume


def _grid_key(grid_step):
    return None if grid_step is None else tuple(np.atleast_1d(grid_step).tolist())


class PosteriorApproximation:
    """Mixture-of-regions posterior built from accepted problems.

    regions is the RegionStack of their boxes and distances their
    DistanceStack, both indexed by accepted problem; problem_indices
    carries the original problem numbering.
    """

    def __init__(self, prior, eps, regions, distances, problem_indices=None):
        if len(regions) == 0:
            raise ValueError("at least one accepted region is required")
        if len(regions) != len(distances.distances):
            raise ValueError("regions and distances must align")
        if problem_indices is None:
            problem_indices = list(range(len(regions)))
        if len(problem_indices) != len(regions):
            raise ValueError("problem_indices must align with regions")
        self.prior = prior
        self.eps = float(eps)
        self.regions = regions
        self.distances = distances
        self.problem_indices = [int(i) for i in problem_indices]
        self._partition = {}

    @property
    def n_regions(self):
        return len(self.regions)

    def eval_unnorm_batch(self, thetas, axes=None):
        """Prior density times the count of distances within eps, per row.

        Given axes, thetas must be their C-order mesh, and a distance with
        evaluate_grid is taken on it, then again with evaluate_batch at the
        cells within its bound of eps, so each indicator is the batch one.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        pdf = np.asarray(self.prior.pdf_batch(thetas), dtype=np.float64)
        out = np.zeros(thetas.shape[0])
        active = pdf > 0.0
        if np.any(active):
            counts = np.zeros(int(active.sum()))
            subset = thetas[active]
            for k, distance in enumerate(self.distances.distances):
                if axes is not None and hasattr(distance, "evaluate_grid"):
                    values, bound = distance.evaluate_grid(axes)
                    values = values[active]
                    near = np.abs(values - self.eps) <= bound
                    values[near] = distance.evaluate_batch(subset[near])
                else:
                    values = self.distances(subset, k)
                counts += values <= self.eps
            out[active] = pdf[active] * counts
        return out

    def grid(self, grid_step=None):
        """Midpoint grid over the prior bounds: (points, unnorm, mass).

        unnorm is the unnormalized posterior at each cell center, from one
        eval_unnorm_batch call on the grid and its axes, and mass its
        midpoint-quadrature integral, which is cached for
        partition_function; raises DegenerateResult when no grid cell
        carries mass.
        """
        axes, volume = grid_axes(self.prior.bounds, grid_step)
        points = _mesh(axes)
        unnorm = self.eval_unnorm_batch(points, axes)
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
            q025, median, q975 = _weighted_quantiles(self.thetas[:, m], w,
                                                     (0.025, 0.5, 0.975))
            params.append({
                "mean": float(mean[m]),
                "sd": float(np.sqrt(var[m])),
                "q025": q025,
                "median": median,
                "q975": q975,
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


def _weighted_quantiles(values, weights, qs):
    """Weighted quantiles of values at each of qs, from one sort."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = np.searchsorted(cum, np.asarray(qs) * cum[-1], side="left")
    return values[order][np.minimum(idx, values.size - 1)].tolist()


def sample(posterior, n2, seed):
    """Draw n2 weighted samples from every region of the posterior.

    Each region i gets its own generator derived from (seed, problem
    index), so results do not depend on evaluation order.  Weights are
    indicator(distance <= eps) * prior(theta) * box volume, the box volume
    being 1 / proposal density; the k * n2 draws come from one RegionStack
    and are evaluated in one posterior.distances call and one pdf_batch.
    """
    k = posterior.n_regions
    thetas = posterior.regions.sample(n2, [derive_rng(seed, pi, STREAM_SAMPLE)
                                           for pi in posterior.problem_indices])
    owners = np.repeat(np.arange(k), n2)
    dist = posterior.distances(thetas, owners)
    pdf = np.asarray(posterior.prior.pdf_batch(thetas), dtype=np.float64)
    weights = np.where(dist <= posterior.eps,
                       pdf * posterior.regions.volumes[owners], 0.0)
    problem_indices = np.array(posterior.problem_indices, dtype=np.int64)[owners]
    draw_indices = np.tile(np.arange(n2, dtype=np.int64), k)
    return InferenceResult(thetas, weights, problem_indices, draw_indices,
                           posterior.eps, seed)
