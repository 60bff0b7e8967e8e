"""Bundled benchmark problems, addressable by name from the CLI.

"1d": a scalar problem whose output is theta**4 inside [-0.5, 0.5] and
|theta| - c outside (continuously joined), plus standard normal noise,
observed at 0.  Its posterior is known in closed form up to quadrature,
which makes it the reference for divergence checks.

"ma2": a second-order moving-average series observed through lag-1 and
lag-2 autocovariance summaries, with the uniform band prior
theta1 ~ U(-2, 2), theta2 | theta1 ~ U(theta1 - 1, theta1 + 1).

rejection_abc provides a plain accept-reject baseline for comparing
posterior moments on either problem.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateResult
from .inference import midpoint_grid
from .model import SEED_MAX, BoxUniformPrior, IdentitySummary, Model, Prior
from .optimize import compute_eps

TOY_BOUNDS = (-2.5, 2.5)
TOY_OBSERVED = 0.0

DEFAULT_MA2_N_OBS = 100
DEFAULT_MA2_THETA_TRUE = (0.6, 0.2)
DEFAULT_MA2_OBSERVATION_SEED = 3


class ToySimulator:
    """1d benchmark simulator: location(theta) plus one normal draw."""

    output_dimension = 1

    def run(self, theta, seed):
        return self.bind(seed)(theta)

    def bind(self, seed):
        u = float(np.random.default_rng(seed).standard_normal())
        return _ToyBound(u)


class _ToyBound:
    def __init__(self, u):
        self.u = u

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return kernels.toy_location(theta[:1]) + self.u


class _ToyBatchFactory:
    def __call__(self, seed, observed_summary):
        u = float(np.random.default_rng(seed).standard_normal())
        return _ToyBatch(u, float(observed_summary[0]))


class _ToyBatch:
    def __init__(self, u, y_obs):
        self.u = u
        self.y_obs = y_obs

    def __call__(self, thetas):
        return kernels.toy_distance_batch(np.asarray(thetas)[:, 0], self.u, self.y_obs)


def make_toy_model():
    return Model(
        name="1d",
        prior=BoxUniformPrior([TOY_BOUNDS]),
        simulator=ToySimulator(),
        summary=IdentitySummary(1),
        observed=np.array([TOY_OBSERVED]),
        batch_distance_factory=_ToyBatchFactory(),
        config={"name": "1d"},
    )


class ToyTruePosterior:
    """Closed-form posterior of the 1d benchmark, normalized by midpoint
    quadrature on its own grid so it integrates to one there."""

    def __init__(self, grid_step=0.01, observed=TOY_OBSERVED):
        self.bounds = np.array([TOY_BOUNDS])
        self.observed = float(observed)
        points, volume = midpoint_grid(self.bounds, grid_step)
        self._norm = float(np.sum(self._unnorm(points[:, 0])) * volume)

    def _unnorm(self, thetas):
        loc = kernels.toy_location(thetas)
        likelihood = np.exp(-0.5 * (self.observed - loc) ** 2) / np.sqrt(2.0 * np.pi)
        lo, hi = TOY_BOUNDS
        inside = (thetas >= lo) & (thetas <= hi)
        return np.where(inside, likelihood / (hi - lo), 0.0)

    def evaluate_batch(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim == 2:
            thetas = thetas[:, 0]
        return self._unnorm(thetas) / self._norm

    __call__ = evaluate_batch


class Ma2Prior(Prior):
    """theta1 uniform on (-2, 2); theta2 uniform on (theta1 - 1, theta1 + 1)."""

    _bounds = np.array([[-2.0, 2.0], [-3.0, 3.0]])

    @property
    def dimension(self):
        return 2

    @property
    def bounds(self):
        return self._bounds.copy()

    def sample(self, rng):
        t1 = rng.uniform(-2.0, 2.0)
        t2 = rng.uniform(t1 - 1.0, t1 + 1.0)
        return np.array([t1, t2])

    def log_pdf(self, theta):
        t1, t2 = float(theta[0]), float(theta[1])
        if -2.0 <= t1 <= 2.0 and t1 - 1.0 <= t2 <= t1 + 1.0:
            return -np.log(8.0)
        return -np.inf

    def pdf(self, theta):
        # exact constant so the scalar and batch paths agree bitwise
        return 0.125 if np.isfinite(self.log_pdf(theta)) else 0.0

    def pdf_batch(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        t1, t2 = thetas[:, 0], thetas[:, 1]
        inside = (
            (t1 >= -2.0) & (t1 <= 2.0) & (t2 >= t1 - 1.0) & (t2 <= t1 + 1.0)
        )
        return np.where(inside, 0.125, 0.0)


class Ma2Simulator:
    """Moving-average series of order two driven by n_obs + 2 normal draws."""

    def __init__(self, n_obs=DEFAULT_MA2_N_OBS):
        if n_obs < 3:
            raise ValueError("n_obs must be at least 3")
        self.n_obs = int(n_obs)

    @property
    def output_dimension(self):
        return self.n_obs

    def run(self, theta, seed):
        return self.bind(seed)(theta)

    def bind(self, seed):
        noise = np.random.default_rng(seed).standard_normal(self.n_obs + 2)
        return _Ma2Bound(noise)


class _Ma2Bound:
    def __init__(self, noise):
        self.noise = noise

    def __call__(self, theta):
        return kernels.ma2_series(float(theta[0]), float(theta[1]), self.noise)


class Ma2Summary:
    """Lag-1 and lag-2 autocovariance-style summaries."""

    summary_dimension = 2

    def __call__(self, output):
        return kernels.autocov_summaries(output)


class _Ma2BatchFactory:
    def __init__(self, n_obs):
        self.n_obs = n_obs

    def __call__(self, seed, observed_summary):
        noise = np.random.default_rng(seed).standard_normal(self.n_obs + 2)
        gram = kernels.ma2_gram(noise).tolist()
        return _Ma2Batch(gram, float(observed_summary[0]), float(observed_summary[1]))


class _Ma2Batch:
    def __init__(self, gram, s1_obs, s2_obs):
        self.gram = gram
        self.s1_obs = s1_obs
        self.s2_obs = s2_obs

    def __call__(self, thetas):
        return kernels.ma2_distance_batch(thetas, self.gram, self.s1_obs, self.s2_obs)


def make_ma2_model(n_obs=DEFAULT_MA2_N_OBS, theta_true=DEFAULT_MA2_THETA_TRUE,
                   observation_seed=DEFAULT_MA2_OBSERVATION_SEED):
    simulator = Ma2Simulator(n_obs)
    observed = simulator.run(np.asarray(theta_true, dtype=np.float64),
                             observation_seed)
    return Model(
        name="ma2",
        prior=Ma2Prior(),
        simulator=simulator,
        summary=Ma2Summary(),
        observed=observed,
        batch_distance_factory=_Ma2BatchFactory(n_obs),
        config={
            "name": "ma2",
            "n_obs": int(n_obs),
            "theta_true": [float(t) for t in theta_true],
            "observation_seed": int(observation_seed),
        },
    )


_FACTORIES = {"1d": make_toy_model, "ma2": make_ma2_model}


def build_model(config):
    """Rebuild a benchmark model from its config dict or bare name."""
    if isinstance(config, str):
        config = {"name": config}
    config = dict(config)
    name = config.pop("name", None)
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(_FACTORIES)}"
        )
    return _FACTORIES[name](**config)


@dataclass
class RejectionResult:
    """Accepted draws of plain rejection sampling with their distances."""

    thetas: np.ndarray
    distances: np.ndarray
    threshold: float
    n_draws: int

    @property
    def n_accepted(self):
        return self.thetas.shape[0]

    def mean(self):
        return self.thetas.mean(axis=0)

    def std(self):
        return self.thetas.std(axis=0)

    def grid_density(self, bounds=None, grid_step=None):
        """Piecewise-constant density of the accepted draws on a midpoint
        grid over bounds, for divergence comparisons."""
        if self.n_accepted == 0:
            raise DegenerateResult("no accepted draws to build a density from")
        bounds = np.asarray(bounds, dtype=np.float64)
        points, volume = midpoint_grid(bounds, grid_step)
        d = bounds.shape[0]
        edges = []
        for m in range(d):
            centers = np.unique(points[:, m])
            width = centers[1] - centers[0] if centers.size > 1 else (
                bounds[m, 1] - bounds[m, 0]
            )
            edges.append(np.concatenate([centers - width / 2.0,
                                         [centers[-1] + width / 2.0]]))
        counts, _ = np.histogramdd(self.thetas, bins=edges)
        density = counts / (self.n_accepted * volume)
        return _HistogramDensity(edges, density)


class _HistogramDensity:
    """Looks up a binned density; zero outside the binned range."""

    def __init__(self, edges, density):
        self.edges = [np.asarray(e, dtype=np.float64) for e in edges]
        self.density = np.asarray(density, dtype=np.float64)

    def evaluate_batch(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n, d = points.shape
        idx = np.empty((n, d), dtype=np.int64)
        inside = np.ones(n, dtype=bool)
        for m in range(d):
            e = self.edges[m]
            inside &= (points[:, m] >= e[0]) & (points[:, m] <= e[-1])
            idx[:, m] = np.clip(
                np.searchsorted(e, points[:, m], side="right") - 1,
                0, e.size - 2,
            )
        values = self.density[tuple(idx.T)]
        return np.where(inside, values, 0.0)

    __call__ = evaluate_batch


def rejection_abc(model, n_draws=10000, quantile=0.01, seed=0):
    """Accept-reject baseline: keep the draws whose distance falls at or
    below the requested quantile of all simulated distances."""
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    observed_summary = model.observed_summary
    sim_seeds = rng.integers(1, SEED_MAX, size=n_draws)
    thetas = np.empty((n_draws, model.prior.dimension))
    distances = np.empty(n_draws)
    for j in range(n_draws):
        theta = model.prior.sample(rng)
        output = model.simulator.run(theta, int(sim_seeds[j]))
        distances[j] = model.distance(model.summary(output), observed_summary)
        thetas[j] = theta
    threshold = compute_eps(distances, quantile)
    keep = distances <= threshold
    return RejectionResult(thetas[keep], distances[keep], float(threshold),
                           n_draws)
