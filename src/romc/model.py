"""Problem definition layer: priors, seeded simulators, summaries and the
deterministic per-seed distances that the optimizers and regions consume.

Densities and distances are evaluated on batches of parameter rows: a
prior is bounds, sample(rng) and pdf_batch(thetas), and a distance is
anything with evaluate_batch(thetas).  A seeded simulator is any object
with

    run(theta, seed) -> 1d output array
    output_dimension -> int

With the seed fixed the map theta -> distance(summary(output), observed
summary) is an ordinary deterministic function; that is what
DeterministicObjective represents and everything downstream optimizes,
bounds and samples.  A Model checks and summarizes its observation once,
when it is built.  Its optional batch_distance_factory(seeds, observed
summary), one call per stage, is the one fast path: it draws each seed's
noise once and returns (kernel, args), a vectorized distance
kernel(thetas, *args) over (n, D) rows, each arg with one entry per seed
on its last axis.  Without it, run(theta, seed) draws the noise again.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

SEED_MAX = 2**32

# Named sub-streams used when deriving per-problem generators, so the
# optimizer, the sampler and the surrogate fitter never share draws.
STREAM_SOLVE = 1
STREAM_SAMPLE = 2
STREAM_FIT = 3


def squared_distance(a, b):
    """Squared euclidean distance between two summary vectors."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(diff, diff))


def draw_nuisance_seeds(n, master_seed):
    """Draw n simulator seeds from a master seed.

    Returns a list of n integers in [1, 2**32 - 1].  The list depends only
    on (n, master_seed), and the first n seeds of a longer draw equal the
    shorter draw, so runs with different n share a common prefix.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(master_seed)
    return [int(s) for s in rng.integers(1, SEED_MAX, size=n)]


def derive_rng(master_seed, *path):
    """Deterministic child generator for a named stream.

    Streams are identified by integer paths, e.g. (problem_index, stage).
    Deriving before dispatch keeps results independent of scheduling.
    """
    return np.random.default_rng([int(master_seed), *[int(p) for p in path]])


class Prior:
    """Interface for prior distributions over the parameter vector.

    Subclasses provide bounds (a (D, 2) array of finite lower/upper limits
    that enclose the support), sample(rng), one draw, and
    pdf_batch(thetas), the density at each row of an (n, D) array.
    """

    @property
    def dimension(self):
        return self.bounds.shape[0]

    @property
    def bounds(self):
        raise NotImplementedError

    @property
    def ranges(self):
        b = self.bounds
        return b[:, 1] - b[:, 0]

    def sample(self, rng):
        raise NotImplementedError

    def pdf_batch(self, thetas):
        raise NotImplementedError


class BoxUniformPrior(Prior):
    """Uniform prior over an axis-aligned box."""

    def __init__(self, bounds):
        b = np.asarray(bounds, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValueError("bounds must have shape (D, 2)")
        if not np.all(np.isfinite(b)) or not np.all(b[:, 0] < b[:, 1]):
            raise ValueError("each lower bound must be finite and below its upper bound")
        self._bounds = b
        self._log_density = -float(np.sum(np.log(b[:, 1] - b[:, 0])))

    @property
    def bounds(self):
        return self._bounds.copy()

    def sample(self, rng):
        return rng.uniform(self._bounds[:, 0], self._bounds[:, 1])

    def pdf_batch(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        inside = np.all(
            (thetas >= self._bounds[:, 0]) & (thetas <= self._bounds[:, 1]), axis=1
        )
        return np.where(inside, np.exp(self._log_density), 0.0)


class IdentitySummary:
    """Summary that passes the simulator output through unchanged."""

    def __init__(self, dimension):
        self.summary_dimension = int(dimension)

    def __call__(self, output):
        return np.asarray(output, dtype=np.float64)


@dataclass
class Model:
    """Bundle of everything that defines one inference problem.

    config, when set, is a plain dict from which the bundled benchmark
    registry can rebuild the model; models without it cannot be persisted
    to artifacts.
    """

    name: str
    prior: Prior
    simulator: Any
    summary: Callable
    observed: np.ndarray
    distance: Callable = squared_distance
    batch_distance_factory: Optional[Callable] = None
    config: Optional[dict] = field(default=None)
    observed_summary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=np.float64)
        out_dim = getattr(self.simulator, "output_dimension", None)
        if out_dim is not None and self.observed.shape != (out_dim,):
            raise ValueError(
                f"observed must have shape ({out_dim},), got {self.observed.shape}"
            )
        self.observed_summary = np.asarray(self.summary(self.observed),
                                           dtype=np.float64)


class DeterministicObjective:
    """Distance to the model's observed summaries under one fixed simulator
    seed.

    kernel, when given, is the distance as kernel(thetas, *args), with args
    the seed's coefficients; a point evaluated alone goes through the same
    kernel as a batch, so both give the same bits.  Without it, each
    evaluation runs the simulator at the seed.  Every stage calls
    evaluate_batch; evaluate, one point, is its row loop when there is no
    kernel.
    """

    def __init__(self, model, seed, index, kernel=None, args=()):
        self.model = model
        self.seed = int(seed)
        self.index = int(index)
        self.kernel = kernel
        self.args = args

    def summaries(self, theta):
        """Summary vector of the seeded simulator output at theta."""
        theta = np.asarray(theta, dtype=np.float64)
        output = self.model.simulator.run(theta, self.seed)
        return np.asarray(self.model.summary(output), dtype=np.float64)

    def evaluate(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        d = self.model.prior.dimension
        if theta.shape != (d,):
            raise ValueError(f"theta must have shape ({d},), got {theta.shape}")
        if self.kernel is not None:
            return float(self.kernel(theta[None, :], *self.args)[0])
        return float(self.model.distance(self.summaries(theta),
                                         self.model.observed_summary))

    def evaluate_batch(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        d = self.model.prior.dimension
        if thetas.ndim != 2 or thetas.shape[1] != d:
            raise ValueError(f"thetas must have shape (n, {d}), got {thetas.shape}")
        if self.kernel is not None:
            return self.kernel(thetas, *self.args)
        return np.array([self.evaluate(t) for t in thetas])

    __call__ = evaluate


def make_objective(model, seed, index):
    """Build the deterministic objective of one nuisance seed: the one-seed
    case of DistanceStack.of_model."""
    stack = DistanceStack.of_model(model, [seed], [index])
    if stack.kernel is None:
        return stack.distances[0]
    return DeterministicObjective(model, seed, index, stack.kernel,
                                  [arg[..., 0] for arg in stack.args])


class DistanceStack:
    """Several distances, evaluated together.

    stack(thetas, owners)[i] is row i of thetas under distance owners[i],
    bit for bit its value alone; an int owner takes every row.  A list of
    distances (objects with evaluate_batch(thetas) whose rows do not
    depend on the batch) makes one evaluate_batch per owner present; a
    stack from of_model, one kernel call, its distances being None.
    """

    def __init__(self, distances, kernel=None, args=()):
        self.distances = list(distances)
        self.kernel, self.args = kernel, args

    @classmethod
    def of_model(cls, model, seeds, indices):
        """The distances of a model's seeds, seeds[k] being problem
        indices[k]: one batch_distance_factory call, or, for a model
        without one, a list of DeterministicObjective."""
        if model.batch_distance_factory is None:
            return cls(DeterministicObjective(model, seed, index)
                       for seed, index in zip(seeds, indices))
        return cls([None] * len(seeds), *model.batch_distance_factory(
            seeds, model.observed_summary))

    def __call__(self, thetas, owners):
        if self.kernel is not None:
            return self.kernel(thetas, *[arg[..., owners] for arg in self.args])
        if np.ndim(owners) == 0:
            return self.distances[owners].evaluate_batch(thetas)
        owners = np.asarray(owners)
        out = np.empty(len(owners))
        for owner in np.unique(owners):
            rows = owners == owner
            out[rows] = self.distances[owner].evaluate_batch(thetas[rows])
        return out


def finite_difference_gradient(func, thetas, runs, step=1e-5):
    """Central finite-difference gradients at every row of thetas.

    func(points, runs) evaluates each point under the objective of its
    run (a DistanceStack); the probes of row i go to runs[i], in one
    call per coordinate.  The step along coordinate m is
    step * max(1, |theta_m|).  Returns (grads, finite): finite[i] is False
    when a probe of row i was non-finite, and its gradient row is then
    meaningless.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    n, d = thetas.shape
    owners = np.concatenate([runs, runs])
    grads = np.empty_like(thetas)
    finite = np.ones(n, dtype=bool)
    # a failed row may subtract infinities; its result is discarded
    with np.errstate(invalid="ignore", over="ignore"):
        for m in range(d):
            col = thetas[:, m]
            size = np.abs(col)
            h = step * np.where(size > 1.0, size, 1.0)
            probes = np.concatenate([thetas, thetas])
            probes[:n, m] = col + h
            probes[n:, m] = col - h
            values = func(probes, owners)
            f_plus, f_minus = values[:n], values[n:]
            finite &= np.isfinite(f_plus) & np.isfinite(f_minus)
            grads[:, m] = (f_plus - f_minus) / (2.0 * h)
    return grads, finite
