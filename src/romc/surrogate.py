"""Cheap local stand-ins for the per-seed distances.

After regions exist, each distance can be replaced by a quadratic fitted
on points drawn inside its bounding box, all boxes of a stack drawn and
evaluated at once, which makes posterior evaluation and weighting orders
of magnitude cheaper for expensive simulators.
InferenceBundle.posterior picks the one kind inference uses for every
problem: fitted quadratics first, then Gaussian-process means, then the
true objectives.
"""

import logging

import numpy as np

from .regions import RegionStack

logger = logging.getLogger(__name__)

RIDGE_LAMBDA = 1e-8


def quadratic_feature_count(dimension):
    """Number of monomials of degree <= 2 in `dimension` variables."""
    d = int(dimension)
    if d < 1:
        raise ValueError("dimension must be positive")
    return 1 + d + d * (d + 1) // 2


def training_size(n_train, dimension):
    """n_train, or by default 20 design points per feature capped at 500;
    raises when it does not cover the feature count."""
    n_features = quadratic_feature_count(dimension)
    if n_train is None:
        return min(20 * n_features, 500)
    if n_train < n_features:
        raise ValueError(
            f"n_train must be at least the feature count ({n_features})"
        )
    return n_train


def _features(thetas):
    a, b = np.triu_indices(thetas.shape[1])
    return np.column_stack([np.ones(len(thetas)), thetas,
                            thetas[:, a] * thetas[:, b]])


class QuadraticSurrogate:
    """Full quadratic d(theta) ~ c + b.theta + theta.Q.theta with Q symmetric."""

    def __init__(self, intercept, linear, quad):
        self.intercept = float(intercept)
        self.linear = np.asarray(linear, dtype=np.float64)
        quad = np.asarray(quad, dtype=np.float64)
        d = self.linear.size
        if quad.shape != (d, d):
            raise ValueError("quad must be square and match linear")
        self.quad = (quad + quad.T) / 2.0

    def evaluate_batch(self, thetas):
        """c + b.theta + theta.Q.theta per row, elementwise with no matrix
        product, so a row's value does not depend on the batch around it."""
        thetas = np.asarray(thetas, dtype=np.float64)
        d = self.linear.size
        out = np.full(thetas.shape[0], self.intercept)
        for a in range(d):
            out += self.linear[a] * thetas[:, a]
        for a in range(d):
            for b in range(d):
                out += self.quad[a, b] * thetas[:, a] * thetas[:, b]
        return out

    def to_record(self):
        return {
            "intercept": self.intercept,
            "linear": self.linear.tolist(),
            "quad": self.quad.tolist(),
        }

    @classmethod
    def from_record(cls, record):
        return cls(record["intercept"], record["linear"], record["quad"])


def fit_quadratics(distances, regions, n_train, seeds):
    """Least-squares quadratic fit of each distance of a DistanceStack over
    its box of a RegionStack, from n_train uniform draws in it (box k's
    from seeds[k]), all drawn and evaluated at once.  n_train defaults to
    20 per feature, capped at 500, and must cover the feature count; a
    rank-deficient design gets a tiny ridge penalty."""
    k, d = regions.centers.shape
    n = training_size(n_train, d)
    thetas = regions.sample(n, seeds)
    values = np.asarray(distances(thetas, np.repeat(np.arange(k), n)),
                        dtype=np.float64)
    return [_least_squares(t, v) for t, v in zip(thetas.reshape(k, n, d),
                                                 values.reshape(k, n))]


def fit_quadratic(distance, box, n_train=None, seed=0):
    """fit_quadratics of one distance over one BoundingBox: the built-in
    surrogate_fitter."""
    return fit_quadratics(lambda thetas, owners: distance.evaluate_batch(thetas),
                          RegionStack.of([box]), n_train, [seed])[0]


def _least_squares(thetas, values):
    d = thetas.shape[1]
    n_features = quadratic_feature_count(d)
    design = _features(thetas)
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < n_features:
        logger.warning(
            "rank-deficient quadratic design (rank %d of %d); adding ridge",
            rank, n_features,
        )
        gram = design.T @ design + RIDGE_LAMBDA * np.eye(n_features)
        coef = np.linalg.solve(gram, design.T @ values)
    # the upper triangle; the surrogate halves each cross term into Q
    quad = np.zeros((d, d))
    quad[np.triu_indices(d)] = coef[1 + d:]
    return QuadraticSurrogate(coef[0], coef[1:1 + d], quad)
