"""Cheap local stand-ins for the per-seed distances.

After regions exist, each distance can be replaced by a quadratic fitted
on points drawn inside its bounding box, which makes posterior evaluation
and weighting orders of magnitude cheaper for expensive simulators.
InferenceBundle.posterior picks the one kind inference uses for every
problem: fitted quadratics first, then Gaussian-process means, then the
true objectives.
"""

import logging

import numpy as np

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
    n, d = thetas.shape
    cols = [np.ones(n)]
    cols.extend(thetas[:, m] for m in range(d))
    for a in range(d):
        for b in range(a, d):
            cols.append(thetas[:, a] * thetas[:, b])
    return np.column_stack(cols)


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


def fit_quadratic(distance, box, n_train=None, seed=0):
    """Least-squares quadratic fit of a distance over one bounding box.

    Training points are drawn uniformly inside the box; the distance is
    evaluated exactly n_train times.  n_train defaults to 20 design points
    per feature, capped at 500, and must cover the feature count.  Falls
    back to a tiny ridge penalty when the design is rank deficient.
    """
    d = box.dimension
    n_features = quadratic_feature_count(d)
    thetas = box.sample(training_size(n_train, d), seed)
    values = np.asarray(distance.evaluate_batch(thetas), dtype=np.float64)
    design = _features(thetas)
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < n_features:
        logger.warning(
            "rank-deficient quadratic design (rank %d of %d); adding ridge",
            rank, n_features,
        )
        gram = design.T @ design + RIDGE_LAMBDA * np.eye(n_features)
        coef = np.linalg.solve(gram, design.T @ values)
    intercept = coef[0]
    linear = coef[1 : 1 + d]
    quad = np.zeros((d, d))
    pos = 1 + d
    for a in range(d):
        for b in range(a, d):
            if a == b:
                quad[a, a] = coef[pos]
            else:
                quad[a, b] = coef[pos] / 2.0
                quad[b, a] = coef[pos] / 2.0
            pos += 1
    return QuadraticSurrogate(intercept, linear, quad)
