"""Quality metrics for weighted samples and grid densities.

Divergences are computed between two density evaluators discretized on
the same midpoint grid: cell masses are renormalized to sum to one on the
grid, so both sides are proper distributions over the cells.  All
divergences are reported in nats.
"""

import warnings

import numpy as np

from .errors import DegenerateResult
from .inference import midpoint_grid

DIVERGENCE_KINDS = ("jensen_shannon", "kl")


def compute_ess(weights):
    """Effective sample size (sum w)^2 / sum w^2 of nonnegative weights."""
    w = np.asarray(list(weights), dtype=np.float64)
    if w.size == 0:
        raise ValueError("weights must be nonempty")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise DegenerateResult("all weights are zero")
    return float(total * total / np.sum(w * w))


def _cell_masses(evaluator, points, volume, label):
    values = np.asarray(evaluator(points), dtype=np.float64)
    if values.shape != (points.shape[0],):
        raise ValueError(
            f"{label} evaluator must return one value per grid point, "
            f"got shape {values.shape} for {points.shape[0]} points"
        )
    if np.any(values < -1e-12) or not np.all(np.isfinite(values)):
        raise ValueError(f"{label} density must be finite and nonnegative on the grid")
    masses = np.maximum(values, 0.0) * volume
    total = masses.sum()
    if total <= 0.0:
        raise DegenerateResult(f"{label} density has zero mass on the grid")
    return masses / total


def _kl(p, q):
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        warnings.warn(
            "reference density is zero where the target has mass; KL is infinite",
            RuntimeWarning,
        )
        return float(np.inf)
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def compute_divergence(target, reference, bounds, grid_step=None,
                       kind="jensen_shannon"):
    """Divergence in nats between two densities on a shared midpoint grid.

    target and reference are evaluators taking (n, D) points; each is
    renormalized over the grid cells before comparing.  kind is
    jensen_shannon (symmetric, bounded by log 2) or kl (target against
    reference, infinite when the reference misses target mass).
    """
    kind = str(kind).lower().replace("-", "_")
    if kind == "js":
        kind = "jensen_shannon"
    if kind not in DIVERGENCE_KINDS:
        raise ValueError(f"kind must be one of {DIVERGENCE_KINDS}, got {kind!r}")
    points, volume = midpoint_grid(bounds, grid_step)
    p = _cell_masses(target, points, volume, "target")
    q = _cell_masses(reference, points, volume, "reference")
    if kind == "kl":
        return _kl(p, q)
    m = (p + q) / 2.0
    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)
