"""Proposal-region construction around each accepted minimizer.

A region is an oriented bounding box of the acceptance set
{theta : d_i(theta) <= eps} around x_min.  Axes come from the eigenvectors
of a curvature matrix at the minimizer; extents along each direction come
from a step-doubling-free, step-halving line search that walks outward
until the distance exceeds eps.  Boxes may stick out of the prior bounds;
the prior density zeroes those samples later, so no clipping happens here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, UnsupportedDimension
from .model import evaluate_distance_batch

ORTHO_TOL = 1e-8


def curvature_axes(hess):
    """Orthonormal axes from a symmetric curvature matrix.

    Columns are eigenvectors ordered by descending eigenvalue (stable for
    ties), each with its first nonzero component made positive so the
    result is unique.
    """
    hess = np.asarray(hess, dtype=np.float64)
    if hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
        raise ValueError("curvature matrix must be square")
    sym = (hess + hess.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(-eigvals, kind="stable")
    axes = eigvecs[:, order]
    for m in range(axes.shape[1]):
        col = axes[:, m]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            axes[:, m] = -col
    return axes


def jacobian_curvature(objective, theta, step=1e-5):
    """Gauss-Newton style curvature J^T J of the summary map at theta.

    J holds central finite differences of the seeded summaries, one column
    per parameter, using step * max(1, |theta_m|) like the gradient
    routine.  Raises NumericalFailure on non-finite summaries.
    """
    theta = np.asarray(theta, dtype=np.float64)
    columns = []
    for m in range(theta.size):
        h = step * max(1.0, abs(theta[m]))
        probe = theta.copy()
        probe[m] = theta[m] + h
        s_plus = objective.summaries(probe)
        probe[m] = theta[m] - h
        s_minus = objective.summaries(probe)
        if not (np.all(np.isfinite(s_plus)) and np.all(np.isfinite(s_minus))):
            raise NumericalFailure(
                f"non-finite summaries near coordinate {m}", point=probe
            )
        columns.append((s_plus - s_minus) / (2.0 * h))
    jac = np.column_stack(columns)
    return jac.T @ jac


def choose_curvature(result, objective=None, step=1e-5):
    """Pick the curvature matrix for the axes, with fallbacks.

    Uses the optimizer's hess_appr when it is positive semidefinite, else
    J^T J of the summaries when an objective is supplied, else the
    identity.  Returns (matrix, source) with source one of "hess_appr",
    "jacobian", "identity".
    """
    hess = result.hess_appr
    eigvals = np.linalg.eigvalsh((hess + hess.T) / 2.0)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(eigvals))))
    if np.all(np.isfinite(eigvals)) and eigvals.min() >= -tol:
        return hess, "hess_appr"
    if objective is not None:
        try:
            return jacobian_curvature(objective, result.x_min, step=step), "jacobian"
        except NumericalFailure:
            pass
    return np.eye(result.x_min.size), "identity"


@dataclass
class RegionSettings:
    """Line-search tuning: initial step, halvings, and per-pass step cap."""

    eta_start: float
    refinements: int = 10
    max_steps: int = 40

    def __post_init__(self):
        if self.eta_start <= 0:
            raise ValueError("eta_start must be positive")
        if self.refinements < 1:
            raise ValueError("refinements must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")

    @classmethod
    def from_prior(cls, prior, fraction=0.05, refinements=10, max_steps=40):
        """Initial step as a fraction of the mean prior range."""
        eta = fraction * float(np.mean(prior.ranges))
        return cls(eta_start=eta, refinements=refinements, max_steps=max_steps)


def line_search_extent(distance, center, direction, eps, settings):
    """Distance from center to the acceptance boundary along a unit direction.

    Each pass walks outward in steps of eta until the distance exceeds eps
    or max_steps steps have been taken, retreats one step, halves eta, and
    repeats for `refinements` passes.  If no step was ever kept the extent
    falls back to half the final step size, so the result is always
    positive.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    center = np.asarray(center, dtype=np.float64)
    offset = 0.0
    eta = settings.eta_start
    for _ in range(settings.refinements):
        steps = 0
        while True:
            offset += eta
            steps += 1
            value = float(distance(center + offset * direction))
            if value > eps or steps >= settings.max_steps:
                break
        if value > eps:
            offset -= eta
        eta /= 2.0
    if offset == 0.0:
        offset = settings.eta_start / 2.0**settings.refinements
    return offset


class BoundingBox:
    """Oriented box: center, orthonormal rotation, per-axis signed limits.

    A point theta maps to rotated coordinates z = R^T (theta - center);
    the box is {z : limits[m, 0] <= z_m <= limits[m, 1]} with the lower
    limit negative and the upper positive, so the center is interior.
    """

    def __init__(self, rotation, center, limits):
        rotation = np.asarray(rotation, dtype=np.float64)
        center = np.asarray(center, dtype=np.float64)
        limits = np.asarray(limits, dtype=np.float64)
        d = center.size
        if rotation.shape != (d, d):
            raise ValueError("rotation must be square and match the center")
        if np.max(np.abs(rotation.T @ rotation - np.eye(d))) > ORTHO_TOL:
            raise ValueError("rotation must have orthonormal columns")
        if limits.shape != (d, 2):
            raise ValueError("limits must have shape (D, 2)")
        if not (np.all(limits[:, 0] < 0.0) and np.all(limits[:, 1] > 0.0)):
            raise ValueError("limits must straddle zero on every axis")
        self.rotation = rotation.copy()
        self.center = center.copy()
        self.limits = limits.copy()
        self.volume = float(np.prod(limits[:, 1] - limits[:, 0]))

    @property
    def dimension(self):
        return self.center.size

    def to_rotated(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        return (thetas - self.center) @ self.rotation

    def from_rotated(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        return z @ self.rotation.T + self.center

    def contains(self, thetas, atol=1e-10):
        """Boolean mask (or scalar for one point) of membership."""
        thetas = np.asarray(thetas, dtype=np.float64)
        single = thetas.ndim == 1
        z = self.to_rotated(thetas)
        inside = np.all(
            (z >= self.limits[:, 0] - atol) & (z <= self.limits[:, 1] + atol),
            axis=1,
        )
        return bool(inside[0]) if single else inside

    def to_record(self):
        return {
            "center": self.center.tolist(),
            "rotation": self.rotation.tolist(),
            "limits": self.limits.tolist(),
        }

    @classmethod
    def from_record(cls, record):
        return cls(record["rotation"], record["center"], record["limits"])


class ProposalRegion:
    """Uniform proposal over one bounding box."""

    def __init__(self, box):
        self.box = box
        self.density = 1.0 / box.volume

    def pdf(self, theta):
        return self.density if self.box.contains(theta) else 0.0

    def pdf_batch(self, thetas):
        return np.where(self.box.contains(np.asarray(thetas)), self.density, 0.0)

    def sample(self, n, seed):
        """Draw n points uniformly inside the box; seed may be an int or a
        numpy Generator."""
        if n < 1:
            raise ValueError("n must be positive")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        z = rng.uniform(
            self.box.limits[:, 0], self.box.limits[:, 1], size=(n, self.box.dimension)
        )
        return self.box.from_rotated(z)


def build_box(distance, result, eps, settings, curvature=None, objective=None):
    """Bounding box of the acceptance set around one minimizer.

    Axes are the curvature eigenvectors (choose_curvature decides the
    matrix unless one is given); extents come from a pair of line searches
    per axis.  Requires result.f_min <= eps so the center is acceptable.
    """
    if result.f_min > eps:
        raise ValueError("cannot build a region around a rejected minimizer")
    if curvature is None:
        curvature, _ = choose_curvature(result, objective=objective)
    axes = curvature_axes(curvature)
    center = result.x_min
    d = center.size
    limits = np.empty((d, 2))
    for m in range(d):
        direction = axes[:, m]
        pos = line_search_extent(distance, center, direction, eps, settings)
        neg = line_search_extent(distance, center, -direction, eps, settings)
        limits[m, 0] = -neg
        limits[m, 1] = pos
    return BoundingBox(axes, center, limits)


@dataclass
class RegionPlotData:
    """Plot-ready geometry: box corners, a closed outline, and distance
    values on a rotated grid around the box."""

    corners: np.ndarray
    polyline: np.ndarray
    grid_points: np.ndarray
    grid_values: np.ndarray


def region_plot_data(region, distance, grid=64, margin=0.2):
    """Corners and a distance field for visual checks in 1 or 2 dimensions."""
    box = region.box
    d = box.dimension
    if d > 2:
        raise UnsupportedDimension("plot data is only available for D <= 2")
    lo, hi = box.limits[:, 0], box.limits[:, 1]
    if d == 1:
        corners_z = np.array([[lo[0]], [hi[0]]])
        polyline_z = corners_z
    else:
        corners_z = np.array(
            [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
        )
        polyline_z = np.vstack([corners_z, corners_z[:1]])
    widths = hi - lo
    axes_1d = [
        np.linspace(lo[m] - margin * widths[m], hi[m] + margin * widths[m], grid)
        for m in range(d)
    ]
    if d == 1:
        grid_z = axes_1d[0][:, None]
    else:
        za, zb = np.meshgrid(axes_1d[0], axes_1d[1], indexing="ij")
        grid_z = np.column_stack([za.ravel(), zb.ravel()])
    grid_points = box.from_rotated(grid_z)
    grid_values = evaluate_distance_batch(distance, grid_points)
    return RegionPlotData(
        corners=box.from_rotated(corners_z),
        polyline=box.from_rotated(polyline_z),
        grid_points=grid_points,
        grid_values=grid_values,
    )
