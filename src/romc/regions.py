"""Region construction around each accepted minimizer.

A region is an oriented bounding box of the acceptance set
{theta : d_i(theta) <= eps} around x_min; its problem's proposal is
uniform on the box.  A stage's boxes are one RegionStack, which maps
rotated coordinates and draws the samples; a hook gets a BoundingBox.
Axes come from the eigenvectors of a curvature matrix at the minimizer;
extents along each direction come from a step-doubling-free,
step-halving line search that walks outward until the distance exceeds
eps.  Boxes may stick out of the prior bounds; the prior density zeroes
those samples, so none is clipped.

Regions are built on columns, one eigvalsh, one eigh, one lockstep walk
and one check_boxes call for many; the one-region functions are the
one-row cases, so a region gets the same bits in any stack.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .model import DistanceStack

ORTHO_TOL = 1e-8
# passes, one halving each, that a line search which has not kept a step
# after its refinements may add, so an acceptance set of any size resolves
EXTRA_HALVINGS = 60


def curvature_axes(hess):
    """Orthonormal axes from symmetric curvature matrices: a (k, D, D)
    stack, in one eigh call, or one (D, D) matrix, its one-row case.

    Columns are eigenvectors ordered by descending eigenvalue (stable for
    ties), each with its first component above 1e-12 in magnitude made
    positive so the result is unique.
    """
    hess = np.asarray(hess, dtype=np.float64)
    if hess.ndim < 2 or hess.shape[-1] != hess.shape[-2]:
        raise ValueError("curvature matrix must be square")
    eigvals, eigvecs = np.linalg.eigh((hess + np.swapaxes(hess, -1, -2)) / 2.0)
    order = np.argsort(-eigvals, axis=-1, kind="stable")
    axes = np.take_along_axis(eigvecs, order[..., None, :], axis=-1)
    big = np.abs(axes) > 1e-12
    lead = np.take_along_axis(np.where(big, axes, 0.0),
                              big.argmax(axis=-2)[..., None, :], axis=-2)
    return np.where(lead < 0, -axes, axes)


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


def choose_curvatures(x_min, hess, objective_of=lambda k: None):
    """Pick the curvature matrix at each of k minimizers, with fallbacks.

    Row k keeps hess[k], its optimizer's estimate, when that is positive
    semidefinite, decided for every row by one eigvalsh over the stack.
    Only the other rows fall back, one at a time: to J^T J of the
    summaries of objective_of(k) at x_min[k], asked for no other row,
    unless it is None, else to the identity.  Returns (k, D, D) matrices,
    new ones, and sources, each "hess_appr", "jacobian" or "identity".
    """
    hess = np.array(hess, dtype=np.float64)
    eigvals = np.linalg.eigvalsh((hess + hess.transpose(0, 2, 1)) / 2.0)
    # fmax skips a NaN, as the scalar max(1.0, nan) does
    tol = 1e-8 * np.fmax(1.0, np.max(np.abs(eigvals), axis=1))
    psd = np.isfinite(eigvals).all(axis=1) & (eigvals.min(axis=1) >= -tol)
    sources = ["hess_appr"] * len(hess)
    for k in np.flatnonzero(~psd):
        hess[k], sources[k] = np.eye(hess.shape[1]), "identity"
        if (objective := objective_of(k)) is not None:
            with contextlib.suppress(NumericalFailure):
                hess[k], sources[k] = jacobian_curvature(
                    objective, x_min[k]), "jacobian"
    return hess, sources


def choose_curvature(result, objective=None):
    """choose_curvatures for one minimizer: (matrix, source)."""
    matrices, sources = choose_curvatures(
        result.x_min[None], result.hess_appr[None], lambda k: objective)
    return matrices[0], sources[0]


@dataclass
class RegionSettings:
    """Line-search tuning: initial step, halvings, and per-pass step cap."""

    eta_start: float
    refinements: int = 10
    max_steps: int = 40

    def __post_init__(self):
        if not 0.0 < self.eta_start < np.inf:
            raise ValueError("eta_start must be positive and finite")
        if self.refinements < 1:
            raise ValueError("refinements must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")

    @classmethod
    def from_prior(cls, prior, fraction=0.05, refinements=10, max_steps=40):
        """Initial step as a fraction, at most 1, of the mean prior range."""
        eta = fraction * float(np.mean(prior.ranges))
        settings = cls(eta_start=eta, refinements=refinements,
                       max_steps=max_steps)
        if fraction > 1.0:
            raise ValueError("fraction must be at most 1")
        return settings


def line_search_extents(func, centers, directions, owners, eps, settings):
    """Distance from each center to the acceptance boundary along its unit
    direction, every row in one lockstep walk.

    func(points, owners) evaluates each point under its owner's distance
    (a DistanceStack).  Each pass walks outward in steps of eta until the
    distance exceeds eps or max_steps steps have been taken, retreats one
    step, halves eta, and repeats for `refinements` passes; a non-finite
    distance counts as outside.  A row that has not kept a step by then
    keeps halving, for at most EXTRA_HALVINGS more passes, until it keeps
    one, and a row that never does falls back to eta_start / 2**refinements,
    so every extent is positive.  The rows share the eta schedule and each
    step is one call for the rows still walking, so a row gets the extent
    it gets alone.
    """
    centers = np.asarray(centers, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    owners = np.asarray(owners)
    offset = np.zeros(len(owners))
    eta = settings.eta_start
    rows = np.arange(len(owners))
    for k in range(settings.refinements + EXTRA_HALVINGS):
        if k >= settings.refinements:
            rows = rows[offset[rows] == 0.0]
        walking = rows
        for _ in range(settings.max_steps):
            if not walking.size:
                break
            offset[walking] += eta
            values = func(centers[walking]
                          + offset[walking, None] * directions[walking],
                          owners[walking])
            outside = ~(values <= eps)
            offset[walking[outside]] -= eta
            walking = walking[~outside]
        eta /= 2.0
    offset[offset == 0.0] = settings.eta_start / 2.0**settings.refinements
    return offset


def line_search_extent(distance, center, direction, eps, settings):
    """line_search_extents for one row: the extent of one distance from
    one center along one unit direction."""
    direction = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    center = np.asarray(center, dtype=np.float64)
    return float(line_search_extents(DistanceStack([distance]), center[None],
                                     direction[None], [0], eps, settings)[0])


def check_boxes(rotations, centers, limits):
    """The one validation of boxes, of all k in a stack at once.

    Each center (row of centers, (k, D)) must be finite, each rotation
    ((k, D, D)) finite with orthonormal columns within ORTHO_TOL, and each
    limits ((k, D, 2)) negative in the first column and positive in the
    second, with a finite volume.  Returns the (k,) volumes; raises
    ValueError for the first of these checks that any box fails.
    """
    shape = centers.shape
    if len(shape) != 2 or rotations.shape != shape + shape[1:]:
        raise ValueError("rotation must be square and match the center")
    if limits.shape != shape + (2,):
        raise ValueError("limits must have shape (D, 2)")
    volumes = np.prod(limits[..., 1] - limits[..., 0], axis=1)
    # written so that a NaN or infinite entry fails its comparison
    orthogonality = np.abs(rotations.transpose(0, 2, 1) @ rotations
                           - np.eye(shape[1])).max(axis=(1, 2))
    for passed, message in [
        (np.isfinite(centers).all(axis=1), "center must be finite"),
        (orthogonality <= ORTHO_TOL,
         "rotation must be finite with orthonormal columns"),
        ((limits[..., 0] < 0.0).all(axis=1) & (limits[..., 1] > 0.0).all(axis=1),
         "limits must straddle zero on every axis"),
        (volumes < np.inf, "limits must be finite and give a finite volume"),
    ]:
        if not passed.all():
            raise ValueError(message)
    return volumes


class BoundingBox:
    """One region's validated box, the row type of the hooks: the center,
    orthonormal rotation and per-axis signed limits of an oriented box.

    A point theta maps to rotated coordinates z = R^T (theta - center);
    the box is {z : limits[m, 0] <= z_m <= limits[m, 1]} with the lower
    limit negative and the upper positive, so the center is interior.
    check_boxes validates it as a stack of one.
    """

    def __init__(self, rotation, center, limits):
        rotation, center, limits = (np.array(a, dtype=np.float64)
                                    for a in (rotation, center, limits))
        self.volume = float(
            check_boxes(rotation[None], center[None], limits[None])[0])
        self.rotation, self.center, self.limits = rotation, center, limits

    def sample(self, n, seed):
        """n uniform draws in the box: RegionStack.sample of it alone."""
        return RegionStack.of([self]).sample(n, [seed])


class RegionStack:
    """k boxes as (k, D, D) rotations, (k, D) centers and (k, D, 2) limits,
    checked by check_boxes, which gives their volumes; the only map
    between rotated coordinates z and parameters theta = z R^T + center."""

    def __init__(self, rotations, centers, limits):
        self.rotations, self.centers, self.limits = (
            np.asarray(a, dtype=np.float64) for a in (rotations, centers, limits))
        self.volumes = check_boxes(self.rotations, self.centers, self.limits)

    @classmethod
    def of(cls, boxes):
        """The stack of a list of BoundingBox."""
        return cls(*(np.stack([getattr(b, name) for b in boxes])
                     for name in ("rotation", "center", "limits")))

    def __len__(self):
        return len(self.volumes)

    def box(self, k):
        """Box k as a BoundingBox, for a hook."""
        return BoundingBox(self.rotations[k], self.centers[k], self.limits[k])

    def sample(self, n, seeds):
        """n uniform draws in each box, box k's from default_rng(seeds[k])
        (an int or a numpy Generator, used as is), as rows grouped by box."""
        if n < 1:
            raise ValueError("n must be positive")
        z = np.stack([np.random.default_rng(seed).uniform(
            limits[:, 0], limits[:, 1], size=(n, len(limits)))
            for seed, limits in zip(seeds, self.limits, strict=True)])
        return (z @ self.rotations.transpose(0, 2, 1)
                + self.centers[:, None]).reshape(-1, self.centers.shape[1])

    def contains(self, thetas, owners, atol=1e-10):
        """Whether each row of thetas lies in the box of its owner."""
        z = ((thetas - self.centers[owners])[:, None] @ self.rotations[owners])[:, 0]
        lo, hi = np.moveaxis(self.limits[owners], 2, 0)
        return np.all((z >= lo - atol) & (z <= hi + atol), axis=1)


def build_boxes(func, x_min, f_min, curvatures, eps, settings):
    """The RegionStack of the boxes around k minimizers, one lockstep walk.

    func(points, owners) evaluates points under the distance of minimizer
    owners (a DistanceStack indexed like x_min).  Box k is centered on
    x_min[k], takes its axes from curvatures[k], all of them from one
    curvature_axes call on the stack, and its extents from a pair of line
    searches per axis.  Requires every f_min <= eps so each center is
    acceptable.
    """
    if np.any(np.asarray(f_min) > eps):
        raise ValueError("cannot build a region around a rejected minimizer")
    axes = curvature_axes(curvatures)
    k, d, _ = axes.shape
    # row (k, m, 0) walks box k along +axis m, row (k, m, 1) along -axis m
    directions = np.stack([axes, -axes], axis=-1).transpose(0, 2, 3, 1)
    extents = line_search_extents(
        func, np.repeat(x_min, 2 * d, axis=0), directions.reshape(-1, d),
        np.repeat(np.arange(k), 2 * d), eps, settings,
    ).reshape(k, d, 2)
    return RegionStack(
        axes, x_min, np.stack([-extents[..., 1], extents[..., 0]], axis=-1))


def build_box(distance, result, eps, settings, curvature=None, objective=None):
    """build_boxes for one minimizer, as a BoundingBox; choose_curvature
    picks the curvature matrix unless one is given."""
    if curvature is None:
        curvature, _ = choose_curvature(result, objective=objective)
    return build_boxes(DistanceStack([distance]), result.x_min[None],
                       [result.f_min], np.asarray(curvature)[None], eps,
                       settings).box(0)
