"""One-region curvature and box check, kept as the oracle of the stacked
forms in romc.regions.

These are the per-matrix and per-box versions the region stage used
before it ran a chunk's curvatures and box checks on one stack; the
stacked forms must give the same matrices, axes, sources, volumes and
verdicts, bit for bit.
"""

import numpy as np

from romc.errors import NumericalFailure
from romc.regions import ORTHO_TOL, jacobian_curvature


def curvature_axes(hess):
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


def choose_curvature(result, objective=None, step=1e-5):
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


def box_volume(rotation, center, limits):
    """The volume of one box, or ValueError when it fails a check."""
    rotation = np.asarray(rotation, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    limits = np.asarray(limits, dtype=np.float64)
    d = center.size
    if not np.isfinite(center).all():
        raise ValueError("center must be finite")
    if rotation.shape != (d, d):
        raise ValueError("rotation must be square and match the center")
    if not np.max(np.abs(rotation.T @ rotation - np.eye(d))) <= ORTHO_TOL:
        raise ValueError("rotation must be finite with orthonormal columns")
    if limits.shape != (d, 2):
        raise ValueError("limits must have shape (D, 2)")
    if not (np.all(limits[:, 0] < 0.0) and np.all(limits[:, 1] > 0.0)):
        raise ValueError("limits must straddle zero on every axis")
    volume = float(np.prod(limits[:, 1] - limits[:, 0]))
    if not volume < np.inf:
        raise ValueError("limits must be finite and give a finite volume")
    return volume
