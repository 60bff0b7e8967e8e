"""Likelihood-free inference with optimization-built proposal regions.

Fix the simulator's randomness seed by seed, minimize each resulting
deterministic distance, wrap every acceptable minimizer in a bounding-box
proposal region, and importance-weight uniform draws from those regions
into posterior samples, expectations and density evaluations.

The package namespace holds the names the README documents; everything
else is imported from its submodule.
"""

from .benchmarks import (
    ToyTruePosterior,
    build_model,
    make_ma2_model,
    make_toy_model,
    rejection_abc,
)
from .errors import (
    DegenerateResult,
    NumericalFailure,
    RomcError,
    UnsupportedDimension,
)
from .evaluate import compute_divergence, compute_ess
from .inference import midpoint_grid
from .model import Model, Prior
from .optimize import OptimisationResult
from .pipeline import estimate_regions, solve_problems
from .regions import BoundingBox

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "DegenerateResult",
    "Model",
    "NumericalFailure",
    "OptimisationResult",
    "Prior",
    "RomcError",
    "ToyTruePosterior",
    "UnsupportedDimension",
    "build_model",
    "compute_divergence",
    "compute_ess",
    "estimate_regions",
    "make_ma2_model",
    "make_toy_model",
    "midpoint_grid",
    "rejection_abc",
    "solve_problems",
]
