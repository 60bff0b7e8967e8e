"""Shared fixtures and the acceptance report hook.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook below reprints them at the end of the run so the
pass/fail verdicts are visible even when pytest captures stdout.
"""

from dataclasses import replace

import numpy as np
import pytest

from romc import make_toy_model
from romc.model import BoxUniformPrior
from romc.optimize import _fit_gps

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def toy_model():
    return make_toy_model()


@pytest.fixture
def unit_square_prior():
    return BoxUniformPrior([[-1.0, 1.0], [-1.0, 1.0]])


def fit_gp(inputs, values):
    """One surrogate, fitted as Bayesian optimization fits it."""
    return _fit_gps(np.asarray(inputs, dtype=np.float64)[None],
                    np.asarray(values, dtype=np.float64)[None])[0]


class BatchDistance:
    """A scalar test function as a distance: evaluate_batch applies it to
    each row alone, and a call applies it to one point."""

    def __init__(self, func):
        self.func = func

    def __call__(self, theta):
        return self.func(np.asarray(theta, dtype=np.float64))

    def evaluate_batch(self, thetas):
        return np.array([float(self(theta)) for theta in thetas])


class CountingDistance(BatchDistance):
    """A BatchDistance that counts every evaluated point."""

    def __init__(self, func):
        super().__init__(func)
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return super().__call__(theta)


def raising_for_seed(model, bad_seed):
    """A copy of model whose batch distance factory gives a kernel that
    raises on any row under the distance of bad_seed."""
    factory = model.batch_distance_factory

    def batch_distance(seeds, observed_summary):
        kernel, args = factory(seeds, observed_summary)

        def raising(thetas, *row_args):
            *row_args, row_seeds = row_args
            if np.any(row_seeds == bad_seed):
                raise RuntimeError("simulator crashed")
            return kernel(thetas, *row_args)

        return raising, (*args, np.array(seeds))

    return replace(model, batch_distance_factory=batch_distance)
