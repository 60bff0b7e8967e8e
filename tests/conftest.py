"""Shared fixtures and the acceptance report hook.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook below reprints them at the end of the run so the
pass/fail verdicts are visible even when pytest captures stdout.
"""

import numpy as np
import pytest

from romc import make_toy_model
from romc.model import BoxUniformPrior

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


class CountingDistance:
    """Wraps a scalar distance and counts every evaluation."""

    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, theta):
        self.calls += 1
        return self.func(np.asarray(theta, dtype=np.float64))
