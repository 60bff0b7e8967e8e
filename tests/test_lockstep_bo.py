"""The lockstep Bayesian optimization against the one-problem-at-a-time
reference, and the chunked BO solve of the pipeline.

Every problem of solve_bayesians must get the bits reference_bayesian
gives it alone: the same evaluated inputs and values, minimizer, value,
Hessian and surrogate.  A problem that fails (a non-finite value, a
kernel that never factorizes) must fail alone, and a problem whose
kernel needs more jitter must not move its neighbours.
"""

import logging

import numpy as np
import pytest
from conftest import BatchDistance
from reference_bo import reference_bayesian

import romc.optimize
import romc.pipeline
from romc import make_ma2_model, make_toy_model, solve_problems
from romc.model import (
    STREAM_SOLVE,
    BoxUniformPrior,
    draw_nuisance_seeds,
    make_objective,
)
from romc.optimize import SINGULAR, solve_bayesian, solve_bayesians

SQUARE = BoxUniformPrior([[-1.0, 1.0], [-1.0, 1.0]])
SMALL = {"budget": 20, "init_points": 6}


def _bits(value):
    return np.ascontiguousarray(value, dtype=np.float64).view(np.uint64)


def _same(out, ref):
    """A lockstep entry equals the reference's, bit for bit."""
    if ref is None:
        assert out is None
        return
    (result, gp), (ref_result, ref_gp) = out, ref
    pairs = [(result.x_min, ref_result.x_min), (result.f_min, ref_result.f_min),
             (result.hess_appr, ref_result.hess_appr)]
    pairs += [(getattr(gp, name), getattr(ref_gp, name)) for name in (
        "inputs", "values", "lengthscales", "variance", "noise_variance")]
    probes = np.linspace(gp.inputs.min(axis=0), gp.inputs.max(axis=0), 7)
    pairs += zip(gp.predict_batch(probes), ref_gp.predict_batch(probes))
    for a, b in pairs:
        np.testing.assert_array_equal(_bits(a), _bits(b))
    assert result.iterations == ref_result.iterations


def _reference(objectives, prior, seeds, **options):
    return [reference_bayesian(o, prior, seed=seed, **options)
            for o, seed in zip(objectives, seeds)]


def check_against_reference(make_objectives, prior, seeds, **options):
    """Solve fresh objectives in lockstep and others alone with the
    reference, and check every problem bit for bit; returns the lockstep
    entries."""
    out = solve_bayesians(make_objectives(), prior, seeds, **options)
    for a, b in zip(out, _reference(make_objectives(), prior, seeds,
                                    **options)):
        _same(a, b)
    return out


def _problems(model, n1, master_seed):
    seeds = draw_nuisance_seeds(n1, master_seed)
    objectives = [make_objective(model, seed, i) for i, seed in enumerate(seeds)]
    return objectives, [[master_seed, i, STREAM_SOLVE] for i in range(n1)]


def quadratic(target, scale=1.0):
    target = np.asarray(target, dtype=np.float64)
    return BatchDistance(
        lambda x: scale * float(np.sum((np.asarray(x) - target) ** 2)))


def _bowls(scales=()):
    """Six bowls on the square; bowl k is scaled by scales[k] if given."""
    targets = [[0.3, -0.4], [0.0, 0.8], [-0.6, -0.1], [0.5, 0.5],
               [-0.2, 0.1], [0.9, -0.9]]
    scales = list(scales) + [1.0] * (len(targets) - len(scales))
    return [quadratic(t, s) for t, s in zip(targets, scales)]


def _failing_at(evaluation, func):
    """A distance that is NaN at its `evaluation`-th point, counted from 1."""
    count = [0]

    def f(x):
        count[0] += 1
        return np.nan if count[0] == evaluation else func(x)

    return BatchDistance(f)


def _cholesky_failing(monkeypatch, failing, escalations):
    """Make np.linalg.cholesky refuse every kernel for which failing(kernel)
    holds until its jitter has been escalated `escalations` times.

    A fit's kernel is recognized across jitter levels by its first row's
    off-diagonal entries, and the first diagonal seen for it is that of
    level 0, jitter 1e-6 times the kernel variance."""
    real = np.linalg.cholesky
    first = {}

    def cholesky(a, **kwargs):
        a = np.asarray(a)
        for kernel in a.reshape(-1, *a.shape[-2:]):
            if failing(kernel):
                base = first.setdefault(kernel[0, 1:].tobytes(), kernel[0, 0])
                variance = base / (1.0 + 1e-6)
                level = np.log10((kernel[0, 0] - variance) / (1e-6 * variance))
                if level < escalations - 0.5:
                    raise np.linalg.LinAlgError("not positive definite")
        return real(a, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)


def _scaled_up(kernel):
    # only the bowl scaled by 1e3 has a kernel variance above 100
    return kernel[0, 0] > 100.0


@pytest.fixture(scope="module")
def ma2_reference():
    """The reference results of ma2, n1=30, master seed 21."""
    model = make_ma2_model()
    objectives, seeds = _problems(model, 30, 21)
    return _reference(objectives, model.prior, seeds)


class TestAgainstReference:
    @pytest.mark.parametrize("master_seed", [21, 43])
    def test_ma2_30_problems(self, request, master_seed):
        model = make_ma2_model()
        objectives, seeds = _problems(model, 30, master_seed)
        out = solve_bayesians(objectives, model.prior, seeds)
        if master_seed == 21:
            ref = request.getfixturevalue("ma2_reference")
        else:
            ref = _reference(objectives, model.prior, seeds)
        for a, b in zip(out, ref):
            _same(a, b)
        assert all(entry is not None for entry in out)

    def test_toy_20_problems(self):
        model = make_toy_model()
        objectives, seeds = _problems(model, 20, 5)
        out = check_against_reference(lambda: objectives, model.prior, seeds)
        assert all(entry is not None for entry in out)

    def test_plain_callables(self):
        out = check_against_reference(_bowls, SQUARE, list(range(6)), **SMALL)
        assert all(entry is not None for entry in out)

    def test_one_problem_equals_its_row(self, ma2_reference):
        model = make_ma2_model()
        objectives, seeds = _problems(model, 30, 21)
        for index in (0, 13, 29):
            _same(solve_bayesian(objectives[index], model.prior,
                                 seed=seeds[index]), ma2_reference[index])

    def test_taken_candidate_gives_way(self, monkeypatch):
        # in a box 1e-9 wide most candidates lie within 1e-10 of an input,
        # so the best one is often taken and a later one is chosen
        found = []
        gaps = romc.optimize._gaps

        def spy(inputs, point):
            out = gaps(inputs, point)
            if inputs.ndim == 2:
                found.append(out > 1e-10)
            return out

        monkeypatch.setattr(romc.optimize, "_gaps", spy)
        tiny = BoxUniformPrior([[0.0, 1e-9]])
        check_against_reference(
            lambda: [quadratic([c]) for c in (2e-10, 5e-10, 9e-10)], tiny,
            [1, 2, 3], budget=16, init_points=4)
        assert any(found)


class TestFailures:
    def test_nan_in_the_design_drops_only_its_problem(self):
        def make():
            bowls = _bowls()
            bowls[2] = _failing_at(3, bowls[2])
            return bowls

        out = check_against_reference(make, SQUARE, list(range(6)), **SMALL)
        assert [entry is None for entry in out] == [False] * 2 + [True] + [
            False] * 3

    def test_nan_at_an_acquisition_drops_only_its_problem(self):
        # evaluation 9 of init_points=6 is the third acquisition
        def make():
            bowls = _bowls()
            bowls[4] = _failing_at(9, bowls[4])
            return bowls

        out = check_against_reference(make, SQUARE, list(range(6)), **SMALL)
        assert [entry is None for entry in out] == [False] * 4 + [True, False]

    def test_jitter_escalates_for_the_failing_problem_only(self, monkeypatch):
        _cholesky_failing(monkeypatch, _scaled_up, escalations=2)
        out = check_against_reference(lambda: _bowls([1.0, 1e3]), SQUARE,
                                      list(range(6)), **SMALL)
        noise = [gp.noise_variance / gp.variance for _, gp in out]
        np.testing.assert_allclose(noise, [1e-6, 1e-4] + [1e-6] * 4)

    @pytest.mark.parametrize("at", ["first-fit", "final-fit"])
    def test_fit_that_never_factorizes_drops_only_its_problem(
            self, monkeypatch, caplog, at):
        n = SMALL["init_points"] if at == "first-fit" else SMALL["budget"]
        _cholesky_failing(
            monkeypatch, lambda k: _scaled_up(k) and len(k) == n,
            escalations=8)
        with caplog.at_level(logging.WARNING, logger="romc.optimize"):
            out = check_against_reference(lambda: _bowls([1.0, 1e3]), SQUARE,
                                          list(range(6)), **SMALL)
        assert [entry is None for entry in out] == [False, True] + [False] * 4
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "romc.optimize"]
        assert warnings == [f"surrogate fit failed: {SINGULAR}"]


@pytest.mark.parametrize("n_chunks", [30, 7, 1])
def test_chunking_does_not_change_records(monkeypatch, ma2_reference,
                                          n_chunks):
    monkeypatch.setattr(romc.pipeline, "effective_workers",
                        lambda workers: n_chunks)
    out = solve_problems(make_ma2_model(), n1=30, seed=21, use_bo=True)
    for record, ref in zip(out.records, ma2_reference):
        assert record.error is None
        _same((record.result, record.gp), ref)
