"""The lockstep BFGS descent against the one-run-at-a-time reference, and
the chunked gradient solve of the pipeline.

Every run of the lockstep descent must take the steps the reference takes
alone, bit for bit: the same final point, value, inverse-Hessian estimate
and iteration count.  Each exit of the descent has a scenario, and the
reference is line-traced through it, so a test also shows that its exit
is really taken.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import BatchDistance
from reference_bfgs import reference_bfgs, reference_gradient

import romc.pipeline
from romc import (
    estimate_regions,
    make_ma2_model,
    make_toy_model,
    solve_problems,
)
from romc.errors import NumericalFailure
from romc.model import (
    STREAM_FIT,
    STREAM_SOLVE,
    DistanceStack,
    draw_nuisance_seeds,
    make_objective,
)
from romc.optimize import _bfgs, _rows_dot, solve_gradient
from romc.regions import BoundingBox
from romc.surrogate import fit_quadratic

STEP = 1e-5
SQUARE = np.array([[-2.0, 2.0], [-2.0, 2.0]])


def _exit_lines():
    """Source line of each exit of reference_bfgs."""
    source, first = inspect.getsourcelines(reference_bfgs)
    text = [line.strip() for line in source]

    def after(condition, nth=0):
        at = [i for i, line in enumerate(text) if line == condition][nth]
        return first + at + 1

    return {
        "gtol": after("if np.max(np.abs(g)) <= gtol:"),
        "restart": first + text.index("p = -g"),
        "ascent": after("if slope >= 0.0:", 1),
        "cap": after("if cap <= 0.0:"),
        "backtrack": after("if not accepted:"),
        "tiny": after(
            "if np.linalg.norm(s) <= 1e-12 * (1.0 + np.linalg.norm(x)):"),
    }


EXITS = _exit_lines()


def _reference(objective, x0, bounds, max_iters, gtol):
    """(result or None when it fails, exits taken) of one reference run."""
    code = reference_bfgs.__code__
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        out = reference_bfgs(
            objective, lambda x: reference_gradient(objective, x, STEP), x0,
            bounds, max_iters, gtol,
        )
    except NumericalFailure:
        out = None
    finally:
        sys.settrace(previous)
    return out, {name for name, line in EXITS.items() if line in ran}


def _bits(value):
    return np.ascontiguousarray(value, dtype=np.float64).view(np.uint64)


def check_against_reference(objectives, starts, bounds, max_iters=200,
                            gtol=1e-8):
    """Run one lockstep descent over (objective, start) runs, check every
    run against the reference bit for bit, and return the exits each run
    took; a run the reference fails on must come back with f = NaN."""
    x, f, h_inv, total, iterations = _bfgs(
        DistanceStack(objectives), np.array(starts, dtype=np.float64),
        bounds, max_iters, gtol, STEP,
    )
    assert type(total) is int
    exits, expected_total = [], 0
    for r, (objective, x0) in enumerate(zip(objectives, starts)):
        out, taken = _reference(objective, np.asarray(x0, dtype=np.float64),
                                bounds, max_iters, gtol)
        exits.append(taken)
        if out is None:
            assert np.isnan(f[r])
            continue
        x_ref, f_ref, h_ref, iterations_ref = out
        np.testing.assert_array_equal(_bits(x[r]), _bits(x_ref))
        np.testing.assert_array_equal(_bits(f[r]), _bits(f_ref))
        np.testing.assert_array_equal(_bits(h_inv[r]), _bits(h_ref))
        assert iterations[r] == iterations_ref
        expected_total += iterations_ref
    assert total == expected_total
    return exits


def quadratic(target, scale):
    target = np.asarray(target, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)

    def f(x):
        diff = np.asarray(x) - target
        return float(diff @ (scale * diff))

    return BatchDistance(f)


two_wells = BatchDistance(lambda x: float(np.minimum(
    np.sum((np.asarray(x) - 0.5) ** 2),
    0.5 + np.sum((np.asarray(x) + 0.5) ** 2),
)))


def ill_conditioned(condition, angle, center=0.1):
    """Rotated quadratic bowl whose curvatures differ by `condition`."""
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    matrix = rotation @ np.diag([1.0, condition]) @ rotation.T

    def f(x):
        diff = np.asarray(x) - center
        return float(diff @ matrix @ diff)

    return BatchDistance(f)


def _problem_runs(model, n_problems, master_seed, restarts):
    seeds = draw_nuisance_seeds(n_problems, master_seed)
    objectives, starts = [], []
    for i, seed in enumerate(seeds):
        objective = make_objective(model, seed, i)
        rng = np.random.default_rng([master_seed, i, STREAM_SOLVE])
        for _ in range(restarts):
            objectives.append(objective)
            starts.append(model.prior.sample(rng))
    return objectives, starts


def test_row_dot_is_bitwise_the_one_row_product():
    # the descent's dot products and norms must round as a_i @ b_i and
    # np.linalg.norm(a_i) do; an elementwise sum or einsum differs in a
    # quarter of the rows at D = 2
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 5):
        a = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-8, 8, (2000, 1))
        b = rng.standard_normal((2000, d))
        products = np.array([row_a @ row_b for row_a, row_b in zip(a, b)])
        norms = np.array([np.linalg.norm(row) for row in a])
        np.testing.assert_array_equal(_bits(_rows_dot(a, b)), _bits(products))
        np.testing.assert_array_equal(_bits(np.sqrt(_rows_dot(a, a))),
                                      _bits(norms))


class TestAgainstReference:
    def test_ma2_50_problems_3_restarts(self):
        model = make_ma2_model()
        objectives, starts = _problem_runs(model, 50, 21, 3)
        exits = check_against_reference(objectives, starts, model.prior.bounds)
        assert set().union(*exits) >= {"gtol", "tiny"}

    def test_toy_100_problems(self):
        model = make_toy_model()
        objectives, starts = _problem_runs(model, 100, 9, 1)
        check_against_reference(objectives, starts, model.prior.bounds)

    def test_plain_callables(self):
        rng = np.random.default_rng(6)
        functions = [quadratic([0.3, -0.4], [1.0, 1.0]),
                     quadratic([0.0, 0.8], [20.0, 1.0]), two_wells]
        objectives = [functions[k % 3] for k in range(30)]
        starts = rng.uniform(-1.0, 1.0, size=(30, 2))
        check_against_reference(objectives, starts, np.array([[-1.0, 1.0]] * 2))


class TestExits:
    """One scenario per exit of the descent, each against the reference."""

    def test_converged_at_start(self):
        exits = check_against_reference(
            [BatchDistance(lambda x: float(np.sum(np.asarray(x) ** 2)))],
            [[0.0, 0.0]], SQUARE)
        assert exits == [{"gtol"}]

    def test_ascent_direction_restarts_from_steepest_descent(self):
        exits = check_against_reference(
            [ill_conditioned(1e12, 0.3)], [[1.5, -1.0]], SQUARE)
        assert "restart" in exits[0] and "ascent" not in exits[0]

    def test_ascent_after_restart_stops(self):
        # a flat objective has a zero gradient, which gtol < 0 lets through
        exits = check_against_reference(
            [BatchDistance(lambda x: 1.0)], [[0.3, 0.3]], SQUARE, gtol=-1.0)
        assert exits == [{"restart", "ascent"}]

    def test_start_on_a_bound_with_an_outward_step(self):
        exits = check_against_reference(
            [BatchDistance(lambda x: float(-x[0] + x[1] ** 2))], [[2.0, 0.0]],
            SQUARE)
        assert exits == [{"cap"}]

    def test_backtracking_exhausted(self):
        # finite only at the start and its gradient probes, so every trial
        # point of the line search is NaN
        finite_at = {0.25, 0.25 + STEP, 0.25 - STEP}

        def spike(x):
            return float(x[0]) if float(x[0]) in finite_at else np.nan

        exits = check_against_reference([BatchDistance(spike)], [[0.25, 0.5]],
                                        SQUARE)
        assert exits == [{"backtrack"}]

    def test_tiny_step(self):
        exits = check_against_reference(
            [ill_conditioned(1e12, 1.1)], [[0.9, 1.9]], SQUARE)
        assert "tiny" in exits[0]

    def test_max_iters_one(self):
        objectives = [quadratic([0.3, -0.4], [5.0, 0.5])] * 3
        starts = [[0.9, 0.9], [-0.7, 0.2], [0.1, -0.9]]
        exits = check_against_reference(objectives, starts, SQUARE, max_iters=1)
        assert exits == [set()] * 3

    def test_nonfinite_start_or_probe_drops_only_its_run(self):
        def nan_right_of(edge, center):
            bowl = quadratic(center, [1.0, 1.0])
            return BatchDistance(lambda x: bowl(x) if x[0] <= edge else np.nan)

        # run 0 starts where the objective is NaN; run 2 descends toward
        # its NaN region until a gradient probe lands in it; run 1 is clean
        objectives = [nan_right_of(0.9, [-0.5, 0.2])] * 2 + [
            nan_right_of(0.9, [1.0, 0.0])]
        starts = [[1.5, 0.0], [0.0, 0.0], [-0.5, 0.3]]
        x, f, _, total, iterations = _bfgs(
            DistanceStack(objectives), np.array(starts), SQUARE, 200, 1e-8,
            STEP)
        assert np.isnan(f[0]) and np.isnan(f[2]) and np.isfinite(f[1])
        assert iterations[2] > 0 and total == iterations[1]
        check_against_reference(objectives, starts, SQUARE)

    def test_every_restart_failing_gives_none(self, unit_square_prior):
        assert solve_gradient(BatchDistance(lambda x: np.nan), unit_square_prior,
                              restarts=3, seed=0) is None


def _same_result(a, b):
    np.testing.assert_array_equal(_bits(a.x_min), _bits(b.x_min))
    assert _bits(a.f_min) == _bits(b.f_min)
    np.testing.assert_array_equal(_bits(a.hess_appr), _bits(b.hess_appr))
    assert a.iterations == b.iterations and type(a.iterations) is int


def _same_record(a, b):
    assert (a.index, a.seed, a.error) == (b.index, b.seed, b.error)
    _same_result(a.result, b.result)
    assert (a.gp is None) == (b.gp is None)
    if a.gp is not None:
        assert a.gp.to_record() == b.gp.to_record()


def _same_box(a, b):
    for name in ("rotation", "center", "limits"):
        np.testing.assert_array_equal(_bits(getattr(a, name)),
                                      _bits(getattr(b, name)))


def _same_quadratic(a, b):
    for name in ("intercept", "linear", "quad"):
        np.testing.assert_array_equal(_bits(getattr(a, name)),
                                      _bits(getattr(b, name)))


def _axis_box(distance, result, eps, settings):
    """A custom region: an axis-aligned box of half-width 0.01 around the
    minimizer, whatever the distance."""
    d = result.x_min.size
    return BoundingBox(np.eye(d), result.x_min, [[-0.01, 0.01]] * d)


def _solver_failing_for_3(objective, prior, seed):
    if seed[1] == 3:
        raise RuntimeError("solver crashed")
    return solve_gradient(objective, prior, seed=seed)


@pytest.fixture(scope="module")
def ma2_solve():
    return solve_problems(make_ma2_model(), n1=200, seed=21, restarts=3)


BO = {"use_bo": True, "budget": 16, "init_points": 6}


@pytest.fixture(scope="module")
def ma2_bo_solve():
    return solve_problems(make_ma2_model(), n1=6, seed=21, **BO)


@pytest.fixture(scope="module")
def ma2_fit_bundle(ma2_solve):
    return estimate_regions(ma2_solve, quantile=0.97, fit_models=True)


class TestChunking:
    def test_one_problem_solve_equals_its_row(self, ma2_solve):
        model = ma2_solve.model
        for index in (0, 57, 123, 199):
            record = ma2_solve.records[index]
            alone = solve_gradient(
                make_objective(model, record.seed, index), model.prior,
                restarts=3, seed=[21, index, STREAM_SOLVE],
            )
            _same_result(alone, record.result)

    # chunks of 1 problem, of 6 or 7, and of all 200 gradient problems; of
    # 1, 2 and all 6 BO problems; of 1, 6 or 7, and all 195 regions with
    # their quadratic fits, on the built-in boxes and on custom ones
    @pytest.mark.parametrize("stage, n_chunks", [
        pytest.param("gradient", 200, id="200"),
        pytest.param("gradient", 29, id="29"),
        pytest.param("gradient", 1, id="1"),
        pytest.param("bo", 6, id="bo-6"),
        pytest.param("bo", 3, id="bo-3"),
        pytest.param("bo", 1, id="bo-1"),
        pytest.param("fit", 195, id="fit-195"),
        pytest.param("fit", 29, id="fit-29"),
        pytest.param("fit", 1, id="fit-1"),
        pytest.param("custom-fit", 195, id="custom-fit-195"),
        pytest.param("custom-fit", 29, id="custom-fit-29"),
        pytest.param("custom-fit", 1, id="custom-fit-1"),
    ])
    def test_chunking_does_not_change_records(self, request, monkeypatch,
                                              stage, n_chunks):
        monkeypatch.setattr(romc.pipeline, "effective_workers",
                            lambda workers: n_chunks)
        if stage == "custom-fit":
            # each quadratic is the built-in fit over its custom box alone
            solve = request.getfixturevalue("ma2_solve")
            out = estimate_regions(solve, quantile=0.97, fit_models=True,
                                   region_builder=_axis_box)
            assert len(out.accepted) == 195
            for entry in out.entries:
                box = _axis_box(None, entry.result, None, None)
                _same_box(entry.region, box)
                assert entry.curvature_source == "custom"
                objective = make_objective(solve.model, entry.seed,
                                           entry.index)
                _same_quadratic(entry.quadratic, fit_quadratic(
                    objective, box, seed=[21, entry.index, STREAM_FIT]))
            return
        reference = request.getfixturevalue(
            {"gradient": "ma2_solve", "bo": "ma2_bo_solve",
             "fit": "ma2_fit_bundle"}[stage])
        if stage == "fit":
            out = estimate_regions(request.getfixturevalue("ma2_solve"),
                                   quantile=0.97, fit_models=True)
            assert out.accepted == reference.accepted
            assert len(out.accepted) == 195
            for a, b in zip(out.entries, reference.entries):
                _same_box(a.region, b.region)
                _same_quadratic(a.quadratic, b.quadratic)
            return
        out = solve_problems(reference.model, n1=reference.n1,
                             seed=21, **reference.options)
        assert out.options == reference.options
        for a, b in zip(out.records, reference.records):
            _same_record(a, b)

    @pytest.mark.parametrize("options", [
        pytest.param({}, id="gradient"), pytest.param(BO, id="bo")])
    def test_raising_objective_fails_only_its_problem(self, monkeypatch,
                                                      options):
        model = make_toy_model()
        clean = solve_problems(model, n1=6, seed=2, **options)
        build = romc.pipeline.make_objective

        def broken(theta):
            raise RuntimeError("simulator crashed")

        def make(model, seed, index):
            if index == 3:
                return BatchDistance(broken)
            return build(model, seed, index)

        monkeypatch.setattr(romc.pipeline, "make_objective", make)
        out = solve_problems(model, n1=6, seed=2, **options)
        assert "simulator crashed" in out.records[3].error
        assert out.records[3].result is None
        for a, b in zip(out.records, clean.records):
            if a.index != 3:
                assert a.error is None
                _same_record(a, b)

    def test_raising_solver_fails_only_its_problem(self):
        # the custom solver runs solve_gradient, which equals a problem's
        # row of the lockstep solve
        model = make_toy_model()
        clean = solve_problems(model, n1=6, seed=2)
        out = solve_problems(model, n1=6, seed=2, solver=_solver_failing_for_3)
        assert "solver crashed" in out.records[3].error
        assert out.records[3].result is None
        for a, b in zip(out.records, clean.records):
            if a.index != 3:
                _same_record(a, b)


def test_perfbench_tracer_still_wraps_the_solve():
    """Every name perfbench/tracing.py patches exists, the iteration
    counter it keeps from _bfgs(...)[3] stays one int, and every stage's
    chunk path runs under the tracer: the gradient and BO solves and the
    regions with their quadratic fits, one chunk each."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        out = solve_problems(make_ma2_model(), n1=5, seed=3, restarts=2)
    total = tracer.counter("optimize.bfgs_iterations")[0]
    assert type(total) is int
    assert total >= sum(record.result.iterations for record in out.records)
    assert tracer.counter("model.fd_gradient")[0] > 0

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        bo = solve_problems(make_ma2_model(), n1=3, seed=3, **BO)
        bundle = estimate_regions(bo, quantile=1.0, fit_models=True)
    # the BO solve is one lockstep chunk, which builds one surrogate per
    # problem, at its end
    assert not tracer.named("optimize.solve_bayesian")
    assert tracer.counter("optimize.gp_fit")[0] == len(bo.records)
    # one chunk per stage at workers=1: the solve, and the regions with
    # their fits
    assert len(tracer.named("parallel.run_tasks")) == 2
    assert tracer.counter("parallel.task")[0] == 2
    assert tracer.counter("parallel.failures")[0] == 0
    assert all(entry.quadratic is not None for entry in bundle.entries)
