"""End-to-end training driver: solve, regions, bundle behavior, hooks."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import romc.kernels
import romc.parallel
import romc.pipeline
from conftest import raising_for_seed
from romc import (
    DegenerateResult,
    OptimisationResult,
    artifacts,
    estimate_regions,
    make_ma2_model,
    make_toy_model,
    solve_problems,
)
from romc.model import (
    STREAM_SAMPLE,
    DeterministicObjective,
    Prior,
    derive_rng,
    draw_nuisance_seeds,
    make_objective,
)
from romc.regions import RegionSettings, build_box
from romc.surrogate import fit_quadratic


def _rejecting_solver(objective, prior, seed):
    return None


def _raising_solver(objective, prior, seed):
    raise RuntimeError("boom")


def _nan_solver(objective, prior, seed):
    return OptimisationResult([np.nan], 0.0, [[1.0]])


def _nan_hessian_solver(objective, prior, seed):
    return OptimisationResult([0.0], 0.0, [[np.nan]])


class _ToyPrior(Prior):
    """The 1d benchmark's prior through only what a prior must define."""

    @property
    def bounds(self):
        return np.array([[-2.5, 2.5]])

    def sample(self, rng):
        return rng.uniform([-2.5], [2.5])

    def pdf_batch(self, thetas):
        t = np.asarray(thetas)[:, 0]
        return np.where((t >= -2.5) & (t <= 2.5), 0.2, 0.0)


def _shifted_region_builder(distance, result, eps, settings):
    return build_box(distance, result, eps, settings)


def _tiny_surrogate_fitter(distance, box, n_train, seed):
    return fit_quadratic(distance, box, n_train=12, seed=seed)


def _fitter_failing_for_3(distance, box, n_train, seed):
    # seed is the fit stream (master seed, problem index, stage)
    if seed[1] == 3:
        raise RuntimeError("fit failed")
    return fit_quadratic(distance, box, n_train=n_train, seed=seed)


def _always_failing_fitter(distance, box, n_train, seed):
    raise RuntimeError("fit failed")


class _BuilderFailingAt:
    """build_box, except for the region around one minimizer."""

    def __init__(self, x_min):
        self.x_min = x_min

    def __call__(self, distance, result, eps, settings):
        if np.array_equal(result.x_min, self.x_min):
            raise RuntimeError("builder crashed")
        return build_box(distance, result, eps, settings)


@pytest.fixture(scope="module")
def toy_solve():
    return solve_problems(make_toy_model(), n1=40, seed=7)


@pytest.fixture(scope="module")
def toy_bundle():
    out = solve_problems(make_toy_model(), n1=30, seed=9)
    return estimate_regions(out, eps=0.75)


class TestSolveProblems:
    def test_record_layout(self, toy_solve):
        assert toy_solve.n1 == 40
        assert toy_solve.master_seed == 7
        assert [r.index for r in toy_solve.records] == list(range(40))
        assert [r.seed for r in toy_solve.records] == draw_nuisance_seeds(40, 7)
        assert all(r.seconds >= 0.0 for r in toy_solve.records)

    def test_most_problems_solve_to_tiny_distances(self, toy_solve):
        values = toy_solve.f_min
        # u < observation makes the distance exactly solvable; roughly half
        # the seeds admit a zero
        assert len(toy_solve.indices) == 40
        assert np.median(values) < 0.5

    def test_deterministic_across_runs(self, toy_solve):
        again = solve_problems(make_toy_model(), n1=40, seed=7)
        np.testing.assert_array_equal(again.f_min, toy_solve.f_min)
        for a, b in zip(again.records, toy_solve.records):
            np.testing.assert_array_equal(a.result.x_min, b.result.x_min)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        import romc.parallel

        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 2)
        seq = solve_problems(make_toy_model(), n1=10, seed=3, workers=1)
        par = solve_problems(make_toy_model(), n1=10, seed=3, workers=2)
        np.testing.assert_array_equal(seq.f_min, par.f_min)

    def test_bo_route_attaches_surrogates(self):
        out = solve_problems(make_toy_model(), n1=3, seed=1, use_bo=True,
                             budget=16, init_points=4)
        assert out.use_bo
        for record in out.records:
            assert record.gp is not None

    @pytest.mark.parametrize("options, message", [
        ({"restarts": 0}, "restarts must be at least 1"),
        ({"max_iters": 0}, "max_iters must be at least 1"),
        ({"use_bo": True, "budget": 5, "init_points": 10},
         "budget must exceed init_points"),
        ({"use_bo": True, "init_points": 1}, "init_points must be at least 2"),
    ])
    def test_invalid_option_raises_before_solving(self, monkeypatch, options,
                                                  message):
        def no_dispatch(*args, **kwargs):
            raise AssertionError("a problem was dispatched")

        monkeypatch.setattr(romc.pipeline, "run_tasks", no_dispatch)
        with pytest.raises(ValueError, match=message):
            solve_problems(make_ma2_model(), n1=20, seed=2, **options)

    def test_options_of_an_unused_optimizer_are_not_checked(self):
        out = solve_problems(make_toy_model(), n1=2, seed=2, restarts=0,
                             solver=_rejecting_solver)
        assert out.options["restarts"] == 0
        out = solve_problems(make_toy_model(), n1=2, seed=2, init_points=1)
        assert len(out.indices) == 2

    def test_custom_solver_hook(self):
        out = solve_problems(make_toy_model(), n1=4, seed=2,
                             solver=_rejecting_solver)
        assert out.indices.tolist() == []
        assert all(r.error == "optimizer returned no solution"
                   for r in out.records)

    def test_solver_exceptions_recorded_not_raised(self):
        out = solve_problems(make_toy_model(), n1=4, seed=2,
                             solver=_raising_solver)
        assert out.indices.tolist() == []
        assert all("RuntimeError" in r.error for r in out.records)

    def test_non_finite_minimizer_is_a_counted_failure(self):
        out = solve_problems(make_toy_model(), n1=3, seed=2, solver=_nan_solver)
        assert out.indices.tolist() == []
        assert all("x_min must be finite" in r.error for r in out.records)

    def test_non_finite_hessian_is_a_counted_failure(self):
        out = solve_problems(make_toy_model(), n1=3, seed=2,
                             solver=_nan_hessian_solver)
        assert out.indices.tolist() == []
        assert all("hess_appr must be finite" in r.error for r in out.records)

    def test_compute_eps_and_histogram(self, toy_solve):
        eps = toy_solve.compute_eps(0.9)
        values = np.sort(toy_solve.f_min)
        assert eps == values[int(np.floor(0.9 * 40))]
        counts, edges = toy_solve.histogram(bins=10)
        assert counts.sum() == 40

    def test_degenerate_when_nothing_solved(self):
        out = solve_problems(make_toy_model(), n1=3, seed=2,
                             solver=_rejecting_solver)
        with pytest.raises(DegenerateResult):
            out.compute_eps(0.9)
        with pytest.raises(DegenerateResult):
            out.histogram()


class TestEstimateRegions:
    def test_quantile_threshold(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8)
        assert bundle.eps == toy_solve.compute_eps(0.8)
        expected = [i for i, f_min in zip(toy_solve.indices.tolist(),
                                          toy_solve.f_min) if f_min <= bundle.eps]
        assert bundle.indices.tolist() == expected

    def test_explicit_eps(self, toy_solve):
        bundle = estimate_regions(toy_solve, eps=0.5)
        assert bundle.eps == 0.5
        assert all(bundle.f_min <= 0.5)

    def test_eps_and_quantile_exclusive(self, toy_solve):
        with pytest.raises(ValueError):
            estimate_regions(toy_solve, eps=0.5, quantile=0.9)

    def test_default_quantile_is_090(self, toy_solve):
        bundle = estimate_regions(toy_solve)
        assert bundle.eps == toy_solve.compute_eps(0.9)

    def test_minimizers_inside_their_regions(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8)
        x_mins = bundle.x_min
        assert bundle.regions.contains(x_mins, np.arange(len(x_mins))).all()
        for source in bundle.curvature_sources:
            assert source in ("hess_appr", "jacobian", "identity")

    def test_timing_captured_per_task(self, toy_solve):
        # a region's seconds cover its box and, with fit_models, its fit
        for fit_models in (False, True):
            bundle = estimate_regions(toy_solve, quantile=0.8,
                                      fit_models=fit_models)
            assert sorted(bundle.region_seconds) == bundle.indices.tolist()
            assert all(s >= 0.0 for s in bundle.region_seconds.values())

    def test_degenerate_when_eps_excludes_everything(self, toy_solve):
        with pytest.raises(DegenerateResult):
            estimate_regions(toy_solve, eps=0.0)

    def test_use_surrogate_requires_gps(self, toy_solve):
        with pytest.raises(ValueError):
            estimate_regions(toy_solve, quantile=0.8, use_surrogate=True)

    def test_bo_bundle_defaults_to_surrogate_inference(self):
        out = solve_problems(make_toy_model(), n1=4, seed=5, use_bo=True,
                             budget=16, init_points=4)
        bundle = estimate_regions(out, quantile=1.0)
        assert bundle.use_surrogate
        stack = bundle.posterior().distances
        assert stack.kernel is None
        assert all(d is gp for d, gp in zip(stack.distances, bundle.gps,
                                             strict=True))

    def test_surrogate_opt_out(self):
        out = solve_problems(make_toy_model(), n1=4, seed=5, use_bo=True,
                             budget=16, init_points=4)
        bundle = estimate_regions(out, quantile=1.0, use_surrogate=False)
        stack = bundle.posterior().distances
        assert stack.kernel is romc.kernels.toy_distance_batch
        thetas = np.linspace(-2.0, 2.0, 9)[:, None]
        for k, (index, seed) in enumerate(zip(bundle.indices.tolist(),
                                              bundle.seeds.tolist())):
            objective = make_objective(bundle.model, seed, index)
            np.testing.assert_array_equal(_bits(stack(thetas, k)),
                                          _bits(objective.evaluate_batch(thetas)))

    def test_fit_models_attaches_quadratics(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8, fit_models=True)
        assert bundle.fit_models
        for quadratic in bundle.quadratics:
            assert quadratic is not None
        assert sorted(bundle.region_seconds) == bundle.indices.tolist()
        stack = bundle.posterior().distances
        assert all(d is q for d, q in zip(
            stack.distances, bundle.quadratics, strict=True))

    def test_region_builder_hook(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8,
                                  region_builder=_shifted_region_builder)
        assert all(s == "custom" for s in bundle.curvature_sources)

    def test_surrogate_fitter_hook(self, toy_solve):
        # a custom fitter gets n_train unchecked, even below the quadratic's
        # feature count
        bundle = estimate_regions(toy_solve, quantile=0.8, fit_models=True,
                                  n_train=2,
                                  surrogate_fitter=_tiny_surrogate_fitter)
        assert all(q is not None for q in bundle.quadratics)

    def test_failed_fit_drops_its_region(self, tmp_path):
        # a region without its quadratic would silently fall back to the
        # real objective while every other region uses its fit
        out = solve_problems(make_toy_model(), n1=12, seed=2)
        clean = estimate_regions(out, quantile=0.9, fit_models=True)
        assert 3 in clean.indices
        bundle = estimate_regions(out, quantile=0.9, fit_models=True,
                                  surrogate_fitter=_fitter_failing_for_3)
        assert "fit failed" in bundle.region_failures[3]
        assert bundle.indices.tolist() == [i for i in clean.indices if i != 3]
        for index, quadratic in zip(bundle.indices, bundle.quadratics):
            assert quadratic is not None
            assert (quadratic.to_record()
                    == clean.quadratics[_row(clean, index)].to_record())
        artifacts.write_region_telemetry(tmp_path / "telemetry.csv", bundle)
        rows = (tmp_path / "telemetry.csv").read_text().splitlines()
        assert [row for row in rows if row.startswith("3,")][0].startswith(
            "3,failed,")
        artifacts.write_regions(tmp_path / "regions.json", bundle)
        loaded = artifacts.load_regions(tmp_path / "regions.json")
        np.testing.assert_array_equal(loaded.indices, bundle.indices)

    def test_degenerate_when_every_fit_fails(self, toy_solve):
        with pytest.raises(
                DegenerateResult,
                match="^every region's box or quadratic fit failed$"):
            estimate_regions(toy_solve, quantile=0.8, fit_models=True,
                             surrogate_fitter=_always_failing_fitter)


class TestInferenceBundle:
    @pytest.fixture
    def bundle(self, toy_bundle):
        return toy_bundle

    def test_posterior_cached(self, bundle):
        assert bundle.posterior() is bundle.posterior()

    def test_distance_precedence(self, bundle):
        # fitted quadratics under fit_models, then GP means under
        # use_surrogate, then one stack of the model's distances; every
        # region has both, as estimate_regions and load_regions require
        gps = [object() for _ in bundle.indices]
        quadratics = [object() for _ in bundle.indices]
        assert not bundle.use_surrogate and not bundle.fit_models
        for options, expected in [
                ({}, None),
                ({"use_surrogate": True}, gps),
                ({"use_surrogate": True, "fit_models": True}, quadratics),
                ({"fit_models": True}, quadratics)]:
            stack = replace(bundle, gps=gps, quadratics=quadratics,
                            **options).posterior().distances
            if expected is None:
                assert stack.kernel is romc.kernels.toy_distance_batch
            else:
                assert stack.kernel is None
                assert all(a is b for a, b in zip(stack.distances, expected,
                                                  strict=True))

    def test_prior_needs_only_bounds_sample_and_pdf_batch(self):
        # without a batch factory the objectives check rows against
        # prior.dimension, which the base class derives from the bounds
        bundled = replace(make_toy_model(), batch_distance_factory=None)
        runs = []
        for model in (bundled, replace(bundled, prior=_ToyPrior())):
            out = solve_problems(model, n1=10, seed=7)
            runs.append(estimate_regions(out, eps=0.75).sample(10, seed=3))
        reference, custom = runs
        np.testing.assert_array_equal(custom.thetas, reference.thetas)
        np.testing.assert_allclose(custom.weights, reference.weights,
                                   rtol=1e-12)
        assert np.any(custom.weights > 0.0)

    def test_posterior_round_trip(self, bundle):
        posterior = bundle.posterior()
        assert posterior.n_regions == len(bundle.indices)
        assert posterior.eps == bundle.eps
        assert posterior.problem_indices == bundle.indices.tolist()
        value = posterior.eval_unnorm_batch(np.zeros((1, 1)))[0]
        assert np.isfinite(value) and value >= 0.0

    def test_sample_shapes_and_weights(self, bundle):
        result = bundle.sample(25, seed=4)
        assert result.n_samples == 25 * len(bundle.indices)
        summary = result.summary()
        assert summary["eps"] == bundle.eps
        assert summary["ess"] > 0

    def test_posterior_mean_tracks_truth(self, bundle):
        # the 1d posterior is symmetric around 0
        result = bundle.sample(200, seed=0)
        mean = result.summary()["parameters"][0]["mean"]
        assert abs(mean) < 0.3


@pytest.fixture(scope="module")
def ma2_gradient_solve():
    return solve_problems(make_ma2_model(), n1=40, seed=21, restarts=2)


@pytest.fixture(scope="module")
def ma2_bo_solve():
    return solve_problems(make_ma2_model(), n1=6, seed=21, use_bo=True,
                          budget=24, init_points=8)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _row(table, index):
    """The row of one problem in a table's columns."""
    return table.indices.tolist().index(index)


def _same_regions(a, b, rows_a=slice(None), rows_b=slice(None)):
    """The boxes of two RegionStacks' rows are equal bit for bit."""
    for name in ("rotations", "centers", "limits", "volumes"):
        np.testing.assert_array_equal(_bits(getattr(a, name)[rows_a]),
                                      _bits(getattr(b, name)[rows_b]))


class TestChunkedRegions:
    """Without a region_builder, the boxes of a worker's chunk come from one
    lockstep walk, and each equals the box built for its region alone."""

    @pytest.mark.parametrize("solve", ["ma2_gradient_solve", "ma2_bo_solve"])
    def test_chunk_equals_build_box_per_region(self, request, solve):
        solve = request.getfixturevalue(solve)
        chunked = estimate_regions(solve, quantile=0.97)
        alone = estimate_regions(solve, quantile=0.97, region_builder=build_box)
        # build_box as a hook has no objective for the Jacobian fallback
        assert set(chunked.curvature_sources) == {"hess_appr"}
        np.testing.assert_array_equal(chunked.indices, alone.indices)
        _same_regions(chunked.regions, alone.regions)

    def test_mixed_curvature_sources_do_not_depend_on_chunking(
            self, monkeypatch, ma2_gradient_solve):
        # 21 problems with an indefinite hess_appr at 3 and 5; problem 5's
        # summaries are NaN, so its Jacobian fallback fails to the identity
        solve = ma2_gradient_solve
        assert solve.indices[:21].tolist() == list(range(21))
        hess = solve.hess[:21].copy()
        hess[[3, 5]] = np.diag([-1.0, 1.0])
        solve = replace(solve, n1=21, hess=hess, **{
            name: getattr(solve, name)[:21] for name in (
                "seeds", "seconds", "indices", "x_min", "f_min", "iterations")})
        build = romc.pipeline.make_objective

        def make(model, seed, index):
            objective = build(model, seed, index)
            if index == 5:
                objective.summaries = lambda theta: np.full(3, np.nan)
            return objective

        monkeypatch.setattr(romc.pipeline, "make_objective", make)
        bundles = []
        for n_chunks in (1, 3, 21):  # chunks of 21, 7 and 1 regions
            monkeypatch.setattr(romc.pipeline, "effective_workers",
                                lambda workers, n=n_chunks: n)
            bundles.append(estimate_regions(solve, quantile=1.0))
        first = bundles[0]
        assert first.indices.tolist() == list(range(21))
        sources = first.curvature_sources
        assert sources == ["hess_appr"] * 3 + ["jacobian", "hess_appr",
                                               "identity"] + ["hess_appr"] * 15
        np.testing.assert_array_equal(first.regions.rotations[5], np.eye(2))
        for bundle in bundles[1:]:
            assert bundle.curvature_sources == sources
            _same_regions(first.regions, bundle.regions)

    @pytest.mark.parametrize("make_model, options", [
        (make_toy_model, {"eps": 0.75}),
        (make_ma2_model, {"quantile": 0.97}),
    ])
    def test_regions_artifact_equal_at_workers_1_and_2(
            self, monkeypatch, tmp_path, make_model, options):
        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 2)
        solve = solve_problems(make_model(), n1=30, seed=13, restarts=2)
        written = []
        for workers in (1, 2):
            path = tmp_path / f"regions_{workers}.json"
            artifacts.write_regions(
                path, estimate_regions(solve, workers=workers, **options))
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_raising_distance_fails_only_its_region(self,
                                                    ma2_gradient_solve):
        clean = estimate_regions(ma2_gradient_solve, quantile=0.97)
        broken_index = int(clean.indices[2])
        model = raising_for_seed(ma2_gradient_solve.model, int(clean.seeds[2]))
        out = estimate_regions(replace(ma2_gradient_solve, model=model),
                               quantile=0.97)
        assert "simulator crashed" in out.region_failures[broken_index]
        assert out.indices.tolist() == [i for i in clean.indices
                                        if i != broken_index]
        kept = clean.indices != broken_index
        np.testing.assert_array_equal(_bits(out.regions.limits),
                                      _bits(clean.regions.limits[kept]))


    def test_raising_region_builder_fails_only_its_region(
            self, ma2_gradient_solve):
        clean = estimate_regions(ma2_gradient_solve, quantile=0.97,
                                 region_builder=build_box)
        broken_index = int(clean.indices[2])
        x_min = clean.x_min[2]
        out = estimate_regions(ma2_gradient_solve, quantile=0.97,
                               region_builder=_BuilderFailingAt(x_min))
        assert list(out.region_failures) == [broken_index]
        assert "builder crashed" in out.region_failures[broken_index]
        assert out.indices.tolist() == [i for i in clean.indices
                                        if i != broken_index]
        _same_regions(out.regions, clean.regions,
                      rows_b=clean.indices != broken_index)


def test_lockstep_stages_build_no_objective(monkeypatch):
    """The solve, the regions and the sampler evaluate one DistanceStack per
    chunk; a DeterministicObjective is built only for a row that takes the
    Jacobian curvature fallback."""
    built = []
    init = DeterministicObjective.__init__

    def counting(self, model, seed, index, *args):
        built.append(index)
        init(self, model, seed, index, *args)

    monkeypatch.setattr(DeterministicObjective, "__init__", counting)
    solve = solve_problems(make_ma2_model(), n1=20, seed=21)
    bundle = estimate_regions(solve)
    bundle.sample(10, seed=21)
    assert len(bundle.indices) == 19
    assert built == []

    k = int(bundle.indices[4])
    hess = solve.hess.copy()
    hess[_row(solve, k)] = np.diag([-1.0, 1.0])
    bundle = estimate_regions(replace(solve, hess=hess))
    bundle.sample(10, seed=21)
    assert built == [k]
    assert bundle.curvature_sources[_row(bundle, k)] == "jacobian"


_ROW_OBJECTS = """
import json, tempfile
from collections import Counter
from pathlib import Path

import romc.pipeline
from romc import (BoundingBox, OptimisationResult, artifacts,
                  estimate_regions, make_ma2_model, solve_problems)
from romc.regions import build_box
from romc.surrogate import fit_quadratic

built, calls, out = Counter(), Counter(), {}
for cls in (OptimisationResult, BoundingBox, romc.pipeline.ProblemRecord):
    # both a call of the class and a cls.__new__(cls) that skips __init__
    # come here; the patch cannot be undone, so it runs in its own process
    def new(klass, *args, name=cls.__name__, **kwargs):
        built[name] += 1
        return object.__new__(klass)
    cls.__new__ = new

def counted(name, hook):
    def call(*args, **kwargs):
        calls[name] += 1
        return hook(*args, **kwargs)
    return call

with tempfile.TemporaryDirectory() as tmp:
    solve = solve_problems(make_ma2_model(), n1=20, seed=21)
    artifacts.write_solutions(Path(tmp) / "solutions.json", solve)
    solve = artifacts.load_solutions(Path(tmp) / "solutions.json")
    bundle = estimate_regions(solve, quantile=0.97)
    artifacts.write_regions(Path(tmp) / "regions.json", bundle)
    bundle = artifacts.load_regions(Path(tmp) / "regions.json")
    bundle.sample(10, seed=21)
out["pass"] = dict(built)
built.clear()
out["n1"] = len(solve.records)
out["records"] = dict(built)
built.clear()
solve = solve_problems(make_ma2_model(), n1=20, seed=21, solver=counted(
    "solver", lambda objective, prior, seed: romc.pipeline.solve_gradient(
        objective, prior, restarts=3, seed=seed)))
bundle = estimate_regions(
    solve, quantile=0.97, fit_models=True,
    region_builder=counted("region_builder", build_box),
    surrogate_fitter=counted("surrogate_fitter", fit_quadratic))
bundle.sample(10, seed=21)
out.update(hooks=dict(built), calls=dict(calls), regions=len(bundle.indices))
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def row_objects():
    """The row objects a ma2 pass builds, counted in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _ROW_OBJECTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_built_in_pass_builds_no_row_objects(row_objects):
    """Solve, both artifacts and sampling pass the accepted problems on as
    columns: without hooks, no stage builds a per-row result or box, and a
    ProblemRecord is built only when SolveOutput.records is read."""
    assert row_objects["pass"] == {}
    assert row_objects["n1"] == 20
    assert row_objects["records"] == {"ProblemRecord": 20,
                                      "OptimisationResult": 20}


def test_hooks_build_one_row_object_per_call(row_objects):
    """Each hook call gets or returns one row object: a solver call builds
    one result, a region_builder call one result and one box, and a
    surrogate_fitter call one box."""
    n_regions = row_objects["regions"]
    assert row_objects["calls"] == {"solver": 20, "region_builder": n_regions,
                                    "surrogate_fitter": n_regions}
    assert row_objects["hooks"] == {"OptimisationResult": 20 + n_regions,
                                    "BoundingBox": 2 * n_regions}


class TestStackedSampler:
    """sample() evaluates every region's draws in one stacked call; each
    weight equals the one its region's distance gives on its own draws."""

    @pytest.mark.parametrize("bundle", ["gradient", "bo", "quadratic"])
    def test_equals_per_region_evaluation(self, ma2_gradient_solve,
                                          ma2_bo_solve, toy_solve, bundle):
        bundle = {
            "gradient": lambda: estimate_regions(ma2_gradient_solve,
                                                 eps=0.05),
            "bo": lambda: estimate_regions(ma2_bo_solve, quantile=0.97),
            "quadratic": lambda: estimate_regions(toy_solve, quantile=0.8,
                                                  fit_models=True),
        }[bundle]()
        posterior = bundle.posterior()
        result = bundle.sample(40, seed=5)
        n = len(bundle.indices)
        distances = [
            quadratic or gp or make_objective(bundle.model, seed, index)
            for index, seed, quadratic, gp in zip(
                bundle.indices.tolist(), bundle.seeds.tolist(),
                bundle.quadratics or [None] * n, bundle.gps or [None] * n)]
        thetas, weights = [], []
        regions = posterior.regions
        for k, (pi, distance) in enumerate(zip(posterior.problem_indices,
                                               distances)):
            limits = regions.limits[k]
            draws = derive_rng(5, pi, STREAM_SAMPLE).uniform(
                limits[:, 0], limits[:, 1], size=(40, len(limits))
            ) @ regions.rotations[k].T + regions.centers[k]
            accepted = distance.evaluate_batch(draws) <= posterior.eps
            pdf = posterior.prior.pdf_batch(draws)
            thetas.append(draws)
            weights.append(np.where(accepted, pdf * regions.volumes[k], 0.0))
        np.testing.assert_array_equal(_bits(result.thetas),
                                      _bits(np.concatenate(thetas)))
        np.testing.assert_array_equal(_bits(result.weights),
                                      _bits(np.concatenate(weights)))
        assert np.any(result.weights > 0.0)
