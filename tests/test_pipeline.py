"""End-to-end training driver: solve, regions, bundle behavior, hooks."""

from dataclasses import replace

import numpy as np
import pytest

import romc.parallel
import romc.pipeline
from conftest import BatchDistance
from romc import (
    DegenerateResult,
    OptimisationResult,
    artifacts,
    estimate_regions,
    make_ma2_model,
    make_toy_model,
    solve_problems,
)
from romc.model import STREAM_SAMPLE, derive_rng, draw_nuisance_seeds
from romc.regions import RegionSettings, build_box
from romc.surrogate import fit_quadratic


def _rejecting_solver(objective, prior, seed):
    return None


def _raising_solver(objective, prior, seed):
    raise RuntimeError("boom")


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
        values = toy_solve.f_min_values()
        # u < observation makes the distance exactly solvable; roughly half
        # the seeds admit a zero
        assert len(toy_solve.solved()) == 40
        assert np.median(values) < 0.5

    def test_deterministic_across_runs(self, toy_solve):
        again = solve_problems(make_toy_model(), n1=40, seed=7)
        np.testing.assert_array_equal(again.f_min_values(),
                                      toy_solve.f_min_values())
        for a, b in zip(again.records, toy_solve.records):
            np.testing.assert_array_equal(a.result.x_min, b.result.x_min)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        import romc.parallel

        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 2)
        seq = solve_problems(make_toy_model(), n1=10, seed=3, workers=1)
        par = solve_problems(make_toy_model(), n1=10, seed=3, workers=2)
        np.testing.assert_array_equal(seq.f_min_values(), par.f_min_values())

    def test_bo_route_attaches_surrogates(self):
        out = solve_problems(make_toy_model(), n1=3, seed=1, use_bo=True,
                             budget=16, init_points=4)
        assert out.use_bo
        for record in out.records:
            assert record.gp is not None

    def test_custom_solver_hook(self):
        out = solve_problems(make_toy_model(), n1=4, seed=2,
                             solver=_rejecting_solver)
        assert out.solved() == []
        assert all(r.error == "optimizer returned no solution"
                   for r in out.records)

    def test_solver_exceptions_recorded_not_raised(self):
        out = solve_problems(make_toy_model(), n1=4, seed=2,
                             solver=_raising_solver)
        assert out.solved() == []
        assert all("RuntimeError" in r.error for r in out.records)

    def test_compute_eps_and_histogram(self, toy_solve):
        eps = toy_solve.compute_eps(0.9)
        values = np.sort(toy_solve.f_min_values())
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
        expected = [i for i, r in toy_solve.solved() if r.f_min <= bundle.eps]
        assert bundle.accepted == expected

    def test_explicit_eps(self, toy_solve):
        bundle = estimate_regions(toy_solve, eps=0.5)
        assert bundle.eps == 0.5
        assert all(e.result.f_min <= 0.5 for e in bundle.entries)

    def test_eps_and_quantile_exclusive(self, toy_solve):
        with pytest.raises(ValueError):
            estimate_regions(toy_solve, eps=0.5, quantile=0.9)

    def test_default_quantile_is_090(self, toy_solve):
        bundle = estimate_regions(toy_solve)
        assert bundle.eps == toy_solve.compute_eps(0.9)

    def test_minimizers_inside_their_regions(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8)
        for entry in bundle.entries:
            assert entry.region.contains(entry.result.x_min)
            assert entry.curvature_source in ("hess_appr", "jacobian",
                                              "identity")

    def test_timing_captured_per_task(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8)
        assert sorted(bundle.region_seconds) == bundle.accepted
        assert all(s >= 0.0 for s in bundle.region_seconds.values())
        assert bundle.fit_seconds == {}

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
        for entry in bundle.entries:
            assert bundle.distance(entry) is entry.gp
        bundle.posterior()
        assert bundle._objectives == {}  # no objective built that goes unused

    def test_surrogate_opt_out(self):
        out = solve_problems(make_toy_model(), n1=4, seed=5, use_bo=True,
                             budget=16, init_points=4)
        bundle = estimate_regions(out, quantile=1.0, use_surrogate=False)
        for entry in bundle.entries:
            assert bundle.distance(entry) is bundle.objective(entry.index)

    def test_fit_models_attaches_quadratics(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8, fit_models=True)
        assert bundle.fit_models
        for entry in bundle.entries:
            assert entry.quadratic is not None
        assert sorted(bundle.fit_seconds) == bundle.accepted
        for entry in bundle.entries:
            assert bundle.distance(entry) is entry.quadratic

    def test_region_builder_hook(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8,
                                  region_builder=_shifted_region_builder)
        assert all(e.curvature_source == "custom" for e in bundle.entries)

    def test_surrogate_fitter_hook(self, toy_solve):
        bundle = estimate_regions(toy_solve, quantile=0.8, fit_models=True,
                                  surrogate_fitter=_tiny_surrogate_fitter)
        assert all(e.quadratic is not None for e in bundle.entries)

    def test_failed_fit_drops_its_region(self, tmp_path):
        # a region without its quadratic would silently fall back to the
        # real objective while every other region uses its fit
        out = solve_problems(make_toy_model(), n1=12, seed=2)
        clean = estimate_regions(out, quantile=0.9, fit_models=True)
        assert 3 in clean.accepted
        bundle = estimate_regions(out, quantile=0.9, fit_models=True,
                                  surrogate_fitter=_fitter_failing_for_3)
        assert "fit failed" in bundle.region_failures[3]
        assert bundle.accepted == [i for i in clean.accepted if i != 3]
        for entry in bundle.entries:
            assert entry.quadratic is not None
            assert (entry.quadratic.to_record()
                    == clean.entry(entry.index).quadratic.to_record())
        artifacts.write_region_telemetry(tmp_path / "telemetry.csv", bundle)
        rows = (tmp_path / "telemetry.csv").read_text().splitlines()
        assert [row for row in rows if row.startswith("3,")][0].startswith(
            "3,failed,")
        artifacts.write_regions(tmp_path / "regions.json", bundle)
        loaded = artifacts.load_regions(tmp_path / "regions.json")
        assert loaded.accepted == bundle.accepted

    def test_degenerate_when_every_fit_fails(self, toy_solve):
        with pytest.raises(DegenerateResult, match="every quadratic fit"):
            estimate_regions(toy_solve, quantile=0.8, fit_models=True,
                             surrogate_fitter=_always_failing_fitter)


class TestInferenceBundle:
    @pytest.fixture
    def bundle(self, toy_bundle):
        return toy_bundle

    def test_entry_lookup(self, bundle):
        index = bundle.accepted[0]
        assert bundle.entry(index).index == index
        with pytest.raises(KeyError):
            bundle.entry(10_000)

    def test_objective_cached(self, bundle):
        index = bundle.accepted[0]
        assert bundle.objective(index) is bundle.objective(index)

    def test_distance_precedence(self, bundle):
        # fitted quadratic, then GP mean under use_surrogate, then objective
        entry = bundle.entries[0]
        gp, quadratic = object(), object()
        with_gp = replace(entry, gp=gp)
        with_both = replace(entry, gp=gp, quadratic=quadratic)
        assert not bundle.use_surrogate
        assert bundle.distance(with_gp) is bundle.objective(entry.index)
        assert bundle.distance(with_both) is quadratic
        surrogate = replace(bundle, use_surrogate=True)
        assert surrogate.distance(entry) is surrogate.objective(entry.index)
        assert surrogate.distance(with_gp) is gp
        assert surrogate.distance(with_both) is quadratic

    def test_posterior_round_trip(self, bundle):
        posterior = bundle.posterior()
        assert posterior.n_regions == len(bundle.entries)
        assert posterior.eps == bundle.eps
        assert posterior.problem_indices == bundle.accepted
        value = posterior.eval_unnorm(np.array([0.0]))
        assert np.isfinite(value) and value >= 0.0

    def test_sample_shapes_and_weights(self, bundle):
        result = bundle.sample(25, seed=4)
        assert result.n_samples == 25 * len(bundle.entries)
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


class TestChunkedRegions:
    """Without a region_builder, the boxes of a worker's chunk come from one
    lockstep walk, and each equals the box built for its region alone."""

    @pytest.mark.parametrize("solve", ["ma2_gradient_solve", "ma2_bo_solve"])
    def test_chunk_equals_build_box_per_region(self, request, solve):
        solve = request.getfixturevalue(solve)
        chunked = estimate_regions(solve, quantile=0.97)
        alone = estimate_regions(solve, quantile=0.97, region_builder=build_box)
        # build_box as a hook has no objective for the Jacobian fallback
        assert {e.curvature_source for e in chunked.entries} == {"hess_appr"}
        assert chunked.accepted == alone.accepted
        for a, b in zip(chunked.entries, alone.entries):
            for name in ("rotation", "center", "limits"):
                np.testing.assert_array_equal(_bits(getattr(a.region, name)),
                                              _bits(getattr(b.region, name)))

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

    def test_raising_distance_fails_only_its_region(self, monkeypatch,
                                                    ma2_gradient_solve):
        clean = estimate_regions(ma2_gradient_solve, quantile=0.97)
        broken_index = clean.accepted[2]
        build = romc.pipeline.make_objective

        def broken(theta):
            raise RuntimeError("simulator crashed")

        def make(model, seed, index):
            if index == broken_index:
                return BatchDistance(broken)
            return build(model, seed, index)

        monkeypatch.setattr(romc.pipeline, "make_objective", make)
        out = estimate_regions(ma2_gradient_solve, quantile=0.97)
        assert "simulator crashed" in out.region_failures[broken_index]
        assert out.accepted == [i for i in clean.accepted if i != broken_index]
        for entry in out.entries:
            np.testing.assert_array_equal(
                _bits(entry.region.limits),
                _bits(clean.entry(entry.index).region.limits))


    def test_raising_region_builder_fails_only_its_region(
            self, ma2_gradient_solve):
        clean = estimate_regions(ma2_gradient_solve, quantile=0.97,
                                 region_builder=build_box)
        broken_index = clean.accepted[2]
        x_min = ma2_gradient_solve.records[broken_index].result.x_min
        out = estimate_regions(ma2_gradient_solve, quantile=0.97,
                               region_builder=_BuilderFailingAt(x_min))
        assert list(out.region_failures) == [broken_index]
        assert "builder crashed" in out.region_failures[broken_index]
        assert out.accepted == [i for i in clean.accepted if i != broken_index]
        for entry in out.entries:
            for name in ("rotation", "center", "limits"):
                np.testing.assert_array_equal(
                    _bits(getattr(entry.region, name)),
                    _bits(getattr(clean.entry(entry.index).region, name)))


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
        thetas, weights = [], []
        for pi, region, distance in zip(posterior.problem_indices,
                                        posterior.regions,
                                        posterior.distances):
            draws = region.sample(40, derive_rng(5, pi, STREAM_SAMPLE))
            accepted = distance.evaluate_batch(draws) <= posterior.eps
            pdf = posterior.prior.pdf_batch(draws)
            thetas.append(draws)
            weights.append(np.where(accepted, pdf * region.volume, 0.0))
        np.testing.assert_array_equal(_bits(result.thetas),
                                      _bits(np.concatenate(thetas)))
        np.testing.assert_array_equal(_bits(result.weights),
                                      _bits(np.concatenate(weights)))
        assert np.any(result.weights > 0.0)
