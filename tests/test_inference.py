"""Posterior evaluation, weighted sampling and expectations.

The analytic setup used throughout: prior U[-1, 1], two quadratic
distances centered at +-0.3 with eps = 0.04, so the acceptance sets are
[0.1, 0.5] and [-0.5, -0.1].  Everything about the posterior follows in
closed form: unnorm = 0.5 * count, mass = 0.4, posterior = count / 0.8.
"""

import numpy as np
import pytest

from conftest import BatchDistance, fit_gp
from romc import (
    BoundingBox,
    DegenerateResult,
    UnsupportedDimension,
    build_model,
    estimate_regions,
    midpoint_grid,
    solve_problems,
)
from romc.inference import PosteriorApproximation, grid_axes, sample
from romc.model import BoxUniformPrior, DistanceStack, make_objective
from romc.optimize import GaussianProcessSurrogate
from romc.regions import RegionStack


def _rows(*parts):
    """The RegionStack of the chosen rows of stacks, each part a (stack,
    rows) pair, in order."""
    return RegionStack(*(np.concatenate([getattr(stack, name)[rows]
                                         for stack, rows in parts])
                         for name in ("rotations", "centers", "limits")))


class TestMidpointGrid:
    def test_1d_hand_case(self):
        points, volume = midpoint_grid(np.array([[0.0, 1.0]]), 0.25)
        np.testing.assert_allclose(points[:, 0], [0.125, 0.375, 0.625, 0.875])
        assert volume == pytest.approx(0.25)

    def test_2d_hand_case(self):
        points, volume = midpoint_grid(np.array([[0.0, 1.0], [0.0, 2.0]]),
                                       [0.5, 1.0])
        assert points.shape == (4, 2)
        assert volume == pytest.approx(0.5)
        np.testing.assert_allclose(
            points, [[0.25, 0.5], [0.25, 1.5], [0.75, 0.5], [0.75, 1.5]]
        )

    def test_noninteger_step_rounds_up_cell_count(self):
        # range 1 at step 0.3 needs 4 cells of width 0.25
        points, volume = midpoint_grid(np.array([[0.0, 1.0]]), 0.3)
        assert points.shape[0] == 4
        assert volume == pytest.approx(0.25)

    def test_default_resolution(self):
        points, volume = midpoint_grid(np.array([[-2.5, 2.5]]))
        assert points.shape[0] == 200
        assert volume == pytest.approx(5.0 / 200)

    def test_cells_tile_the_range(self):
        points, volume = midpoint_grid(np.array([[3.0, 7.0]]), 0.5)
        assert points.shape[0] * volume == pytest.approx(4.0)

    def test_dimension_limit(self):
        with pytest.raises(UnsupportedDimension):
            midpoint_grid(np.tile([0.0, 1.0], (4, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            midpoint_grid(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            midpoint_grid(np.array([[0.0, 1.0]]), -0.1)
        with pytest.raises(ValueError):
            midpoint_grid(np.array([[0.0, 1.0]]), [0.1, 0.2])

    def test_points_are_the_c_order_mesh_of_the_axes(self):
        bounds = np.array([[0.0, 1.0], [-1.0, 2.0], [3.0, 4.0]])
        axes, volume = grid_axes(bounds, [0.25, 1.0, 0.5])
        assert [len(a) for a in axes] == [4, 3, 2]
        points, expected = midpoint_grid(bounds, [0.25, 1.0, 0.5])
        assert volume == expected
        flat = np.arange(len(points))
        for m, axis in enumerate(axes):
            index = np.unravel_index(flat, (4, 3, 2))[m]
            np.testing.assert_array_equal(points[:, m], axis[index])

    @pytest.mark.parametrize("step", [1.0 / 8_000_000.5, 1e-320])
    def test_cell_count_capped(self, step):
        # one cell over 200**3; 1e-320 overflows range / step to inf,
        # which an int count would turn into a one-cell grid
        with pytest.raises(ValueError, match="more than 8000000 cells"):
            midpoint_grid(np.array([[0.0, 1.0]]), step)


def two_bump_posterior(eps=0.04):
    prior = BoxUniformPrior([[-1.0, 1.0]])
    regions = []
    distances = []
    for center in (0.3, -0.3):
        box = BoundingBox(np.eye(1), np.array([center]),
                          np.array([[-0.25, 0.25]]))
        regions.append(box)
        distances.append(BatchDistance(
            lambda t, c=center: float((np.asarray(t).ravel()[0] - c) ** 2)
        ))
    return PosteriorApproximation(prior, eps, RegionStack.of(regions),
                                  DistanceStack(distances),
                                  problem_indices=[4, 9])


class TestPosteriorApproximation:
    def test_unnorm_hand_values(self):
        posterior = two_bump_posterior()
        values = posterior.eval_unnorm_batch([[0.2], [-0.2], [0.0], [0.9]])
        # inside one acceptance set: prior 0.5 times count 1
        np.testing.assert_allclose(values[:2], 0.5)
        # in the gap between the sets: count 0
        np.testing.assert_array_equal(values[2:], 0.0)

    def test_zero_outside_prior_support(self):
        posterior = two_bump_posterior()
        assert posterior.eval_unnorm_batch([[1.5]])[0] == 0.0

    def test_partition_function_matches_analytic_mass(self):
        posterior = two_bump_posterior()
        # two intervals of width 0.4 at density 0.5
        assert posterior.partition_function(0.001) == pytest.approx(0.4,
                                                                    abs=5e-3)

    def test_posterior_normalizes(self):
        posterior = two_bump_posterior()
        value = posterior.eval_posterior_batch([[0.2]], 0.001)[0]
        assert value == pytest.approx(0.5 / 0.4, abs=0.02)
        points, volume = midpoint_grid(posterior.prior.bounds, 0.001)
        total = np.sum(posterior.eval_posterior_batch(points, 0.001)) * volume
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unnorm_monotone_in_eps(self):
        # acceptance indicators can only switch on as eps grows
        tight = two_bump_posterior(eps=0.01)
        loose = two_bump_posterior(eps=0.09)
        thetas = np.linspace(-1, 1, 201)[:, None]
        low = tight.eval_unnorm_batch(thetas)
        high = loose.eval_unnorm_batch(thetas)
        assert np.all(high >= low)
        assert high.sum() > low.sum()

    def test_partition_cached_per_grid_step(self):
        posterior = two_bump_posterior()
        calls = {"n": 0}
        original = posterior.eval_unnorm_batch

        def counting(thetas, axes=None):
            calls["n"] += 1
            return original(thetas, axes)

        posterior.eval_unnorm_batch = counting
        posterior.partition_function(0.01)
        posterior.partition_function(0.01)
        assert calls["n"] == 1
        posterior.partition_function(0.02)
        assert calls["n"] == 2

    def test_grid_values_and_cached_mass(self):
        posterior = two_bump_posterior()
        points, unnorm, mass = posterior.grid(0.001)
        expected, volume = midpoint_grid(posterior.prior.bounds, 0.001)
        np.testing.assert_array_equal(points, expected)
        np.testing.assert_array_equal(unnorm, posterior.eval_unnorm_batch(points))
        assert mass == float(np.sum(unnorm) * volume)
        posterior.eval_unnorm_batch = None  # the mass must come from the cache
        assert posterior.partition_function(0.001) == mass

    def test_degenerate_when_no_mass(self):
        posterior = two_bump_posterior(eps=0.0)
        # zero-measure acceptance sets cannot be seen by the grid
        with pytest.raises(DegenerateResult):
            posterior.partition_function(0.01)
        with pytest.raises(DegenerateResult):
            posterior.grid(0.01)

    def test_alignment_validation(self):
        prior = BoxUniformPrior([[-1.0, 1.0]])
        box = BoundingBox(np.eye(1), np.zeros(1), np.array([[-0.5, 0.5]]))
        with pytest.raises(ValueError):
            PosteriorApproximation(prior, 0.1, [], DistanceStack([]))
        with pytest.raises(ValueError):
            PosteriorApproximation(prior, 0.1, RegionStack.of([box]),
                                   DistanceStack([]))
        with pytest.raises(ValueError):
            PosteriorApproximation(prior, 0.1, RegionStack.of([box]),
                                   DistanceStack([BatchDistance(lambda t: 0.0)]),
                                   problem_indices=[1, 2])


def row_loop_unnorm(posterior, points):
    """The prior density times a count of evaluate_batch indicators, one
    distance at a time, at every row."""
    counts = sum(posterior.distances(points, k) <= posterior.eps
                 for k in range(posterior.n_regions))
    return posterior.prior.pdf_batch(points) * counts


@pytest.fixture(scope="module")
def ma2_bo_posterior():
    # the benchmark's BO configuration
    solve = solve_problems(build_model("ma2"), n1=30, seed=21, use_bo=True)
    return estimate_regions(solve, quantile=0.97).posterior()


@pytest.fixture(scope="module")
def mixed_posterior(ma2_bo_posterior):
    """GP means of a BO run next to the kernel objectives of a gradient run."""
    gradient = estimate_regions(
        solve_problems(build_model("ma2"), n1=20, seed=5, restarts=2),
        quantile=0.97)
    return PosteriorApproximation(
        ma2_bo_posterior.prior, 0.05,
        _rows((ma2_bo_posterior.regions, slice(10)),
              (gradient.regions, slice(None))),
        DistanceStack(ma2_bo_posterior.distances.distances[:10] + [
            make_objective(gradient.model, seed, index) for seed, index in zip(
                gradient.seeds.tolist(), gradient.indices.tolist())]))


@pytest.fixture(scope="module")
def bo_1d_posterior():
    solve = solve_problems(build_model("1d"), n1=10, seed=3, use_bo=True)
    return estimate_regions(solve, eps=0.75).posterior()


class TestProductGrid:
    """grid() takes GP means in product form on the grid's axes, yet counts
    exactly the indicators that evaluate_batch gives."""

    @pytest.mark.parametrize("name", ["mixed_posterior", "bo_1d_posterior",
                                      "ma2_bo_posterior"])
    def test_unnorm_equals_row_loop(self, request, name):
        posterior = request.getfixturevalue(name)
        assert any(isinstance(d, GaussianProcessSurrogate)
                   for d in posterior.distances.distances)
        points, unnorm, mass = posterior.grid()
        expected = row_loop_unnorm(posterior, points)
        np.testing.assert_array_equal(unnorm, expected)
        assert np.sum(unnorm) > 0.0

    def test_mixed_posterior_counts_both_kinds(self, mixed_posterior):
        points, _ = midpoint_grid(mixed_posterior.prior.bounds)
        for distances in (mixed_posterior.distances.distances[:10],
                          mixed_posterior.distances.distances[10:]):
            assert sum(np.sum(d.evaluate_batch(points) <= 0.05)
                       for d in distances) > 0

    def test_fast_path_sends_no_grid_rows_through_evaluate_batch(
            self, ma2_bo_posterior, monkeypatch):
        posterior = PosteriorApproximation(
            ma2_bo_posterior.prior, ma2_bo_posterior.eps,
            ma2_bo_posterior.regions, ma2_bo_posterior.distances)
        rows = []
        original = GaussianProcessSurrogate.evaluate_batch

        def counting(self, thetas):
            rows.append(len(thetas))
            return original(self, thetas)

        monkeypatch.setattr(GaussianProcessSurrogate, "evaluate_batch",
                            counting)
        assert posterior.partition_function() > 0.0
        assert sum(rows) == 0

    def test_cell_near_eps_is_evaluated_again(self):
        rng = np.random.default_rng(8)
        inputs = rng.uniform(-1.0, 1.0, size=(40, 2))
        gp = fit_gp(inputs, np.sum(inputs**2, axis=1))
        prior = BoxUniformPrior([[-1.0, 1.0], [-1.0, 1.0]])
        axes, _ = grid_axes(prior.bounds, 0.05)
        points, _ = midpoint_grid(prior.bounds, 0.05)
        product, _ = gp.evaluate_grid(axes)
        batch = gp.evaluate_batch(points)
        # a cell whose product-form mean rounds above its batch mean: with
        # eps at the batch mean, only the batch value counts it
        cell = int(np.flatnonzero(product > batch)[0])
        box = BoundingBox(np.eye(2), np.zeros(2), np.array([[-1.0, 1.0]] * 2))
        posterior = PosteriorApproximation(prior, batch[cell],
                                           RegionStack.of([box]),
                                           DistanceStack([gp]))
        evaluated = []

        def spying(thetas):
            evaluated.append(np.array(thetas))
            return GaussianProcessSurrogate.evaluate_batch(gp, thetas)

        gp.evaluate_batch = spying
        _, unnorm, _ = posterior.grid(0.05)
        assert any((rows == points[cell]).all(axis=1).any()
                   for rows in evaluated)
        assert unnorm[cell] == prior.pdf_batch(points[cell:cell + 1])[0]
        np.testing.assert_array_equal(unnorm, row_loop_unnorm(posterior, points))


class TestSample:
    def test_weights_rederivable(self):
        # every weight must equal indicator * prior pdf * box volume
        posterior = two_bump_posterior()
        result = sample(posterior, 100, seed=11)
        by_index = dict(zip(posterior.problem_indices,
                            zip(posterior.regions.volumes,
                                posterior.distances.distances)))
        for j in range(result.n_samples):
            theta = result.thetas[j]
            volume, distance = by_index[int(result.problem_indices[j])]
            expected = 0.0
            if distance(theta) <= posterior.eps:
                expected = posterior.prior.pdf_batch(theta[None, :])[0] * volume
            assert result.weights[j] == pytest.approx(expected, rel=1e-12)

    def test_zero_weight_draws_are_kept(self):
        posterior = two_bump_posterior()
        result = sample(posterior, 200, seed=3)
        assert result.n_samples == 2 * 200
        assert np.any(result.weights == 0.0)
        assert np.any(result.weights > 0.0)

    def test_deterministic_and_order_independent(self):
        posterior = two_bump_posterior()
        result = sample(posterior, 50, seed=7)
        again = sample(posterior, 50, seed=7)
        np.testing.assert_array_equal(result.thetas, again.thetas)
        np.testing.assert_array_equal(result.weights, again.weights)

        # reversing the region order must not change any per-problem draw
        flipped = PosteriorApproximation(
            posterior.prior, posterior.eps,
            _rows((posterior.regions, slice(None, None, -1))),
            DistanceStack(reversed(posterior.distances.distances)),
            problem_indices=list(reversed(posterior.problem_indices)),
        )
        other = sample(flipped, 50, seed=7)
        for pi in posterior.problem_indices:
            a = result.thetas[result.problem_indices == pi]
            b = other.thetas[other.problem_indices == pi]
            np.testing.assert_array_equal(a, b)

    def test_draws_come_from_their_regions(self):
        posterior = two_bump_posterior()
        result = sample(posterior, 80, seed=1)
        for k, pi in enumerate(posterior.problem_indices):
            block = result.thetas[result.problem_indices == pi]
            owners = np.full(len(block), k)
            assert posterior.regions.contains(block, owners).all()

    def test_draw_indices_run_per_region(self):
        posterior = two_bump_posterior()
        result = sample(posterior, 30, seed=2)
        for pi in posterior.problem_indices:
            draws = result.draw_indices[result.problem_indices == pi]
            np.testing.assert_array_equal(draws, np.arange(30))

    def test_rejects_nonpositive_n2(self):
        with pytest.raises(ValueError):
            sample(two_bump_posterior(), 0, seed=0)


class TestExpectation:
    def test_hand_weighted_mean(self):
        posterior = two_bump_posterior()
        result = sample(posterior, 100, seed=5)
        w = result.weights
        manual = float((w * result.thetas[:, 0]).sum() / w.sum())
        got = result.expectation(lambda t: float(t[0]))
        assert got == pytest.approx(manual, rel=1e-12)

    def test_self_normalization(self):
        # acceptance property: E[1] == 1 to 1e-6
        result = sample(two_bump_posterior(), 100, seed=5)
        assert result.expectation(lambda t: 1.0) == pytest.approx(
            1.0, abs=1e-6
        )
        normalized = result.weights / result.weights.sum()
        assert normalized.sum() == pytest.approx(1.0, abs=1e-6)

    def test_vector_valued_h(self):
        result = sample(two_bump_posterior(), 60, seed=9)
        got = result.expectation(lambda t: np.array([t[0], t[0] ** 2]))
        assert got.shape == (2,)
        assert got[0] == pytest.approx(
            result.expectation(lambda t: float(t[0])), rel=1e-12
        )

    def test_symmetric_posterior_has_small_mean(self):
        result = sample(two_bump_posterior(), 4000, seed=0)
        mean = result.expectation(lambda t: float(t[0]))
        assert abs(mean) < 0.05

    def test_degenerate_when_all_weights_zero(self):
        posterior = two_bump_posterior(eps=1e-30)
        result = sample(posterior, 20, seed=0)
        assert result.weights.sum() == 0.0
        with pytest.raises(DegenerateResult):
            result.expectation(lambda t: float(t[0]))
        with pytest.raises(DegenerateResult):
            result.summary()


class TestInferenceResultSummary:
    def test_summary_fields(self):
        result = sample(two_bump_posterior(), 150, seed=13)
        summary = result.summary()
        assert summary["n_samples"] == 300
        assert summary["n_regions"] == 2
        assert summary["eps"] == pytest.approx(0.04)
        assert 0 < summary["nonzero_fraction"] <= 1
        assert 1.0 <= summary["ess"] <= 300
        w = result.weights
        manual_mean = float((w * result.thetas[:, 0]).sum() / w.sum())
        assert summary["parameters"][0]["mean"] == pytest.approx(manual_mean)
        assert summary["parameters"][0]["q025"] <= summary["parameters"][0]["median"]
        assert summary["parameters"][0]["median"] <= summary["parameters"][0]["q975"]

    def test_weighted_quantile_hand_case(self):
        from romc.inference import _weighted_quantiles

        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 2.0])
        median, q95, q01 = _weighted_quantiles(values, weights,
                                               (0.5, 0.95, 0.01))
        assert median == 2.0
        assert q95 == 3.0
        assert q01 == 1.0

    def test_column_length_validation(self):
        from romc.inference import InferenceResult

        with pytest.raises(ValueError):
            InferenceResult(np.zeros((3, 1)), np.zeros(2), np.zeros(3),
                            np.zeros(3), eps=0.1, seed=0)
