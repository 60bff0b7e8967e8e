"""Posterior evaluation, weighted sampling and expectations.

The analytic setup used throughout: prior U[-1, 1], two quadratic
distances centered at +-0.3 with eps = 0.04, so the acceptance sets are
[0.1, 0.5] and [-0.5, -0.1].  Everything about the posterior follows in
closed form: unnorm = 0.5 * count, mass = 0.4, posterior = count / 0.8.
"""

import numpy as np
import pytest

from romc import (
    BoundingBox,
    DegenerateResult,
    UnsupportedDimension,
    midpoint_grid,
)
from romc.inference import PosteriorApproximation, sample
from romc.model import BoxUniformPrior
from romc.regions import ProposalRegion


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


def two_bump_posterior(eps=0.04):
    prior = BoxUniformPrior([[-1.0, 1.0]])
    regions = []
    distances = []
    for center in (0.3, -0.3):
        box = BoundingBox(np.eye(1), np.array([center]),
                          np.array([[-0.25, 0.25]]))
        regions.append(ProposalRegion(box))
        distances.append(
            lambda t, c=center: float((np.asarray(t).ravel()[0] - c) ** 2)
        )
    return PosteriorApproximation(prior, eps, regions, distances,
                                  problem_indices=[4, 9])


class TestPosteriorApproximation:
    def test_unnorm_hand_values(self):
        posterior = two_bump_posterior()
        # inside one acceptance set: prior 0.5 times count 1
        assert posterior.eval_unnorm(np.array([0.2])) == pytest.approx(0.5)
        assert posterior.eval_unnorm(np.array([-0.2])) == pytest.approx(0.5)
        # in the gap between the sets: count 0
        assert posterior.eval_unnorm(np.array([0.0])) == 0.0
        assert posterior.eval_unnorm(np.array([0.9])) == 0.0

    def test_zero_outside_prior_support(self):
        posterior = two_bump_posterior()
        assert posterior.eval_unnorm(np.array([1.5])) == 0.0

    def test_partition_function_matches_analytic_mass(self):
        posterior = two_bump_posterior()
        # two intervals of width 0.4 at density 0.5
        assert posterior.partition_function(0.001) == pytest.approx(0.4,
                                                                    abs=5e-3)

    def test_posterior_normalizes(self):
        posterior = two_bump_posterior()
        value = posterior.eval_posterior(np.array([0.2]), 0.001)
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

        def counting(thetas):
            calls["n"] += 1
            return original(thetas)

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
        region = ProposalRegion(box)
        with pytest.raises(ValueError):
            PosteriorApproximation(prior, 0.1, [], [])
        with pytest.raises(ValueError):
            PosteriorApproximation(prior, 0.1, [region], [])
        with pytest.raises(ValueError):
            PosteriorApproximation(prior, 0.1, [region], [lambda t: 0.0],
                                   problem_indices=[1, 2])


class TestSample:
    def test_weights_rederivable(self):
        # every weight must equal indicator * prior pdf * box volume
        posterior = two_bump_posterior()
        result = sample(posterior, 100, seed=11)
        by_index = dict(zip(posterior.problem_indices,
                            zip(posterior.regions, posterior.distances)))
        for j in range(result.n_samples):
            theta = result.thetas[j]
            region, distance = by_index[int(result.problem_indices[j])]
            expected = 0.0
            if distance(theta) <= posterior.eps:
                expected = posterior.prior.pdf(theta) * region.box.volume
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
            list(reversed(posterior.regions)),
            list(reversed(posterior.distances)),
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
        by_index = dict(zip(posterior.problem_indices, posterior.regions))
        for pi, region in by_index.items():
            block = result.thetas[result.problem_indices == pi]
            assert region.box.contains(block).all()

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
        from romc.inference import _weighted_quantile

        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([1.0, 1.0, 2.0])
        assert _weighted_quantile(values, weights, 0.5) == 2.0
        assert _weighted_quantile(values, weights, 0.95) == 3.0
        assert _weighted_quantile(values, weights, 0.01) == 1.0

    def test_column_length_validation(self):
        from romc.inference import InferenceResult

        with pytest.raises(ValueError):
            InferenceResult(np.zeros((3, 1)), np.zeros(2), np.zeros(3),
                            np.zeros(3), eps=0.1, seed=0)
