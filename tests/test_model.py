"""Priors, seed derivation and the deterministic per-seed objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingDistance
from romc import NumericalFailure, make_toy_model
from romc.model import (
    BoxUniformPrior,
    IdentitySummary,
    derive_rng,
    draw_nuisance_seeds,
    evaluate_distance_batch,
    finite_difference_gradient,
    make_objective,
    squared_distance,
)


def test_squared_distance_hand_case():
    assert squared_distance([1.0, 2.0], [3.0, 5.0]) == pytest.approx(13.0)
    assert squared_distance([0.5], [0.5]) == 0.0


class TestNuisanceSeeds:
    def test_range_and_length(self):
        seeds = draw_nuisance_seeds(200, 7)
        assert len(seeds) == 200
        assert all(isinstance(s, int) for s in seeds)
        assert all(1 <= s < 2**32 for s in seeds)

    def test_deterministic(self):
        assert draw_nuisance_seeds(50, 3) == draw_nuisance_seeds(50, 3)

    def test_prefix_property(self):
        # runs with larger n1 must extend, not reshuffle, smaller runs
        assert draw_nuisance_seeds(80, 11)[:20] == draw_nuisance_seeds(20, 11)

    def test_master_seed_matters(self):
        assert draw_nuisance_seeds(20, 0) != draw_nuisance_seeds(20, 1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            draw_nuisance_seeds(0, 0)


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(5, 3, 1).uniform(size=4)
        b = derive_rng(5, 3, 1).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(5, 3, 1).uniform(size=4)
        b = derive_rng(5, 3, 2).uniform(size=4)
        c = derive_rng(5, 4, 1).uniform(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBoxUniformPrior:
    def test_pdf_is_inverse_volume(self):
        prior = BoxUniformPrior([[0.0, 2.0], [0.0, 4.0]])
        assert prior.pdf(np.array([1.0, 1.0])) == pytest.approx(1.0 / 8.0)
        assert prior.pdf(np.array([3.0, 1.0])) == 0.0
        assert prior.log_pdf(np.array([3.0, 1.0])) == -np.inf

    def test_boundary_is_inside(self):
        prior = BoxUniformPrior([[0.0, 1.0]])
        assert prior.pdf(np.array([0.0])) == pytest.approx(1.0)
        assert prior.pdf(np.array([1.0])) == pytest.approx(1.0)

    def test_pdf_batch_matches_scalar(self):
        prior = BoxUniformPrior([[-1.0, 1.0], [0.0, 3.0]])
        thetas = np.random.default_rng(0).uniform(-2, 4, size=(40, 2))
        batch = prior.pdf_batch(thetas)
        scalars = np.array([prior.pdf(t) for t in thetas])
        np.testing.assert_array_equal(batch, scalars)

    def test_samples_stay_inside(self):
        prior = BoxUniformPrior([[-2.0, -1.0], [5.0, 6.0]])
        rng = np.random.default_rng(1)
        draws = np.array([prior.sample(rng) for _ in range(100)])
        assert np.all(prior.pdf_batch(draws) > 0)

    def test_ranges(self):
        prior = BoxUniformPrior([[0.0, 2.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(prior.ranges, [2.0, 4.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxUniformPrior([[1.0, 0.0]])
        with pytest.raises(ValueError):
            BoxUniformPrior([[0.0, np.inf]])
        with pytest.raises(ValueError):
            BoxUniformPrior([0.0, 1.0])


def test_identity_summary_passes_through():
    summary = IdentitySummary(3)
    assert summary.summary_dimension == 3
    np.testing.assert_array_equal(summary([1, 2, 3]), [1.0, 2.0, 3.0])


class TestDeterministicObjective:
    def test_matches_hand_composition(self, toy_model):
        # independent recomputation: one normal draw plus the piecewise
        # location, squared against the observation
        seed = 91
        objective = make_objective(toy_model, seed, 0)
        u = float(np.random.default_rng(seed).standard_normal())
        for theta in (-1.7, -0.2, 0.0, 0.4, 2.2):
            loc = theta**4 if abs(theta) <= 0.5 else abs(theta) - (0.5 - 0.5**4)
            expected = (loc + u - 0.0) ** 2
            assert objective(np.array([theta])) == pytest.approx(expected, rel=1e-12)

    def test_scalar_equals_batch_bitwise(self, toy_model):
        objective = make_objective(toy_model, 17, 0)
        thetas = np.linspace(-2.5, 2.5, 21)[:, None]
        batch = objective.evaluate_batch(thetas)
        for j, theta in enumerate(thetas):
            assert objective(theta) == batch[j]

    def test_same_seed_same_function(self, toy_model):
        a = make_objective(toy_model, 5, 0)
        b = make_objective(toy_model, 5, 3)
        theta = np.array([0.3])
        assert a(theta) == b(theta)

    def test_different_seeds_differ(self, toy_model):
        a = make_objective(toy_model, 5, 0)
        b = make_objective(toy_model, 6, 1)
        assert a(np.array([0.3])) != b(np.array([0.3]))

    def test_summaries_exposed(self, toy_model):
        objective = make_objective(toy_model, 5, 0)
        s = objective.summaries(np.array([0.2]))
        assert s.shape == (1,)

    def test_shape_validation(self, toy_model):
        objective = make_objective(toy_model, 5, 0)
        with pytest.raises(ValueError):
            objective(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            objective.evaluate_batch(np.zeros((3, 2)))

    def test_observed_shape_validation(self, toy_model):
        with pytest.raises(ValueError):
            make_objective(toy_model, 5, 0, observed=np.zeros(4))

    def test_custom_observed(self, toy_model):
        seed = 23
        base = make_objective(toy_model, seed, 0)
        shifted = make_objective(toy_model, seed, 0, observed=np.array([1.0]))
        assert base(np.array([0.0])) != shifted(np.array([0.0]))


def test_evaluate_distance_batch_prefers_batch_method(toy_model):
    objective = make_objective(toy_model, 9, 0)
    thetas = np.array([[0.1], [0.9]])
    np.testing.assert_array_equal(
        evaluate_distance_batch(objective, thetas),
        objective.evaluate_batch(thetas),
    )


def test_evaluate_distance_batch_falls_back_to_row_loop():
    def dist(theta):
        return float(theta[0] ** 2 + theta[1])

    thetas = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(
        evaluate_distance_batch(dist, thetas), [3.0, 13.0]
    )


class TestFiniteDifferenceGradient:
    def test_matches_analytic_gradient(self):
        def f(x):
            return 3.0 * x[0] ** 2 + 2.0 * x[0] * x[1] + x[1] ** 2

        def grad(x):
            return np.array([6.0 * x[0] + 2.0 * x[1], 2.0 * x[0] + 2.0 * x[1]])

        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            g = finite_difference_gradient(f, x)
            exact = grad(x)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(g - exact)) / scale <= 1e-4

    def test_exact_for_linear_functions(self):
        g = finite_difference_gradient(lambda x: 2.0 * x[0] - 7.0 * x[1], np.zeros(2))
        np.testing.assert_allclose(g, [2.0, -7.0], atol=1e-9)

    def test_uses_exactly_two_evals_per_coordinate(self):
        counter = CountingDistance(lambda x: float(np.sum(x**2)))
        finite_difference_gradient(counter, np.array([1.0, 2.0, 3.0]))
        assert counter.calls == 6

    def test_nonfinite_raises_with_point(self):
        def f(x):
            return np.nan if x[0] > 1.0 else float(x[0])

        with pytest.raises(NumericalFailure) as excinfo:
            finite_difference_gradient(f, np.array([1.0]))
        assert excinfo.value.point is not None

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5),
        x0=st.floats(-3, 3), x1=st.floats(-3, 3),
    )
    def test_quadratic_property(self, a, b, x0, x1):
        # gradient of a x0^2 + b x1^2 is (2a x0, 2b x1)
        def f(x):
            return a * x[0] ** 2 + b * x[1] ** 2

        g = finite_difference_gradient(f, np.array([x0, x1]))
        exact = np.array([2 * a * x0, 2 * b * x1])
        assert np.max(np.abs(g - exact)) <= 1e-4 * max(1.0, np.max(np.abs(exact)))


def test_make_toy_model_observed_summary(toy_model):
    np.testing.assert_array_equal(toy_model.observed_summary, [0.0])
