"""Quadratic surrogates fitted over proposal regions."""

import numpy as np
import pytest

from conftest import CountingDistance
from romc import BoundingBox
from romc.regions import ProposalRegion
from romc.surrogate import (
    QuadraticSurrogate,
    fit_quadratic,
    quadratic_feature_count,
)


def unit_region(d=2, half_width=1.0):
    limits = np.tile([-half_width, half_width], (d, 1))
    return ProposalRegion(BoundingBox(np.eye(d), np.zeros(d), limits))


def test_feature_count_hand_values():
    # 1 constant + d linear + d(d+1)/2 quadratic monomials
    assert quadratic_feature_count(1) == 3
    assert quadratic_feature_count(2) == 6
    assert quadratic_feature_count(3) == 10
    with pytest.raises(ValueError):
        quadratic_feature_count(0)


class TestQuadraticSurrogate:
    def test_predict_hand_case(self):
        model = QuadraticSurrogate(2.0, [1.0, -1.0], [[3.0, 0.5], [0.5, 1.0]])
        theta = np.array([1.0, 2.0])
        # 2 + (1 - 2) + (3 + 2*0.5*2 + 4) = 2 - 1 + 9
        assert model.predict(theta) == pytest.approx(10.0)

    def test_batch_matches_scalar(self):
        model = QuadraticSurrogate(0.5, [2.0, 0.0], [[1.0, 0.0], [0.0, 4.0]])
        thetas = np.random.default_rng(0).uniform(-2, 2, size=(30, 2))
        np.testing.assert_allclose(
            model.evaluate_batch(thetas),
            [model.predict(t) for t in thetas],
            rtol=1e-12,
        )

    def test_symmetrizes_quad(self):
        model = QuadraticSurrogate(0.0, [0.0, 0.0], [[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(model.quad, [[1.0, 0.5], [0.5, 1.0]])

    def test_record_round_trip(self):
        model = QuadraticSurrogate(2.0, [1.0, -1.0], [[3.0, 0.5], [0.5, 1.0]])
        clone = QuadraticSurrogate.from_record(model.to_record())
        assert clone.intercept == model.intercept
        np.testing.assert_array_equal(clone.linear, model.linear)
        np.testing.assert_array_equal(clone.quad, model.quad)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QuadraticSurrogate(0.0, [1.0, 2.0], [[1.0]])


class TestFitQuadratic:
    def true_quadratic(self):
        quad = np.array([[3.0, 0.5], [0.5, 1.0]])
        linear = np.array([1.0, -1.0])

        def dist(theta):
            theta = np.asarray(theta, dtype=np.float64)
            return float(2.0 + linear @ theta + theta @ quad @ theta)

        return dist, 2.0, linear, quad

    def test_recovers_exact_quadratic(self):
        dist, intercept, linear, quad = self.true_quadratic()
        model = fit_quadratic(dist, unit_region(), seed=1)
        assert model.intercept == pytest.approx(intercept, abs=1e-6)
        np.testing.assert_allclose(model.linear, linear, atol=1e-6)
        np.testing.assert_allclose(model.quad, quad, atol=1e-6)
        probes = np.random.default_rng(2).uniform(-1, 1, size=(50, 2))
        truth = np.array([dist(p) for p in probes])
        np.testing.assert_allclose(model.evaluate_batch(probes), truth,
                                   atol=1e-6)

    def test_spends_exactly_n_train_evaluations(self):
        dist, *_ = self.true_quadratic()
        counter = CountingDistance(dist)
        fit_quadratic(counter, unit_region(), n_train=30, seed=0)
        assert counter.calls == 30

    def test_default_budget(self):
        dist, *_ = self.true_quadratic()
        counter = CountingDistance(dist)
        fit_quadratic(counter, unit_region(), seed=0)
        assert counter.calls == min(20 * quadratic_feature_count(2), 500)

    def test_deterministic(self):
        dist, *_ = self.true_quadratic()
        a = fit_quadratic(dist, unit_region(), seed=3)
        b = fit_quadratic(dist, unit_region(), seed=3)
        np.testing.assert_array_equal(a.quad, b.quad)
        np.testing.assert_array_equal(a.linear, b.linear)

    def test_rejects_insufficient_training_points(self):
        dist, *_ = self.true_quadratic()
        with pytest.raises(ValueError):
            fit_quadratic(dist, unit_region(), n_train=5)

    def test_1d_fit(self):
        def dist(theta):
            t = float(np.asarray(theta).ravel()[0])
            return 4.0 * (t - 0.25) ** 2

        model = fit_quadratic(dist, unit_region(d=1), seed=0)
        # expand: 4 t^2 - 2 t + 0.25
        assert model.intercept == pytest.approx(0.25, abs=1e-6)
        assert model.linear[0] == pytest.approx(-2.0, abs=1e-6)
        assert model.quad[0, 0] == pytest.approx(4.0, abs=1e-6)
