"""Bundled benchmark problems and the rejection baseline."""

import numpy as np
import pytest

from romc import (
    DegenerateResult,
    ToyTruePosterior,
    build_model,
    make_ma2_model,
    make_toy_model,
    midpoint_grid,
    rejection_abc,
)
from romc.benchmarks import Ma2Prior, Ma2Simulator, Ma2Summary, ToySimulator


class TestToyModel:
    def test_simulator_matches_hand_formula(self):
        # output = location(theta) + one standard normal, both recomputed
        # here from first principles
        sim = ToySimulator()
        seed = 77
        u = float(np.random.default_rng(seed).standard_normal())
        for theta in (-1.3, -0.2, 0.0, 0.4, 2.0):
            loc = theta**4 if abs(theta) <= 0.5 else abs(theta) - (0.5 - 0.5**4)
            out = sim.run(np.array([theta]), seed)
            assert out.shape == (1,)
            assert out[0] == pytest.approx(loc + u, rel=1e-12)

    def test_model_shape(self, toy_model):
        assert toy_model.name == "1d"
        assert toy_model.prior.dimension == 1
        np.testing.assert_array_equal(toy_model.prior.bounds, [[-2.5, 2.5]])
        np.testing.assert_array_equal(toy_model.observed, [0.0])
        assert toy_model.config == {"name": "1d"}


class TestToyTruePosterior:
    def test_integrates_to_one(self):
        true = ToyTruePosterior(grid_step=0.01)
        points, volume = midpoint_grid(true.bounds, 0.01)
        total = float(np.sum(true.evaluate_batch(points)) * volume)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_about_zero(self):
        true = ToyTruePosterior()
        thetas = np.linspace(0.1, 2.4, 24)
        np.testing.assert_allclose(
            true.evaluate_batch(thetas), true.evaluate_batch(-thetas),
            rtol=1e-12,
        )

    def test_accepts_flat_and_column_inputs(self):
        true = ToyTruePosterior()
        flat = true.evaluate_batch(np.array([0.0, 1.0]))
        column = true.evaluate_batch(np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(flat, column)

    def test_mode_at_zero(self):
        true = ToyTruePosterior()
        thetas = np.linspace(-2.5, 2.5, 501)
        values = true.evaluate_batch(thetas)
        assert abs(thetas[np.argmax(values)]) < 0.2


class TestMa2Prior:
    def test_band_membership_hand_points(self):
        prior = Ma2Prior()
        values = prior.pdf_batch([[0.0, 0.5], [1.5, 2.2], [0.0, 1.5], [2.5, 2.0]])
        np.testing.assert_array_equal(values, [0.125, 0.125, 0.0, 0.0])

    def test_samples_respect_the_band(self):
        prior = Ma2Prior()
        rng = np.random.default_rng(2)
        for _ in range(200):
            t1, t2 = prior.sample(rng)
            assert -2.0 <= t1 <= 2.0
            assert t1 - 1.0 <= t2 <= t1 + 1.0

    def test_band_edges_are_inside(self):
        # the corners of the band and points on its slanted sides
        edges = [[-2.0, -3.0], [-2.0, -1.0], [2.0, 1.0], [2.0, 3.0],
                 [0.5, -0.5], [0.5, 1.5]]
        np.testing.assert_array_equal(Ma2Prior().pdf_batch(edges), 0.125)
        outside = [[-2.0 - 1e-12, -2.0], [2.0 + 1e-12, 2.0],
                   [0.5, -0.5 - 1e-12], [0.5, 1.5 + 1e-12]]
        np.testing.assert_array_equal(Ma2Prior().pdf_batch(outside), 0.0)

    def test_pdf_batch_follows_the_band_rule(self):
        thetas = np.random.default_rng(3).uniform(-3, 3, size=(100, 2))
        expected = [0.125 if -2.0 <= t1 <= 2.0 and t1 - 1.0 <= t2 <= t1 + 1.0
                    else 0.0 for t1, t2 in thetas]
        np.testing.assert_array_equal(Ma2Prior().pdf_batch(thetas), expected)

    def test_enclosing_bounds(self):
        np.testing.assert_array_equal(Ma2Prior().bounds,
                                      [[-2.0, 2.0], [-3.0, 3.0]])


class TestMa2Model:
    def test_series_construction_matches_hand_formula(self):
        sim = Ma2Simulator(n_obs=5)
        seed = 13
        noise = np.random.default_rng(seed).standard_normal(7)
        theta = np.array([0.6, 0.2])
        out = sim.run(theta, seed)
        assert out.shape == (5,)
        expected = noise[2:] + 0.6 * noise[1:-1] + 0.2 * noise[:-2]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_summary_is_autocovariance_pair(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(Ma2Summary()(series),
                                   [20.0 / 3.0, 11.0 / 2.0], rtol=1e-15)

    def test_default_model(self):
        model = make_ma2_model()
        assert model.observed.shape == (100,)
        assert model.config["observation_seed"] == 3
        assert model.config["theta_true"] == [0.6, 0.2]

    def test_observation_is_reproducible_from_config(self):
        model = make_ma2_model(n_obs=40, observation_seed=9)
        rebuilt = build_model(model.config)
        np.testing.assert_array_equal(rebuilt.observed, model.observed)

    def test_rejects_tiny_series(self):
        with pytest.raises(ValueError):
            Ma2Simulator(n_obs=2)


class TestBuildModel:
    def test_by_name(self):
        assert build_model("1d").name == "1d"
        assert build_model({"name": "ma2"}).name == "ma2"

    def test_factory_kwargs_forwarded(self):
        model = build_model({"name": "ma2", "n_obs": 20})
        assert model.observed.shape == (20,)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_model("gaussian")
        with pytest.raises(ValueError):
            build_model({})


class TestRejectionAbc:
    def test_deterministic(self, toy_model):
        a = rejection_abc(toy_model, n_draws=300, quantile=0.1, seed=4)
        b = rejection_abc(toy_model, n_draws=300, quantile=0.1, seed=4)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        assert a.threshold == b.threshold

    def test_acceptance_matches_quantile(self, toy_model):
        out = rejection_abc(toy_model, n_draws=500, quantile=0.1, seed=0)
        assert out.n_draws == 500
        # floor(0.1 * 500) + 1 order statistics lie at or below the cut
        assert 50 <= out.n_accepted <= 55
        assert np.all(out.distances <= out.threshold)

    def test_accepted_thetas_inside_prior(self, toy_model):
        out = rejection_abc(toy_model, n_draws=200, quantile=0.2, seed=1)
        assert np.all(toy_model.prior.pdf_batch(out.thetas) > 0)

    def test_moments_finite(self, toy_model):
        out = rejection_abc(toy_model, n_draws=200, quantile=0.2, seed=1)
        assert np.isfinite(out.mean()).all()
        assert np.isfinite(out.std()).all()

    def test_grid_density_integrates_to_one(self, toy_model):
        out = rejection_abc(toy_model, n_draws=400, quantile=0.2, seed=2)
        density = out.grid_density(toy_model.prior.bounds, grid_step=0.1)
        points, volume = midpoint_grid(toy_model.prior.bounds, 0.1)
        total = float(np.sum(density.evaluate_batch(points)) * volume)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_grid_density_zero_outside_bounds(self, toy_model):
        out = rejection_abc(toy_model, n_draws=100, quantile=0.5, seed=3)
        density = out.grid_density(toy_model.prior.bounds, grid_step=0.1)
        assert density.evaluate_batch(np.array([[4.0]]))[0] == 0.0

    def test_validation(self, toy_model):
        with pytest.raises(ValueError):
            rejection_abc(toy_model, n_draws=0)
        with pytest.raises(ValueError):
            rejection_abc(toy_model, quantile=0.0)
        with pytest.raises(ValueError):
            rejection_abc(toy_model, quantile=1.5)
