"""Optimizers, surrogates and acceptance filtering.

Convex quadratics have known minimizers, which makes them the oracle for
both optimization routes; compute_eps is checked against hand-sorted
order statistics and an order-statistic counting property.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BatchDistance, CountingDistance, fit_gp

import romc.optimize
from romc import OptimisationResult
from romc.inference import _mesh
from romc.model import BoxUniformPrior
from romc.optimize import (
    GaussianProcessSurrogate,
    compute_eps,
    distance_histogram,
    filter_solutions,
    solve_bayesian,
    solve_gradient,
    solve_gradients,
)
from romc.optimize import _latin_hypercube


def quadratic(target, scale):
    target = np.asarray(target, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)

    def f(x):
        diff = np.asarray(x) - target
        return float(diff @ (scale * diff))

    return BatchDistance(f)


class TestOptimisationResult:
    def test_symmetrizes_hessian(self):
        result = OptimisationResult([0.0, 0.0], 1.0, [[1.0, 4.0], [0.0, 1.0]])
        np.testing.assert_array_equal(result.hess_appr, [[1.0, 2.0], [2.0, 1.0]])

    def test_non_finite_hessian_rejected(self):
        for value in (np.nan, -np.inf):
            with pytest.raises(ValueError, match="hess_appr must be finite"):
                OptimisationResult([0.0, 0.0], 1.0, [[1.0, 0.0], [0.0, value]])

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimisationResult([[0.0]], 1.0, [[1.0]])
        with pytest.raises(ValueError):
            OptimisationResult([0.0], np.inf, [[1.0]])
        with pytest.raises(ValueError):
            OptimisationResult([0.0, 1.0], 1.0, [[1.0]])

    @pytest.mark.parametrize("x_min", [[np.nan, 0.0], [0.0, -np.inf]])
    def test_non_finite_x_min_rejected(self, x_min):
        with pytest.raises(ValueError, match="x_min must be finite"):
            OptimisationResult(x_min, 1.0, np.eye(2))


class TestSolveGradient:
    def test_convex_quadratics_to_1e4(self, unit_square_prior):
        # criterion: convex quadratic minimizers recovered to 1e-4
        cases = [
            ([0.3, -0.4], [1.0, 1.0]),
            ([-0.7, 0.2], [5.0, 0.5]),
            ([0.0, 0.8], [20.0, 1.0]),
        ]
        for target, scale in cases:
            result = solve_gradient(
                quadratic(target, scale), unit_square_prior, seed=1
            )
            assert result is not None
            assert np.max(np.abs(result.x_min - target)) <= 1e-4
            assert result.f_min <= 1e-6

    def test_minimizer_stays_inside_bounds(self):
        # unconstrained minimum sits outside the box; solution must not
        prior = BoxUniformPrior([[-1.0, 1.0]])
        result = solve_gradient(quadratic([2.0], [1.0]), prior, seed=0)
        assert -1.0 <= result.x_min[0] <= 1.0
        assert result.x_min[0] == pytest.approx(1.0, abs=1e-6)

    def test_restarts_never_hurt(self, unit_square_prior):
        # the restart rng extends the single-start sequence, so the best
        # of eight includes the one-start answer
        two_wells = BatchDistance(lambda x: float(np.minimum(
            np.sum((np.asarray(x) - 0.5) ** 2),
            0.5 + np.sum((np.asarray(x) + 0.5) ** 2),
        )))

        single = solve_gradient(two_wells, unit_square_prior, seed=3)
        multi = solve_gradient(two_wells, unit_square_prior, restarts=8, seed=3)
        assert multi.f_min <= single.f_min

    def test_reports_iterations(self, unit_square_prior):
        result = solve_gradient(quadratic([0.1, 0.1], [1.0, 1.0]),
                                unit_square_prior, seed=0)
        assert result.iterations >= 1

    def test_deterministic(self, unit_square_prior):
        f = quadratic([0.3, -0.4], [3.0, 1.0])
        a = solve_gradient(f, unit_square_prior, seed=5)
        b = solve_gradient(f, unit_square_prior, seed=5)
        np.testing.assert_array_equal(a.x_min, b.x_min)
        assert a.f_min == b.f_min

    def test_best_restart_is_the_first_lowest_finite(self, monkeypatch,
                                                      unit_square_prior):
        # three restarts each: a tie, non-finite runs around a finite
        # one, and every run failed; iterations name the run kept
        f = np.array([2.0, 1.0, 1.0, np.nan, 3.0, -np.inf] + [np.nan] * 3)
        scales = 2.0 ** np.arange(9)

        def bfgs(func, x0, bounds, max_iters, gtol, step):
            h_inv = np.eye(2) * scales[:, None, None]
            return x0, f, h_inv, 0, np.arange(9)

        monkeypatch.setattr(romc.optimize, "_bfgs", bfgs)
        solved, _, f_min, hess, iterations = solve_gradients(
            [quadratic([0.0, 0.0], [1.0, 1.0])] * 3, unit_square_prior,
            [0, 1, 2], restarts=3)
        assert list(zip(iterations.tolist(), f_min.tolist())) == [(1, 1.0),
                                                                   (4, 3.0)]
        np.testing.assert_array_equal(hess[1], np.eye(2) / 16.0)
        assert solved.tolist() == [True, True, False]

    def test_all_restarts_failing_returns_none(self, unit_square_prior):
        result = solve_gradient(BatchDistance(lambda x: np.nan),
                                unit_square_prior, seed=0)
        assert result is None

    def test_validation(self, unit_square_prior):
        f = quadratic([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_gradient(f, unit_square_prior, restarts=0)
        with pytest.raises(ValueError):
            solve_gradient(f, unit_square_prior, max_iters=0)


class TestGaussianProcessSurrogate:
    def make_gp(self):
        rng = np.random.default_rng(4)
        inputs = rng.uniform(-1, 1, size=(30, 2))
        values = np.sum(inputs**2, axis=1)
        return fit_gp(inputs, values), inputs, values

    def test_interpolates_training_data(self):
        gp, inputs, values = self.make_gp()
        preds = gp.evaluate_batch(inputs)
        assert np.max(np.abs(preds - values)) < 1e-3

    def test_variance_nonnegative_and_small_at_data(self):
        gp, inputs, _ = self.make_gp()
        _, var = gp.predict_batch(inputs)
        assert np.all(var >= 0.0)
        assert np.max(var) < 1e-3 * gp.variance

    @pytest.fixture(scope="class")
    def gps(self):
        """Surrogates shaped like Bayesian-optimization fits: 2-D, 10 to 64
        points, rough targets."""
        rng = np.random.default_rng(11)
        fits = []
        for n in (10, 30, 64):
            inputs = rng.uniform(-2.0, 2.0, size=(n, 2))
            values = np.abs(np.sin(3.0 * inputs[:, 0]) + inputs[:, 1] ** 2)
            fits.append(fit_gp(inputs, values))
        return fits

    @pytest.fixture(scope="class")
    def probes(self):
        return np.random.default_rng(12).uniform(-2.0, 2.0, size=(4096, 2))

    def test_one_row_call_is_bitwise_its_batch_row(self, gps, probes):
        for gp in gps:
            batch = gp.evaluate_batch(probes)
            rows = np.array([gp.evaluate_batch(theta[None, :])[0]
                             for theta in probes[:300]])
            np.testing.assert_array_equal(rows, batch[:300])

    @pytest.mark.parametrize("size", [511, 512, 513, 1025])
    def test_batch_size_does_not_change_bits(self, gps, probes, size):
        # sizes either side of the row block, and more than two blocks
        for gp in gps:
            rows = np.array([gp.evaluate_batch(theta[None, :])[0]
                             for theta in probes[:size]])
            batch = gp.evaluate_batch(probes[:size])
            np.testing.assert_array_equal(batch, rows)

    def test_predict_mean_is_evaluate_batch(self, gps, probes):
        for gp in gps:
            np.testing.assert_array_equal(
                gp.predict_batch(probes)[0], gp.evaluate_batch(probes)
            )

    def test_mean_and_variance_match_dense_solve(self, probes):
        rng = np.random.default_rng(13)
        inputs = rng.uniform(-2.0, 2.0, size=(40, 2))
        values = np.cos(inputs[:, 0]) * inputs[:, 1]
        gp = GaussianProcessSurrogate(inputs, values, [0.7, 0.5], 1.5, 1e-2)

        def kernel(a, b):
            diff = (a[:, None, :] - b[None, :, :]) / gp.lengthscales
            return gp.variance * np.exp(-0.5 * np.sum(diff**2, axis=2))

        gram = kernel(inputs, inputs) + gp.noise_variance * np.eye(len(inputs))
        k_star = kernel(probes, inputs)
        offset = np.mean(values)
        ref_mean = offset + k_star @ np.linalg.solve(gram, values - offset)
        ref_var = gp.variance - np.sum(
            k_star * np.linalg.solve(gram, k_star.T).T, axis=1
        )
        mean, var = gp.predict_batch(probes)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(var, ref_var, rtol=1e-10)

    def test_hessian_matches_central_difference_of_mean(self, gps, probes):
        h = 1e-4
        for gp in gps:
            for theta in probes[:20]:
                hess = gp.hessian(theta)
                fd = np.empty((2, 2))
                for a in range(2):
                    ea = np.zeros(2)
                    ea[a] = h
                    for b in range(2):
                        eb = np.zeros(2)
                        eb[b] = h
                        pp, pm, mp, mm = gp.evaluate_batch(np.array([
                            theta + ea + eb, theta + ea - eb,
                            theta - ea + eb, theta - ea - eb]))
                        fd[a, b] = (pp - pm - mp + mm) / (4.0 * h * h)
                assert np.linalg.norm(hess - fd) <= 1e-3 * np.linalg.norm(hess)

    def test_hessian_is_exactly_symmetric(self, gps, probes):
        for gp in gps:
            for theta in probes[:50]:
                hess = gp.hessian(theta)
                np.testing.assert_array_equal(hess, hess.T)

    def test_hessian_hand_case_1d(self):
        # two points at 0 and 1, lengthscale 0.5, variance 2, no noise
        # offset: mean of values; alpha = K^-1 (values - offset)
        gp = GaussianProcessSurrogate([[0.0], [1.0]], [1.0, 3.0], [0.5], 2.0,
                                      0.0)
        k01 = 2.0 * np.exp(-0.5 * 4.0)
        alpha = np.linalg.solve([[2.0, k01], [k01, 2.0]], [-1.0, 1.0])
        theta = 0.3
        expected = 0.0
        for x_j, a_j in zip((0.0, 1.0), alpha):
            u = (theta - x_j) / 0.5
            k = 2.0 * np.exp(-0.5 * u * u)
            expected += a_j * k * (u * u - 1.0) / 0.25
        np.testing.assert_allclose(gp.hessian([theta]), [[expected]],
                                   rtol=1e-12)

    def test_record_round_trip(self, gps, probes):
        # a reload factorizes in __init__; the fit took its stacked factor
        for gp in gps:
            clone = GaussianProcessSurrogate.from_record(gp.to_record())
            for a, b in zip(clone.predict_batch(probes),
                            gp.predict_batch(probes)):
                np.testing.assert_array_equal(a, b)

    def test_duplicate_points_survive_via_jitter(self):
        inputs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])
        values = np.array([1.0, 1.0, 2.0, 1.5])
        gp = fit_gp(inputs, values)
        assert np.isfinite(gp.evaluate_batch(inputs)).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GaussianProcessSurrogate(np.zeros((3, 2)), np.zeros(2), [1, 1], 1.0, 1e-6)

    @pytest.mark.parametrize("lengthscales", [
        [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0, 0.0], [1.0, -0.5],
        [1.0, np.inf], [np.nan, 1.0]])
    def test_lengthscales_must_be_one_positive_value_per_axis(
            self, lengthscales):
        inputs = [[0.0, 0.0], [1.0, 0.5], [0.3, 1.0]]
        with pytest.raises(ValueError, match="lengthscales must be one"):
            GaussianProcessSurrogate(inputs, [1.0, 2.0, 0.5], lengthscales,
                                     1.0, 1e-6)

    @pytest.mark.parametrize("variance", [0.0, -1.0, np.inf, np.nan])
    def test_variance_must_be_positive_and_finite(self, variance):
        with pytest.raises(ValueError, match="variance must be positive"):
            GaussianProcessSurrogate([[0.0], [1.0]], [1.0, 3.0], [0.5],
                                     variance, 1e-6)

    @pytest.mark.parametrize("noise", [-1e-6, np.inf, np.nan])
    def test_noise_variance_must_be_nonnegative_and_finite(self, noise):
        with pytest.raises(ValueError, match="noise_variance must be"):
            GaussianProcessSurrogate([[0.0], [1.0]], [1.0, 3.0], [0.5], 2.0,
                                     noise)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_data_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianProcessSurrogate([[0.0], [1.0]], [1.0, bad], [0.5], 2.0,
                                     1e-6)
        with pytest.raises(ValueError, match="must be finite"):
            GaussianProcessSurrogate([[0.0], [bad]], [1.0, 3.0], [0.5], 2.0,
                                     1e-6)


def _grid_gap(gp, axes):
    """evaluate_grid's bound and its largest distance from evaluate_batch
    on the mesh of axes."""
    mean, bound = gp.evaluate_grid(axes)
    batch = gp.evaluate_batch(_mesh(axes))
    assert mean.shape == batch.shape
    return np.max(np.abs(mean - batch)), bound


class TestEvaluateGrid:
    """The product-form mean on a grid stays within its stated bound of the
    row-wise mean, cell by cell in C order."""

    @pytest.mark.parametrize("sizes", [(53,), (41, 37), (9, 7, 11)])
    def test_within_bound_of_batch(self, sizes):
        rng = np.random.default_rng(len(sizes))
        d = len(sizes)
        inputs = rng.uniform(-1.0, 1.0, size=(30, d))
        values = np.abs(np.sin(3.0 * inputs[:, 0]) + np.sum(inputs**2, axis=1))
        gp = fit_gp(inputs, values)
        axes = [np.linspace(-1.2, 1.1, a) for a in sizes]
        gap, bound = _grid_gap(gp, axes)
        assert gap <= bound
        scale = abs(gp._mean_offset) + gp.variance * np.abs(gp._alpha).sum()
        assert bound == pytest.approx(
            4.0 * (30 + 16) * np.finfo(np.float64).eps * scale)

    def test_bound_grows_with_badly_conditioned_fit(self):
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-1.0, 1.0, size=(24, 2))
        values = np.sin(3.0 * inputs[:, 0]) + inputs[:, 1] ** 2
        axes = [np.linspace(-1.2, 1.2, 41), np.linspace(-1.1, 1.3, 37)]
        well = GaussianProcessSurrogate(inputs, values, [0.5, 0.5], 1.0, 1e-2)
        # long lengthscales and almost no noise: sum |alpha_j| near 1e8
        bad = GaussianProcessSurrogate(inputs, values, [2.0, 2.0], 1.0, 1e-12)
        assert np.abs(bad._alpha).sum() > 1e6 * np.abs(well._alpha).sum()
        well_gap, well_bound = _grid_gap(well, axes)
        bad_gap, bad_bound = _grid_gap(bad, axes)
        assert well_gap <= well_bound
        assert bad_gap <= bad_bound
        # the rounding gap grows with the fit's weights, and so does the bound
        assert bad_gap > 1e3 * well_gap
        assert bad_bound > 1e5 * well_bound


class TestSolveBayesian:
    def test_finds_smooth_bowl_minimum(self, unit_square_prior):
        f = CountingDistance(quadratic([0.2, -0.3], [1.0, 1.0]))
        out = solve_bayesian(f, unit_square_prior, budget=40, init_points=8, seed=2)
        assert out is not None
        result, gp = out
        # BO locates the basin, not the exact point
        assert np.max(np.abs(result.x_min - [0.2, -0.3])) < 0.35
        assert f.calls == 40

    def test_f_min_is_best_evaluated_point(self, unit_square_prior):
        evals = []

        def f(x):
            value = float(np.sum(np.asarray(x) ** 2))
            evals.append(value)
            return value

        result, _ = solve_bayesian(BatchDistance(f), unit_square_prior,
                                   budget=20, init_points=5, seed=0)
        assert result.f_min == min(evals)

    def test_constant_objective(self, unit_square_prior):
        out = solve_bayesian(BatchDistance(lambda x: 5.0), unit_square_prior,
                             budget=16, init_points=4, seed=0)
        assert out is not None
        result, gp = out
        assert result.f_min == 5.0
        assert abs(gp.evaluate_batch(np.zeros((1, 2)))[0] - 5.0) < 1e-6

    def test_surrogate_tracks_objective(self, unit_square_prior):
        f = quadratic([0.0, 0.0], [1.0, 1.0])
        _, gp = solve_bayesian(f, unit_square_prior, budget=48,
                               init_points=10, seed=1)
        probes = np.random.default_rng(3).uniform(-0.8, 0.8, size=(20, 2))
        truth = np.array([f(p) for p in probes])
        preds = gp.evaluate_batch(probes)
        assert np.median(np.abs(preds - truth)) < 0.25

    def test_takes_distances_through_evaluate_batch(self, unit_square_prior):
        class BatchOnly:
            def __init__(self):
                self.shapes = []

            def evaluate_batch(self, thetas):
                self.shapes.append(thetas.shape)
                return np.sum(thetas**2, axis=1)

        distance = BatchOnly()
        result, _ = solve_bayesian(distance, unit_square_prior, budget=12,
                                   init_points=5, seed=0)
        # the design in one call, then one row per acquisition
        assert distance.shapes == [(5, 2)] + [(1, 2)] * 7
        assert result.iterations == 12

    def test_deterministic(self, unit_square_prior):
        f = quadratic([0.1, 0.4], [2.0, 1.0])
        a, _ = solve_bayesian(f, unit_square_prior, budget=20, init_points=5, seed=9)
        b, _ = solve_bayesian(f, unit_square_prior, budget=20, init_points=5, seed=9)
        np.testing.assert_array_equal(a.x_min, b.x_min)

    def test_nonfinite_objective_returns_none(self, unit_square_prior):
        out = solve_bayesian(BatchDistance(lambda x: np.nan), unit_square_prior,
                             budget=16, init_points=4, seed=0)
        assert out is None

    @pytest.mark.parametrize("seed", [[21, 5, 1], [3, 0, 1], 7, [101, 199, 1]])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_latin_hypercube_equals_scipy_qmc_bitwise(self, seed, d):
        from scipy.stats import qmc

        lo, hi = np.linspace(-2.0, -1.0, d), np.linspace(1.0, 3.0, d)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _latin_hypercube(ours, 10, lo, hi)
        expected = qmc.scale(qmc.LatinHypercube(d=d, seed=theirs).random(10),
                             lo, hi)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expected.view(np.uint64))
        # the parent generator is left where scipy leaves it
        assert ours.uniform() == theirs.uniform()

    def test_import_does_not_load_scipy_stats(self):
        # scipy is loaded on the first GP use, not by import or a model
        code = ("import sys, romc; romc.build_model('ma2'); "
                "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert done.stdout.strip() == "False"

    def test_validation(self, unit_square_prior):
        f = quadratic([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_bayesian(f, unit_square_prior, budget=10, init_points=1)
        with pytest.raises(ValueError):
            solve_bayesian(f, unit_square_prior, budget=5, init_points=5)


class TestComputeEps:
    def test_hand_sorted_order_statistics(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert compute_eps(values, 0.0) == 1.0
        assert compute_eps(values, 0.2) == 2.0
        assert compute_eps(values, 0.5) == 3.0
        assert compute_eps(values, 0.9) == 5.0
        assert compute_eps(values, 1.0) == 5.0

    def test_single_value(self):
        assert compute_eps([7.0], 0.3) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_eps([], 0.5)
        with pytest.raises(ValueError):
            compute_eps([1.0], 1.5)
        with pytest.raises(ValueError):
            compute_eps([1.0], -0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(0, 1e6), min_size=1, max_size=60),
        quantile=st.floats(0.0, 1.0),
    )
    def test_counting_property(self, values, quantile):
        # the chosen threshold must admit at least floor(q n) + 1 values
        # and itself be one of the optimized distances
        eps = compute_eps(values, quantile)
        arr = np.asarray(values)
        assert eps in arr
        rank = min(int(np.floor(quantile * arr.size)), arr.size - 1)
        assert np.sum(arr <= eps) >= rank + 1


class TestFilterSolutions:
    # the f_min column of solved problems 0, 1, 2 and 4; problem 3 failed,
    # so it has no row
    indices = np.array([0, 1, 2, 4])
    f_min = np.array([0.5, 2.0, 1.0, 0.25])

    def test_inclusive_threshold(self):
        accepted = self.indices[filter_solutions(self.f_min, 1.0)]
        assert accepted.tolist() == [0, 2, 4]

    def test_skips_failed_problems(self):
        accepted = self.indices[filter_solutions(self.f_min, 100.0)]
        assert accepted.tolist() == [0, 1, 2, 4]

    def test_sorted_output(self):
        # the mask follows the rows, whatever their order
        mask = filter_solutions(self.f_min[::-1], 1.0)
        assert self.indices[::-1][mask].tolist() == [4, 2, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            filter_solutions(self.f_min, -1.0)
        with pytest.raises(ValueError):
            filter_solutions(self.f_min, np.inf)


class TestDistanceHistogram:
    def test_total_count_preserved(self):
        values = np.random.default_rng(0).exponential(size=100)
        counts, edges = distance_histogram(values, bins=15)
        assert counts.sum() == 100
        assert edges.shape == (16,)

    def test_identical_values_single_bin(self):
        counts, edges = distance_histogram([2.0, 2.0, 2.0], bins=10)
        assert counts.sum() == 3
        assert np.all(np.diff(edges) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            distance_histogram([])
        with pytest.raises(ValueError):
            distance_histogram([1.0], bins=0)
