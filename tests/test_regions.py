"""Region geometry: curvature axes, line-search extents, bounding boxes.

The line-search oracles are closed-form: a distance that never exceeds
eps walks max_steps per pass, so the extent telescopes to
max_steps * eta * (2 - 2^(1-K)); a distance that exceeds eps immediately
collapses every pass and must land on the minimum-step fallback
eta / 2^K.  The analytic ellipse d = t1^2 + 4 t2^2 at eps = 1 has
semi-axes (1, 0.5).
"""

import numpy as np
import pytest

from romc import BoundingBox, OptimisationResult, UnsupportedDimension
from romc.regions import (
    ProposalRegion,
    RegionSettings,
    build_box,
    choose_curvature,
    curvature_axes,
    jacobian_curvature,
    line_search_extent,
    region_plot_data,
)


class TestCurvatureAxes:
    def test_diagonal_orders_by_descending_eigenvalue(self):
        axes = curvature_axes(np.diag([1.0, 3.0]))
        np.testing.assert_allclose(axes[:, 0], [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(axes[:, 1], [1.0, 0.0], atol=1e-12)

    def test_off_diagonal_hand_case(self):
        # [[0, 1], [1, 0]] has eigenpairs (+1, [1,1]/sqrt2), (-1, [1,-1]/sqrt2)
        axes = curvature_axes(np.array([[0.0, 1.0], [1.0, 0.0]]))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(axes[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(axes[:, 1], [r, -r], atol=1e-12)

    def test_orthonormal_for_random_symmetric_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            d = rng.integers(1, 5)
            m = rng.standard_normal((d, d))
            axes = curvature_axes(m + m.T)
            np.testing.assert_allclose(
                axes.T @ axes, np.eye(d), atol=1e-10
            )

    def test_reconstructs_matrix(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 3))
        sym = (m + m.T) / 2.0
        axes = curvature_axes(sym)
        eigvals = np.sort(np.linalg.eigvalsh(sym))[::-1]
        np.testing.assert_allclose(
            axes @ np.diag(eigvals) @ axes.T, sym, atol=1e-10
        )

    def test_sign_convention_is_deterministic(self):
        sym = np.array([[2.0, -1.0], [-1.0, 2.0]])
        axes = curvature_axes(sym)
        for m in range(2):
            first = axes[np.nonzero(np.abs(axes[:, m]) > 1e-12)[0][0], m]
            assert first > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            curvature_axes(np.zeros((2, 3)))


class TestJacobianCurvature:
    def test_linear_summaries_give_gram_matrix(self):
        # central differences are exact for linear maps, so J^T J = A^T A
        a = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])

        class LinearSummaries:
            def summaries(self, theta):
                return a @ np.asarray(theta) + 5.0

        got = jacobian_curvature(LinearSummaries(), np.array([0.3, -0.8]))
        np.testing.assert_allclose(got, a.T @ a, atol=1e-8)


class TestChooseCurvature:
    def test_psd_hessian_is_kept(self):
        result = OptimisationResult([0.0, 0.0], 0.0, np.diag([2.0, 8.0]))
        matrix, source = choose_curvature(result)
        assert source == "hess_appr"
        np.testing.assert_array_equal(matrix, np.diag([2.0, 8.0]))

    def test_indefinite_falls_back_to_jacobian(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])

        class LinearSummaries:
            def summaries(self, theta):
                return a @ np.asarray(theta)

        result = OptimisationResult([0.0, 0.0], 0.0, np.diag([-1.0, 1.0]))
        matrix, source = choose_curvature(result, objective=LinearSummaries())
        assert source == "jacobian"
        np.testing.assert_allclose(matrix, a.T @ a, atol=1e-8)

    def test_indefinite_without_objective_uses_identity(self):
        result = OptimisationResult([0.0, 0.0], 0.0, np.diag([-1.0, 1.0]))
        matrix, source = choose_curvature(result)
        assert source == "identity"
        np.testing.assert_array_equal(matrix, np.eye(2))


class TestRegionSettings:
    def test_from_prior_uses_mean_range(self):
        from romc.model import BoxUniformPrior

        prior = BoxUniformPrior([[0.0, 2.0], [0.0, 4.0]])
        settings = RegionSettings.from_prior(prior, fraction=0.05)
        assert settings.eta_start == pytest.approx(0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionSettings(eta_start=0.0)
        with pytest.raises(ValueError):
            RegionSettings(eta_start=1.0, refinements=0)
        with pytest.raises(ValueError):
            RegionSettings(eta_start=1.0, max_steps=0)


class TestLineSearchExtent:
    def test_never_exceeding_distance_telescopes(self):
        # d == 0 forever: every pass takes max_steps full steps
        settings = RegionSettings(eta_start=0.1, refinements=3, max_steps=5)
        extent = line_search_extent(
            lambda t: 0.0, np.zeros(1), np.ones(1), 1.0, settings
        )
        expected = 5 * 0.1 * (2.0 - 2.0 ** (1 - 3))
        assert extent == pytest.approx(expected, rel=1e-12)

    def test_immediate_exceed_hits_minimum_step(self):
        settings = RegionSettings(eta_start=0.2, refinements=6, max_steps=10)
        extent = line_search_extent(
            lambda t: 1e9, np.zeros(2), np.array([1.0, 0.0]), 1.0, settings
        )
        assert extent == pytest.approx(0.2 / 2**6, rel=1e-12)
        assert extent > 0

    def test_minimum_step_positivity_over_thresholds(self):
        # extents must stay positive no matter how tight eps gets
        settings = RegionSettings(eta_start=0.3, refinements=8, max_steps=20)
        for eps in (1e-2, 1e-6, 1e-12, 0.0):
            extent = line_search_extent(
                lambda t: float(np.sum(t**2)), np.zeros(1), np.ones(1),
                eps, settings,
            )
            assert extent > 0

    def test_converges_to_analytic_boundary(self):
        # d(t) = t^2 along the ray, eps = 1: boundary at 1
        settings = RegionSettings(eta_start=0.2, refinements=10, max_steps=40)
        direction = np.array([1.0, 0.0])

        def dist(theta):
            return float(np.sum(np.asarray(theta) ** 2))

        extent = line_search_extent(dist, np.zeros(2), direction, 1.0, settings)
        resolution = 0.2 / 2**9
        assert extent <= 1.0 + 1e-12
        assert 1.0 - extent <= resolution + 1e-12

    def test_off_center_boundary(self):
        # center 0.5 walking +1 on |theta| <= eps=2 boundary: extent 1.5
        settings = RegionSettings(eta_start=0.1, refinements=12, max_steps=60)
        extent = line_search_extent(
            lambda t: abs(float(t[0])), np.array([0.5]), np.ones(1), 2.0,
            settings,
        )
        assert extent == pytest.approx(1.5, abs=0.1 / 2**11 + 1e-12)

    def test_requires_unit_direction(self):
        settings = RegionSettings(eta_start=0.1)
        with pytest.raises(ValueError):
            line_search_extent(lambda t: 0.0, np.zeros(2),
                               np.array([1.0, 1.0]), 1.0, settings)


class TestBoundingBox:
    def make_rotated_box(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rotation = np.array([[c, -s], [s, c]])
        return BoundingBox(rotation, np.array([1.0, 1.0]),
                           np.array([[-1.0, 2.0], [-0.5, 0.5]]))

    def test_volume(self):
        box = self.make_rotated_box()
        assert box.volume == pytest.approx(3.0 * 1.0)

    def test_rotation_round_trip(self):
        box = self.make_rotated_box()
        z = np.array([[0.3, -0.2], [1.5, 0.4]])
        np.testing.assert_allclose(box.to_rotated(box.from_rotated(z)), z,
                                   atol=1e-12)

    def test_center_is_contained(self):
        box = self.make_rotated_box()
        assert box.contains(box.center)

    def test_contains_matches_rotated_limits(self):
        box = self.make_rotated_box()
        rng = np.random.default_rng(12)
        z = rng.uniform(-2, 3, size=(200, 2))
        thetas = box.from_rotated(z)
        expected = np.all(
            (z >= box.limits[:, 0]) & (z <= box.limits[:, 1]), axis=1
        )
        np.testing.assert_array_equal(box.contains(thetas), expected)

    def test_record_round_trip(self):
        box = self.make_rotated_box()
        clone = BoundingBox.from_record(box.to_record())
        np.testing.assert_array_equal(clone.rotation, box.rotation)
        np.testing.assert_array_equal(clone.center, box.center)
        np.testing.assert_array_equal(clone.limits, box.limits)

    def test_validation(self):
        eye = np.eye(2)
        center = np.zeros(2)
        with pytest.raises(ValueError):
            BoundingBox(np.array([[1.0, 1.0], [0.0, 1.0]]), center,
                        [[-1, 1], [-1, 1]])
        with pytest.raises(ValueError):
            BoundingBox(eye, center, [[0.5, 1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError):
            BoundingBox(eye, center, [[-1.0, 1.0]])
        with pytest.raises(ValueError):
            BoundingBox(eye, np.zeros(3), [[-1, 1], [-1, 1], [-1, 1]])


class TestProposalRegion:
    def make_region(self):
        box = BoundingBox(np.eye(2), np.zeros(2),
                          np.array([[-0.5, 0.5], [-2.0, 2.0]]))
        return ProposalRegion(box)

    def test_density_is_inverse_volume(self):
        region = self.make_region()
        assert region.density == pytest.approx(1.0 / 4.0)
        assert region.pdf(np.array([0.0, 1.0])) == pytest.approx(0.25)
        assert region.pdf(np.array([0.9, 0.0])) == 0.0

    def test_pdf_batch_matches_scalar(self):
        region = self.make_region()
        thetas = np.random.default_rng(3).uniform(-3, 3, size=(50, 2))
        batch = region.pdf_batch(thetas)
        np.testing.assert_array_equal(
            batch, [region.pdf(t) for t in thetas]
        )

    def test_samples_inside_and_deterministic(self):
        region = self.make_region()
        draws = region.sample(200, 5)
        assert draws.shape == (200, 2)
        assert region.box.contains(draws).all()
        np.testing.assert_array_equal(draws, region.sample(200, 5))

    def test_generator_seed_supported(self):
        region = self.make_region()
        a = region.sample(10, np.random.default_rng(4))
        b = region.sample(10, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            self.make_region().sample(0, 1)


class TestBuildBox:
    def ellipse(self, theta):
        theta = np.asarray(theta)
        return float(theta[0] ** 2 + 4.0 * theta[1] ** 2)

    def test_analytic_ellipse_extents(self):
        # acceptance criterion case: semi-axes (1, 0.5) at eps = 1
        settings = RegionSettings(eta_start=0.1, refinements=12, max_steps=100)
        result = OptimisationResult(
            [0.0, 0.0], 0.0, np.array([[2.0, 0.0], [0.0, 8.0]])
        )
        box = build_box(self.ellipse, result, 1.0, settings)
        resolution = 0.1 / 2**11
        # first axis follows the largest eigenvalue: the tight direction
        np.testing.assert_allclose(np.abs(box.rotation[:, 0]), [0.0, 1.0],
                                   atol=1e-12)
        for extent, boundary in [
            (-box.limits[0, 0], 0.5), (box.limits[0, 1], 0.5),
            (-box.limits[1, 0], 1.0), (box.limits[1, 1], 1.0),
        ]:
            assert extent <= boundary + 1e-12
            assert boundary - extent <= 2 * resolution

    def test_minimizer_always_inside_box(self):
        # core region property over random quadratic bowls
        rng = np.random.default_rng(21)
        settings = RegionSettings(eta_start=0.2, refinements=6, max_steps=30)
        for _ in range(20):
            center = rng.uniform(-1, 1, size=2)
            m = rng.standard_normal((2, 2))
            curv = m @ m.T + 0.5 * np.eye(2)

            def dist(theta, center=center, curv=curv):
                diff = np.asarray(theta) - center
                return float(diff @ curv @ diff)

            result = OptimisationResult(center, 0.0, curv)
            box = build_box(dist, result, float(rng.uniform(0.1, 2.0)),
                            settings)
            assert box.contains(result.x_min)
            np.testing.assert_allclose(box.rotation.T @ box.rotation,
                                       np.eye(2), atol=1e-8)
            assert box.volume > 0

    def test_rejects_center_outside_threshold(self):
        settings = RegionSettings(eta_start=0.1)
        result = OptimisationResult([0.0, 0.0], 5.0, np.eye(2))
        with pytest.raises(ValueError):
            build_box(self.ellipse, result, 1.0, settings)

    def test_explicit_curvature_overrides(self):
        settings = RegionSettings(eta_start=0.05, refinements=8, max_steps=80)
        result = OptimisationResult([0.0, 0.0], 0.0, np.eye(2))
        box = build_box(self.ellipse, result, 1.0, settings,
                        curvature=np.diag([2.0, 8.0]))
        np.testing.assert_allclose(np.abs(box.rotation[:, 0]), [0.0, 1.0],
                                   atol=1e-12)


class TestRegionPlotData:
    def make_region(self, d):
        limits = np.tile([-1.0, 1.0], (d, 1))
        return ProposalRegion(BoundingBox(np.eye(d), np.zeros(d), limits))

    def test_2d_shapes(self):
        data = region_plot_data(self.make_region(2),
                                lambda t: float(np.sum(np.asarray(t) ** 2)),
                                grid=16)
        assert data.corners.shape == (4, 2)
        assert data.polyline.shape == (5, 2)
        np.testing.assert_array_equal(data.polyline[0], data.polyline[-1])
        assert data.grid_points.shape == (256, 2)
        assert data.grid_values.shape == (256,)

    def test_1d_shapes(self):
        data = region_plot_data(self.make_region(1),
                                lambda t: float(np.asarray(t)[0] ** 2),
                                grid=16)
        assert data.corners.shape == (2, 1)
        assert data.grid_points.shape == (16, 1)

    def test_rejects_high_dimension(self):
        with pytest.raises(UnsupportedDimension):
            region_plot_data(self.make_region(3), lambda t: 0.0)
