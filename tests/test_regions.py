"""Region geometry: curvature axes, line-search extents, bounding boxes.

The line-search oracles are closed-form: a distance that never exceeds
eps walks max_steps per pass, so the extent telescopes to
max_steps * eta * (2 - 2^(1-K)); a distance that exceeds eps immediately
collapses every pass and must land on the minimum-step fallback
eta / 2^K.  The analytic ellipse d = t1^2 + 4 t2^2 at eps = 1 has
semi-axes (1, 0.5).  The stacked curvature choice, axes and box check are
held bit for bit to the per-region forms in reference_regions.py.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_regions as reference
from conftest import BatchDistance, fit_gp
from romc import BoundingBox, OptimisationResult, make_ma2_model
from romc.model import DistanceStack, draw_nuisance_seeds, make_objective
from romc.regions import (
    RegionSettings,
    RegionStack,
    build_box,
    build_boxes,
    check_boxes,
    choose_curvature,
    choose_curvatures,
    curvature_axes,
    jacobian_curvature,
    line_search_extent,
    line_search_extents,
)
from romc.surrogate import QuadraticSurrogate


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


@st.composite
def _curvature(draw, d):
    """One D-by-D curvature matrix of a kind that stresses the eigen step."""
    kind = draw(st.sampled_from(
        ["random", "repeated", "tiny_lead", "near_psd", "non_finite"]))
    if kind == "random":
        entries = draw(st.lists(st.floats(-10, 10), min_size=d * d,
                                max_size=d * d))
        m = np.array(entries).reshape(d, d)
        return m + m.T
    if kind == "repeated":
        # tied eigenvalues; eigenvectors with first components exactly zero
        return np.diag(draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]),
                                     min_size=d, max_size=d)))
    if kind == "tiny_lead":
        # a coupling so weak that eigenvector components land within 1e-12
        # of zero, on either side of the sign rule's threshold
        m = np.diag(np.arange(d, 0, -1.0) + 1.0)
        if d > 1:
            m[0, -1] = m[-1, 0] = draw(st.sampled_from(
                [1e-14, -1e-14, 5e-13, -5e-13, 3e-12, -3e-12]))
        return m
    if kind == "near_psd":
        # smallest eigenvalue on either side of -1e-8 * max(1.0, max |eig|)
        scale = draw(st.sampled_from([0.5, 1.0, 100.0]))
        factor = draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
        return np.diag([scale] * (d - 1) + [-factor * 1e-8 * max(1.0, scale)])
    # an infinite entry: eigvalsh and eigh return NaN eigenvalues
    m = np.eye(d)
    m[0, 0] = draw(st.sampled_from([np.inf, -np.inf]))
    return m


def _curvature_stacks():
    return st.sampled_from([1, 2, 3]).flatmap(
        lambda d: st.lists(_curvature(d), min_size=1, max_size=6))


class LinearSummaries:
    """Finite summaries A theta + 1: the Jacobian fallback succeeds."""

    def summaries(self, theta):
        theta = np.asarray(theta)
        a = np.arange(1.0, 1.0 + 3 * theta.size).reshape(3, theta.size)
        return a @ theta + 1.0


class NanSummaries:
    """Non-finite summaries: the Jacobian fallback fails to the identity."""

    def summaries(self, theta):
        return np.full(3, np.nan)


class TestStackedCurvature:
    """One eigh and one eigvalsh over a stack give every row the bits of
    its one-matrix call and of the per-matrix reference."""

    @settings(max_examples=150, deadline=None)
    @given(_curvature_stacks())
    def test_axes_equal_one_matrix_axes(self, hessians):
        axes = curvature_axes(np.stack(hessians))
        for row, hess in zip(axes, hessians):
            np.testing.assert_array_equal(_bits(row),
                                          _bits(curvature_axes(hess)))
            np.testing.assert_array_equal(_bits(row),
                                          _bits(reference.curvature_axes(hess)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_choice_equals_one_matrix_choice(self, data):
        hessians = data.draw(_curvature_stacks())
        d = len(hessians[0])
        results = [SimpleNamespace(hess_appr=h, x_min=np.linspace(-0.5, 0.5, d))
                   for h in hessians]
        x_min = np.array([result.x_min for result in results])
        objectives = data.draw(st.lists(
            st.sampled_from([None, LinearSummaries(), NanSummaries()]),
            min_size=len(results), max_size=len(results)))
        for given_objectives in (objectives, None):
            matrices, sources = (
                choose_curvatures(x_min, hessians) if given_objectives is None
                else choose_curvatures(x_min, hessians, objectives.__getitem__))
            assert matrices.shape == (len(results), d, d)
            for k, result in enumerate(results):
                objective = None if given_objectives is None else objectives[k]
                alone = choose_curvature(result, objective=objective)
                oracle = reference.choose_curvature(result, objective=objective)
                assert sources[k] == alone[1] == oracle[1]
                np.testing.assert_array_equal(_bits(matrices[k]),
                                              _bits(alone[0]))
                np.testing.assert_array_equal(_bits(matrices[k]),
                                              _bits(oracle[0]))

    def test_each_source_on_one_stack(self):
        hessians = [np.diag([2.0, 8.0]), np.diag([-1.0, 1.0]),
                    np.diag([-1.0, 1.0])]
        objectives = [None, LinearSummaries(), NanSummaries()]
        asked = []

        def objective_of(k):
            asked.append(k)
            return objectives[k]

        matrices, sources = choose_curvatures(np.tile([0.2, -0.1], (3, 1)),
                                              hessians, objective_of)
        assert sources == ["hess_appr", "jacobian", "identity"]
        # only the rows that fall back ask for their objective
        assert asked == [1, 2]
        np.testing.assert_array_equal(matrices[2], np.eye(2))

    def test_tolerance_scales_with_the_largest_eigenvalue(self):
        # -5e-7 is within 1e-8 * 100 but not within 1e-8 * max(1.0, 0.5)
        for scale, source in [(100.0, "hess_appr"), (0.5, "identity")]:
            hess = np.diag([scale, -5e-7])
            assert choose_curvatures(np.zeros((1, 2)), [hess])[1] == [source]


@st.composite
def _box(draw, d):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    center = rng.uniform(-3, 3, d)
    limits = np.stack([-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d)],
                      axis=1)
    flaw = draw(st.sampled_from([None, None, None, "nan center", "skewed",
                                 "nan rotation", "one-sided", "inf limit"]))
    if flaw == "nan center":
        center[-1] = np.nan
    elif flaw == "skewed":
        rotation[0, 0] += 1e-6
    elif flaw == "nan rotation":
        rotation[-1, 0] = np.nan
    elif flaw == "one-sided":
        limits[-1] = [0.1, 0.5]
    elif flaw == "inf limit":
        limits[0, 1] = np.inf
    return rotation, center, limits


class TestStackedBoxCheck:
    """check_boxes on a stack passes exactly when every box passes the
    per-box reference, with the reference's volumes."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 3]).flatmap(
        lambda d: st.lists(_box(d), min_size=1, max_size=5)))
    def test_stack_check_equals_per_box_check(self, boxes):
        rotations, centers, limits = (np.stack(part) for part in zip(*boxes))
        try:
            expected = [reference.box_volume(*box) for box in boxes]
        except ValueError:
            with pytest.raises(ValueError):
                check_boxes(rotations, centers, limits)
            return
        stack = RegionStack(rotations, centers, limits)
        np.testing.assert_array_equal(
            _bits(check_boxes(rotations, centers, limits)), _bits(expected))
        for k, ((rotation, center, limit), volume) in enumerate(zip(boxes,
                                                                    expected)):
            alone = BoundingBox(rotation, center, limit)
            assert stack.volumes[k] == alone.volume == volume
            for name, value in [("rotations", rotation), ("centers", center),
                                ("limits", limit)]:
                np.testing.assert_array_equal(_bits(getattr(stack, name)[k]),
                                              _bits(value))

    def test_shapes_must_agree(self):
        eye = np.eye(2)[None]
        with pytest.raises(ValueError, match="rotation must be square"):
            check_boxes(eye, np.zeros((1, 3)), np.ones((1, 3, 2)))
        with pytest.raises(ValueError, match="limits must have shape"):
            check_boxes(eye, np.zeros((1, 2)), np.ones((1, 3, 2)))


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

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_eta_start_must_be_finite(self, eta):
        with pytest.raises(ValueError, match="eta_start must be positive and finite"):
            RegionSettings(eta_start=eta)

    @pytest.mark.parametrize("fraction", [1e300, 2.0])
    def test_fraction_above_one_rejected(self, fraction):
        from romc.model import BoxUniformPrior

        prior = BoxUniformPrior([[0.0, 1.0]])
        with pytest.raises(ValueError, match="fraction must be at most 1"):
            RegionSettings.from_prior(prior, fraction=fraction)

    def test_fraction_of_one_accepted(self):
        from romc.model import BoxUniformPrior

        prior = BoxUniformPrior([[0.0, 2.0]])
        assert RegionSettings.from_prior(prior, fraction=1.0).eta_start == 2.0


class TestLineSearchExtent:
    def test_never_exceeding_distance_telescopes(self):
        # d == 0 forever: every pass takes max_steps full steps
        settings = RegionSettings(eta_start=0.1, refinements=3, max_steps=5)
        extent = line_search_extent(
            BatchDistance(lambda t: 0.0), np.zeros(1), np.ones(1), 1.0,
            settings
        )
        expected = 5 * 0.1 * (2.0 - 2.0 ** (1 - 3))
        assert extent == pytest.approx(expected, rel=1e-12)

    def test_immediate_exceed_hits_minimum_step(self):
        settings = RegionSettings(eta_start=0.2, refinements=6, max_steps=10)
        extent = line_search_extent(
            BatchDistance(lambda t: 1e9), np.zeros(2), np.array([1.0, 0.0]),
            1.0, settings
        )
        assert extent == pytest.approx(0.2 / 2**6, rel=1e-12)
        assert extent > 0

    def test_minimum_step_positivity_over_thresholds(self):
        # extents must stay positive no matter how tight eps gets
        settings = RegionSettings(eta_start=0.3, refinements=8, max_steps=20)
        for eps in (1e-2, 1e-6, 1e-12, 0.0):
            extent = line_search_extent(
                BatchDistance(lambda t: float(np.sum(t**2))), np.zeros(1),
                np.ones(1),
                eps, settings,
            )
            assert extent > 0

    def test_converges_to_analytic_boundary(self):
        # d(t) = t^2 along the ray, eps = 1: boundary at 1
        settings = RegionSettings(eta_start=0.2, refinements=10, max_steps=40)
        direction = np.array([1.0, 0.0])

        def dist(theta):
            return float(np.sum(np.asarray(theta) ** 2))

        extent = line_search_extent(BatchDistance(dist), np.zeros(2), direction,
                                    1.0, settings)
        resolution = 0.2 / 2**9
        assert extent <= 1.0 + 1e-12
        assert 1.0 - extent <= resolution + 1e-12

    def test_off_center_boundary(self):
        # center 0.5 walking +1 on |theta| <= eps=2 boundary: extent 1.5
        settings = RegionSettings(eta_start=0.1, refinements=12, max_steps=60)
        extent = line_search_extent(
            BatchDistance(lambda t: abs(float(t[0]))), np.array([0.5]),
            np.ones(1), 2.0,
            settings,
        )
        assert extent == pytest.approx(1.5, abs=0.1 / 2**11 + 1e-12)

    def test_resolves_eps_below_the_floor(self):
        # d = t^2 at eps = 1e-12 has its boundary at 1e-6, far inside the
        # floor 0.1 / 2**10; the walk keeps halving until a step is kept
        settings = RegionSettings(eta_start=0.1, refinements=10, max_steps=40)
        extent = line_search_extent(
            BatchDistance(lambda t: float(t[0] ** 2)), np.zeros(1),
            np.ones(1), 1e-12, settings,
        )
        assert 0.5e-6 < extent <= 1e-6

    def test_nonfinite_distance_counts_as_outside(self):
        # NaN beyond radius 0.37 must end the walk like a value above eps
        radius = 0.37
        settings = RegionSettings(eta_start=0.1, refinements=10, max_steps=40)
        extent = line_search_extent(
            BatchDistance(lambda t: 0.0 if abs(t[0]) <= radius else np.nan),
            np.zeros(1), np.ones(1), 1.0, settings,
        )
        assert radius - 0.1 / 2**9 <= extent <= radius

    def test_requires_unit_direction(self):
        settings = RegionSettings(eta_start=0.1)
        with pytest.raises(ValueError):
            line_search_extent(BatchDistance(lambda t: 0.0), np.zeros(2),
                               np.array([1.0, 1.0]), 1.0, settings)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _random_directions(rng, n):
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([np.cos(angles), np.sin(angles)])


class TestLockstepWalk:
    """line_search_extents over many rows gives each row, bit for bit, the
    extent line_search_extent finds for it alone."""

    def walk(self, distances, centers, directions, owners, eps, settings,
             stack=None):
        got = line_search_extents(stack or DistanceStack(distances), centers,
                                  directions, owners, eps, settings)
        alone = [line_search_extent(distances[o], c, u, eps, settings)
                 for c, u, o in zip(centers, directions, owners)]
        np.testing.assert_array_equal(_bits(got), _bits(alone))
        return got

    def test_kernel_stack_rows(self):
        model = make_ma2_model()
        seeds = draw_nuisance_seeds(12, 5)
        objectives = [make_objective(model, seed, i)
                      for i, seed in enumerate(seeds)]
        stack = DistanceStack.of_model(model, seeds, range(12))
        assert stack.kernel is not None
        rng = np.random.default_rng(3)
        owners = rng.integers(0, 12, size=120)
        centers = np.array([model.prior.sample(rng) for _ in owners])
        values = [objectives[o](c) for o, c in zip(owners, centers)]
        settings = RegionSettings(eta_start=0.2, refinements=6, max_steps=4)
        got = self.walk(objectives, centers, _random_directions(rng, 120),
                        owners, float(np.median(values)), settings, stack)
        # rows whose first step leaves the set fall back to the floor, and
        # rows that never leave it in the first pass take max_steps steps
        assert np.any(got == 0.2 / 2**6)
        assert np.any(got >= 4 * 0.2)

    def test_gp_and_quadratic_rows(self):
        rng = np.random.default_rng(4)
        inputs = rng.uniform(-1.0, 1.0, size=(30, 2))
        gp = fit_gp(inputs, np.sum(inputs**2, axis=1))
        bowl = QuadraticSurrogate(0.0, [0.1, 0.0], [[1.0, 0.2], [0.2, 2.0]])
        flat = QuadraticSurrogate(0.0, [0.0, 0.0], np.zeros((2, 2)))
        high = QuadraticSurrogate(5.0, [0.0, 0.0], np.zeros((2, 2)))
        owners = np.tile([0, 1, 2, 3], 15)
        centers = rng.uniform(-0.2, 0.2, size=(60, 2))
        settings = RegionSettings(eta_start=0.1, refinements=5, max_steps=6)
        got = self.walk([gp, bowl, flat, high], centers,
                        _random_directions(rng, 60), owners, 0.5, settings)
        # never above eps: max_steps steps in every pass
        np.testing.assert_allclose(got[owners == 2],
                                   6 * 0.1 * (2.0 - 2.0 ** (1 - 5)))
        # always above eps: the floor
        np.testing.assert_array_equal(got[owners == 3], 0.1 / 2**5)

    def test_build_boxes_equals_build_box_per_region(self):
        rng = np.random.default_rng(6)
        distances, results = [], []
        for _ in range(5):
            m = rng.standard_normal((2, 2))
            curv = m @ m.T + 0.5 * np.eye(2)
            center = rng.uniform(-1.0, 1.0, size=2)
            linear = -2.0 * curv @ center
            distances.append(QuadraticSurrogate(center @ curv @ center,
                                                linear, curv))
            results.append(OptimisationResult(center, 0.0, curv))
        settings = RegionSettings(eta_start=0.2, refinements=8, max_steps=30)
        hess = np.array([r.hess_appr for r in results])
        stack = build_boxes(DistanceStack(distances),
                            np.array([r.x_min for r in results]),
                            [r.f_min for r in results], hess, 0.7, settings)
        for k, (distance, result) in enumerate(zip(distances, results)):
            alone = build_box(distance, result, 0.7, settings)
            for rows, name in [("rotations", "rotation"),
                               ("centers", "center"), ("limits", "limits")]:
                np.testing.assert_array_equal(_bits(getattr(stack, rows)[k]),
                                              _bits(getattr(alone, name)))


class TestBoundingBox:
    def make_rotated_box(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rotation = np.array([[c, -s], [s, c]])
        return BoundingBox(rotation, np.array([1.0, 1.0]),
                           np.array([[-1.0, 2.0], [-0.5, 0.5]]))

    def test_volume(self):
        box = self.make_rotated_box()
        assert box.volume == pytest.approx(3.0 * 1.0)

    def test_center_is_contained(self):
        box = self.make_rotated_box()
        assert RegionStack.of([box]).contains(box.center[None], [0]).all()

    def test_contains_matches_rotated_limits(self):
        box = self.make_rotated_box()
        rng = np.random.default_rng(12)
        z = rng.uniform(-2, 3, size=(200, 2))
        thetas = z @ box.rotation.T + box.center
        expected = np.all(
            (z >= box.limits[:, 0]) & (z <= box.limits[:, 1]), axis=1
        )
        np.testing.assert_array_equal(
            RegionStack.of([box]).contains(thetas, np.zeros(200, int)), expected)

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

    @pytest.mark.parametrize("rotation, center, limits", [
        # a NaN rotation passes the orthonormality test, NaN > tol being False
        ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0], [[-1, 1], [-1, 1]]),
        (np.eye(2), [np.nan, 0.0], [[-1, 1], [-1, 1]]),
        (np.eye(2), [0.0, 0.0], [[-np.inf, 1], [-1, 1]]),
        (np.eye(2), [0.0, 0.0], [[-1, 1], [-1, np.inf]]),
    ])
    def test_non_finite_entries_rejected(self, rotation, center, limits):
        with pytest.raises(ValueError, match="must be finite"):
            BoundingBox(rotation, center, limits)


class TestProposalRegion:
    """A problem's proposal is uniform on its box: BoundingBox.sample."""

    def make_box(self):
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
        return BoundingBox(rotation, np.array([0.3, -1.0]),
                           np.array([[-0.5, 0.5], [-2.0, 2.0]]))

    def test_samples_inside_and_deterministic(self):
        box = self.make_box()
        draws = box.sample(200, 5)
        assert draws.shape == (200, 2)
        assert RegionStack.of([box]).contains(draws, np.zeros(200, int)).all()
        np.testing.assert_array_equal(draws, box.sample(200, 5))
        z = (draws - box.center) @ box.rotation
        # uniform in rotated coordinates: both limits are approached
        np.testing.assert_allclose(z.min(axis=0), box.limits[:, 0], atol=0.1)
        np.testing.assert_allclose(z.max(axis=0), box.limits[:, 1], atol=0.1)

    def test_generator_seed_supported(self):
        box = self.make_box()
        a = box.sample(10, np.random.default_rng(4))
        b = box.sample(10, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, box.sample(10, 4))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            self.make_box().sample(0, 1)


def _random_boxes(rng, k, d):
    boxes = []
    for _ in range(k):
        rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
        limits = np.stack([-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d)],
                          axis=1)
        boxes.append(BoundingBox(rotation, rng.uniform(-3, 3, d), limits))
    return boxes


class TestRegionStack:
    """The stacked map equals each box's z @ R^T + c bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 30])
    def test_sample_equals_per_box_formula(self, d, n):
        boxes = _random_boxes(np.random.default_rng(d), 3, d)

        def seeds():  # an int, a list of ints and a Generator
            return [7, [3, 1], np.random.default_rng(11)]

        draws = RegionStack.of(boxes).sample(n, seeds())
        expected = np.concatenate([
            np.random.default_rng(seed).uniform(
                box.limits[:, 0], box.limits[:, 1], size=(n, d))
            @ box.rotation.T + box.center
            for seed, box in zip(seeds(), boxes)])
        assert draws.shape == (3 * n, d)
        np.testing.assert_array_equal(_bits(draws), _bits(expected))

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_rejects_nonpositive_n(self, n):
        boxes = _random_boxes(np.random.default_rng(0), 2, 2)
        with pytest.raises(ValueError, match="n must be positive"):
            RegionStack.of(boxes).sample(n, [1, 2])

    def test_sample_needs_one_seed_per_box(self):
        boxes = _random_boxes(np.random.default_rng(0), 2, 2)
        with pytest.raises(ValueError):
            RegionStack.of(boxes).sample(5, [1])

    def test_contains_tests_each_row_against_its_owner(self):
        boxes = [BoundingBox(np.eye(2), [0.0, 0.0], [[-1, 1], [-1, 1]]),
                 BoundingBox(np.eye(2), [5.0, 0.0], [[-1, 1], [-1, 1]])]
        thetas = np.array([[0.5, 0.5], [0.5, 0.5], [5.5, 0.0], [5.5, 0.0],
                           [1.0 + 5e-11, 0.0], [1.0 + 2e-10, 0.0]])
        np.testing.assert_array_equal(
            RegionStack.of(boxes).contains(thetas, [0, 1, 0, 1, 0, 0]),
            [True, False, False, True, True, False])


class TestBuildBox:
    ellipse = BatchDistance(
        lambda theta: float(theta[0] ** 2 + 4.0 * theta[1] ** 2))

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

    def test_rotated_ellipse_extents_follow_the_axes(self):
        # d = theta^T A theta with A = R diag(4, 1) R^T: semi-axis 0.5 along
        # R's first column and 1 along its second; R is a rotation, not a
        # symmetric reflection, so walking its rows instead would show
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        r = np.array([[c, s], [-s, c]])
        a = r @ np.diag([4.0, 1.0]) @ r.T
        ellipse = BatchDistance(lambda theta: float(theta @ a @ theta))
        settings = RegionSettings(eta_start=0.1, refinements=12, max_steps=100)
        box = build_box(ellipse, OptimisationResult([0.0, 0.0], 0.0, a), 1.0,
                        settings)
        np.testing.assert_allclose(np.abs(box.rotation), np.abs(r), atol=1e-12)
        resolution = 0.1 / 2**11
        for m, boundary in enumerate([0.5, 1.0]):
            for extent in (-box.limits[m, 0], box.limits[m, 1]):
                assert boundary - 2 * resolution <= extent <= boundary + 1e-12

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
            box = build_box(BatchDistance(dist), result,
                            float(rng.uniform(0.1, 2.0)),
                            settings)
            assert RegionStack.of([box]).contains(result.x_min[None], [0]).all()
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
