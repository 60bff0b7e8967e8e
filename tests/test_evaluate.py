"""Effective sample size and grid divergences.

The two-cell KL oracle: target values (3, 1) on cells of volume 0.5 give
masses (0.75, 0.25) after renormalization, the flat reference gives
(0.5, 0.5), and every divergence follows by direct substitution.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romc import DegenerateResult, compute_divergence, compute_ess

BOUNDS_1D = np.array([[0.0, 1.0]])


def stepped_density(values):
    """Piecewise density over [0, 1): cell j of 1/len values."""
    values = np.asarray(values, dtype=np.float64)

    def evaluate(points):
        points = np.asarray(points, dtype=np.float64)
        idx = np.clip((points[:, 0] * values.size).astype(int), 0,
                      values.size - 1)
        return values[idx]

    return evaluate


class TestComputeEss:
    def test_equal_weights_give_n(self):
        assert compute_ess(np.full(50, 0.3)) == pytest.approx(50.0)

    def test_one_hot_gives_one(self):
        w = np.zeros(20)
        w[7] = 5.0
        assert compute_ess(w) == pytest.approx(1.0)

    def test_hand_case(self):
        # (3 + 1)^2 / (9 + 1)
        assert compute_ess([3.0, 1.0]) == pytest.approx(1.6)

    def test_scale_invariance(self):
        w = np.random.default_rng(0).exponential(size=40)
        assert compute_ess(w) == pytest.approx(compute_ess(123.0 * w),
                                               rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=50))
    def test_bounds_property(self, weights):
        ess = compute_ess(weights)
        assert 1.0 - 1e-9 <= ess <= len(weights) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_ess([])
        with pytest.raises(ValueError):
            compute_ess([1.0, -0.5])
        with pytest.raises(ValueError):
            compute_ess([1.0, np.inf])
        with pytest.raises(DegenerateResult):
            compute_ess([0.0, 0.0])


class TestComputeDivergence:
    def test_kl_two_cell_oracle(self):
        target = stepped_density([3.0, 1.0])
        reference = stepped_density([1.0, 1.0])
        got = compute_divergence(target, reference, BOUNDS_1D, grid_step=0.5,
                                 kind="kl")
        expected = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_js_two_cell_oracle(self):
        target = stepped_density([3.0, 1.0])
        reference = stepped_density([1.0, 1.0])
        got = compute_divergence(target, reference, BOUNDS_1D, grid_step=0.5,
                                 kind="jensen_shannon")
        m = [(0.75 + 0.5) / 2, (0.25 + 0.5) / 2]
        kl_pm = 0.75 * math.log(0.75 / m[0]) + 0.25 * math.log(0.25 / m[1])
        kl_qm = 0.5 * math.log(0.5 / m[0]) + 0.5 * math.log(0.5 / m[1])
        assert got == pytest.approx(0.5 * kl_pm + 0.5 * kl_qm, rel=1e-12)

    def test_js_is_symmetric(self):
        p = stepped_density([0.2, 1.3, 2.0, 0.5])
        q = stepped_density([1.0, 0.1, 0.4, 2.5])
        forward = compute_divergence(p, q, BOUNDS_1D, grid_step=0.25)
        backward = compute_divergence(q, p, BOUNDS_1D, grid_step=0.25)
        assert forward == pytest.approx(backward, rel=1e-12)
        assert forward > 0

    def test_js_of_identical_densities_is_zero(self):
        p = stepped_density([0.2, 1.3, 2.0, 0.5])
        assert compute_divergence(p, p, BOUNDS_1D, grid_step=0.25) == \
            pytest.approx(0.0, abs=1e-12)

    def test_js_disjoint_supports_hit_log2(self):
        p = stepped_density([1.0, 0.0])
        q = stepped_density([0.0, 1.0])
        got = compute_divergence(p, q, BOUNDS_1D, grid_step=0.5)
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_js_range_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = stepped_density(rng.uniform(0, 2, size=8))
            q = stepped_density(rng.uniform(0, 2, size=8))
            js = compute_divergence(p, q, BOUNDS_1D, grid_step=0.125)
            assert -1e-12 <= js <= math.log(2.0) + 1e-12

    def test_kl_self_is_zero(self):
        p = stepped_density([0.2, 1.3, 2.0, 0.5])
        assert compute_divergence(p, p, BOUNDS_1D, grid_step=0.25,
                                  kind="kl") == pytest.approx(0.0, abs=1e-12)

    def test_kl_infinite_when_reference_misses_mass(self):
        p = stepped_density([1.0, 1.0])
        q = stepped_density([1.0, 0.0])
        with pytest.warns(RuntimeWarning):
            got = compute_divergence(p, q, BOUNDS_1D, grid_step=0.5, kind="kl")
        assert got == np.inf

    def test_js_finite_even_with_partial_overlap(self):
        p = stepped_density([1.0, 1.0])
        q = stepped_density([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compute_divergence(p, q, BOUNDS_1D, grid_step=0.5)
        assert np.isfinite(got)

    def test_kind_aliases(self):
        p = stepped_density([1.0, 2.0])
        q = stepped_density([2.0, 1.0])
        base = compute_divergence(p, q, BOUNDS_1D, grid_step=0.5,
                                  kind="jensen_shannon")
        for alias in ("js", "JS", "jensen-shannon", "Jensen_Shannon"):
            assert compute_divergence(p, q, BOUNDS_1D, grid_step=0.5,
                                      kind=alias) == base

    def test_unknown_kind_rejected(self):
        p = stepped_density([1.0])
        with pytest.raises(ValueError):
            compute_divergence(p, p, BOUNDS_1D, kind="hellinger")

    def test_2d_densities_supported(self):
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])

        def p(points):
            return np.ones(points.shape[0])

        def q(points):
            return 1.0 + points[:, 0]

        js = compute_divergence(p, q, bounds, grid_step=0.25)
        assert 0 < js < math.log(2.0)

    def test_scalar_evaluator_rejected(self):
        # evaluators take (n, D) points and return one value per point
        def scalar_only(points):
            return 1.0

        for target, reference in [(scalar_only, stepped_density([1.0, 1.0])),
                                  (stepped_density([1.0, 1.0]), scalar_only)]:
            with pytest.raises(ValueError, match="one value per grid point"):
                compute_divergence(target, reference, BOUNDS_1D, grid_step=0.5)

    def test_negative_density_rejected(self):
        p = stepped_density([1.0, -0.5])
        q = stepped_density([1.0, 1.0])
        with pytest.raises(ValueError):
            compute_divergence(p, q, BOUNDS_1D, grid_step=0.5)

    def test_zero_mass_rejected(self):
        p = stepped_density([0.0, 0.0])
        q = stepped_density([1.0, 1.0])
        with pytest.raises(DegenerateResult):
            compute_divergence(p, q, BOUNDS_1D, grid_step=0.5)
