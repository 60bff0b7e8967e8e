"""Distance kernels against hand-computed and series-based oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romc import kernels


def test_backend_is_declared():
    assert kernels.BACKEND == "numpy"


def test_ma2_series_hand_case():
    # y_t = w_{t+2} + t1 w_{t+1} + t2 w_t, hand-expanded for 3 outputs
    noise = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    t1, t2 = 0.5, -0.25
    expected = np.array([
        3.0 + 0.5 * 2.0 - 0.25 * 1.0,
        4.0 + 0.5 * 3.0 - 0.25 * 2.0,
        5.0 + 0.5 * 4.0 - 0.25 * 3.0,
    ])
    np.testing.assert_allclose(kernels.ma2_series(t1, t2, noise), expected, rtol=1e-15)


def test_ma2_series_zero_coefficients_return_driving_noise():
    noise = np.arange(7.0)
    np.testing.assert_array_equal(kernels.ma2_series(0.0, 0.0, noise), noise[2:])


def test_autocov_summaries_hand_case():
    # s1 = (2*1 + 3*2 + 4*3) / 3, s2 = (3*1 + 4*2) / 2
    series = np.array([1.0, 2.0, 3.0, 4.0])
    s = kernels.autocov_summaries(series)
    np.testing.assert_allclose(s, [20.0 / 3.0, 11.0 / 2.0], rtol=1e-15)


def test_autocov_summaries_rejects_short_series():
    with pytest.raises(ValueError):
        kernels.autocov_summaries(np.array([1.0, 2.0]))


@settings(max_examples=60, deadline=None)
@given(
    n_noise=st.one_of(st.just(5), st.integers(5, 120)),
    seed=st.integers(0, 2**32 - 1),
    t1=st.floats(-2.0, 2.0),
    t2=st.floats(-3.0, 3.0),
)
def test_ma2_distance_batch_matches_composition(n_noise, seed, t1, t2):
    """The Gram form agrees with summaries of the explicitly built series."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n_noise)
    thetas = np.vstack([[t1, t2], rng.uniform(-3.0, 3.0, size=(7, 2))])
    s_obs = rng.uniform(-1.0, 1.0, size=2)
    gram = kernels.ma2_gram(noise)
    got = kernels.ma2_distance_batch(thetas, gram, s_obs[0], s_obs[1])
    for j, (a1, a2) in enumerate(thetas):
        s = kernels.autocov_summaries(kernels.ma2_series(a1, a2, noise))
        monomials = np.array([1.0, a1, a2, a1 * a1, a1 * a2, a2 * a2])
        np.testing.assert_allclose(gram @ monomials, s, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            got[j], np.sum((s - s_obs) ** 2), rtol=1e-12, atol=1e-12
        )


def test_single_row_is_bitwise_equal_to_its_row_in_a_batch():
    rng = np.random.default_rng(7)
    gram = kernels.ma2_gram(rng.standard_normal(102))
    thetas = np.column_stack([
        rng.uniform(-2.0, 2.0, 4096), rng.uniform(-3.0, 3.0, 4096),
    ])
    batch = kernels.ma2_distance_batch(thetas, gram, 0.3, -0.2)
    # the batch factory hands the kernel plain floats
    as_floats = gram.tolist()
    single = np.concatenate([
        kernels.ma2_distance_batch(thetas[j:j + 1], as_floats, 0.3, -0.2)
        for j in range(thetas.shape[0])
    ])
    assert single.shape == batch.shape
    np.testing.assert_array_equal(single.view(np.uint64), batch.view(np.uint64))


def test_ma2_distance_batch_rejects_short_noise():
    with pytest.raises(ValueError):
        kernels.ma2_gram(np.zeros(4))


def test_toy_location_hand_values():
    # 0.3**4 inside the quartic zone, |t| - (0.5 - 0.5**4) outside
    got = kernels.toy_location(np.array([0.0, 0.3, -0.3, 1.2, -1.2]))
    expected = [0.0, 0.3**4, 0.3**4, 1.2 - 0.4375, 1.2 - 0.4375]
    np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_toy_location_is_continuous_at_the_join():
    left = kernels.toy_location(np.array([0.5 - 1e-12]))[0]
    right = kernels.toy_location(np.array([0.5 + 1e-12]))[0]
    assert abs(left - right) < 1e-10
    assert kernels.toy_location(np.array([0.5]))[0] == pytest.approx(0.5**4)


def test_toy_location_accepts_scalars():
    assert kernels.toy_location(0.3).shape == (1,)


def test_toy_distance_batch_matches_composition():
    thetas = np.array([-2.0, -0.2, 0.0, 0.7])
    u, y_obs = 0.37, -0.1
    got = kernels.toy_distance_batch(thetas, u, y_obs)
    expected = (kernels.toy_location(thetas) + u - y_obs) ** 2
    np.testing.assert_allclose(got, expected, rtol=1e-15)
