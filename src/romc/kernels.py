"""Distance kernels for the bundled benchmark models, in pure numpy.

The MA(2) distance is evaluated in Gram form.  With a = (1, theta1, theta2)
the series is y_t = sum_j a_j w_{t+2-j}, so each lag-k summary is a
quadratic form s_k = a^T M_k a whose 3x3 matrix M_k of lagged noise
cross-products is fixed once the seed is.  ma2_gram precomputes the six
coefficients of each form, after which a distance costs O(1) per theta
instead of O(n_obs).  ma2_series and autocov_summaries build the series
itself: the simulator uses them, and they are the reference the Gram form
is tested against.
"""

import numpy as np

# Name of the kernel implementation, stamped into benchmark records.
BACKEND = "numpy"


def ma2_series(theta1, theta2, noise):
    """Second-order moving-average series driven by a fixed noise vector.

    noise has length T + 2; the first two entries are burn-in terms so the
    output has length T.
    """
    w = np.asarray(noise, dtype=np.float64)
    return w[2:] + theta1 * w[1:-1] + theta2 * w[:-2]


def autocov_summaries(series):
    """Lag-1 and lag-2 autocovariance-style summaries of a series.

    Each lag-k term averages y_t * y_{t-k} over the T - k available pairs.
    """
    y = np.asarray(series, dtype=np.float64)
    n = y.shape[0]
    if n < 3:
        raise ValueError("series must have at least 3 observations")
    s1 = np.sum(y[1:] * y[:-1]) / (n - 1)
    s2 = np.sum(y[2:] * y[:-2]) / (n - 2)
    return np.array([s1, s2])


def ma2_gram(noise):
    """Coefficients of the lag-1 and lag-2 summaries as quadratic forms.

    Returns a (2, 6) array whose row k-1 holds (c0, c1, c2, c11, c12, c22)
    with s_k = c0 + c1 t1 + c2 t2 + c11 t1^2 + c12 t1 t2 + c22 t2^2, equal
    to autocov_summaries(ma2_series(t1, t2, noise))[k-1] up to rounding.
    """
    w = np.asarray(noise, dtype=np.float64)
    if w.shape[0] < 5:
        raise ValueError("noise must yield a series of at least 3 observations")
    n = w.shape[0] - 2
    # row j is the series term multiplied by a_j
    u = np.array([w[2:], w[1:-1], w[:-2]])
    gram = []
    for k in (1, 2):
        # pairwise summation, whose result does not depend on memory layout
        m = np.sum(u[:, None, k:] * u[None, :, :n - k], axis=2).tolist()
        coeffs = (m[0][0], m[0][1] + m[1][0], m[0][2] + m[2][0],
                  m[1][1], m[1][2] + m[2][1], m[2][2])
        gram.append([c / (n - k) for c in coeffs])
    return np.array(gram)


def _ma2_residual(coeffs, s_obs, t1, t2):
    """s_k - s_obs in Horner form; t1, t2 are floats or equal-length arrays.

    The one expression serves both, so a row gives the same bits either way.
    """
    c0, c1, c2, c11, c12, c22 = coeffs
    return (c0 - s_obs) + t1 * (c1 + t1 * c11 + t2 * c12) + t2 * (c2 + t2 * c22)


def ma2_distance_batch(thetas, gram, s1_obs, s2_obs):
    """Squared euclidean summary distance for a batch of MA(2) parameters.

    thetas: (n, 2) array; gram: the ma2_gram of the seed's noise, as an
    array or as nested lists of floats (plain floats make one-row calls
    cheaper).  Returns (n,) distances against the observed summaries
    (s1_obs, s2_obs).  Each row is computed elementwise, so its value does
    not depend on the batch it is part of.
    """
    th = np.asarray(thetas, dtype=np.float64)
    lag1, lag2 = gram
    one_row = th.shape[0] == 1
    if one_row:
        # plain floats skip numpy's per-operation overhead on a single row
        (t1, t2), = th.tolist()
    else:
        t1, t2 = th[:, 0], th[:, 1]
    r1 = _ma2_residual(lag1, s1_obs, t1, t2)
    r2 = _ma2_residual(lag2, s2_obs, t1, t2)
    d = r1 * r1 + r2 * r2
    return np.array([d]) if one_row else d


def toy_location(theta):
    """Location term of the 1d benchmark: theta**4 inside [-0.5, 0.5],
    |theta| - c outside, with c chosen so the two pieces join continuously.
    """
    t = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    c = 0.5 - 0.5**4
    return np.where(np.abs(t) <= 0.5, t**4, np.abs(t) - c)


def toy_distance_batch(thetas, u, y_obs):
    """Squared distance for a batch of 1d benchmark parameters.

    thetas: (n,) array of scalar parameters; u is the fixed standard-normal
    draw; y_obs the scalar observation.
    """
    t = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    return (toy_location(t) + u - y_obs) ** 2
