"""Acceptance suite: six criteria, one printed verdict line each.

The heavy runs are shared through module fixtures; every criterion test
first records its verdict line (so the report stays complete even when an
assert fires) and then asserts each clause separately.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import BatchDistance, record_acceptance

from romc import (
    OptimisationResult,
    ToyTruePosterior,
    artifacts,
    compute_divergence,
    compute_ess,
    estimate_regions,
    make_ma2_model,
    make_toy_model,
    midpoint_grid,
    rejection_abc,
    solve_problems,
)
from romc.inference import PosteriorApproximation
from romc.model import BoxUniformPrior, DistanceStack, finite_difference_gradient
from romc.optimize import compute_eps, solve_gradient
from romc.regions import RegionSettings, build_box, line_search_extent


def verdict(number, ok, detail):
    record_acceptance(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def toy_run():
    """Full 1d pipeline at benchmark scale, single-threaded and timed."""
    started = time.perf_counter()
    model = make_toy_model()
    solve = solve_problems(model, n1=500, seed=42, workers=1)
    bundle = estimate_regions(solve, eps=0.75, workers=1)
    posterior = bundle.posterior()
    result = bundle.sample(50, seed=42)
    js = compute_divergence(
        posterior.eval_unnorm_batch, ToyTruePosterior(),
        model.prior.bounds, grid_step=0.01,
    )
    elapsed = time.perf_counter() - started
    return SimpleNamespace(
        model=model, bundle=bundle, posterior=posterior, result=result,
        js=js, elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def ma2_run():
    """ma2 benchmark: gradient and Bayesian-optimization training plus the
    rejection baseline, single-threaded and timed."""
    started = time.perf_counter()
    model = make_ma2_model()
    grad_solve = solve_problems(model, n1=200, seed=21, restarts=3, workers=1)
    grad = estimate_regions(grad_solve, quantile=0.97, workers=1).sample(
        30, seed=21
    )
    bo_solve = solve_problems(
        model, n1=200, seed=21, use_bo=True, budget=64, init_points=10,
        workers=1,
    )
    bo = estimate_regions(bo_solve, quantile=0.97, workers=1).sample(
        30, seed=21
    )
    rejection = rejection_abc(model, n_draws=10000, quantile=0.01, seed=0)
    elapsed = time.perf_counter() - started
    means = {
        "gradient": grad.expectation(lambda t: t.copy()),
        "bo": bo.expectation(lambda t: t.copy()),
        "rejection": rejection.mean(),
    }
    return SimpleNamespace(means=means, elapsed=elapsed)


def test_criterion_1_toy_divergence_and_runtime(toy_run):
    ok = toy_run.js <= 0.05 and toy_run.elapsed < 120.0
    verdict(
        1, ok,
        f"1d run (n1=500, n2=50, eps=0.75) JS divergence "
        f"{toy_run.js:.6f} <= 0.05; runtime {toy_run.elapsed:.1f}s < 120s",
    )
    assert toy_run.js <= 0.05
    assert toy_run.elapsed < 120.0


def test_criterion_2_toy_moments(toy_run):
    mean = toy_run.result.expectation(lambda t: float(t[0]))
    second = toy_run.result.expectation(lambda t: float(t[0]) ** 2)
    ok = abs(mean) <= 0.05 and 1.0 <= second <= 1.25
    verdict(
        2, ok,
        f"1d posterior mean {mean:+.4f} within +/-0.05; "
        f"second moment {second:.4f} in [1.0, 1.25]",
    )
    assert abs(mean) <= 0.05
    assert 1.0 <= second <= 1.25


def test_toy_posterior_density_at_origin(toy_run):
    # independent reference value for this exact configuration; the band
    # absorbs seed-to-seed variation
    value = toy_run.posterior.eval_posterior_batch(np.array([[0.0]]))[0]
    assert value == pytest.approx(0.289, abs=0.05)


def test_criterion_3_toy_effective_sample_size(toy_run):
    ess = compute_ess(toy_run.result.weights)
    fraction = ess / toy_run.result.n_samples
    ok = fraction >= 0.7
    verdict(
        3, ok,
        f"ESS {ess:.1f} of {toy_run.result.n_samples} draws "
        f"({fraction:.3f} >= 0.7)",
    )
    assert fraction >= 0.7


def test_criterion_4_ma2_mean_agreement(ma2_run):
    means = ma2_run.means
    target = np.array([0.5, 0.05])
    pair_gap = max(
        np.abs(means[a] - means[b]).max()
        for a, b in [("gradient", "bo"), ("gradient", "rejection"),
                     ("bo", "rejection")]
    )
    target_gap = max(np.abs(m - target).max() for m in means.values())
    ok = pair_gap <= 0.1 and target_gap <= 0.15 and ma2_run.elapsed < 600.0

    def fmt(m):
        return f"({m[0]:+.3f}, {m[1]:+.3f})"

    verdict(
        4, ok,
        f"ma2 means gradient {fmt(means['gradient'])}, "
        f"bo {fmt(means['bo'])}, rejection {fmt(means['rejection'])}; "
        f"max pairwise gap {pair_gap:.3f} <= 0.1; max offset from "
        f"(0.5, 0.05) {target_gap:.3f} <= 0.15; "
        f"runtime {ma2_run.elapsed:.1f}s < 600s",
    )
    assert pair_gap <= 0.1
    assert target_gap <= 0.15
    assert ma2_run.elapsed < 600.0


def _train_ma2(out_dir, tag, workers):
    model = make_ma2_model()
    solve = solve_problems(
        model, n1=60, seed=21, use_bo=True, budget=64, init_points=10,
        workers=workers,
    )
    bundle = estimate_regions(solve, quantile=0.97, workers=workers)
    result = bundle.sample(30, seed=21)
    artifacts.write_solutions(out_dir / f"solutions_{tag}.json", solve)
    artifacts.write_regions(out_dir / f"regions_{tag}.json", bundle)
    artifacts.write_samples(
        out_dir / f"samples_{tag}.csv", out_dir / f"meta_{tag}.json",
        result, bundle,
    )


def test_criterion_5_parallel_training(tmp_path):
    _train_ma2(tmp_path, "w1", workers=1)
    # a forked pool must engage even on small machines, so lift the
    # worker cap for the parallel run only
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("romc.parallel.os.cpu_count", lambda: 4)
        _train_ma2(tmp_path, "w2", workers=2)
    identical = all(
        (tmp_path / name.format("w1")).read_bytes()
        == (tmp_path / name.format("w2")).read_bytes()
        for name in ["solutions_{}.json", "regions_{}.json", "samples_{}.csv"]
    )

    cores = os.cpu_count() or 1
    if cores >= 4:
        started = time.perf_counter()
        _train_ma2(tmp_path, "t1", workers=1)
        t_seq = time.perf_counter() - started
        started = time.perf_counter()
        _train_ma2(tmp_path, "tN", workers=cores)
        t_par = time.perf_counter() - started
        ratio = t_seq / t_par if t_par > 0 else float("inf")
        timing_ok = ratio >= 2.0
        timing_note = f"speedup {ratio:.2f}x >= 2 with workers={cores}"
    else:
        ratio = None
        timing_ok = True
        timing_note = f"timing clause not applicable on {cores} core(s)"

    ok = identical and timing_ok
    verdict(
        5, ok,
        f"ma2 training byte-identical across workers 1 vs 2 "
        f"(solutions, regions, samples): {identical}; {timing_note}",
    )
    assert identical
    if ratio is not None:
        assert ratio >= 2.0


def _check_region_suite():
    solve = solve_problems(make_toy_model(), n1=40, seed=7)
    bundle = estimate_regions(solve, eps=0.75)
    stack = bundle.regions
    for k, (rotation, limits) in enumerate(zip(stack.rotations, stack.limits)):
        np.testing.assert_allclose(
            rotation.T @ rotation, np.eye(len(rotation)), atol=1e-10
        )
        assert stack.contains(bundle.x_min[k][None], [k]).all()
        assert np.all(limits[:, 0] < 0.0)
        assert np.all(limits[:, 1] > 0.0)

    # ellipse d = t1^2 + 4 t2^2 at eps = 1 has semi-axes (1, 0.5)
    settings = RegionSettings(eta_start=0.1, refinements=12, max_steps=100)
    box = build_box(
        BatchDistance(lambda t: t[0] ** 2 + 4.0 * t[1] ** 2),
        OptimisationResult([0.0, 0.0], 0.0, [[2.0, 0.0], [0.0, 8.0]]),
        1.0, settings,
    )
    resolution = 0.1 / 2 ** 11
    for extent, boundary in [
        (-box.limits[0, 0], 0.5), (box.limits[0, 1], 0.5),
        (-box.limits[1, 0], 1.0), (box.limits[1, 1], 1.0),
    ]:
        assert extent <= boundary + 1e-12
        assert boundary - extent <= 2 * resolution

    # distance above eps everywhere still yields a positive extent
    extent = line_search_extent(
        BatchDistance(lambda t: 1e9), np.zeros(2), np.array([1.0, 0.0]), 1e-12,
        RegionSettings(eta_start=0.2, refinements=6, max_steps=10),
    )
    assert extent == pytest.approx(0.2 / 2 ** 6)
    assert extent > 0.0


def _check_weight_suite():
    solve = solve_problems(make_toy_model(), n1=40, seed=7)
    bundle = estimate_regions(solve, eps=0.75)
    posterior = bundle.posterior()
    result = bundle.sample(20, seed=3)

    owner = {index: k for k, index in enumerate(posterior.problem_indices)}
    for j in range(result.n_samples):
        theta = result.thetas[j]
        k = owner[int(result.problem_indices[j])]
        expected = 0.0
        if posterior.distances(theta[None, :], k)[0] <= posterior.eps:
            expected = (posterior.prior.pdf_batch(theta[None, :])[0]
                        * posterior.regions.volumes[k])
        assert result.weights[j] == pytest.approx(expected, rel=1e-12)

    points, volume = midpoint_grid(posterior.prior.bounds, 0.05)
    tighter = PosteriorApproximation(
        posterior.prior, posterior.eps / 2.0, posterior.regions,
        posterior.distances, problem_indices=posterior.problem_indices,
    )
    assert np.all(
        tighter.eval_unnorm_batch(points)
        <= posterior.eval_unnorm_batch(points)
    )
    mass = posterior.eval_posterior_batch(points, 0.05).sum() * volume
    assert mass == pytest.approx(1.0, abs=1e-6)


def _check_optimization_suite():
    center = np.array([0.4, -0.3])
    quad = np.array([[3.0, 1.0], [1.0, 2.0]])

    def objective(t):
        delta = np.asarray(t, dtype=np.float64) - center
        return float(delta @ quad @ delta)

    prior = BoxUniformPrior([[-2.0, 2.0], [-2.0, 2.0]])
    result = solve_gradient(BatchDistance(objective), prior, seed=0)
    assert np.abs(result.x_min - center).max() <= 1e-4

    point = np.array([0.7, -1.2])
    analytic = 2.0 * quad @ (point - center)
    (numeric,), _ = finite_difference_gradient(
        DistanceStack([BatchDistance(objective)]), point[None, :], [0]
    )
    assert np.abs(numeric - analytic).max() <= 1e-4 * np.abs(analytic).max()

    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert compute_eps(values, 0.5) == 3.0
    assert compute_eps(values, 1.0) == 5.0
    for quantile in [0.0, 0.25, 0.5, 0.9]:
        eps = compute_eps(values, quantile)
        assert np.sum(np.asarray(values) <= eps) >= quantile * len(values)


def _check_evaluation_suite():
    weights = np.array([2.0, 1.0, 1.0])
    assert compute_ess(np.ones(7)) == pytest.approx(7.0)
    assert compute_ess(weights) == pytest.approx(compute_ess(10.0 * weights))
    assert 1.0 <= compute_ess(weights) <= weights.size

    bounds = [[0.0, 1.0]]

    def p(points):
        return np.where(points[:, 0] < 0.5, 1.5, 0.5)

    def q(points):
        return np.ones(points.shape[0])

    forward = compute_divergence(p, q, bounds, grid_step=0.25,
                                 kind="jensen_shannon")
    backward = compute_divergence(q, p, bounds, grid_step=0.25,
                                  kind="jensen_shannon")
    assert forward == pytest.approx(backward, rel=1e-12)
    assert 0.0 <= forward <= np.log(2.0)
    assert compute_divergence(p, p, bounds, grid_step=0.25,
                              kind="kl") == pytest.approx(0.0, abs=1e-12)


def _check_determinism_suite():
    model = make_toy_model()

    def stage_bytes(out_dir, workers):
        solve = solve_problems(model, n1=25, seed=13, workers=workers)
        bundle = estimate_regions(solve, eps=0.75, workers=workers)
        result = bundle.sample(10, seed=13)
        artifacts.write_solutions(out_dir / "solutions.json", solve)
        artifacts.write_regions(out_dir / "regions.json", bundle)
        artifacts.write_samples(
            out_dir / "samples.csv", out_dir / "meta.json", result, bundle
        )
        return [
            (out_dir / name).read_bytes()
            for name in ["solutions.json", "regions.json", "samples.csv"]
        ]

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        for sub in ["a", "b", "c"]:
            (root / sub).mkdir()
        first = stage_bytes(root / "a", workers=1)
        second = stage_bytes(root / "b", workers=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("romc.parallel.os.cpu_count", lambda: 4)
            pooled = stage_bytes(root / "c", workers=2)
    assert first == second
    assert first == pooled


def test_criterion_6_property_suites():
    suites = [
        ("region", _check_region_suite),
        ("weight", _check_weight_suite),
        ("optimization", _check_optimization_suite),
        ("evaluation", _check_evaluation_suite),
        ("determinism", _check_determinism_suite),
    ]
    failures = []
    for name, check in suites:
        try:
            check()
        except Exception as exc:  # keep the verdict line complete
            failures.append(f"{name}: {exc!r}")
    ok = not failures
    verdict(
        6, ok,
        "property suites (region, weight, optimization, evaluation, "
        "determinism)" + ("" if ok else f" failed: {failures}"),
    )
    assert not failures
