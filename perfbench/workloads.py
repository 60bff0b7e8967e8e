"""The benchmark workloads and one closed-loop pass of the ROMC pipeline.

A pass drives the public romc API the way the CLI chains its stages: solve,
write and reload the solutions, build regions from them, write and reload
the regions, then sample and normalize the posterior and write and reload
the samples.  One caller waits for each stage before starting the next.
The workload seed is the pipeline's master seed and sampling seed; the
pipeline receives nothing else from the benchmark.
"""

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
import romc.benchmarks
import romc.evaluate
from romc import (
    ToyTruePosterior,
    artifacts,
    estimate_regions,
    midpoint_grid,
    solve_problems,
)
from romc.errors import DegenerateResult


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n1: int
    n2: int
    solve: dict = field(default_factory=dict)
    regions: dict = field(default_factory=dict)
    workers: int = 1

    def key(self):
        """Short hash of the configuration, for cross-run digest records."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:12]


MA2_GRADIENT = dict(model="ma2", n1=200, n2=30, solve={"restarts": 3},
                    regions={"quantile": 0.97})

WORKLOADS = {
    w.name: w for w in [
        Workload("toy-1d", "1d", n1=500, n2=50, regions={"eps": 0.75}),
        Workload("ma2-gradient", **MA2_GRADIENT),
        Workload("ma2-bo", "ma2", n1=30, n2=30,
                 solve={"use_bo": True, "budget": 64, "init_points": 10},
                 regions={"quantile": 0.97}),
        Workload("ma2-gradient-w2", **MA2_GRADIENT, workers=2),
    ]
}

ARTIFACTS = ("solutions.json", "regions.json", "samples.csv")


@dataclass
class Reference:
    """What accuracy is measured against; built outside the timed region.

    1d: the closed-form posterior.  ma2: rejection ABC with 10,000 draws
    at quantile 0.01, binned on a 0.1 grid for the divergence.
    """

    mean: np.ndarray
    density: object
    grid_step: float
    w1_digests: dict = None


@dataclass
class Pass:
    times: dict
    digests: dict
    solve_failed: int
    region_failed: int
    n_regions: int
    weights: np.ndarray
    artifact_bytes: int
    accuracy: dict
    checks: dict


def build_reference(workload, model, seed, workdir):
    bounds = model.prior.bounds
    if workload.model == "1d":
        truth = ToyTruePosterior(grid_step=0.01)
        points, volume = midpoint_grid(bounds, 0.01)
        mean = (truth.evaluate_batch(points) * volume) @ points
        reference = Reference(mean, truth, 0.01)
    else:
        rejection = romc.benchmarks.rejection_abc(
            model, n_draws=10000, quantile=0.01, seed=seed
        )
        reference = Reference(rejection.mean(),
                              rejection.grid_density(bounds, 0.1), 0.1)
    if workload.workers > 1:
        # a multi-worker pass must reproduce the workers=1 artifacts
        reference.w1_digests = run_pass(replace(workload, workers=1), model,
                                        seed, workdir, reference).digests
    return reference


def measure_accuracy(reference, model, posterior, result):
    """ESS share, JS divergence and largest mean gap against the reference."""
    mean = result.expectation(lambda t: t.copy())
    return {
        "ess_frac": romc.evaluate.compute_ess(result.weights) / result.n_samples,
        "js_nats": romc.evaluate.compute_divergence(
            posterior.eval_unnorm_batch, reference.density,
            model.prior.bounds, grid_step=reference.grid_step),
        "mean_gap": float(np.max(np.abs(mean - reference.mean))),
        "mean": [float(v) for v in np.atleast_1d(mean)],
        "reference_mean": [float(v) for v in np.atleast_1d(reference.mean)],
    }


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(workload, model, seed, workdir, reference, tracer=None):
    """One timed pass of the pipeline plus its output checks.

    With a tracer, every stage is a span and sets the stage that leaf
    counters are filed under.
    """
    times = {"artifacts_s": 0.0}

    def stage(name, key):
        return tracer.span(name, key) if tracer else nullcontext()

    class clock:
        def __init__(self, key):
            self.key = key

        def __enter__(self):
            self.start = time.perf_counter()

        def __exit__(self, *exc):
            times[self.key] = times.get(self.key, 0.0) + (
                time.perf_counter() - self.start)

    workdir.mkdir(parents=True, exist_ok=True)
    paths = {name: workdir / name for name in ARTIFACTS}
    meta = workdir / "meta.json"
    with stage("pass", None), clock("total_s"):
        with stage("pipeline.solve_problems", "solve"), clock("solve_s"):
            solve = solve_problems(model, workload.n1, seed,
                                   workers=workload.workers, **workload.solve)
        with stage("artifacts.write", "artifacts"), clock("artifacts_s"):
            artifacts.write_solutions(paths["solutions.json"], solve)
        with stage("artifacts.load", "artifacts"), clock("artifacts_s"):
            solve = artifacts.load_solutions(paths["solutions.json"])
        with stage("pipeline.estimate_regions", "regions"), clock("regions_s"):
            bundle = estimate_regions(solve, workers=workload.workers,
                                      **workload.regions)
        region_failed = len(bundle.region_failures)
        with stage("artifacts.write", "artifacts"), clock("artifacts_s"):
            artifacts.write_regions(paths["regions.json"], bundle)
        with stage("artifacts.load", "artifacts"), clock("artifacts_s"):
            bundle = artifacts.load_regions(paths["regions.json"])
        mass = None
        with stage("posterior", "posterior"), clock("posterior_s"):
            posterior = bundle.posterior()
            result = bundle.sample(workload.n2, seed)
            try:
                mass = posterior.partition_function()
            except DegenerateResult:
                pass
        with stage("artifacts.write", "artifacts"), clock("artifacts_s"):
            artifacts.write_samples(paths["samples.csv"], meta, result, bundle)
        with stage("artifacts.load", "artifacts"), clock("artifacts_s"):
            loaded, _ = artifacts.load_samples(paths["samples.csv"], meta)

    weights = result.weights
    checks = {
        "weights_finite_nonnegative": bool(
            np.all(np.isfinite(weights)) and np.all(weights >= 0.0)),
        "n_samples_is_regions_times_n2":
            result.n_samples == posterior.n_regions * workload.n2,
        "partition_mass_finite_positive":
            mass is not None and bool(np.isfinite(mass)) and mass > 0.0,
        "samples_reload_exact":
            np.array_equal(loaded.thetas, result.thetas)
            and np.array_equal(loaded.weights, weights),
    }
    digests = {name: _digest(path) for name, path in paths.items()}
    if reference.w1_digests is not None:
        checks["digests_match_workers_1"] = digests == reference.w1_digests

    accuracy = {}
    with stage("evaluate", "evaluate"):
        try:
            accuracy = measure_accuracy(reference, model, posterior, result)
        except DegenerateResult:
            checks["accuracy_defined"] = False

    solve_failed = sum(1 for r in solve.records if r.result is None)
    return Pass(
        times=times, digests=digests,
        solve_failed=solve_failed, region_failed=region_failed,
        n_regions=posterior.n_regions, weights=weights,
        artifact_bytes=sum(p.stat().st_size for p in [*paths.values(), meta]),
        accuracy=accuracy, checks=checks,
    )
