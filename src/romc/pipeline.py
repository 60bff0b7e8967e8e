"""End-to-end training driver.

solve_problems minimizes the deterministic objective of one nuisance seed
per problem; estimate_regions picks the acceptance threshold, builds a
bounding box per accepted problem and optionally fits local quadratic
models.  Each stage hands on one table of columns, a SolveOutput or an
InferenceBundle, and the bundle builds the posterior approximation on one
stack of the accepted problems' distances and samples it.  The row types
OptimisationResult and BoundingBox are built only for the hooks.

Both stages run through _run_in_chunks, which hands each worker one
contiguous chunk of the stage's columns: the solves, the boxes and the
built-in fits run a chunk in lockstep, the hooks one problem at a time,
and a chunk that raises runs again one problem at a time, so a failure
stays with its problem.  All task functions are module level and all
payloads picklable, and every random stream is derived from (master seed,
problem index, stage) before dispatch, so results are identical for any
worker count.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateResult
from .inference import PosteriorApproximation
from .inference import sample as sample_posterior
from .model import (
    STREAM_FIT,
    STREAM_SOLVE,
    DistanceStack,
    Model,
    draw_nuisance_seeds,
    make_objective,
)
from .optimize import (
    GaussianProcessSurrogate,
    OptimisationResult,
    check_bayesian_options,
    check_gradient_options,
    check_results,
    compute_eps,
    distance_histogram,
    filter_solutions,
    solve_bayesian,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    solve_bayesians,
    solve_gradient,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    solve_gradients,
)
from .parallel import effective_workers, run_tasks
from .regions import (
    RegionSettings,
    RegionStack,
    build_box,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    build_boxes,
    choose_curvature,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    choose_curvatures,
)
from .surrogate import fit_quadratics, training_size


@dataclass
class ProblemRecord:
    """One row of SolveOutput.records; result is None on failure."""

    index: int
    seed: int
    result: Optional[OptimisationResult] = None
    gp: Optional[GaussianProcessSurrogate] = None
    error: Optional[str] = None
    seconds: float = 0.0


def _stack_results(outputs, d):
    """A custom solver's outputs, each an OptimisationResult, a (result,
    surrogate) pair or None, as the columns solve_bayesians returns."""
    pairs = [out if isinstance(out, tuple) else (out, None) for out in outputs]
    kept = [(result, gp) for result, gp in pairs if result is not None]
    x_min, f_min, hess = (
        np.array([getattr(r, name) for r, _ in kept],
                 dtype=np.float64).reshape(len(kept), *shape)
        for name, shape in [("x_min", (d,)), ("f_min", ()), ("hess_appr", (d, d))])
    return (np.array([result is not None for result, _ in pairs], dtype=bool),
            x_min, f_min, check_results(x_min, f_min, hess),
            np.array([r.iterations for r, _ in kept], dtype=object),
            [gp for _, gp in kept])


def _solve_chunk_task(payload):
    """A chunk's solves as the columns of solve_bayesians: one lockstep
    gradient descent or Bayesian optimization over the DistanceStack of
    all of them, else the custom solver on one objective at a time."""
    (model, master_seed, options, solver), (indices, seeds) = payload
    indices, seeds = indices.tolist(), seeds.tolist()
    streams = [[master_seed, index, STREAM_SOLVE] for index in indices]
    if solver is not None:
        return _stack_results(
            [solver(make_objective(model, seed, i), model.prior, stream)
             for i, seed, stream in zip(indices, seeds, streams)],
            model.prior.dimension)
    stack = DistanceStack.of_model(model, seeds, indices)
    if options["use_bo"]:
        return solve_bayesians(stack, model.prior, streams,
                               budget=options["budget"],
                               init_points=options["init_points"])
    return (*solve_gradients(stack, model.prior, streams,
                             restarts=options["restarts"],
                             max_iters=options["max_iters"],
                             step=options["gradient_step"]), None)


def _join(parts):
    """The chunks' parts of one output column (None, lists or arrays)."""
    if isinstance(parts[0], list):
        return [row for part in parts for row in part]
    return None if parts[0] is None else np.concatenate(parts)


def _run_in_chunks(chunk_task, context, columns, workers):
    """run_tasks over one contiguous chunk of the columns' rows per worker.

    chunk_task((context, columns sliced to the chunk)) returns output
    columns whose rows do not depend on the chunking; a chunk that raises
    runs again row by row, so a failure stays with its row.  Returns the
    mask of the rows whose chunk returned, their output columns joined
    (an empty list when none did), and the failures and the seconds (a
    chunk's wall time over its size) keyed by the rows of columns[0]."""
    keys = columns[0].tolist()
    n_chunks = min(effective_workers(workers), len(keys))
    edges = [len(keys) * k // n_chunks for k in range(n_chunks + 1)]
    ends = dict(zip(edges, edges[1:]))  # each chunk's first row -> its end

    def run(chunks):
        return run_tasks(chunk_task, [
            (a, (context, tuple(None if c is None else c[a:b] for c in columns)))
            for a, b in chunks.items()], workers=workers)

    outputs, failures, seconds = run(ends)
    if retry := {j: j + 1 for a in failures for j in range(a, ends[a])}:
        more, failures, more_seconds = run(retry)
        outputs.update(more)
        seconds.update(more_seconds)
        ends.update(retry)
    done = np.zeros(len(keys), dtype=bool)
    for a in outputs:
        done[a:ends[a]] = True
    return (done, [_join(c) for c in zip(*map(outputs.get, sorted(outputs)))],
            {keys[a]: failure for a, failure in failures.items()},
            {keys[j]: s / (ends[a] - a) for a, s in seconds.items()
             for j in range(a, ends[a])})


@dataclass
class SolveOutput:
    """The solve stage's table: seeds, seconds and failed problems' errors
    over all n1, then indices, x_min, f_min, hess, iterations (None from a
    custom solver) and gps (or None) over the solved problems."""

    model: Model
    n1: int
    master_seed: int
    use_bo: bool
    options: dict
    seeds: np.ndarray
    seconds: np.ndarray
    errors: dict
    indices: np.ndarray
    x_min: np.ndarray
    f_min: np.ndarray
    hess: np.ndarray
    iterations: np.ndarray
    gps: Optional[list] = None

    @property
    def records(self):
        """One ProblemRecord per problem, built from the columns when read."""
        records = [ProblemRecord(i, seed, error=self.errors.get(i), seconds=s)
                   for i, (seed, s) in enumerate(zip(self.seeds.tolist(),
                                                     self.seconds.tolist()))]
        for k, i in enumerate(self.indices.tolist()):
            it = self.iterations[k]
            records[i].result = OptimisationResult(
                self.x_min[k], self.f_min[k], self.hess[k],
                None if it is None else int(it))
            records[i].gp = None if self.gps is None else self.gps[k]
        return records

    def compute_eps(self, quantile):
        if self.f_min.size == 0:
            raise DegenerateResult("no problem was solved; cannot pick eps")
        return compute_eps(self.f_min, quantile)

    def histogram(self, bins=20):
        if self.f_min.size == 0:
            raise DegenerateResult("no problem was solved; nothing to histogram")
        return distance_histogram(self.f_min, bins=bins)


def solve_problems(model, n1, seed, use_bo=False, restarts=1, max_iters=200,
                   budget=64, init_points=10, gradient_step=1e-5, workers=1,
                   solver=None):
    """Minimize the deterministic objective of every nuisance seed.

    solver optionally replaces the built-in optimizers; it must be a
    picklable callable (objective, prior, seed) -> OptimisationResult,
    (result, surrogate) or None, called once per problem of a worker's
    chunk (again if another problem of its chunk raised).  Both built-in
    optimizers run every problem of a worker's chunk in lockstep.
    Failures are recorded per problem, not raised; an invalid option of
    the built-in optimizer in use raises ValueError before any solve.
    """
    seeds = np.array(draw_nuisance_seeds(n1, seed))
    options = {
        "use_bo": bool(use_bo),
        "restarts": int(restarts),
        "max_iters": int(max_iters),
        "budget": int(budget),
        "init_points": int(init_points),
        "gradient_step": float(gradient_step),
    }
    if solver is None and options["use_bo"]:
        check_bayesian_options(options["budget"], options["init_points"])
    elif solver is None:
        check_gradient_options(options["restarts"], options["max_iters"])
    done, outputs, failures, seconds = _run_in_chunks(
        _solve_chunk_task, (model, int(seed), options, solver),
        (np.arange(n1), seeds), workers)
    solved, x_min, f_min, hess, iterations, gps = outputs or _stack_results(
        [], model.prior.dimension)
    rows = np.flatnonzero(done)
    errors = {i: "optimizer returned no solution" for i in rows[~solved].tolist()}
    return SolveOutput(
        model=model, n1=n1, master_seed=int(seed), use_bo=bool(use_bo),
        options=options, seeds=seeds,
        seconds=np.array([seconds[i] for i in range(n1)]),
        errors=errors | {i: failure.message for i, failure in failures.items()},
        indices=rows[solved], x_min=x_min, f_min=f_min, hess=hess,
        iterations=iterations, gps=gps)


def _region_chunk_task(payload):
    """A chunk's regions as the columns (sources, rotations, centers,
    limits, quadratics): boxes from one stacked curvature choice and walk
    over its GP means or seeds' DistanceStack, or a region_builder call
    each; under fit, the built-in fits from one draw and stack call, or a
    surrogate_fitter call each."""
    (model, master_seed, eps, settings, region_builder, fit), columns = payload
    indices, seeds, x_min, f_min, hess, iterations, gps = columns
    indices, seeds = indices.tolist(), seeds.tolist()
    n_train, fitter = fit or (None, None)
    if region_builder is not None or fitter is not None:
        # a hook takes one region's distance
        distances = gps or [make_objective(model, seed, index)
                            for seed, index in zip(seeds, indices)]
    if region_builder is None:
        # every item carries its GP when the regions run on the surrogates
        stack = (DistanceStack(gps) if gps is not None
                 else DistanceStack.of_model(model, seeds, indices))
        curvatures, sources = choose_curvatures(
            x_min, hess, lambda k: make_objective(model, seeds[k], indices[k]))
        regions = build_boxes(stack, x_min, f_min, curvatures, eps, settings)
    else:
        stack = DistanceStack(distances)
        regions = RegionStack.of([
            region_builder(distance, OptimisationResult(*row), eps, settings)
            for distance, *row in zip(distances, x_min, f_min, hess,
                                      iterations)])
        sources = ["custom"] * len(indices)
    streams = [[master_seed, index, STREAM_FIT] for index in indices]
    quadratics = None if fit is None else (
        fit_quadratics(stack, regions, n_train, streams) if fitter is None
        else [fitter(distance, regions.box(k), n_train=n_train, seed=stream)
              for k, (distance, stream) in enumerate(zip(distances, streams))])
    return (sources, regions.rotations, regions.centers, regions.limits,
            quadratics)


@dataclass
class InferenceBundle:
    """Trained state: the table of the accepted problems whose regions
    were built, each column and the RegionStack regions one row per
    region, and gps and quadratics lists or None.  Inference runs on the
    quadratics under fit_models, else the GP means under use_surrogate,
    else the real objectives."""

    model: Model
    master_seed: int
    use_bo: bool
    options: dict
    eps: float
    use_surrogate: bool
    fit_models: bool
    indices: np.ndarray
    seeds: np.ndarray
    x_min: np.ndarray
    f_min: np.ndarray
    hess: np.ndarray
    iterations: np.ndarray
    curvature_sources: list
    regions: RegionStack
    gps: Optional[list] = None
    quadratics: Optional[list] = None
    region_failures: dict = field(default_factory=dict)
    region_seconds: dict = field(default_factory=dict)
    _posterior: object = field(default=None, init=False, repr=False,
                               compare=False)

    def posterior(self):
        """The posterior approximation over the regions, built once, on
        the fitted quadratics under fit_models, else the GP means under
        use_surrogate, else one DistanceStack of the accepted seeds."""
        if self._posterior is None:
            if self.fit_models:
                distances = DistanceStack(self.quadratics)
            elif self.use_surrogate:
                distances = DistanceStack(self.gps)
            else:
                distances = DistanceStack.of_model(
                    self.model, self.seeds.tolist(), self.indices.tolist())
            self._posterior = PosteriorApproximation(
                self.model.prior, self.eps, self.regions, distances,
                self.indices.tolist())
        return self._posterior

    def sample(self, n2, seed):
        return sample_posterior(self.posterior(), n2, seed)


def estimate_regions(solve_output, eps=None, quantile=None, fraction=0.05,
                     refinements=10, max_steps=40, use_surrogate=None,
                     fit_models=False, n_train=None, workers=1,
                     region_builder=None, surrogate_fitter=None):
    """Build a bounding box around every acceptable minimizer.

    The threshold is either given directly (eps) or taken as a quantile of
    the optimized distances (default quantile 0.9).  use_surrogate picks
    the distance the regions and inference run on: None follows the solve
    phase (surrogate means after Bayesian optimization), True forces the
    surrogate means, False forces the real objectives.  fit_models adds a
    quadratic fit of that distance over each region, in the chunk task
    that builds its box; a region whose box or fit failed is left out and
    listed in region_failures.  A worker's chunk of boxes and fits is
    built in lockstep; region_builder, a picklable callable (distance,
    result, eps, settings) -> BoundingBox, and surrogate_fitter, one
    (distance, box, n_train, seed) -> quadratic, replace them and are
    called once per region of the chunk (again if another region of its
    chunk raised).
    """
    if eps is not None and quantile is not None:
        raise ValueError("give either eps or quantile, not both")
    if eps is None:
        quantile = 0.9 if quantile is None else quantile
        eps = solve_output.compute_eps(quantile)
    eps = float(eps)

    if use_surrogate is None:
        use_surrogate = solve_output.use_bo
    use_surrogate = bool(use_surrogate)
    model = solve_output.model
    accepted = filter_solutions(solve_output.f_min, eps)
    if not accepted.any():
        raise DegenerateResult(f"no solution lies within eps={eps}")
    indices = solve_output.indices[accepted]
    gps = solve_output.gps and [solve_output.gps[k]
                                for k in np.flatnonzero(accepted)]
    missing = [i for i, gp in zip(indices.tolist(), gps or [None] * len(indices))
               if gp is None]
    if use_surrogate and missing:
        raise ValueError(
            f"use_surrogate requires a fitted surrogate; missing for {missing}")

    settings = RegionSettings.from_prior(
        model.prior, fraction=fraction, refinements=refinements,
        max_steps=max_steps,
    )
    if fit_models and surrogate_fitter is None:
        # an n_train below the feature count fails here, not per region
        training_size(n_train, model.prior.dimension)
    columns = [indices, solve_output.seeds[indices]] + [
        getattr(solve_output, name)[accepted]
        for name in ("x_min", "f_min", "hess", "iterations")]
    done, outputs, failures, region_seconds = _run_in_chunks(
        _region_chunk_task,
        (model, solve_output.master_seed, eps, settings, region_builder,
         (n_train, surrogate_fitter) if fit_models else None),
        (*columns, gps if use_surrogate else None), workers)
    if not done.any():
        raise DegenerateResult("every region's box or quadratic fit failed")
    sources, rotations, centers, limits, quadratics = outputs
    indices, seeds, x_min, f_min, hess, iterations = (c[done] for c in columns)
    return InferenceBundle(
        model=model, master_seed=solve_output.master_seed,
        use_bo=solve_output.use_bo, options=dict(solve_output.options),
        eps=eps, use_surrogate=use_surrogate, fit_models=bool(fit_models),
        indices=indices, seeds=seeds, x_min=x_min, f_min=f_min, hess=hess,
        iterations=iterations, curvature_sources=sources,
        regions=RegionStack(rotations, centers, limits),
        gps=gps and [gps[k] for k in np.flatnonzero(done)],
        quadratics=quadratics,
        region_failures={key: f.message for key, f in failures.items()},
        region_seconds=region_seconds,
    )
