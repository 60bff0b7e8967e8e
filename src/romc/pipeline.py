"""End-to-end training driver.

solve_problems draws one nuisance seed per problem and minimizes every
deterministic objective; estimate_regions picks the acceptance threshold,
builds a bounding box per accepted problem and optionally fits local
quadratic models.  The resulting InferenceBundle knows how to hand out the
per-problem distance, the posterior approximation and weighted samples.

Both stages run through one runner, _run_in_chunks, which hands each
worker one contiguous chunk of problems: the gradient solve, Bayesian
optimization and the boxes run a chunk in lockstep; the hooks and the
region stage's quadratic fits go through it one problem at a time.  A
chunk that raises is run again one problem at a time, so a failure stays
with its problem.

All task functions are module level and all payloads picklable, so the
same code path runs sequentially or across a process pool; every random
stream is derived from (master seed, problem index, stage) before
dispatch, which makes results identical for any worker count.
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
    BoundingBox,
    RegionSettings,
    build_box,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    build_boxes,
    choose_curvature,
)
from .surrogate import fit_quadratic, training_size


@dataclass
class ProblemRecord:
    """Per-problem optimization outcome; result is None on failure."""

    index: int
    seed: int
    result: Optional[OptimisationResult] = None
    gp: Optional[GaussianProcessSurrogate] = None
    error: Optional[str] = None
    seconds: float = 0.0


def _solve_chunk_task(payload):
    """Solves of a run of problems: one lockstep gradient descent or
    Bayesian optimization over all of them, else the custom solver on one
    problem at a time."""
    (model, master_seed, options, solver), items = payload
    objectives = [make_objective(model, seed, index) for index, seed in items]
    streams = [[master_seed, index, STREAM_SOLVE] for index, _ in items]
    if solver is not None:
        outputs = [solver(objective, model.prior, stream)
                   for objective, stream in zip(objectives, streams)]
    elif options["use_bo"]:
        outputs = solve_bayesians(
            objectives, model.prior, streams, budget=options["budget"],
            init_points=options["init_points"],
        )
    else:
        outputs = solve_gradients(
            objectives, model.prior, streams, restarts=options["restarts"],
            max_iters=options["max_iters"], step=options["gradient_step"],
        )
    return [out if isinstance(out, tuple) else (out, None) for out in outputs]


def _run_in_chunks(chunk_task, context, tasks, workers):
    """run_tasks with one contiguous chunk of (key, item) tasks per worker.

    chunk_task takes (context, items), where the context is what every
    item of a stage shares and is sent once per chunk, and returns one
    value per item, each equal to the one it returns for that item alone,
    so the output does not depend on the chunking.  An item's seconds are
    its chunk's wall time divided by the chunk's size.  A chunk that
    raises is run again as one-item chunks of the same chunk_task, so the
    failure stays with the item that raised it."""
    n_chunks = min(effective_workers(workers), len(tasks))
    edges = [len(tasks) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [tasks[a:b] for a, b in zip(edges, edges[1:])]
    outputs, failed, chunk_seconds = run_tasks(
        chunk_task,
        [(k, (context, [item for _, item in chunk]))
         for k, chunk in enumerate(chunks)],
        workers=workers,
    )
    results, failures, seconds = {}, {}, {}
    retry = []
    for k, chunk in enumerate(chunks):
        if k in failed:
            retry.extend(chunk)
            continue
        for (key, _), value in zip(chunk, outputs[k]):
            results[key] = value
            seconds[key] = chunk_seconds[k] / len(chunk)
    if retry:
        values, failures, retry_seconds = run_tasks(
            chunk_task, [(key, (context, [item])) for key, item in retry],
            workers=workers,
        )
        results.update((key, value[0]) for key, value in values.items())
        seconds.update(retry_seconds)
    return results, failures, seconds


@dataclass
class SolveOutput:
    """All optimization outcomes plus the configuration that made them."""

    model: Model
    n1: int
    master_seed: int
    use_bo: bool
    options: dict
    records: list

    def solved(self):
        """(index, result) pairs for the problems that produced a minimum."""
        return [(r.index, r.result) for r in self.records if r.result is not None]

    def f_min_values(self):
        return np.array([result.f_min for _, result in self.solved()])

    def compute_eps(self, quantile):
        values = self.f_min_values()
        if values.size == 0:
            raise DegenerateResult("no problem was solved; cannot pick eps")
        return compute_eps(values, quantile)

    def histogram(self, bins=20):
        values = self.f_min_values()
        if values.size == 0:
            raise DegenerateResult("no problem was solved; nothing to histogram")
        return distance_histogram(values, bins=bins)


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
    seeds = draw_nuisance_seeds(n1, seed)
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
    results, failures, seconds = _run_in_chunks(
        _solve_chunk_task, (model, int(seed), options, solver),
        [(i, (i, seeds[i])) for i in range(n1)], workers)
    records = []
    for i in range(n1):
        record = ProblemRecord(index=i, seed=seeds[i], seconds=seconds[i])
        if i in failures:
            record.error = failures[i].message
        else:
            result, gp = results[i]
            record.result = result
            record.gp = gp
            if result is None:
                record.error = "optimizer returned no solution"
        records.append(record)
    return SolveOutput(
        model=model,
        n1=n1,
        master_seed=int(seed),
        use_bo=bool(use_bo),
        options=options,
        records=records,
    )


def _region_chunk_task(payload):
    """Regions of a run of accepted problems: the boxes from one lockstep
    walk over all of them, else from the custom region_builder one region
    at a time, then, when fit is given, each region's quadratic fit."""
    (model, master_seed, eps, settings, region_builder, fit), items = payload
    objectives, distances, results = [], [], []
    for index, seed, result, gp in items:
        objectives.append(make_objective(model, seed, index))
        distances.append(gp if gp is not None else objectives[-1])
        results.append(result)
    if region_builder is not None:
        boxes = [region_builder(distance, result, eps, settings)
                 for distance, result in zip(distances, results)]
        sources = ["custom"] * len(boxes)
    else:
        curvatures, sources = zip(*(
            choose_curvature(result, objective=objective)
            for result, objective in zip(results, objectives)))
        boxes = build_boxes(DistanceStack(distances), results, curvatures,
                            eps, settings)
    quadratics = [None] * len(boxes)
    if fit is not None:
        n_train, fitter = fit
        quadratics = [fitter(distance, box, n_train=n_train,
                             seed=[master_seed, item[0], STREAM_FIT])
                      for item, distance, box in zip(items, distances, boxes)]
    return list(zip(boxes, sources, quadratics))


@dataclass
class RegionEntry:
    """Everything inference needs about one accepted problem."""

    index: int
    seed: int
    result: OptimisationResult
    region: BoundingBox
    gp: Optional[GaussianProcessSurrogate] = None
    quadratic: Optional[object] = None
    curvature_source: str = ""


@dataclass
class InferenceBundle:
    """Trained state: accepted problems, their regions and distances.

    use_surrogate records whether inference runs on the Gaussian-process
    means (True) or the real objectives (False); quadratic fits, when
    present, take precedence over both.
    """

    model: Model
    master_seed: int
    use_bo: bool
    options: dict
    eps: float
    use_surrogate: bool
    fit_models: bool
    entries: list
    region_failures: dict = field(default_factory=dict)
    region_seconds: dict = field(default_factory=dict)

    def __post_init__(self):
        self._objectives = {}

    @property
    def accepted(self):
        return [entry.index for entry in self.entries]

    def entry(self, index):
        for candidate in self.entries:
            if candidate.index == index:
                return candidate
        raise KeyError(f"problem {index} has no region")

    def objective(self, index):
        """Deterministic objective of one accepted problem (cached)."""
        if index not in self._objectives:
            entry = self.entry(index)
            self._objectives[index] = make_objective(
                self.model, entry.seed, index
            )
        return self._objectives[index]

    def distance(self, entry):
        """Distance inference uses for one entry: its fitted quadratic, else
        its GP mean when use_surrogate is on, else the real objective."""
        if entry.quadratic is not None:
            return entry.quadratic
        if self.use_surrogate:
            return entry.gp
        return self.objective(entry.index)

    def posterior(self):
        return PosteriorApproximation(
            prior=self.model.prior,
            eps=self.eps,
            regions=[entry.region for entry in self.entries],
            distances=[self.distance(entry) for entry in self.entries],
            problem_indices=self.accepted,
        )

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
    listed in region_failures.  The boxes of a worker's chunk come from
    one lockstep walk; region_builder, a picklable callable (distance,
    result, eps, settings) -> BoundingBox, replaces that walk and is
    called once per region of the chunk (again if another region of its
    chunk raised), as surrogate_fitter is.
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
    by_index = {record.index: record for record in solve_output.records}
    accepted = filter_solutions(solve_output.solved(), eps)
    if not accepted:
        raise DegenerateResult(f"no solution lies within eps={eps}")
    if use_surrogate:
        missing = [i for i in accepted if by_index[i].gp is None]
        if missing:
            raise ValueError(
                f"use_surrogate requires a fitted surrogate; missing for {missing}"
            )

    settings = RegionSettings.from_prior(
        model.prior, fraction=fraction, refinements=refinements,
        max_steps=max_steps,
    )
    fit = None
    if fit_models:
        if surrogate_fitter is None:
            # an n_train below the feature count fails here, not per region
            training_size(n_train, model.prior.dimension)
        fit = (n_train, surrogate_fitter or fit_quadratic)
    regions, failures, region_seconds = _run_in_chunks(
        _region_chunk_task,
        (model, solve_output.master_seed, eps, settings, region_builder, fit),
        [(i, (i, by_index[i].seed, by_index[i].result,
              by_index[i].gp if use_surrogate else None)) for i in accepted],
        workers)
    entries = [
        RegionEntry(index=i, seed=by_index[i].seed, result=by_index[i].result,
                    region=box, gp=by_index[i].gp, quadratic=quadratic,
                    curvature_source=source)
        for i, (box, source, quadratic) in sorted(regions.items())
    ]
    if not entries:
        raise DegenerateResult("every region's box or quadratic fit failed")

    return InferenceBundle(
        model=model,
        master_seed=solve_output.master_seed,
        use_bo=solve_output.use_bo,
        options=dict(solve_output.options),
        eps=eps,
        use_surrogate=use_surrogate,
        fit_models=bool(fit_models),
        entries=entries,
        region_failures={key: f.message for key, f in failures.items()},
        region_seconds=region_seconds,
    )
