"""End-to-end training driver.

solve_problems draws one nuisance seed per problem and minimizes every
deterministic objective; estimate_regions picks the acceptance threshold,
builds a proposal region per accepted problem and optionally fits local
quadratic models.  The resulting InferenceBundle knows how to hand out
the per-problem distance, the posterior approximation and weighted
samples.

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
    Model,
    draw_nuisance_seeds,
    make_objective,
)
from .optimize import (
    GaussianProcessSurrogate,
    OptimisationResult,
    compute_eps,
    distance_histogram,
    filter_solutions,
    solve_bayesian,
    solve_gradient,
)
from .parallel import run_tasks
from .regions import ProposalRegion, RegionSettings, build_box, choose_curvature
from .surrogate import fit_quadratic


@dataclass
class ProblemRecord:
    """Per-problem optimization outcome; result is None on failure."""

    index: int
    seed: int
    result: Optional[OptimisationResult] = None
    gp: Optional[GaussianProcessSurrogate] = None
    error: Optional[str] = None
    seconds: float = 0.0


def _solve_task(payload):
    model, seed, index, options, solver = payload
    objective = make_objective(model, seed, index)
    stream = [options["master_seed"], index, STREAM_SOLVE]
    if solver is not None:
        out = solver(objective, model.prior, stream)
    elif options["use_bo"]:
        out = solve_bayesian(
            objective,
            model.prior,
            budget=options["budget"],
            init_points=options["init_points"],
            seed=stream,
        )
    else:
        out = solve_gradient(
            objective,
            model.prior,
            restarts=options["restarts"],
            max_iters=options["max_iters"],
            seed=stream,
            step=options["gradient_step"],
        )
    if out is None:
        return None, None
    if isinstance(out, tuple):
        return out
    return out, None


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
    (result, surrogate) or None.  Failures are recorded per problem, not
    raised.
    """
    seeds = draw_nuisance_seeds(n1, seed)
    options = {
        "master_seed": int(seed),
        "use_bo": bool(use_bo),
        "restarts": int(restarts),
        "max_iters": int(max_iters),
        "budget": int(budget),
        "init_points": int(init_points),
        "gradient_step": float(gradient_step),
    }
    tasks = [
        (i, (model, seeds[i], i, options, solver)) for i in range(n1)
    ]
    results, failures, seconds = run_tasks(_solve_task, tasks, workers=workers)
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


def _region_task(payload):
    (model, seed, index, result, gp, eps, settings, region_builder) = payload
    objective = make_objective(model, seed, index)
    distance = gp if gp is not None else objective
    if region_builder is not None:
        box = region_builder(distance, result, eps, settings)
        source = "custom"
    else:
        curvature, source = choose_curvature(result, objective=objective)
        box = build_box(distance, result, eps, settings, curvature=curvature)
    return box, source


def _fit_task(payload):
    (model, seed, index, region, gp, n_train, fit_seed, surrogate_fitter) = payload
    if gp is not None:
        distance = gp
    else:
        distance = make_objective(model, seed, index)
    fitter = surrogate_fitter if surrogate_fitter is not None else fit_quadratic
    return fitter(distance, region, n_train=n_train, seed=fit_seed)


@dataclass
class RegionEntry:
    """Everything inference needs about one accepted problem."""

    index: int
    seed: int
    result: OptimisationResult
    region: ProposalRegion
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
    solve_output: Optional[SolveOutput] = None
    region_seconds: dict = field(default_factory=dict)
    fit_seconds: dict = field(default_factory=dict)

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
        if self.use_surrogate and entry.gp is not None:
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
    """Build a proposal region around every acceptable minimizer.

    The threshold is either given directly (eps) or taken as a quantile of
    the optimized distances (default quantile 0.9).  use_surrogate picks
    the distance the regions and inference run on: None follows the solve
    phase (surrogate means after Bayesian optimization), True forces the
    surrogate means, False forces the real objectives.  fit_models adds a
    quadratic fit of that distance over each region.
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
    tasks = []
    for i in accepted:
        record = by_index[i]
        gp = record.gp if use_surrogate else None
        tasks.append(
            (i, (model, record.seed, i, record.result, gp, eps, settings,
                 region_builder))
        )
    results, failures, region_seconds = run_tasks(
        _region_task, tasks, workers=workers
    )

    entries = []
    for i in accepted:
        if i in failures:
            continue
        record = by_index[i]
        box, source = results[i]
        entries.append(
            RegionEntry(
                index=i,
                seed=record.seed,
                result=record.result,
                region=ProposalRegion(box),
                gp=record.gp,
                quadratic=None,
                curvature_source=source,
            )
        )
    if not entries:
        raise DegenerateResult("every region construction failed")

    fit_seconds = {}
    if fit_models:
        fit_tasks = []
        for entry in entries:
            gp = entry.gp if use_surrogate else None
            fit_seed = [solve_output.master_seed, entry.index, STREAM_FIT]
            fit_tasks.append(
                (entry.index,
                 (model, entry.seed, entry.index, entry.region, gp, n_train,
                  fit_seed, surrogate_fitter))
            )
        fit_results, fit_failures, fit_seconds = run_tasks(
            _fit_task, fit_tasks, workers=workers
        )
        for entry in entries:
            if entry.index in fit_results:
                entry.quadratic = fit_results[entry.index]
        failures = {**failures, **fit_failures}

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
        solve_output=solve_output,
        region_seconds=region_seconds,
        fit_seconds=fit_seconds,
    )
