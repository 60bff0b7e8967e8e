"""Spans and counters for the traced benchmark run, recorded from outside romc.

Stage-level and per-task calls become spans: name, start, end, parent span,
all sharing one run id, kept in memory and written out when the run ends.
Leaf calls (objective, kernel and GP evaluations) happen hundreds of
thousands of times per run, so they only update aggregated counters:
calls, rows and inclusive seconds per (name, stage).

``instrument`` wraps romc's functions where they are looked up, not where
they are defined: ``romc.pipeline`` imports ``solve_gradient`` by name, so
wrapping ``romc.optimize.solve_gradient`` would never see a call.
Nothing inside ``src/romc`` is changed; the wrappers are removed on exit.
"""

import itertools
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import romc.benchmarks
import romc.evaluate
import romc.kernels
import romc.optimize
import romc.pipeline
import romc.regions
from romc.inference import PosteriorApproximation
from romc.model import DeterministicObjective
from romc.optimize import GaussianProcessSurrogate

SMALL_BATCH_MAX = 1023  # kernel calls above this row count are "bulk"


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    def to_record(self, run_id):
        return {
            "run_id": run_id, "span_id": self.span_id,
            "parent_id": self.parent_id, "name": self.name,
            "start": self.start, "end": self.end,
        }


def self_time(span, children):
    """Duration of span minus the part of it that the children cover.

    Children are clipped to the span; overlapping children count once.
    """
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return span.duration - covered


class Tracer:
    """In-memory spans plus (name, stage) -> [calls, rows, seconds] counters.

    The stage is set by the enclosing stage span, so leaf counters can be
    split by pipeline stage without a span per leaf call.
    """

    def __init__(self, run_id=None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans = []
        self.counters = {}
        self.stage = "other"
        self._stack = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name, stage=None):
        parent = self._stack[-1] if self._stack else None
        record = Span(next(self._ids), parent, name, time.perf_counter())
        previous = self.stage
        if stage is not None:
            self.stage = stage
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.stage = previous
            self.spans.append(record)

    def count(self, name, calls=1, rows=0, seconds=0.0):
        entry = self.counters.get((name, self.stage))
        if entry is None:
            entry = self.counters[(name, self.stage)] = [0, 0, 0.0]
        entry[0] += calls
        entry[1] += rows
        entry[2] += seconds

    def counter(self, name, stages=None):
        """Summed [calls, rows, seconds] of one counter over the given stages."""
        total = [0, 0, 0.0]
        for (key, stage), entry in self.counters.items():
            if key == name and (stages is None or stage in stages):
                for i in range(3):
                    total[i] += entry[i]
        return total

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def children(self, span):
        return [s for s in self.spans if s.parent_id == span.span_id]


def _counted(tracer, name, func, rows):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        out = func(*args, **kwargs)
        tracer.count(name, 1, rows(args, out), time.perf_counter() - start)
        return out
    return wrapper


def _spanned(tracer, name, func, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = func(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out
    return wrapper


def _observed(func, after):
    def wrapper(*args, **kwargs):
        out = func(*args, **kwargs)
        after(args, out)
        return out
    return wrapper


def _kernel(tracer, name, func):
    def wrapper(thetas, *args):
        start = time.perf_counter()
        out = func(thetas, *args)
        n = len(out)
        bucket = "b1" if n == 1 else "small" if n <= SMALL_BATCH_MAX else "bulk"
        tracer.count(f"{name}.{bucket}", 1, n, time.perf_counter() - start)
        return out
    return wrapper


class _CountingDistance:
    """Distance proxy that counts line-search evaluations."""

    def __init__(self, tracer, distance):
        self.tracer = tracer
        self.distance = distance

    def __call__(self, theta):
        self.tracer.count("regions.line_search.eval")
        return self.distance(theta)


def _no_rows(args, out):
    return 0


def _batch_rows(args, out):
    return len(args[1])


@contextmanager
def instrument(tracer):
    """Wrap romc's layer boundaries for the duration of the block."""

    def bfgs_iterations(args, out):
        # every descent that returns, the losing restarts included
        tracer.count("optimize.bfgs_iterations", out[3])

    def curvature(args, out):
        tracer.count(f"regions.curvature.{out[1]}")

    def run_tasks_done(args, out):
        _, failures, seconds = out
        tracer.count("parallel.task", len(seconds), 0, sum(seconds.values()))
        tracer.count("parallel.failures", len(failures))

    def line_search(distance, *args):
        start = time.perf_counter()
        out = line_search_extent(_CountingDistance(tracer, distance), *args)
        tracer.count("regions.line_search", 1, 0, time.perf_counter() - start)
        return out

    def counted(name, func, rows=_no_rows):
        return _counted(tracer, name, func, rows)

    line_search_extent = romc.regions.line_search_extent
    objective = vars(DeterministicObjective)
    gp = vars(GaussianProcessSurrogate)
    posterior = vars(PosteriorApproximation)
    pipeline = romc.pipeline
    patches = [
        (pipeline, "solve_gradient", _spanned(
            tracer, "optimize.solve_gradient", pipeline.solve_gradient)),
        (romc.optimize, "_bfgs", _observed(romc.optimize._bfgs,
                                           bfgs_iterations)),
        (pipeline, "solve_bayesian", _spanned(
            tracer, "optimize.solve_bayesian", pipeline.solve_bayesian)),
        (pipeline, "build_box", _spanned(
            tracer, "regions.build_box", pipeline.build_box)),
        (pipeline, "choose_curvature", _observed(
            pipeline.choose_curvature, curvature)),
        (pipeline, "run_tasks", _spanned(
            tracer, "parallel.run_tasks", pipeline.run_tasks, run_tasks_done)),
        (pipeline, "sample_posterior", _spanned(
            tracer, "inference.sample", pipeline.sample_posterior,
            lambda args, out: tracer.count(
                "inference.sample.rows", 1, out.n_samples))),
        (romc.optimize, "finite_difference_gradient", counted(
            "model.fd_gradient", romc.optimize.finite_difference_gradient)),
        (romc.regions, "line_search_extent", line_search),
        (romc.kernels, "ma2_distance_batch", _kernel(
            tracer, "kernels.ma2", romc.kernels.ma2_distance_batch)),
        (romc.kernels, "toy_distance_batch", counted(
            "kernels.toy", romc.kernels.toy_distance_batch)),
        (romc.benchmarks, "rejection_abc", _spanned(
            tracer, "benchmarks.rejection", romc.benchmarks.rejection_abc)),
        (romc.evaluate, "compute_divergence", counted(
            "evaluate.divergence", romc.evaluate.compute_divergence)),
        (romc.evaluate, "compute_ess", counted(
            "evaluate.ess", romc.evaluate.compute_ess)),
        # __call__ is bound to the original evaluate when the class is made,
        # so it needs its own wrapper or every BFGS call goes uncounted.
        (DeterministicObjective, "evaluate", counted(
            "model.objective.scalar", objective["evaluate"],
            lambda args, out: 1)),
        (DeterministicObjective, "__call__", counted(
            "model.objective.scalar", objective["__call__"],
            lambda args, out: 1)),
        (DeterministicObjective, "evaluate_batch", counted(
            "model.objective.batch", objective["evaluate_batch"], _batch_rows)),
        (GaussianProcessSurrogate, "__init__", counted(
            "optimize.gp_fit", gp["__init__"])),
        (GaussianProcessSurrogate, "predict_batch", counted(
            "optimize.gp_predict", gp["predict_batch"], _batch_rows)),
        (PosteriorApproximation, "eval_unnorm_batch", counted(
            "inference.eval_unnorm", posterior["eval_unnorm_batch"],
            _batch_rows)),
        (PosteriorApproximation, "partition_function", _spanned(
            tracer, "inference.partition", posterior["partition_function"])),
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
