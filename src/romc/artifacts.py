"""Readers and writers for the on-disk pipeline artifacts.

JSON artifacts embed the model recipe and every setting that shaped the
numbers, but never wall times or worker counts: rerunning a stage with a
different level of parallelism must produce byte-identical files.  Timing
lives in separate telemetry CSVs that are exempt from that guarantee.
Floats are serialized with shortest round-trip repr in both JSON and CSV.
"""

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .benchmarks import build_model
from .inference import InferenceResult
from .optimize import GaussianProcessSurrogate, OptimisationResult
from .pipeline import (
    InferenceBundle,
    ProblemRecord,
    RegionEntry,
    SolveOutput,
)
from .regions import BoundingBox, ProposalRegion
from .surrogate import QuadraticSurrogate

SCHEMA_VERSION = 1


def _model_config(model):
    if model.config is None:
        raise ValueError(
            "model has no config recipe and cannot be persisted; "
            "use a bundled benchmark or attach config to your Model"
        )
    return dict(model.config)


@contextmanager
def _atomic_open(path, newline=None):
    """Open a temporary file beside path for writing; on success it replaces
    path, on failure it is removed, so readers never see a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump_json(path, payload):
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path, expected_kind):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {payload.get('schema_version')!r} in {path}"
        )
    if payload.get("kind") != expected_kind:
        raise ValueError(
            f"expected a {expected_kind} artifact, found {payload.get('kind')!r}"
        )
    return payload


def _solver_options(options):
    public = dict(options)
    public.pop("master_seed", None)
    return public


def _result_record(result):
    return {
        "x_min": [float(v) for v in result.x_min],
        "f_min": float(result.f_min),
        "hess_appr": result.hess_appr.tolist(),
        "iterations": None if result.iterations is None else int(result.iterations),
    }


def _result_from_record(record):
    return OptimisationResult(
        record["x_min"],
        record["f_min"],
        record["hess_appr"],
        iterations=record.get("iterations"),
    )


def write_solutions(path, solve_output):
    problems = []
    for record in solve_output.records:
        entry = {
            "index": int(record.index),
            "seed": int(record.seed),
            "status": "ok" if record.result is not None else "failed",
        }
        if record.result is not None:
            entry["result"] = _result_record(record.result)
        else:
            entry["error"] = record.error or "optimization failed"
        if record.gp is not None:
            entry["gp"] = record.gp.to_record()
        problems.append(entry)
    _dump_json(path, {
        "schema_version": SCHEMA_VERSION,
        "kind": "solutions",
        "model": _model_config(solve_output.model),
        "n1": int(solve_output.n1),
        "seed": int(solve_output.master_seed),
        "use_bo": bool(solve_output.use_bo),
        "options": _solver_options(solve_output.options),
        "problems": problems,
    })


def load_solutions(path):
    payload = _load_json(path, "solutions")
    model = build_model(payload["model"])
    records = []
    for entry in payload["problems"]:
        record = ProblemRecord(index=entry["index"], seed=entry["seed"])
        if entry["status"] == "ok":
            record.result = _result_from_record(entry["result"])
        else:
            record.error = entry.get("error", "optimization failed")
        if "gp" in entry:
            record.gp = GaussianProcessSurrogate.from_record(entry["gp"])
        records.append(record)
    options = dict(payload["options"])
    options["master_seed"] = int(payload["seed"])
    return SolveOutput(
        model=model,
        n1=int(payload["n1"]),
        master_seed=int(payload["seed"]),
        use_bo=bool(payload["use_bo"]),
        options=options,
        records=records,
    )


def write_solve_telemetry(path, solve_output):
    """Per-problem status and wall time; excluded from byte-identity."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "status", "f_min", "iterations", "seconds"])
        for record in solve_output.records:
            ok = record.result is not None
            writer.writerow([
                record.index,
                "ok" if ok else "failed",
                repr(float(record.result.f_min)) if ok else "",
                record.result.iterations if ok else "",
                repr(float(record.seconds)),
            ])


def write_region_telemetry(path, bundle):
    """Per-task region timing; excluded from byte-identity."""
    accepted = {entry.index for entry in bundle.entries}
    indices = sorted(
        set(bundle.region_seconds)
        | set(bundle.fit_seconds)
        | set(bundle.region_failures)
    )
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "status", "region_seconds", "fit_seconds"])
        for index in indices:
            writer.writerow([
                index,
                "ok" if index in accepted else "failed",
                repr(float(bundle.region_seconds.get(index, 0.0))),
                repr(float(bundle.fit_seconds[index]))
                if index in bundle.fit_seconds else "",
            ])


def write_histogram(path, counts, edges):
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["left", "right", "count"])
        for b in range(len(counts)):
            writer.writerow([
                repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b]),
            ])


def write_regions(path, bundle):
    entries = []
    for entry in bundle.entries:
        record = {
            "index": int(entry.index),
            "seed": int(entry.seed),
            "curvature_source": entry.curvature_source,
            "result": _result_record(entry.result),
            "box": entry.region.box.to_record(),
        }
        if entry.gp is not None:
            record["gp"] = entry.gp.to_record()
        if entry.quadratic is not None:
            record["quadratic"] = entry.quadratic.to_record()
        entries.append(record)
    _dump_json(path, {
        "schema_version": SCHEMA_VERSION,
        "kind": "regions",
        "model": _model_config(bundle.model),
        "seed": int(bundle.master_seed),
        "use_bo": bool(bundle.use_bo),
        "options": _solver_options(bundle.options),
        "eps": float(bundle.eps),
        "use_surrogate": bool(bundle.use_surrogate),
        "fit_models": bool(bundle.fit_models),
        "failures": {str(k): v for k, v in sorted(bundle.region_failures.items())},
        "regions": entries,
    })


def load_regions(path):
    payload = _load_json(path, "regions")
    model = build_model(payload["model"])
    entries = []
    for record in payload["regions"]:
        gp = None
        if "gp" in record:
            gp = GaussianProcessSurrogate.from_record(record["gp"])
        quadratic = None
        if "quadratic" in record:
            quadratic = QuadraticSurrogate.from_record(record["quadratic"])
        entries.append(RegionEntry(
            index=record["index"],
            seed=record["seed"],
            result=_result_from_record(record["result"]),
            region=ProposalRegion(BoundingBox.from_record(record["box"])),
            gp=gp,
            quadratic=quadratic,
            curvature_source=record.get("curvature_source", ""),
        ))
    options = dict(payload["options"])
    options["master_seed"] = int(payload["seed"])
    return InferenceBundle(
        model=model,
        master_seed=int(payload["seed"]),
        use_bo=bool(payload["use_bo"]),
        options=options,
        eps=float(payload["eps"]),
        use_surrogate=bool(payload["use_surrogate"]),
        fit_models=bool(payload["fit_models"]),
        entries=entries,
        region_failures={int(k): v for k, v in payload.get("failures", {}).items()},
    )


def write_samples(samples_path, meta_path, result, bundle):
    dim = result.dimension
    with _atomic_open(samples_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["problem_index", "draw_index"]
            + [f"theta_{m + 1}" for m in range(dim)]
            + ["weight"]
        )
        for j in range(result.n_samples):
            writer.writerow(
                [int(result.problem_indices[j]), int(result.draw_indices[j])]
                + [repr(float(v)) for v in result.thetas[j]]
                + [repr(float(result.weights[j]))]
            )
    _dump_json(meta_path, {
        "schema_version": SCHEMA_VERSION,
        "kind": "samples",
        "model": _model_config(bundle.model),
        "regions_seed": int(bundle.master_seed),
        "seed": int(result.seed),
        "n2": int(np.max(result.draw_indices)) + 1 if result.n_samples else 0,
        "eps": float(result.eps),
        "use_bo": bool(bundle.use_bo),
        "use_surrogate": bool(bundle.use_surrogate),
        "summary": result.summary(),
    })


def load_samples(samples_path, meta_path):
    meta = _load_json(meta_path, "samples")
    problem_indices, draw_indices, thetas, weights = [], [], [], []
    with open(samples_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 3
        for row in reader:
            problem_indices.append(int(row[0]))
            draw_indices.append(int(row[1]))
            thetas.append([float(v) for v in row[2:2 + dim]])
            weights.append(float(row[2 + dim]))
    result = InferenceResult(
        np.asarray(thetas), np.asarray(weights),
        np.asarray(problem_indices), np.asarray(draw_indices),
        eps=meta["eps"], seed=meta["seed"],
    )
    return result, meta


def write_posterior_grid(path, posterior, grid_step=None):
    """Unnormalized and normalized posterior values on the midpoint grid."""
    from .errors import DegenerateResult
    from .inference import midpoint_grid

    points, volume = midpoint_grid(posterior.prior.bounds, grid_step)
    unnorm = posterior.eval_unnorm_batch(points)
    mass = float(np.sum(unnorm) * volume)
    if not np.isfinite(mass) or mass <= 0.0:
        raise DegenerateResult("posterior mass is zero on the requested grid")
    dim = points.shape[1]
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"theta_{m + 1}" for m in range(dim)] + ["unnorm", "posterior"]
        )
        for j in range(points.shape[0]):
            writer.writerow(
                [repr(float(v)) for v in points[j]]
                + [repr(float(unnorm[j])), repr(float(unnorm[j] / mass))]
            )
    return mass


def write_metrics(path, metrics):
    _dump_json(path, {
        "schema_version": SCHEMA_VERSION,
        "kind": "metrics",
        **metrics,
    })
