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
from .regions import BoundingBox
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


def _result_record(result):
    return {
        "x_min": [float(v) for v in result.x_min],
        "f_min": float(result.f_min),
        "hess_appr": result.hess_appr.tolist(),
        "iterations": None if result.iterations is None else int(result.iterations),
    }


def _check_dimension(what, size, model):
    if size != model.prior.dimension:
        raise ValueError(
            f"{what} has dimension {size} but model {model.name!r} has "
            f"{model.prior.dimension}"
        )


def _result_from_record(record, model):
    # OptimisationResult itself checks that hess_appr matches x_min
    result = OptimisationResult(
        record["x_min"],
        record["f_min"],
        record["hess_appr"],
        iterations=record.get("iterations"),
    )
    _check_dimension("x_min", result.x_min.size, model)
    return result


def _gp_from_record(record, model):
    gp = GaussianProcessSurrogate.from_record(record)
    _check_dimension("GP inputs", gp.inputs.shape[1], model)
    return gp


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
        "options": solve_output.options,
        "problems": problems,
    })


def load_solutions(path):
    payload = _load_json(path, "solutions")
    model = build_model(payload["model"])
    n1 = int(payload["n1"])
    problems = payload["problems"]
    if len(problems) != n1:
        raise ValueError(f"n1 is {n1} but {len(problems)} problems are stored")
    if [entry["index"] for entry in problems] != list(range(n1)):
        raise ValueError(f"problem indices must run 0..{n1 - 1} in order")
    records = []
    for entry in problems:
        record = ProblemRecord(index=entry["index"], seed=entry["seed"])
        if entry["status"] == "ok":
            record.result = _result_from_record(entry["result"], model)
        else:
            record.error = entry.get("error", "optimization failed")
        if "gp" in entry:
            record.gp = _gp_from_record(entry["gp"], model)
        records.append(record)
    return SolveOutput(
        model=model,
        n1=n1,
        master_seed=int(payload["seed"]),
        use_bo=bool(payload["use_bo"]),
        options=payload["options"],
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
            "box": entry.region.to_record(),
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
        "options": bundle.options,
        "eps": float(bundle.eps),
        "use_surrogate": bool(bundle.use_surrogate),
        "fit_models": bool(bundle.fit_models),
        "failures": {str(k): v for k, v in sorted(bundle.region_failures.items())},
        "regions": entries,
    })


def load_regions(path):
    payload = _load_json(path, "regions")
    model = build_model(payload["model"])
    eps = float(payload["eps"])
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, found {eps}")
    indices = [record["index"] for record in payload["regions"]]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError("region indices must be unique and increasing")
    failures = {int(k): v for k, v in payload.get("failures", {}).items()}
    if failures.keys() & set(indices):
        raise ValueError("a region index is also listed as failed")
    entries = []
    for record in payload["regions"]:
        gp = None
        if "gp" in record:
            gp = _gp_from_record(record["gp"], model)
        quadratic = None
        if "quadratic" in record:
            quadratic = QuadraticSurrogate.from_record(record["quadratic"])
        box = BoundingBox.from_record(record["box"])
        _check_dimension("box", box.dimension, model)
        entries.append(RegionEntry(
            index=record["index"],
            seed=record["seed"],
            result=_result_from_record(record["result"], model),
            region=box,
            gp=gp,
            quadratic=quadratic,
            curvature_source=record.get("curvature_source", ""),
        ))
    return InferenceBundle(
        model=model,
        master_seed=int(payload["seed"]),
        use_bo=bool(payload["use_bo"]),
        options=payload["options"],
        eps=eps,
        use_surrogate=bool(payload["use_surrogate"]),
        fit_models=bool(payload["fit_models"]),
        entries=entries,
        region_failures=failures,
    )


def write_samples(samples_path, meta_path, result, bundle):
    """Samples CSV plus metadata with result.summary(), which is returned."""
    # before either file is opened: a degenerate result leaves both untouched
    summary = result.summary()
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
        "summary": summary,
    })
    return summary


def load_samples(samples_path, meta_path):
    meta = _load_json(meta_path, "samples")
    problem_indices, draw_indices, thetas, weights = [], [], [], []
    with open(samples_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        dim = len(header) - 3
        expected = (["problem_index", "draw_index"]
                    + [f"theta_{m + 1}" for m in range(dim)] + ["weight"])
        if dim < 1 or header != expected:
            raise ValueError(f"{samples_path}: unexpected header {header}")
        for line_no, row in enumerate(reader, 2):
            if len(row) != len(header):
                raise ValueError(
                    f"{samples_path}:{line_no}: expected {len(header)} "
                    f"fields, found {len(row)}"
                )
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


def write_marginals(path, result, bins=40):
    """Weighted histogram of each parameter's draws: mass per bin, summing
    to 1 per parameter when any weight is positive."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "left", "right", "mass"])
        total = result.weights.sum()
        for m in range(result.dimension):
            values = result.thetas[:, m]
            lo, hi = float(values.min()), float(values.max())
            if lo == hi:
                pad = max(abs(lo), 1.0) * 1e-9
                lo, hi = lo - pad, hi + pad
            hist, edges = np.histogram(
                values, bins=bins, range=(lo, hi), weights=result.weights
            )
            masses = hist / total if total > 0 else hist
            for b in range(bins):
                writer.writerow([
                    f"theta_{m + 1}", repr(float(edges[b])),
                    repr(float(edges[b + 1])), repr(float(masses[b])),
                ])


def write_posterior_grid(path, posterior, grid_step=None):
    """Unnormalized and normalized posterior values on the midpoint grid;
    returns the grid's mass."""
    points, unnorm, mass = posterior.grid(grid_step)
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
