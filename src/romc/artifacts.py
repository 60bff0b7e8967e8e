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
import warnings
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


def _write_csv(path, header, rows):
    """Write header and rows of plain Python values atomically; csv prints
    a float as its shortest round-trip repr and None as an empty field."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_solve_telemetry(path, solve_output):
    """Per-problem status and wall time; excluded from byte-identity."""
    # f_min and the seconds are Python floats, so csv prints their repr
    _write_csv(path, ["index", "status", "f_min", "iterations", "seconds"], [
        [r.index, "ok", r.result.f_min, r.result.iterations, r.seconds]
        if r.result is not None else [r.index, "failed", None, None, r.seconds]
        for r in solve_output.records
    ])


def write_region_telemetry(path, bundle):
    """Per-task region timing; excluded from byte-identity."""
    accepted = {entry.index for entry in bundle.entries}
    indices = sorted(set(bundle.region_seconds) | set(bundle.region_failures))
    _write_csv(path, ["index", "status", "region_seconds"], [
        [index, "ok" if index in accepted else "failed",
         bundle.region_seconds.get(index, 0.0)]
        for index in indices
    ])


def write_histogram(path, counts, edges):
    edges = np.asarray(edges, dtype=float).tolist()
    counts = np.asarray(counts, dtype=np.int64).tolist()
    _write_csv(path, ["left", "right", "count"],
               zip(edges[:-1], edges[1:], counts))


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
    records = payload["regions"]
    for record in records:
        _check_dimension("box", np.size(record["box"]["center"]), model)
    boxes = BoundingBox.stacked(*(
        np.array([record["box"][key] for record in records], dtype=np.float64)
        for key in ("rotation", "center", "limits"))) if records else []
    entries = []
    for record, box in zip(records, boxes):
        gp = None
        if "gp" in record:
            gp = _gp_from_record(record["gp"], model)
        elif payload["use_surrogate"]:
            # inference would silently run the simulator for this region
            raise ValueError(f"region {record['index']} has no GP, but "
                             "use_surrogate is on")
        if ("quadratic" in record) != payload["fit_models"]:
            # inference would silently run this region on another distance
            raise ValueError(f"region {record['index']} " + (
                "has no quadratic, but fit_models is on" if payload["fit_models"]
                else "has a quadratic, but fit_models is off"))
        quadratic = (QuadraticSurrogate.from_record(record["quadratic"])
                     if payload["fit_models"] else None)
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
    _write_csv(samples_path, _samples_header(result.dimension), [
        [p, d, *theta, w] for p, d, theta, w in zip(
            result.problem_indices.tolist(), result.draw_indices.tolist(),
            result.thetas.tolist(), result.weights.tolist())
    ])
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


def _samples_header(dim):
    return (["problem_index", "draw_index"]
            + [f"theta_{m + 1}" for m in range(dim)] + ["weight"])


def load_samples(samples_path, meta_path):
    meta = _load_json(meta_path, "samples")
    with (open(samples_path, encoding="utf-8", newline="") as fh,
          warnings.catch_warnings()):
        header = next(csv.reader([fh.readline()]), [])
        dim = len(header) - 3
        if dim < 1 or header != _samples_header(dim):
            raise ValueError(f"{samples_path}: unexpected header {header}")
        # int64 index columns reject a non-integral index, not truncate it
        dtype = [("problem_index", np.int64), ("draw_index", np.int64),
                 ("thetas", np.float64, (dim,)), ("weight", np.float64)]
        warnings.simplefilter("ignore", UserWarning)  # an empty body warns
        try:
            data = np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            # rescan for a wrong field count, skipping blank lines as the parse does
            fh.seek(0)
            for line_no, row in enumerate(csv.reader(fh), 1):
                if row and len(row) != len(header):
                    raise ValueError(
                        f"{samples_path}:{line_no}: expected {len(header)} "
                        f"fields, found {len(row)}") from None
            raise ValueError(f"{samples_path}: {exc}") from None
    if data.size == 0:
        raise ValueError(f"{samples_path}: no sample rows")
    thetas, weights = data["thetas"], data["weight"]
    for values, valid, rule in (
        (thetas, np.isfinite(thetas).all(axis=-1), "theta must be finite"),
        (weights, np.isfinite(weights) & (weights >= 0.0),
         "weight must be finite and nonnegative"),
    ):
        if not np.all(valid):
            # the first invalid row; data rows start on line 2
            row = int(np.argmin(valid))
            raise ValueError(f"{samples_path}:{row + 2}: {rule}, "
                             f"found {values[row].tolist()}")
    return InferenceResult(
        thetas, weights, data["problem_index"], data["draw_index"],
        eps=meta["eps"], seed=meta["seed"]), meta


def write_marginals(path, result, bins=40):
    """Weighted histogram of each parameter's draws: mass per bin, summing
    to 1 per parameter when any weight is positive."""
    total = result.weights.sum()
    rows = []
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
        rows += zip([f"theta_{m + 1}"] * bins, edges[:-1].tolist(),
                    edges[1:].tolist(), masses.tolist())
    _write_csv(path, ["parameter", "left", "right", "mass"], rows)


def write_posterior_grid(path, posterior, grid_step=None):
    """Unnormalized and normalized posterior values on the midpoint grid;
    returns the grid's mass."""
    points, unnorm, mass = posterior.grid(grid_step)
    _write_csv(path, [f"theta_{m + 1}" for m in range(points.shape[1])]
               + ["unnorm", "posterior"], [
        [*point, u, p] for point, u, p in zip(
            points.tolist(), unnorm.tolist(), (unnorm / mass).tolist())
    ])
    return mass


def write_metrics(path, metrics):
    _dump_json(path, {
        "schema_version": SCHEMA_VERSION,
        "kind": "metrics",
        **metrics,
    })
