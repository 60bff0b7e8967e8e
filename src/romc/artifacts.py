"""Readers and writers for the on-disk pipeline artifacts.

JSON artifacts embed the model recipe and every setting that shaped the
numbers, but never wall times or worker counts: rerunning a stage with a
different level of parallelism must produce byte-identical files.  Timing
lives in separate telemetry CSVs that are exempt from that guarantee.
Floats are serialized with shortest round-trip repr in both JSON and CSV.
The solutions and regions artifacts hold the columns of a SolveOutput or
an InferenceBundle; a loader validates each table once.
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
from .optimize import GaussianProcessSurrogate, check_results
from .pipeline import InferenceBundle, SolveOutput
from .regions import RegionStack
from .surrogate import QuadraticSurrogate

SCHEMA_VERSION = 1
CURVATURE_SOURCES = ("hess_appr", "jacobian", "identity", "custom")


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


def _row_records(table):
    """The result record, with its GP's if any, of each row by index."""
    return {i: {"result": {"x_min": x, "f_min": f, "hess_appr": h,
                           "iterations": None if it is None else int(it)},
                **({} if gp is None else {"gp": gp.to_record()})}
            for i, x, f, h, it, gp in zip(
                table.indices.tolist(), table.x_min.tolist(),
                table.f_min.tolist(), table.hess.tolist(), table.iterations,
                table.gps or [None] * len(table.indices))}


def _check_dimension(what, size, model):
    if size != model.prior.dimension:
        raise ValueError(
            f"{what} has dimension {size} but model {model.name!r} has "
            f"{model.prior.dimension}"
        )


def _checked(what, values, valid, rule):
    """values, when valid(value) holds for each; else ValueError."""
    for value in values:
        if not valid(value):
            raise ValueError(f"{what} must be {rule}, found {value!r}")
    return values


def _naturals(what, values):
    """values, each a JSON integer in [0, 2**63), as an int64 array."""
    return np.array(_checked(what, values, lambda v: type(v) is int
                             and 0 <= v < 2**63, "a nonnegative integer"),
                    dtype=np.int64)


def _flag(payload, key):
    return _checked(key, [payload[key]], lambda v: isinstance(v, bool),
                    "true or false")[0]


def _column(what, rows, shape, model):
    """rows as one (k, *shape) float array, shape[0] being the model's
    dimension; a row of another shape raises ValueError."""
    try:
        array = np.array(rows or np.empty((0, *shape)), dtype=np.float64)
    except ValueError:  # rows of several shapes
        array = np.empty(0)
    if array.shape[1:] != shape:
        for row in rows:
            _check_dimension(what, np.shape(row)[0] if np.ndim(row) else 0,
                             model)
        raise ValueError(f"{what} must have shape {shape} in every row")
    return array


def _results_from_records(records, model):
    """The x_min, f_min, hess, iterations and gps columns of records with
    a result and maybe a GP; the results are checked by check_results."""
    d = model.prior.dimension
    results = [record["result"] for record in records]
    x_min = _column("x_min", [r["x_min"] for r in results], (d,), model)
    hess = _column("hess_appr", [r["hess_appr"] for r in results], (d, d),
                   model)
    f_min = np.array([r["f_min"] for r in results], dtype=np.float64)
    iterations = [r.get("iterations") for r in results]
    _naturals("iterations", [it for it in iterations if it is not None])
    gps = [GaussianProcessSurrogate.from_record(record["gp"])
           if "gp" in record else None for record in records]
    for gp in filter(None, gps):
        _check_dimension("GP inputs", gp.inputs.shape[1], model)
    return (x_min, f_min, check_results(x_min, f_min, hess),
            np.array(iterations, dtype=object), gps if any(gps) else None)


def write_solutions(path, solve_output):
    out, rows = solve_output, _row_records(solve_output)
    _dump_json(path, {
        "schema_version": SCHEMA_VERSION,
        "kind": "solutions",
        "model": _model_config(out.model),
        "n1": int(out.n1),
        "seed": int(out.master_seed),
        "use_bo": bool(out.use_bo),
        "options": out.options,
        "problems": [
            {"index": i, "seed": seed, "status": "ok", **rows[i]} if i in rows
            else {"index": i, "seed": seed, "status": "failed",
                  "error": out.errors.get(i) or "optimization failed"}
            for i, seed in enumerate(out.seeds.tolist())],
    })


def load_solutions(path):
    payload = _load_json(path, "solutions")
    model = build_model(payload["model"])
    n1 = int(payload["n1"])
    problems = payload["problems"]
    if len(problems) != n1:
        raise ValueError(f"n1 is {n1} but {len(problems)} problems are stored")
    indices = _naturals("problem index", [entry["index"] for entry in problems])
    if indices.tolist() != list(range(n1)):
        raise ValueError(f"problem indices must run 0..{n1 - 1} in order")
    solved = [status == "ok" for status in _checked(
        "status", [entry["status"] for entry in problems],
        ("ok", "failed").__contains__, "'ok' or 'failed'")]
    x_min, f_min, hess, iterations, gps = _results_from_records(
        [entry for entry, ok in zip(problems, solved) if ok], model)
    return SolveOutput(
        model=model, n1=n1, master_seed=int(payload["seed"]),
        use_bo=_flag(payload, "use_bo"), options=payload["options"],
        seeds=_naturals("seed", [entry["seed"] for entry in problems]),
        seconds=np.zeros(n1),
        errors={entry["index"]: entry.get("error", "optimization failed")
                for entry, ok in zip(problems, solved) if not ok},
        indices=indices[solved], x_min=x_min, f_min=f_min, hess=hess,
        iterations=iterations, gps=gps,
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
    out = solve_output
    rows = dict(zip(out.indices.tolist(), zip(out.f_min.tolist(), out.iterations)))
    # f_min and the seconds are Python floats, so csv prints their repr
    _write_csv(path, ["index", "status", "f_min", "iterations", "seconds"], [
        [i, "ok", *rows[i], s] if i in rows else [i, "failed", None, None, s]
        for i, s in enumerate(out.seconds.tolist())
    ])


def write_region_telemetry(path, bundle):
    """Per-task region timing; excluded from byte-identity."""
    accepted = set(bundle.indices.tolist())
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
    rows, regions = _row_records(bundle), bundle.regions
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
        "regions": [
            {"index": i, "seed": seed, "curvature_source": source, **rows[i],
             "box": {"center": center, "rotation": rotation, "limits": limits},
             **({} if q is None else {"quadratic": q.to_record()})}
            for i, seed, source, center, rotation, limits, q in zip(
                bundle.indices.tolist(), bundle.seeds.tolist(),
                bundle.curvature_sources, regions.centers.tolist(),
                regions.rotations.tolist(), regions.limits.tolist(),
                bundle.quadratics or [None] * len(bundle.indices))],
    })


def load_regions(path):
    payload = _load_json(path, "regions")
    model = build_model(payload["model"])
    eps = float(payload["eps"])
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, found {eps}")
    use_surrogate = _flag(payload, "use_surrogate")
    fit_models = _flag(payload, "fit_models")
    records = payload["regions"]
    indices = _naturals("region index", [record["index"] for record in records])
    if np.any(indices[1:] <= indices[:-1]):
        raise ValueError("region indices must be unique and increasing")
    failures = {int(k): v for k, v in payload.get("failures", {}).items()}
    if failures.keys() & set(indices.tolist()):
        raise ValueError("a region index is also listed as failed")
    for record in records:
        # inference would silently run this region on another distance
        if use_surrogate and "gp" not in record:
            raise ValueError(f"region {record['index']} has no GP, but "
                             "use_surrogate is on")
        if ("quadratic" in record) != fit_models:
            raise ValueError(f"region {record['index']} " + (
                "has no quadratic, but fit_models is on" if fit_models
                else "has a quadratic, but fit_models is off"))
    x_min, f_min, hess, iterations, gps = _results_from_records(records, model)
    for index, value in zip(indices.tolist(), f_min.tolist()):
        if value > eps:
            raise ValueError(f"region {index} has f_min {value} above eps {eps}")
    d = model.prior.dimension
    return InferenceBundle(
        model=model, master_seed=int(payload["seed"]),
        use_bo=_flag(payload, "use_bo"), options=payload["options"], eps=eps,
        use_surrogate=use_surrogate, fit_models=fit_models, indices=indices,
        seeds=_naturals("seed", [record["seed"] for record in records]),
        x_min=x_min, f_min=f_min, hess=hess, iterations=iterations,
        curvature_sources=_checked(
            "curvature_source", [record["curvature_source"] for record in records],
            CURVATURE_SOURCES.__contains__, f"one of {CURVATURE_SOURCES}"),
        regions=RegionStack(*(
            _column("box", [record["box"][key] for record in records], shape,
                    model)
            for key, shape in [("rotation", (d, d)), ("center", (d,)),
                               ("limits", (d, 2))])),
        gps=gps, region_failures=failures,
        quadratics=([QuadraticSurrogate.from_record(record["quadratic"])
                     for record in records] if fit_models else None),
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
