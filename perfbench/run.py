"""End-to-end benchmark of the ROMC pipeline, with an optional traced run.

    python3 perfbench/run.py --workload ma2-gradient --seed 21 --seconds 50 --trace 0

Run from the root of a checkout; romc is imported from its ``src``
directory.  Set-up time is measured in fresh interpreters, then the
pipeline runs in a closed loop (one caller, each stage waits for the one
before) for about ``--seconds`` seconds.  Every pass checks its outputs.
``--trace 0`` reports the end-to-end metrics (means over passes);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the full record, and the spans of a traced
run, go to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_TRACED_PASSES = 2
ACCURACY_UNITS = {"ess_frac": "ratio", "js_nats": "nats", "mean_gap": "abs"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_romc(root):
    """Import romc from the checkout's src, never from anywhere else."""
    src = root / "src"
    if not (src / "romc" / "__init__.py").is_file():
        _fail(f"no romc sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import romc

    if Path(romc.__file__).resolve().parent != (src / "romc").resolve():
        _fail(f"imported romc from {romc.__file__}, not from {src}")
    return romc


def environment(romc):
    import numpy
    import scipy

    return {
        "backend": romc.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def measure_setup(root, model_name, probes):
    """import_s and model_s of fresh interpreters, one dict per probe."""
    out = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(root), model_name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def _median(values):
    return float(statistics.median(values))


def _self_s(tracer, name):
    import tracing

    return sum(tracing.self_time(s, tracer.children(s))
               for s in tracer.named(name))


def layer_metrics(tracer, p, dimension):
    """Per-layer metrics of one traced pass: (value, unit) by name."""
    m = {}
    pipeline_stages = ("solve", "regions", "posterior", "artifacts")
    for suffix, stages in [("", pipeline_stages), (".solve", ("solve",)),
                           (".regions", ("regions",)),
                           (".posterior", ("posterior",))]:
        scalar = tracer.counter("model.objective.scalar", stages)
        batch = tracer.counter("model.objective.batch", stages)
        fd = tracer.counter("model.fd_gradient", stages)
        m["model.objective.calls" + suffix] = (scalar[0], "count")
        m["model.objective.batch_calls" + suffix] = (batch[0], "count")
        m["model.objective.rows" + suffix] = (scalar[1] + batch[1], "count")
        m["model.objective.s" + suffix] = (scalar[2] + batch[2], "s")
        m["model.fd_gradient.calls" + suffix] = (fd[0], "count")
        m["model.fd_gradient.s" + suffix] = (fd[2], "s")
    m["model.fd_gradient.probes.solve"] = (
        m["model.fd_gradient.calls.solve"][0] * 2 * dimension, "count")

    for bucket in ("b1", "small", "bulk"):
        calls, rows, secs = tracer.counter(f"kernels.ma2.{bucket}",
                                           pipeline_stages)
        m[f"kernels.ma2.{bucket}.calls"] = (calls, "count")
        m[f"kernels.ma2.{bucket}.rows"] = (rows, "count")
        m[f"kernels.ma2.{bucket}.s"] = (secs, "s")
    calls, _, secs = tracer.counter("kernels.toy", pipeline_stages)
    m["kernels.toy.calls"] = (calls, "count")
    m["kernels.toy.s"] = (secs, "s")

    for name in ("solve_gradient", "solve_bayesian"):
        spans = tracer.named(f"optimize.{name}")
        m[f"optimize.{name}.calls"] = (len(spans), "count")
        m[f"optimize.{name}.s"] = (sum(s.duration for s in spans), "s")
    m["optimize.bfgs_iterations"] = (
        tracer.counter("optimize.bfgs_iterations")[0], "count")
    calls, _, secs = tracer.counter("optimize.gp_fit", pipeline_stages)
    m["optimize.gp_fit.calls"] = (calls, "count")
    m["optimize.gp_fit.s"] = (secs, "s")
    calls, rows, secs = tracer.counter("optimize.gp_predict", pipeline_stages)
    m["optimize.gp_predict.calls"] = (calls, "count")
    m["optimize.gp_predict.rows"] = (rows, "count")
    m["optimize.gp_predict.s"] = (secs, "s")
    m["optimize.failed"] = (p.solve_failed, "count")

    boxes = tracer.named("regions.build_box")
    m["regions.build_box.calls"] = (len(boxes), "count")
    m["regions.build_box.s"] = (sum(s.duration for s in boxes), "s")
    calls, _, secs = tracer.counter("regions.line_search")
    m["regions.line_search.calls"] = (calls, "count")
    m["regions.line_search.evals"] = (
        tracer.counter("regions.line_search.eval")[0], "count")
    m["regions.line_search.s"] = (secs, "s")
    for source in ("hess_appr", "jacobian", "identity"):
        m[f"regions.curvature.{source}"] = (
            tracer.counter(f"regions.curvature.{source}")[0], "count")

    samples = tracer.named("inference.sample")
    m["inference.sample.rows"] = (
        tracer.counter("inference.sample.rows")[1], "count")
    m["inference.sample.s"] = (sum(s.duration for s in samples), "s")
    m["inference.partition.rows"] = (
        tracer.counter("inference.eval_unnorm", ("posterior",))[1], "count")
    m["inference.partition.s"] = (
        sum(s.duration for s in tracer.named("inference.partition")), "s")
    m["inference.regions"] = (p.n_regions, "count")
    m["inference.zero_weight_frac"] = (
        float((p.weights == 0.0).mean()), "ratio")

    m["evaluate.divergence.s"] = (tracer.counter("evaluate.divergence")[2], "s")
    m["evaluate.ess.s"] = (tracer.counter("evaluate.ess")[2], "s")

    runs = tracer.named("parallel.run_tasks")
    m["parallel.run_tasks.calls"] = (len(runs), "count")
    m["parallel.run_tasks.s"] = (sum(s.duration for s in runs), "s")
    m["parallel.task_s_sum"] = (tracer.counter("parallel.task")[2], "s")
    m["parallel.failures"] = (tracer.counter("parallel.failures")[0], "count")

    for kind in ("write", "load"):
        m[f"artifacts.{kind}.s"] = (
            sum(s.duration for s in tracer.named(f"artifacts.{kind}")), "s")
    m["artifacts.bytes"] = (p.artifact_bytes, "bytes")

    m["pipeline.solve_problems.self_s"] = (
        _self_s(tracer, "pipeline.solve_problems"), "s")
    m["pipeline.estimate_regions.self_s"] = (
        _self_s(tracer, "pipeline.estimate_regions"), "s")
    return m


def source_key(root):
    """Short hash of the romc sources, so only runs of the same code are
    held to each other's digests."""
    digest = hashlib.sha256()
    src = root / "src" / "romc"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:12]


def digests_match_earlier_runs(out_dir, root, workload, seed, digests):
    """The first run of a workload, config and seed of this romc source in
    this checkout records its artifact digests; every later one must
    reproduce them."""
    path = out_dir / "digests" / (
        f"{workload.name}-{workload.key()}-{source_key(root)}-{seed}.json")
    if path.exists():
        return json.loads(path.read_text()) == digests
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests, sort_keys=True))
    os.replace(tmp, path)
    return True


def run_benchmark(workload, seed, seconds, trace, root=ROOT,
                  probes=SETUP_PROBES, out_dir=None):
    """Run one benchmark invocation; returns the full result record."""
    romc = import_romc(root)
    import tracing
    import workloads

    env = environment(romc)
    setup = measure_setup(root, workload.model, probes)
    model = romc.build_model(workload.model)
    out_dir = out_dir or root / ".bench_out"
    tracer_run = tracing.Tracer()
    workdir = out_dir / "work" / tracer_run.run_id

    try:
        reference_tracer = tracing.Tracer(tracer_run.run_id)
        with (tracing.instrument(reference_tracer) if trace
              else nullcontext()), reference_tracer.span("reference", "reference"):
            reference = workloads.build_reference(workload, model, seed, workdir)

        plain, traced = [], []
        walls = []
        started = time.perf_counter()
        while True:
            traced_turn = bool(trace) and bool(plain) and (
                len(traced) < MIN_TRACED_PASSES or len(plain) > len(traced))
            tick = time.perf_counter()
            if traced_turn:
                tracer = tracing.Tracer(tracer_run.run_id)
                with tracing.instrument(tracer):
                    p = workloads.run_pass(workload, model, seed, workdir,
                                           reference, tracer)
                traced.append((tracer, p))
            else:
                plain.append(workloads.run_pass(workload, model, seed, workdir,
                                                reference))
            walls.append(time.perf_counter() - tick)
            elapsed = time.perf_counter() - started
            enough = bool(plain) and (not trace or len(traced) >= MIN_TRACED_PASSES)
            if enough and elapsed + _median(walls) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + [p for _, p in traced]
    first = passes[0]
    pass_checks = [(name, ok) for p in passes for name, ok in p.checks.items()]
    run_checks = {
        "digests_repeat_across_passes":
            all(p.digests == first.digests for p in passes),
        "accuracy_repeats_across_passes":
            all(p.accuracy == first.accuracy for p in passes),
        "digests_match_earlier_runs": digests_match_earlier_runs(
            out_dir, root, workload, seed, first.digests),
    }
    setup_s = [s["import_s"] + s["model_s"] for s in setup]
    record = {
        "workload": workload.name, "config": repr(workload), "seed": seed,
        "seconds": seconds, "trace": int(bool(trace)), "run_id": tracer_run.run_id,
        "env": env, "passes": len(passes),
        "pass_times": [p.times for p in passes],
        "setup": setup, "accuracy": first.accuracy, "digests": first.digests,
    }
    if not trace:
        metrics = {
            "setup_s": (_median(setup_s), "s"),
            # Stage times are means over passes, not medians.  The host's
            # speed flips between two levels for seconds at a time; a median
            # jumps from one level to the other as the share of slow passes
            # crosses one half, while the mean follows that share smoothly.
            **{key: (statistics.fmean([p.times[key] for p in plain]), "s")
               for key in ("total_s", "solve_s", "regions_s", "posterior_s")},
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        per_pass = [layer_metrics(t, p, model.prior.dimension) for t, p in traced]
        metrics = {}
        repeated = True
        for name, (_, unit) in per_pass[0].items():
            values = [pm[name][0] for pm in per_pass]
            if unit == "count":
                metrics[name] = (values[0], unit)
                repeated &= all(v == values[0] for v in values)
            else:
                metrics[name] = (_median(values), unit)
        run_checks["counts_repeat_across_passes"] = repeated
        for name, unit in ACCURACY_UNITS.items():
            if name in first.accuracy:
                metrics[f"evaluate.{name}"] = (first.accuracy[name], unit)
        metrics["setup.import_s"] = (_median([s["import_s"] for s in setup]), "s")
        metrics["setup.model_s"] = (_median([s["model_s"] for s in setup]), "s")
        metrics["benchmarks.rejection.s"] = (
            sum(s.duration for s in reference_tracer.named("benchmarks.rejection")),
            "s")
        untraced = _median([p.times["total_s"] for p in plain])
        traced_total = _median([p.times["total_s"] for _, p in traced])
        metrics["trace.untraced_total_s"] = (untraced, "s")
        metrics["trace.traced_total_s"] = (traced_total, "s")
        metrics["trace.overhead_s"] = (traced_total - untraced, "s")
        spans = [s.to_record(tracer_run.run_id)
                 for t in [reference_tracer] + [t for t, _ in traced]
                 for s in t.spans]
        record["spans_file"] = _write_spans(out_dir, record, spans)

    checks = dict(run_checks)
    for name, ok in pass_checks:
        checks[name] = checks.get(name, True) and ok
    outcomes = [ok for _, ok in pass_checks] + list(run_checks.values())
    attempted = len(outcomes) + sum(
        workload.n1 + p.n_regions + p.region_failed for p in passes)
    failed = outcomes.count(False) + sum(
        p.solve_failed + p.region_failed for p in passes)
    record.update(
        attempted=attempted, failed=failed, failed_frac=failed / attempted,
        checks=checks, correct=all(checks.values()),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    _write_record(out_dir, record)
    return record


def _write_spans(out_dir, record, spans):
    path = out_dir / "traces" / f"{record['workload']}-{record['seed']}-{record['run_id']}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(out_dir.parent))


def _write_record(out_dir, record):
    path = out_dir / "results" / (
        f"{record['workload']}-{record['seed']}-t{record['trace']}-{record['run_id']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    record["record_file"] = str(path.relative_to(out_dir.parent))


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    env = record["env"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"passes {record['passes']} trace {record['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>16.6g} ratio")
    accuracy = record["accuracy"] if not record["trace"] else {}
    for name, unit in ACCURACY_UNITS.items():
        if name in accuracy:
            print(f"  {name:<40} {accuracy[name]:>16.6g} {unit}")
    for name, ok in sorted(record["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"record {record['record_file']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None):
    # single-core time is the main measure; BLAS threads would also make
    # the two processes of a workers=2 run fight over the cores
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    import_romc(ROOT)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_benchmark(workloads.WORKLOADS[args.workload], args.seed,
                           args.seconds, args.trace)
    report(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
