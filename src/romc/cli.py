"""Command-line pipeline: solve, regions, sample, posterior, evaluate.

Stages communicate through files in an output directory, so each can be
rerun or swapped independently:

    romc solve --model ma2 --n1 500 --seed 21 --out run
    romc regions --quantile 0.9 --out run
    romc sample --n2 50 --seed 21 --out run
    romc posterior --at 0.5,0.1 --out run
    romc evaluate --reference rejection --out run

Options may also come from a config file of `key = value` lines
(--config); explicit flags win over the file, the file wins over
defaults, and keys that a subcommand does not use are ignored so one file
can drive the whole pipeline.

Exit codes: 0 success, 1 usage or input errors, 2 numerical failures.
"""

import argparse
import csv
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts
from .benchmarks import ToyTruePosterior, build_model, rejection_abc
from .errors import DegenerateResult, NumericalFailure, UnsupportedDimension
from .evaluate import compute_divergence, compute_ess
from .pipeline import estimate_regions, solve_problems


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


DEFAULTS = {
    "solve": {
        "model": "1d", "model_args": None, "n1": 100, "seed": 0,
        "use_bo": False, "budget": 64, "init_points": 10, "restarts": 1,
        "max_iters": 200, "workers": 1, "out": "romc_out",
    },
    "regions": {
        "solutions": None, "eps": None, "quantile": None, "fraction": 0.05,
        "refinements": 10, "max_steps": 40, "use_surrogate": "auto",
        "fit_models": False, "n_train": None, "workers": 1, "out": "romc_out",
    },
    "sample": {
        "regions": None, "n2": 200, "seed": 0, "out": "romc_out",
    },
    "posterior": {
        "regions": None, "grid_step": None, "at": None, "out": "romc_out",
    },
    "evaluate": {
        "samples": None, "meta": None, "regions": None,
        "kind": "jensen_shannon", "reference": None, "grid_step": None,
        "rejection_draws": 10000, "rejection_quantile": 0.01, "seed": 0,
        "out": "romc_out",
    },
}


def _read_config(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected `key = value`")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            try:
                values[key] = json.loads(value)
            except json.JSONDecodeError:
                values[key] = value
    return values


def _resolve_options(command, namespace):
    """Merge defaults, config file values and explicit flags, in that order."""
    options = dict(DEFAULTS[command])
    supplied = {
        key: value for key, value in vars(namespace).items()
        if key not in ("command", "func", "config", "verbose")
    }
    config_path = getattr(namespace, "config", None)
    if config_path:
        for key, value in _read_config(config_path).items():
            if key in options:
                options[key] = value
    options.update(supplied)
    return options


def _add_common(parser):
    parser.add_argument("--config", help="key = value file with option defaults")
    parser.add_argument("--out", default=argparse.SUPPRESS, metavar="DIR",
                        help="artifact directory (default romc_out)")
    parser.add_argument("--verbose", action="store_true", default=False,
                        help="debug logging")


def build_parser():
    parser = _Parser(prog="romc", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)

    sp = subparsers.add_parser("solve", help="optimize one objective per seed")
    _add_common(sp)
    sp.add_argument("--model", choices=["1d", "ma2"], default=argparse.SUPPRESS)
    sp.add_argument("--model-args", dest="model_args", default=argparse.SUPPRESS,
                    help="JSON dict of model factory arguments")
    sp.add_argument("--n1", type=int, default=argparse.SUPPRESS,
                    help="number of nuisance seeds / problems")
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--use-bo", dest="use_bo", action="store_true",
                    default=argparse.SUPPRESS,
                    help="Bayesian optimization instead of gradients")
    sp.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                    help="objective evaluations per problem with --use-bo")
    sp.add_argument("--init-points", dest="init_points", type=int,
                    default=argparse.SUPPRESS)
    sp.add_argument("--restarts", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--max-iters", dest="max_iters", type=int,
                    default=argparse.SUPPRESS)
    sp.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                    help="worker processes; 0 means all cores")
    sp.set_defaults(func=cmd_solve)

    sp = subparsers.add_parser("regions", help="build proposal regions")
    _add_common(sp)
    sp.add_argument("--solutions", default=argparse.SUPPRESS,
                    help="solutions artifact (default OUT/solutions.json)")
    sp.add_argument("--eps", type=float, default=argparse.SUPPRESS,
                    help="acceptance threshold")
    sp.add_argument("--quantile", type=float, default=argparse.SUPPRESS,
                    help="pick eps at this quantile of optimized distances")
    sp.add_argument("--fraction", type=float, default=argparse.SUPPRESS,
                    help="initial line-search step as a fraction of the mean prior range")
    sp.add_argument("--refinements", type=int, default=argparse.SUPPRESS)
    sp.add_argument("--max-steps", dest="max_steps", type=int,
                    default=argparse.SUPPRESS)
    sp.add_argument("--use-surrogate", dest="use_surrogate",
                    choices=["auto", "yes", "no"], default=argparse.SUPPRESS,
                    help="run regions and inference on surrogate means")
    sp.add_argument("--fit-models", dest="fit_models", action="store_true",
                    default=argparse.SUPPRESS,
                    help="fit a local quadratic per region")
    sp.add_argument("--n-train", dest="n_train", type=int,
                    default=argparse.SUPPRESS,
                    help="training points per quadratic fit")
    sp.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_regions)

    sp = subparsers.add_parser("sample", help="draw weighted posterior samples")
    _add_common(sp)
    sp.add_argument("--regions", default=argparse.SUPPRESS,
                    help="regions artifact (default OUT/regions.json)")
    sp.add_argument("--n2", type=int, default=argparse.SUPPRESS,
                    help="draws per region")
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_sample)

    sp = subparsers.add_parser("posterior", help="evaluate the posterior on a grid")
    _add_common(sp)
    sp.add_argument("--regions", default=argparse.SUPPRESS)
    sp.add_argument("--grid-step", dest="grid_step", type=float,
                    default=argparse.SUPPRESS)
    sp.add_argument("--at", default=argparse.SUPPRESS,
                    help="comma-separated point to evaluate, e.g. 0.5,0.1")
    sp.set_defaults(func=cmd_posterior)

    sp = subparsers.add_parser("evaluate", help="sample quality metrics")
    _add_common(sp)
    sp.add_argument("--samples", default=argparse.SUPPRESS,
                    help="samples CSV (default OUT/samples.csv)")
    sp.add_argument("--meta", default=argparse.SUPPRESS,
                    help="samples metadata (default OUT/samples_meta.json)")
    sp.add_argument("--regions", default=argparse.SUPPRESS,
                    help="regions artifact for density comparisons")
    sp.add_argument("--kind", choices=["jensen_shannon", "kl"],
                    default=argparse.SUPPRESS)
    sp.add_argument("--reference", choices=["true-1d", "rejection"],
                    default=argparse.SUPPRESS,
                    help="reference density for the divergence")
    sp.add_argument("--grid-step", dest="grid_step", type=float,
                    default=argparse.SUPPRESS)
    sp.add_argument("--rejection-draws", dest="rejection_draws", type=int,
                    default=argparse.SUPPRESS)
    sp.add_argument("--rejection-quantile", dest="rejection_quantile",
                    type=float, default=argparse.SUPPRESS)
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="seed for the rejection reference")
    sp.set_defaults(func=cmd_evaluate)

    return parser


def _out_dir(options):
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _artifact_path(options, key, default_name):
    if options.get(key):
        return Path(options[key])
    return Path(options["out"]) / default_name


def _build_model(options):
    config = {"name": options["model"]}
    raw_args = options.get("model_args")
    if raw_args:
        extra = json.loads(raw_args) if isinstance(raw_args, str) else raw_args
        if not isinstance(extra, dict):
            raise ValueError("model_args must be a JSON object")
        config.update(extra)
    return build_model(config)


def cmd_solve(options):
    out = _out_dir(options)
    model = _build_model(options)
    started = time.perf_counter()
    solve_output = solve_problems(
        model,
        n1=options["n1"],
        seed=options["seed"],
        use_bo=options["use_bo"],
        restarts=options["restarts"],
        max_iters=options["max_iters"],
        budget=options["budget"],
        init_points=options["init_points"],
        workers=options["workers"],
    )
    elapsed = time.perf_counter() - started
    artifacts.write_solutions(out / "solutions.json", solve_output)
    artifacts.write_solve_telemetry(out / "solve_telemetry.csv", solve_output)
    solved = solve_output.solved()
    if solved:
        counts, edges = solve_output.histogram()
        artifacts.write_histogram(out / "distance_hist.csv", counts, edges)
    n_failed = solve_output.n1 - len(solved)
    print(f"solved {len(solved)}/{solve_output.n1} problems in {elapsed:.2f}s")
    if n_failed:
        print(f"{n_failed} problems failed; see solve_telemetry.csv")
    if solved:
        values = solve_output.f_min_values()
        print(
            f"optimized distances: min {values.min():.6f} "
            f"median {np.median(values):.6f} max {values.max():.6f}"
        )
    print(f"wrote {out / 'solutions.json'}")
    return 0


def cmd_regions(options):
    out = _out_dir(options)
    solve_output = artifacts.load_solutions(
        _artifact_path(options, "solutions", "solutions.json")
    )
    use_surrogate = {"auto": None, "yes": True, "no": False}[options["use_surrogate"]]
    bundle = estimate_regions(
        solve_output,
        eps=options["eps"],
        quantile=options["quantile"],
        fraction=options["fraction"],
        refinements=options["refinements"],
        max_steps=options["max_steps"],
        use_surrogate=use_surrogate,
        fit_models=options["fit_models"],
        n_train=options["n_train"],
        workers=options["workers"],
    )
    artifacts.write_regions(out / "regions.json", bundle)
    artifacts.write_region_telemetry(out / "region_telemetry.csv", bundle)
    volumes = np.array([entry.region.box.volume for entry in bundle.entries])
    print(
        f"eps {bundle.eps:.6f}: accepted {len(bundle.entries)}/"
        f"{len(solve_output.solved())} solved problems"
    )
    print(
        f"region volumes: min {volumes.min():.3e} "
        f"median {np.median(volumes):.3e} max {volumes.max():.3e}"
    )
    if bundle.region_failures:
        print(f"{len(bundle.region_failures)} regions failed")
    print(f"wrote {out / 'regions.json'}")
    return 0


def _write_marginals(path, result, bins=40):
    with artifacts._atomic_open(path, newline="") as fh:
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


def cmd_sample(options):
    out = _out_dir(options)
    bundle = artifacts.load_regions(_artifact_path(options, "regions", "regions.json"))
    result = bundle.sample(options["n2"], options["seed"])
    summary = artifacts.write_samples(
        out / "samples.csv", out / "samples_meta.json", result, bundle
    )
    _write_marginals(out / "samples_marginals.csv", result)
    print(
        f"{summary['n_samples']} draws from {summary['n_regions']} regions; "
        f"ess {summary['ess']:.1f} "
        f"({summary['ess'] / summary['n_samples']:.1%} of draws)"
    )
    for m, stats in enumerate(summary["parameters"]):
        print(
            f"theta_{m + 1}: mean {stats['mean']:.4f} sd {stats['sd']:.4f} "
            f"95% [{stats['q025']:.4f}, {stats['q975']:.4f}]"
        )
    print(f"wrote {out / 'samples.csv'}")
    return 0


def cmd_posterior(options):
    out = _out_dir(options)
    bundle = artifacts.load_regions(_artifact_path(options, "regions", "regions.json"))
    theta = None
    if options["at"] is not None:
        theta = np.array([float(v) for v in str(options["at"]).split(",")])
        if theta.size != bundle.model.prior.dimension:
            raise ValueError(
                f"--at has {theta.size} components but model "
                f"{bundle.model.name!r} has {bundle.model.prior.dimension}"
            )
    posterior = bundle.posterior()
    mass = artifacts.write_posterior_grid(
        out / "posterior_grid.csv", posterior, options["grid_step"]
    )
    print(f"partition mass {mass:.6f} over {bundle.model.name} prior bounds")
    if theta is not None:
        unnorm = posterior.eval_unnorm(theta)
        print(f"unnormalized posterior at {theta.tolist()}: {unnorm:.6f}")
        print(f"posterior at {theta.tolist()}: {unnorm / mass:.6f}")
    print(f"wrote {out / 'posterior_grid.csv'}")
    return 0


def cmd_evaluate(options):
    out = _out_dir(options)
    result, meta = artifacts.load_samples(
        _artifact_path(options, "samples", "samples.csv"),
        _artifact_path(options, "meta", "samples_meta.json"),
    )
    metrics = {
        "n_samples": int(result.n_samples),
        "ess": compute_ess(result.weights),
    }
    metrics["ess_fraction"] = metrics["ess"] / metrics["n_samples"]
    print(f"ess = {metrics['ess']:.3f} of {metrics['n_samples']} draws")

    if options["reference"] is not None:
        bundle = artifacts.load_regions(
            _artifact_path(options, "regions", "regions.json")
        )
        posterior = bundle.posterior()
        bounds = bundle.model.prior.bounds
        if options["reference"] == "true-1d":
            if bundle.model.name != "1d":
                raise ValueError("reference true-1d only applies to the 1d model")
            reference = ToyTruePosterior()
        else:
            reference = rejection_abc(
                bundle.model,
                n_draws=options["rejection_draws"],
                quantile=options["rejection_quantile"],
                seed=options["seed"],
            ).grid_density(bounds, options["grid_step"])
        value = compute_divergence(
            posterior.eval_unnorm_batch, reference, bounds,
            grid_step=options["grid_step"], kind=options["kind"],
        )
        metrics[options["kind"]] = value
        metrics["reference"] = options["reference"]
        print(f"{options['kind']} = {value:.6f} nats vs {options['reference']}")

    artifacts.write_metrics(out / "metrics.json", metrics)
    print(f"wrote {out / 'metrics.json'}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(namespace, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if namespace.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        options = _resolve_options(namespace.command, namespace)
        return namespace.func(options)
    except (NumericalFailure, DegenerateResult, UnsupportedDimension) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
