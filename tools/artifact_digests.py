"""Print the sha256 of every artifact of a fixed set of CLI runs.

    PYTHONPATH=src python tools/artifact_digests.py > digests.txt

Each run goes through the romc command in-process (solve, regions,
sample, and for the golden configs posterior and evaluate) in a
temporary directory, and every file it writes is listed as one
`config file sha256` line, except the telemetry CSVs, which hold wall
times.  The posterior step's printout, its `wrote` line left out, is
listed as `config posterior-stdout sha256`.  A step that exits nonzero
is listed as `config step exit CODE` and ends its run.  The
script digests whichever romc is importable, so running it once with
PYTHONPATH pointing at another checkout's src and diffing the two
outputs checks that a change keeps every artifact byte-identical.

Models without a batch distance factory cannot be written as artifacts,
and the CLI takes no hooks, so both paths are digested in process: for
kernel-less copies of the bundled models, and for runs whose solver,
region builder and surrogate fitter hooks delegate to the built-in ones,
`config stage sha256` lines cover the solve's x_min and f_min, the
region box limits and the sample weights.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as the determinism guarantees assume
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from romc import Model, build_model, estimate_regions, solve_problems  # noqa: E402
from romc.cli import main as romc  # noqa: E402 - after the BLAS setting
from romc.optimize import solve_gradient  # noqa: E402
from romc.regions import build_box  # noqa: E402
from romc.surrogate import fit_quadratic  # noqa: E402

TRUE_1D = ["--reference", "true-1d"]
REJECTION = ["--reference", "rejection", "--rejection-draws", "2000"]

# name: (solve flags, regions flags, n2, posterior point, evaluate flags);
# evaluate also gets the run's --seed, which seeds the rejection reference
GOLDEN = {
    "1d-n200-s7": (["--model", "1d", "--n1", "200", "--seed", "7"],
                   ["--eps", "0.75"], 20, "0.25", TRUE_1D),
    "1d-n100-s9-fit": (["--model", "1d", "--n1", "100", "--seed", "9"],
                       ["--eps", "0.75", "--fit-models"], 20, "0.25", TRUE_1D),
    "ma2-n60-s21": (["--model", "ma2", "--n1", "60", "--seed", "21",
                     "--restarts", "3"], ["--eps", "0.05"], 20, "0.5,0.1",
                    REJECTION),
    "ma2-bo-n12-s21": (["--model", "ma2", "--n1", "12", "--seed", "21",
                        "--use-bo"], ["--quantile", "0.97"], 20, "0.5,0.1",
                       REJECTION),
    # the benchmark's BO config, whose posterior step prints the mass of
    # the GP means on the default normalization grid
    "ma2-bo-n30-s21": (["--model", "ma2", "--n1", "30", "--seed", "21",
                        "--use-bo"], ["--quantile", "0.97"], 30, "0.5,0.1",
                       REJECTION),
}

# name: (solve flags, regions flags, n2, seeds); each runs at its seeds
# with 1 and 2 workers
SWEEP = {
    "ma2-gradient-n200": (["--model", "ma2", "--n1", "200", "--restarts", "3"],
                          ["--quantile", "0.97"], 30, ("21", "43")),
    "ma2-gradient-n200-fit": (["--model", "ma2", "--n1", "200",
                               "--restarts", "3"],
                              ["--quantile", "0.97", "--fit-models"], 30,
                              ("21", "43")),
    "ma2-bo-n30": (["--model", "ma2", "--n1", "30", "--use-bo"],
                   ["--quantile", "0.97"], 30, ("21", "43")),
    "ma2-bo-n12-fit": (["--model", "ma2", "--n1", "12", "--use-bo"],
                       ["--quantile", "0.97", "--fit-models"], 30,
                       ("21", "43")),
    "1d-n500-fit": (["--model", "1d", "--n1", "500"],
                    ["--eps", "0.75", "--fit-models"], 50, ("21", "43")),
    # the BO config of acceptance criteria 4 and 5, whose regions take the
    # one Jacobian curvature fallback
    "ma2-bo-n60": (["--model", "ma2", "--n1", "60", "--use-bo"],
                   ["--quantile", "0.97"], 30, ("21",)),
}

# name: (bundled model, solve keywords, regions keywords, n2, seed); the
# model runs without its batch distance factory
KERNEL_LESS = {
    "1d-kernel-less-n20": ("1d", {}, {"eps": 0.75}, 20, 7),
    "ma2-kernel-less-n20": ("ma2", {"restarts": 3}, {"quantile": 0.97}, 20, 21),
}

# name: (bundled model, n1, regions keywords, n2, seed); each runs at 1 and
# 2 workers with the hooks below and fit_models on
HOOKS = {
    "ma2-hooks-n20": ("ma2", 20, {"quantile": 0.97}, 20, 21),
}


def _solver(objective, prior, seed):
    """The solver hook: the built-in gradient solve with 3 restarts."""
    return solve_gradient(objective, prior, restarts=3, seed=seed)


def _runs():
    for name, (solve, regions, n2, at, evaluate) in GOLDEN.items():
        seed = solve[solve.index("--seed") + 1]
        steps = [["solve", *solve], ["regions", *regions],
                 ["sample", "--n2", str(n2), "--seed", seed],
                 ["posterior", "--at", at],
                 ["evaluate", *evaluate, "--seed", seed]]
        yield name, steps
    for name, (solve, regions, n2, seeds) in SWEEP.items():
        for seed in seeds:
            for workers in ("1", "2"):
                yield f"{name}-s{seed}-w{workers}", [
                    ["solve", *solve, "--seed", seed, "--workers", workers],
                    ["regions", *regions, "--workers", workers],
                    ["sample", "--n2", str(n2), "--seed", seed],
                ]


def _digest_run(name, steps, out):
    for step in steps:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = romc([*step, "--out", str(out)])
        if code != 0:
            print(f"{name} {step[0]} exit {code}")
            break
        if step[0] == "posterior":
            # the wrote line names the temporary directory
            text = "".join(line for line in stdout.getvalue().splitlines(True)
                           if not line.startswith("wrote "))
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{name} posterior-stdout {digest}")
    for path in sorted(out.iterdir()):
        if not path.name.endswith("_telemetry.csv"):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{name} {path.name} {digest}")
    sys.stdout.flush()


def _sha256(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _digest_kernel_less(name, model_name, solve, regions, n2, seed):
    bundled = build_model(model_name)
    model = Model(name=bundled.name, prior=bundled.prior,
                  simulator=bundled.simulator, summary=bundled.summary,
                  observed=bundled.observed, distance=bundled.distance)
    output = solve_problems(model, n1=20, seed=seed, **solve)
    _digest_stages(name, output, estimate_regions(output, **regions), n2, seed)


def _digest_hooks(name, model_name, n1, regions, n2, seed):
    model = build_model(model_name)
    for workers in (1, 2):
        output = solve_problems(model, n1=n1, seed=seed, solver=_solver,
                                workers=workers)
        bundle = estimate_regions(
            output, fit_models=True, region_builder=build_box,
            surrogate_fitter=fit_quadratic, workers=workers, **regions)
        _digest_stages(f"{name}-w{workers}", output, bundle, n2, seed)


def _digest_stages(name, output, bundle, n2, seed):
    # row-major bytes: the (k, D) stack hashes like its k rows in turn
    stages = {
        "solve": [output.x_min, output.f_min],
        "regions": [bundle.regions.limits],
        "samples": [bundle.sample(n2, seed).weights],
    }
    for stage, arrays in stages.items():
        print(f"{name} {stage} {_sha256(arrays)}")
    sys.stdout.flush()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, steps in _runs():
            out = Path(tmp) / name
            out.mkdir()
            _digest_run(name, steps, out)
    for name, run in KERNEL_LESS.items():
        _digest_kernel_less(name, *run)
    for name, run in HOOKS.items():
        _digest_hooks(name, *run)


if __name__ == "__main__":
    main()
