"""End-to-end command-line pipeline tests.

Commands run in-process through main(argv) so coverage and monkeypatching
work; each stage writes into a tmp directory and the next stage reads it
back, mirroring real usage.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from romc import artifacts
from romc.cli import main
from romc.inference import PosteriorApproximation


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Full 1d pipeline: solve, regions, sample, posterior, evaluate."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run("solve", "--model", "1d", "--n1", 30, "--seed", 7,
               "--out", out) == 0
    assert run("regions", "--quantile", 0.8, "--out", out) == 0
    assert run("sample", "--n2", 20, "--seed", 3, "--out", out) == 0
    assert run("posterior", "--at", "0.25", "--out", out) == 0
    assert run("evaluate", "--reference", "true-1d", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def ma2_dir(tmp_path_factory):
    """Tiny ma2 pipeline; short series keeps the solves cheap."""
    out = tmp_path_factory.mktemp("ma2")
    assert run("solve", "--model", "ma2", "--model-args",
               '{"n_obs": 20}', "--n1", 8, "--seed", 11, "--out", out) == 0
    assert run("regions", "--quantile", 0.9, "--out", out) == 0
    assert run("sample", "--n2", 10, "--seed", 0, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def bo_dir(tmp_path_factory):
    """Tiny ma2 pipeline solved by Bayesian optimization."""
    out = tmp_path_factory.mktemp("bo")
    assert run("solve", "--model", "ma2", "--model-args", '{"n_obs": 20}',
               "--n1", 4, "--seed", 11, "--use-bo", "--budget", 12,
               "--init-points", 4, "--out", out) == 0
    assert run("regions", "--quantile", 1.0, "--out", out) == 0
    return out


class TestPipeline:
    def test_all_artifacts_written(self, pipeline_dir):
        for name in [
            "solutions.json", "solve_telemetry.csv", "distance_hist.csv",
            "regions.json", "region_telemetry.csv", "samples.csv",
            "samples_meta.json", "samples_marginals.csv",
            "posterior_grid.csv", "metrics.json",
        ]:
            assert (pipeline_dir / name).exists(), name

    def test_solutions_reflect_flags(self, pipeline_dir):
        output = artifacts.load_solutions(pipeline_dir / "solutions.json")
        assert output.n1 == 30
        assert output.master_seed == 7
        assert output.model.name == "1d"

    def test_metrics_contents(self, pipeline_dir):
        payload = json.loads((pipeline_dir / "metrics.json").read_text())
        assert payload["n_samples"] == 20 * len(
            artifacts.load_regions(pipeline_dir / "regions.json").entries
        )
        assert 1.0 <= payload["ess"] <= payload["n_samples"]
        assert payload["reference"] == "true-1d"
        # toy posterior should land near the truth even with a small run
        assert 0.0 <= payload["jensen_shannon"] < 0.1

    def test_posterior_stage_output(self, pipeline_dir, capsys):
        assert run("posterior", "--at", "0.25", "--out", pipeline_dir) == 0
        text = capsys.readouterr().out
        assert "partition mass" in text
        assert "posterior at [0.25]:" in text

    def test_posterior_evaluates_grid_once(self, pipeline_dir, tmp_path,
                                           monkeypatch, capsys):
        rows = []
        original = PosteriorApproximation.eval_unnorm_batch

        def counting(self, thetas):
            rows.append(len(thetas))
            return original(self, thetas)

        monkeypatch.setattr(PosteriorApproximation, "eval_unnorm_batch",
                            counting)
        assert run("posterior", "--regions", pipeline_dir / "regions.json",
                   "--at", "0.25", "--out", tmp_path) == 0
        assert rows == [200, 1]  # the default grid, then the --at point
        lines = capsys.readouterr().out.splitlines()
        mass = float(lines[0].split()[2])
        unnorm = float(lines[1].split(": ")[1])
        norm = float(lines[2].split(": ")[1])
        assert norm == pytest.approx(unnorm / mass, rel=1e-5)

    def test_marginals_file_shape(self, pipeline_dir):
        lines = (pipeline_dir / "samples_marginals.csv").read_text().splitlines()
        assert lines[0] == "parameter,left,right,mass"
        assert len(lines) == 1 + 40
        mass = sum(float(line.split(",")[3]) for line in lines[1:])
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_evaluate_rejection_reference(self, ma2_dir):
        assert run("evaluate", "--reference", "rejection",
                   "--rejection-draws", 2000, "--rejection-quantile", 0.05,
                   "--seed", 0, "--out", ma2_dir) == 0
        payload = json.loads((ma2_dir / "metrics.json").read_text())
        assert payload["reference"] == "rejection"
        assert np.isfinite(payload["jensen_shannon"])


class TestDeterminism:
    def test_rerun_writes_identical_solutions(self, pipeline_dir, tmp_path):
        assert run("solve", "--model", "1d", "--n1", 30, "--seed", 7,
                   "--out", tmp_path) == 0
        assert (tmp_path / "solutions.json").read_bytes() == (
            pipeline_dir / "solutions.json"
        ).read_bytes()

    def test_worker_count_does_not_change_artifacts(
        self, pipeline_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("romc.parallel.os.cpu_count", lambda: 4)
        assert run("solve", "--model", "1d", "--n1", 30, "--seed", 7,
                   "--workers", 2, "--out", tmp_path) == 0
        assert run("regions", "--quantile", 0.8, "--workers", 2,
                   "--out", tmp_path) == 0
        for name in ["solutions.json", "regions.json"]:
            assert (tmp_path / name).read_bytes() == (
                pipeline_dir / name
            ).read_bytes(), name

    def test_sample_rerun_identical(self, pipeline_dir, tmp_path):
        assert run("sample", "--regions", pipeline_dir / "regions.json",
                   "--n2", 20, "--seed", 3, "--out", tmp_path) == 0
        assert (tmp_path / "samples.csv").read_bytes() == (
            pipeline_dir / "samples.csv"
        ).read_bytes()


class TestConfigFile:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# pipeline settings\n"
            "n1 = 8\n"
            "seed = 3\n"
            "quantile = 0.8\n"          # regions-only key, ignored by solve
            "not-a-real-option = 1\n"   # unknown everywhere, ignored
        )
        out = tmp_path / "out"
        assert run("solve", "--model", "1d", "--config", config,
                   "--seed", 5, "--out", out) == 0
        output = artifacts.load_solutions(out / "solutions.json")
        assert output.n1 == 8            # from the config file
        assert output.master_seed == 5   # explicit flag wins

    def test_config_drives_later_stage(self, pipeline_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n2 = 6\nseed = 9\n")
        assert run("sample", "--regions", pipeline_dir / "regions.json",
                   "--config", config, "--out", tmp_path) == 0
        result, meta = artifacts.load_samples(
            tmp_path / "samples.csv", tmp_path / "samples_meta.json"
        )
        assert meta["n2"] == 6
        assert result.seed == 9

    def test_malformed_config_line_fails(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n1: 8\n")
        assert run("solve", "--config", config, "--out", tmp_path) == 1

    @pytest.mark.parametrize("command, line", [
        ("solve", "use_bo = no"),        # a truthy string, not a boolean
        ("regions", "fit_models = no"),
        ("solve", 'n1 = "abc"'),
        ("solve", "n1 = 2.5"),
    ])
    def test_config_entries_checked_like_flags(self, command, line,
                                               pipeline_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        inputs = {"solve": [],
                  "regions": ["--solutions", pipeline_dir / "solutions.json"]}
        assert run(command, *inputs[command], "--config", config,
                   "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    def test_checked_config_entries_yield_to_flags(self, pipeline_dir,
                                                   tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("n1 = 8\nuse_bo = false\nmodel_args = null\n"
                          "at = -0.25\n")
        out = tmp_path / "out"
        assert run("solve", "--model", "1d", "--config", config,
                   "--n1", 5, "--out", out) == 0
        output = artifacts.load_solutions(out / "solutions.json")
        assert output.n1 == 5            # explicit flag wins
        assert not output.use_bo
        # a negative value is passed as --at=-0.25, not read as a flag
        assert run("posterior", "--regions", pipeline_dir / "regions.json",
                   "--config", config, "--out", out) == 0


class TestMarginals:
    def test_failed_write_keeps_old_file(self, pipeline_dir, tmp_path):
        result, _ = artifacts.load_samples(
            pipeline_dir / "samples.csv", pipeline_dir / "samples_meta.json"
        )
        path = tmp_path / "samples_marginals.csv"
        artifacts.write_marginals(path, result)
        before = path.read_bytes()
        # theta_2 raises IndexError while the rows are built, before the
        # temporary file is opened
        broken = SimpleNamespace(
            thetas=2.0 * result.thetas, weights=result.weights, dimension=2
        )
        with pytest.raises(IndexError):
            artifacts.write_marginals(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestErrorPaths:
    def test_no_command_prints_help(self, capsys):
        assert run() == 1
        assert "solve" in capsys.readouterr().err

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_bad_flag_value(self, tmp_path):
        assert run("solve", "--n1", "many", "--out", tmp_path) == 1

    def test_missing_solutions_artifact(self, tmp_path):
        assert run("regions", "--out", tmp_path) == 1

    def test_inconsistent_solutions_artifact(self, pipeline_dir, tmp_path,
                                             capsys):
        payload = json.loads((pipeline_dir / "solutions.json").read_text())
        payload["n1"] += 1
        path = tmp_path / "solutions.json"
        path.write_text(json.dumps(payload))
        assert run("regions", "--solutions", path, "--out", tmp_path) == 1
        assert "n1 is 31 but 30 problems" in capsys.readouterr().err

    def test_non_finite_minimizer_rejected(self, pipeline_dir, tmp_path,
                                           capsys):
        payload = json.loads((pipeline_dir / "solutions.json").read_text())
        next(p for p in payload["problems"]
             if p["status"] == "ok")["result"]["x_min"] = [float("nan")]
        path = tmp_path / "solutions.json"
        path.write_text(json.dumps(payload))
        assert run("regions", "--solutions", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: x_min must be finite\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_non_finite_box_rejected(self, pipeline_dir, tmp_path, capsys):
        payload = json.loads((pipeline_dir / "regions.json").read_text())
        payload["regions"][0]["box"]["center"] = [float("nan")]
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(payload))
        assert run("sample", "--regions", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: center must be finite\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("fraction", ["nan", "inf", "1e308"])
    def test_non_finite_initial_step_rejected(self, pipeline_dir, tmp_path,
                                              capsys, fraction):
        # 1e308 times the prior's mean range overflows to inf
        assert run("regions", "--solutions", pipeline_dir / "solutions.json",
                   "--fraction", fraction, "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: eta_start must be positive and finite\n")
        assert list(tmp_path.iterdir()) == []

    def test_fraction_above_one_rejected(self, pipeline_dir, tmp_path, capsys):
        assert run("regions", "--solutions", pipeline_dir / "solutions.json",
                   "--fraction", "1e300", "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: fraction must be at most 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_hessian_in_solutions_rejected(self, pipeline_dir,
                                                      tmp_path, capsys):
        payload = json.loads((pipeline_dir / "solutions.json").read_text())
        next(p for p in payload["problems"]
             if p["status"] == "ok")["result"]["hess_appr"] = [[float("nan")]]
        path = tmp_path / "solutions.json"
        path.write_text(json.dumps(payload))
        assert run("regions", "--solutions", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: hess_appr must be finite\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_non_finite_hessian_in_regions_rejected(self, pipeline_dir,
                                                    tmp_path, capsys):
        payload = json.loads((pipeline_dir / "regions.json").read_text())
        payload["regions"][0]["result"]["hess_appr"] = [[float("nan")]]
        path = tmp_path / "regions.json"
        path.write_text(json.dumps(payload))
        assert run("sample", "--regions", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err == "error: hess_appr must be finite\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("field, value, message", [
        ("lengthscales", [1.0], "lengthscales must be one positive finite "
         "value per input dimension"),
        ("variance", 0.0, "variance must be positive and finite"),
        ("noise_variance", -1e-6,
         "noise_variance must be nonnegative and finite"),
    ])
    @pytest.mark.parametrize("stage", ["solutions", "regions"])
    def test_degenerate_gp_rejected(self, bo_dir, tmp_path, capsys, stage,
                                    field, value, message):
        payload = json.loads((bo_dir / f"{stage}.json").read_text())
        if stage == "solutions":
            payload["problems"][0]["gp"][field] = value
            command = "regions"
        else:
            payload["regions"][0]["gp"][field] = value
            command = "sample"
        path = tmp_path / f"{stage}.json"
        path.write_text(json.dumps(payload))
        assert run(command, f"--{stage}", path, "--out", tmp_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_eps_and_quantile_together(self, pipeline_dir, tmp_path):
        assert run("regions", "--solutions", pipeline_dir / "solutions.json",
                   "--eps", 0.5, "--quantile", 0.9, "--out", tmp_path) == 1

    def test_true_reference_needs_1d_model(self, ma2_dir):
        assert run("evaluate", "--reference", "true-1d", "--out", ma2_dir) == 1

    def test_posterior_point_dimension_checked(self, pipeline_dir, tmp_path,
                                               capsys):
        assert run("posterior", "--regions", pipeline_dir / "regions.json",
                   "--at", "0.5,0.1", "--out", tmp_path) == 1
        assert "--at has 2 components" in capsys.readouterr().err
        # checked before any file is written
        assert list(tmp_path.iterdir()) == []

    def test_posterior_point_too_short(self, ma2_dir, tmp_path, capsys):
        assert run("posterior", "--regions", ma2_dir / "regions.json",
                   "--at", "0.5", "--out", tmp_path) == 1
        assert "--at has 1 components" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["posterior", "--regions", "regions.json"],
        ["evaluate", "--reference", "true-1d", "--regions", "regions.json",
         "--samples", "samples.csv", "--meta", "samples_meta.json"],
    ])
    @pytest.mark.parametrize("step", [1e-9, 1e-320])
    def test_grid_step_too_fine(self, pipeline_dir, tmp_path, capsys,
                                command, step):
        # on the 1d prior, 1e-9 asks for 5e9 cells and 1e-320 for inf
        argv = [pipeline_dir / a if a.endswith((".json", ".csv")) else a
                for a in command]
        assert run(*argv, "--grid-step", step, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: grid_step ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--restarts", 0], "restarts must be at least 1"),
        (["--max-iters", 0], "max_iters must be at least 1"),
        (["--use-bo", "--budget", 5, "--init-points", 10],
         "budget must exceed init_points"),
        (["--use-bo", "--init-points", 1], "init_points must be at least 2"),
    ])
    def test_invalid_solve_option(self, tmp_path, capsys, flags, message):
        assert run("solve", "--model", "ma2", "--n1", 20, *flags,
                   "--out", tmp_path) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_n_train_below_feature_count(self, pipeline_dir, tmp_path, capsys):
        assert run("regions", "--solutions", pipeline_dir / "solutions.json",
                   "--eps", 0.75, "--fit-models", "--n-train", 2,
                   "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: n_train must be at least the feature count (3)\n")
        assert list(tmp_path.iterdir()) == []

    def test_unreachable_eps_is_numerical_failure(self, pipeline_dir, tmp_path):
        # no optimized distance is exactly zero, so eps 0 filters out all
        assert run("regions", "--solutions", pipeline_dir / "solutions.json",
                   "--eps", 0.0, "--out", tmp_path) == 2

