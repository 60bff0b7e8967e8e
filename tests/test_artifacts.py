"""Artifact round-trips and the byte-identity contract.

Floats are serialized with shortest round-trip repr, so every numeric
field must survive write/load exactly; rewriting an artifact from its
loaded form must reproduce the original file byte for byte.
"""

import csv
import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from romc import (
    DegenerateResult,
    Model,
    artifacts,
    estimate_regions,
    make_ma2_model,
    make_toy_model,
    solve_problems,
)
from romc.inference import InferenceResult
from romc.model import BoxUniformPrior


@pytest.fixture(scope="module")
def solve_output():
    return solve_problems(make_toy_model(), n1=15, seed=21)


@pytest.fixture(scope="module")
def bundle(solve_output):
    return estimate_regions(solve_output, quantile=0.8, fit_models=True)


@pytest.fixture(scope="module")
def bo_solve_output():
    return solve_problems(make_toy_model(), n1=3, seed=2, use_bo=True,
                          budget=16, init_points=4)


class TestSolutionsArtifact:
    def test_round_trip_exact(self, solve_output, tmp_path):
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, solve_output)
        loaded = artifacts.load_solutions(path)
        assert loaded.n1 == solve_output.n1
        assert loaded.master_seed == solve_output.master_seed
        assert loaded.options == solve_output.options
        assert loaded.model.name == solve_output.model.name
        for a, b in zip(loaded.records, solve_output.records):
            assert a.index == b.index and a.seed == b.seed
            np.testing.assert_array_equal(a.result.x_min, b.result.x_min)
            assert a.result.f_min == b.result.f_min
            np.testing.assert_array_equal(a.result.hess_appr, b.result.hess_appr)

    def test_rewrite_is_byte_identical(self, solve_output, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        artifacts.write_solutions(first, solve_output)
        artifacts.write_solutions(second, artifacts.load_solutions(first))
        assert first.read_bytes() == second.read_bytes()

    def test_gp_survives_round_trip(self, bo_solve_output, tmp_path):
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, bo_solve_output)
        loaded = artifacts.load_solutions(path)
        probes = np.linspace(-2, 2, 7)[:, None]
        for a, b in zip(loaded.records, bo_solve_output.records):
            np.testing.assert_array_equal(
                a.gp.evaluate_batch(probes), b.gp.evaluate_batch(probes)
            )

    def test_failed_problems_persisted(self, tmp_path):
        from romc.pipeline import SolveOutput

        output = SolveOutput(
            model=make_toy_model(), n1=2, master_seed=0, use_bo=False,
            options={}, seeds=np.array([11, 12]), seconds=np.zeros(2),
            errors={0: "went sideways"}, indices=np.zeros(0, dtype=int),
            x_min=np.empty((0, 1)), f_min=np.empty(0),
            hess=np.empty((0, 1, 1)), iterations=np.empty(0, dtype=object),
        )
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, output)
        loaded = artifacts.load_solutions(path)
        assert loaded.records[0].result is None
        assert loaded.records[0].error == "went sideways"
        assert loaded.indices.tolist() == []

    def test_model_without_recipe_rejected(self, tmp_path):
        base = make_toy_model()
        model = Model(
            name="adhoc", prior=BoxUniformPrior([[-1.0, 1.0]]),
            simulator=base.simulator, summary=base.summary,
            observed=np.array([0.0]),
        )
        output = solve_problems(model, n1=2, seed=0)
        with pytest.raises(ValueError):
            artifacts.write_solutions(tmp_path / "solutions.json", output)


class TestRegionsArtifact:
    def test_round_trip_exact(self, bundle, tmp_path):
        path = tmp_path / "regions.json"
        artifacts.write_regions(path, bundle)
        loaded = artifacts.load_regions(path)
        assert loaded.eps == bundle.eps
        assert loaded.use_surrogate == bundle.use_surrogate
        assert loaded.fit_models == bundle.fit_models
        np.testing.assert_array_equal(loaded.indices, bundle.indices)
        np.testing.assert_array_equal(loaded.regions.rotations,
                                      bundle.regions.rotations)
        np.testing.assert_array_equal(loaded.regions.limits,
                                      bundle.regions.limits)
        for a, b in zip(loaded.quadratics, bundle.quadratics, strict=True):
            np.testing.assert_array_equal(a.quad, b.quad)
        assert loaded.curvature_sources == bundle.curvature_sources

    def test_rewrite_is_byte_identical(self, bundle, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        artifacts.write_regions(first, bundle)
        artifacts.write_regions(second, artifacts.load_regions(first))
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_bundle_supports_inference(self, bundle, tmp_path):
        path = tmp_path / "regions.json"
        artifacts.write_regions(path, bundle)
        loaded = artifacts.load_regions(path)
        a = loaded.sample(20, seed=5)
        b = bundle.sample(20, seed=5)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_no_timing_inside_artifact(self, bundle, tmp_path):
        path = tmp_path / "regions.json"
        artifacts.write_regions(path, bundle)
        payload = json.loads(path.read_text())
        text = json.dumps(payload)
        assert "seconds" not in text
        assert "workers" not in text


class TestSamplesArtifact:
    def test_round_trip_exact(self, bundle, tmp_path):
        result = bundle.sample(30, seed=13)
        samples = tmp_path / "samples.csv"
        meta = tmp_path / "samples_meta.json"
        artifacts.write_samples(samples, meta, result, bundle)
        loaded, meta_payload = artifacts.load_samples(samples, meta)
        np.testing.assert_array_equal(loaded.thetas, result.thetas)
        np.testing.assert_array_equal(loaded.weights, result.weights)
        np.testing.assert_array_equal(loaded.problem_indices,
                                      result.problem_indices)
        assert loaded.eps == result.eps
        assert loaded.seed == result.seed
        assert meta_payload["n2"] == 30
        assert meta_payload["summary"]["n_samples"] == result.n_samples

    def test_header_names_parameters(self, bundle, tmp_path):
        result = bundle.sample(5, seed=1)
        samples = tmp_path / "samples.csv"
        artifacts.write_samples(samples, tmp_path / "m.json", result, bundle)
        header = samples.read_text().splitlines()[0]
        assert header == "problem_index,draw_index,theta_1,weight"

    def test_all_zero_weights_leave_both_files(self, bundle, tmp_path):
        samples, meta = tmp_path / "samples.csv", tmp_path / "samples_meta.json"
        result = bundle.sample(5, seed=1)
        artifacts.write_samples(samples, meta, result, bundle)
        before = samples.read_bytes(), meta.read_bytes()
        zero = InferenceResult(result.thetas, np.zeros(result.n_samples),
                               result.problem_indices, result.draw_indices,
                               eps=result.eps, seed=result.seed)
        with pytest.raises(DegenerateResult):
            artifacts.write_samples(samples, meta, zero, bundle)
        assert (samples.read_bytes(), meta.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "samples.csv", "samples_meta.json"]


class TestTelemetry:
    def test_solve_telemetry_rows(self, solve_output, tmp_path):
        path = tmp_path / "telemetry.csv"
        artifacts.write_solve_telemetry(path, solve_output)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,status,f_min,iterations,seconds"
        assert len(lines) == 1 + solve_output.n1

    def test_chunked_solve_telemetry_has_finite_seconds_per_problem(
            self, tmp_path):
        # the gradient solve runs its problems as one chunk, and each
        # problem reports the chunk's wall time divided by its size
        out = solve_problems(make_ma2_model(), n1=12, seed=4, restarts=2)
        path = tmp_path / "telemetry.csv"
        artifacts.write_solve_telemetry(path, out)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["index"]) for row in rows] == list(range(12))
        seconds = np.array([float(row["seconds"]) for row in rows])
        assert np.all(np.isfinite(seconds)) and np.all(seconds >= 0.0)
        assert np.all(seconds == seconds[0])

    def test_region_telemetry_rows(self, bundle, tmp_path):
        path = tmp_path / "telemetry.csv"
        artifacts.write_region_telemetry(path, bundle)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,status,region_seconds"
        assert len(lines) == 1 + len(bundle.indices)


class TestPosteriorGridAndMetrics:
    def test_grid_file_normalizes(self, bundle, tmp_path):
        path = tmp_path / "grid.csv"
        mass = artifacts.write_posterior_grid(path, bundle.posterior(), 0.05)
        assert mass > 0
        rows = path.read_text().splitlines()
        assert rows[0] == "theta_1,unnorm,posterior"
        data = np.array([[float(v) for v in row.split(",")]
                         for row in rows[1:]])
        assert data.shape[0] == 100
        total = data[:, 2].sum() * 0.05
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_metrics_payload(self, tmp_path):
        path = tmp_path / "metrics.json"
        artifacts.write_metrics(path, {"ess": 12.5, "n_samples": 20})
        payload = json.loads(path.read_text())
        assert payload["kind"] == "metrics"
        assert payload["ess"] == 12.5


class TestSchemaValidation:
    def test_kind_mismatch_rejected(self, solve_output, tmp_path):
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, solve_output)
        with pytest.raises(ValueError):
            artifacts.load_regions(path)

    def test_unknown_schema_version_rejected(self, solve_output, tmp_path):
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, solve_output)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            artifacts.load_solutions(path)

    def test_histogram_writer(self, tmp_path):
        path = tmp_path / "hist.csv"
        artifacts.write_histogram(path, np.array([2, 3]),
                                  np.array([0.0, 0.5, 1.0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "left,right,count"
        assert lines[1] == "0.0,0.5,2"


class TestCsvText:
    """The exact bytes of each CSV writer on tiny hand-made inputs: floats
    print as their shortest round-trip repr, integers as integers, and a
    failed problem's missing fields as empty."""

    @staticmethod
    def _lines(path):
        return path.read_bytes().decode().split("\r\n")

    def test_solve_telemetry(self, tmp_path):
        path = tmp_path / "t.csv"
        artifacts.write_solve_telemetry(path, SimpleNamespace(
            seconds=np.array([0.1, np.inf]), indices=np.array([0]),
            f_min=np.array([1e-17]), iterations=np.array([3], dtype=object)))
        assert self._lines(path) == [
            "index,status,f_min,iterations,seconds",
            "0,ok,1e-17,3,0.1", "1,failed,,,inf", ""]

    def test_region_telemetry(self, tmp_path):
        path = tmp_path / "t.csv"
        artifacts.write_region_telemetry(path, SimpleNamespace(
            indices=np.array([2]),
            region_seconds={2: 0.1, 5: 1e-17}, region_failures={7: "err"}))
        assert self._lines(path) == [
            "index,status,region_seconds",
            "2,ok,0.1", "5,failed,1e-17", "7,failed,0.0", ""]

    def test_histogram(self, tmp_path):
        path = tmp_path / "h.csv"
        artifacts.write_histogram(path, np.array([2, 0]),
                                  np.array([-0.0, 0.1, np.inf]))
        assert self._lines(path) == [
            "left,right,count", "-0.0,0.1,2", "0.1,inf,0", ""]

    def test_samples(self, tmp_path):
        path = tmp_path / "s.csv"
        result = InferenceResult([[0.1, -0.0], [1e-17, 2.0]], [0.5, 0.0],
                                 [3, 7], [0, 1], eps=0.1, seed=1)
        bundle = SimpleNamespace(model=make_ma2_model(), master_seed=2,
                                 use_bo=False, use_surrogate=False)
        artifacts.write_samples(path, tmp_path / "m.json", result, bundle)
        assert self._lines(path) == [
            "problem_index,draw_index,theta_1,theta_2,weight",
            "3,0,0.1,-0.0,0.5", "7,1,1e-17,2.0,0.0", ""]

    def test_marginals(self, tmp_path):
        path = tmp_path / "m.csv"
        result = InferenceResult([[0.0, 0.1], [1.0, 0.1]], [1.0, 3.0],
                                 [0, 1], [0, 0], eps=0.1, seed=1)
        artifacts.write_marginals(path, result, bins=2)
        # theta_2 has one value, so its range is padded by 1e-9
        assert self._lines(path) == [
            "parameter,left,right,mass",
            "theta_1,0.0,0.5,0.25", "theta_1,0.5,1.0,0.75",
            "theta_2,0.099999999,0.1,0.0", "theta_2,0.1,0.100000001,1.0", ""]

    def test_posterior_grid(self, tmp_path):
        path = tmp_path / "g.csv"
        posterior = SimpleNamespace(grid=lambda step: (
            np.array([[0.1, -0.0], [1e-17, 2.0]]), np.array([0.1, np.inf]),
            4.0))
        assert artifacts.write_posterior_grid(path, posterior) == 4.0
        assert self._lines(path) == [
            "theta_1,theta_2,unnorm,posterior",
            "0.1,-0.0,0.1,0.025", "1e-17,2.0,inf,inf", ""]


def _tamper(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _first_ok(payload):
    return next(p for p in payload["problems"] if p["status"] == "ok")


class TestLoadValidation:
    """Artifacts that disagree with their own model or n1 are rejected."""

    @pytest.fixture
    def solutions(self, solve_output, tmp_path):
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, solve_output)
        return path

    def test_n1_must_match_problem_count(self, solutions):
        _tamper(solutions, lambda p: p.update(n1=p["n1"] + 1))
        with pytest.raises(ValueError, match="n1 is 16 but 15 problems"):
            artifacts.load_solutions(solutions)

    def test_indices_must_run_from_zero(self, solutions):
        def swap(payload):
            first, second = payload["problems"][:2]
            first["index"], second["index"] = second["index"], first["index"]

        _tamper(solutions, swap)
        with pytest.raises(ValueError, match="indices must run 0..14"):
            artifacts.load_solutions(solutions)

    def test_x_min_dimension_must_match_model(self, solutions):
        def widen(payload):
            result = _first_ok(payload)["result"]
            result["x_min"].append(0.0)
            result["hess_appr"] = [[1.0, 0.0], [0.0, 1.0]]

        _tamper(solutions, widen)
        with pytest.raises(ValueError, match="x_min has dimension 2"):
            artifacts.load_solutions(solutions)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_x_min_must_be_finite(self, solutions, value):
        _tamper(solutions, lambda p: _first_ok(p)["result"].update(x_min=[value]))
        with pytest.raises(ValueError, match="x_min must be finite"):
            artifacts.load_solutions(solutions)

    def test_hess_appr_dimension_must_match_x_min(self, solutions):
        def widen(payload):
            result = _first_ok(payload)["result"]
            result["hess_appr"] = [[1.0, 0.0], [0.0, 1.0]]

        _tamper(solutions, widen)
        with pytest.raises(ValueError, match="hess_appr"):
            artifacts.load_solutions(solutions)

    def test_gp_dimension_must_match_model(self, bo_solve_output, tmp_path):
        path = tmp_path / "solutions.json"
        artifacts.write_solutions(path, bo_solve_output)

        def widen(payload):
            gp = _first_ok(payload)["gp"]
            gp["inputs"] = [row + [0.0] for row in gp["inputs"]]
            gp["lengthscales"].append(1.0)

        _tamper(path, widen)
        with pytest.raises(ValueError, match="GP inputs has dimension 2"):
            artifacts.load_solutions(path)

    def test_box_dimension_must_match_model(self, bundle, tmp_path):
        path = tmp_path / "regions.json"
        artifacts.write_regions(path, bundle)

        def widen(payload):
            payload["regions"][0]["box"] = {
                "center": [0.0, 0.0],
                "rotation": [[1.0, 0.0], [0.0, 1.0]],
                "limits": [[-1.0, 1.0], [-1.0, 1.0]],
            }

        _tamper(path, widen)
        with pytest.raises(ValueError, match="box has dimension 2"):
            artifacts.load_regions(path)

    @pytest.fixture
    def regions(self, bundle, tmp_path):
        path = tmp_path / "regions.json"
        artifacts.write_regions(path, bundle)
        return path

    def test_region_indices_must_be_unique(self, regions):
        # a repeated region would draw the same sample stream twice
        _tamper(regions, lambda p: p["regions"].insert(1, p["regions"][0]))
        with pytest.raises(ValueError, match="unique and increasing"):
            artifacts.load_regions(regions)

    def test_failed_index_must_not_have_a_region(self, regions):
        _tamper(regions, lambda p: p["failures"].update(
            {str(p["regions"][0]["index"]): "RuntimeError('fit failed')"}))
        with pytest.raises(ValueError, match="also listed as failed"):
            artifacts.load_regions(regions)

    def test_region_indices_must_increase(self, regions):
        def swap(payload):
            entries = payload["regions"]
            entries[0], entries[1] = entries[1], entries[0]

        _tamper(regions, swap)
        with pytest.raises(ValueError, match="unique and increasing"):
            artifacts.load_regions(regions)

    @pytest.mark.parametrize("edit, problem", [
        (lambda p: p["regions"][1].pop("quadratic"),
         "has no quadratic, but fit_models is on"),
        (lambda p: p.update(fit_models=False),
         "has a quadratic, but fit_models is off"),
    ], ids=["missing", "unexpected"])
    def test_fit_models_must_match_the_quadratics(self, bundle, regions, edit,
                                                  problem):
        # inference runs every region on its quadratic under fit_models and
        # on none otherwise, so a mismatch would mix distances silently
        index = bundle.indices[1 if "no quadratic" in problem else 0]
        _tamper(regions, edit)
        with pytest.raises(ValueError, match=f"region {index} {problem}"):
            artifacts.load_regions(regions)

    def test_surrogate_region_must_have_a_gp(self, bo_solve_output, tmp_path):
        # without its GP, inference would quietly run the simulator instead
        path = tmp_path / "regions.json"
        bo_bundle = estimate_regions(bo_solve_output, quantile=1.0)
        assert bo_bundle.use_surrogate
        artifacts.write_regions(path, bo_bundle)
        index = bo_bundle.indices[0]
        _tamper(path, lambda p: p["regions"][0].pop("gp"))
        with pytest.raises(ValueError, match=f"region {index} has no GP"):
            artifacts.load_regions(path)

    @pytest.mark.parametrize("field, value", [
        ("center", [float("nan")]),
        ("rotation", [[float("nan")]]),
        ("limits", [[-float("inf"), 1.0]]),
        ("limits", [[-1.0, float("inf")]]),
    ])
    def test_box_must_be_finite(self, regions, field, value):
        _tamper(regions, lambda p: p["regions"][0]["box"].update({field: value}))
        with pytest.raises(ValueError, match="must be finite"):
            artifacts.load_regions(regions)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.5])
    def test_eps_must_be_finite_and_nonnegative(self, regions, eps):
        _tamper(regions, lambda p: p.update(eps=eps))
        with pytest.raises(ValueError, match="eps must be finite"):
            artifacts.load_regions(regions)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: _first_ok(p).update(status="okay"),
         "status must be 'ok' or 'failed', found 'okay'"),
        (lambda p: p["problems"][1].update(index=1.0),
         "problem index must be a nonnegative integer, found 1.0"),
        (lambda p: p["problems"][0].update(seed=1.5),
         "seed must be a nonnegative integer, found 1.5"),
        (lambda p: p["problems"][0].update(seed="7"),
         "seed must be a nonnegative integer, found '7'"),
        (lambda p: p["problems"][0].update(seed=-3),
         "seed must be a nonnegative integer, found -3"),
        (lambda p: p.update(use_bo="no"),
         "use_bo must be true or false, found 'no'"),
        (lambda p: _first_ok(p)["result"].update(iterations="x"),
         "iterations must be a nonnegative integer, found 'x'"),
        (lambda p: _first_ok(p)["result"].update(iterations=-1),
         "iterations must be a nonnegative integer, found -1"),
    ], ids=["status", "float-index", "float-seed", "string-seed",
            "negative-seed", "string-flag", "string-iterations",
            "negative-iterations"])
    def test_malformed_solutions_rejected(self, solutions, edit, message):
        _tamper(solutions, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            artifacts.load_solutions(solutions)

    def test_null_iterations_load(self, solutions):
        # a custom solver may report no iteration count
        _tamper(solutions, lambda p: _first_ok(p)["result"].update(
            iterations=None))
        loaded = artifacts.load_solutions(solutions)
        assert loaded.iterations[0] is None

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["regions"][0].update(seed=1.5),
         "seed must be a nonnegative integer, found 1.5"),
        (lambda p: p["regions"][0].update(seed="7"),
         "seed must be a nonnegative integer, found '7'"),
        (lambda p: p["regions"][0].update(index=-1),
         "region index must be a nonnegative integer, found -1"),
        (lambda p: p.update(use_bo="no"),
         "use_bo must be true or false, found 'no'"),
        (lambda p: p["regions"][0]["result"].update(iterations="x"),
         "iterations must be a nonnegative integer, found 'x'"),
        (lambda p: p["regions"][0].update(curvature_source="banana"),
         "curvature_source must be one of ('hess_appr', 'jacobian', "
         "'identity', 'custom'), found 'banana'"),
        (lambda p: p["regions"][0]["result"].update(f_min=2.0 * p["eps"] + 1),
         "above eps"),
    ], ids=["float-seed", "string-seed", "negative-index", "string-flag",
            "string-iterations", "curvature-source", "f_min-above-eps"])
    def test_malformed_regions_rejected(self, regions, edit, message):
        _tamper(regions, edit)
        with pytest.raises(ValueError, match=re.escape(message)):
            artifacts.load_regions(regions)

    @pytest.fixture
    def samples(self, bundle, tmp_path):
        paths = tmp_path / "samples.csv", tmp_path / "samples_meta.json"
        artifacts.write_samples(*paths, bundle.sample(5, seed=1), bundle)
        return paths

    @pytest.mark.parametrize("header", [
        "", "problem_index,draw_index,weight",
        "problem_index,draw_index,theta_2,weight",
        "draw_index,problem_index,theta_1,weight",
    ])
    def test_samples_header_checked(self, samples, header):
        csv_path, meta = samples
        rows = csv_path.read_text().splitlines()[1:]
        csv_path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(ValueError, match="unexpected header"):
            artifacts.load_samples(csv_path, meta)

    def test_truncated_samples_rejected(self, samples):
        csv_path, meta = samples
        text = csv_path.read_text()
        csv_path.write_text(text[:text.rindex(",")])  # last row loses its weight
        with pytest.raises(ValueError, match="expected 4 fields, found 3"):
            artifacts.load_samples(csv_path, meta)

    def test_header_only_samples_rejected(self, samples):
        csv_path, meta = samples
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning
            with pytest.raises(ValueError) as raised:
                artifacts.load_samples(csv_path, meta)
        assert str(raised.value) == f"{csv_path}: no sample rows"

    def test_non_integral_index_rejected(self, samples):
        # a float parse and a cast would truncate 1.5 to 1
        csv_path, meta = samples
        lines = csv_path.read_text().splitlines()
        lines[2] = "1.5" + lines[2][lines[2].index(","):]
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as raised:
            artifacts.load_samples(csv_path, meta)
        assert str(raised.value).startswith(f"{csv_path}: ")
        assert "'1.5'" in str(raised.value)

    @pytest.mark.parametrize("column, value, message", [
        (-1, "-1.0", "weight must be finite and nonnegative, found -1.0"),
        (2, "nan", "theta must be finite, found [nan]"),
        (-1, "nan", "weight must be finite and nonnegative, found nan"),
    ])
    def test_bad_sample_values_rejected(self, samples, column, value,
                                        message):
        csv_path, meta = samples
        lines = csv_path.read_text().splitlines()
        row = lines[3].split(",")
        row[column] = value
        lines[3] = ",".join(row)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as raised:
            artifacts.load_samples(csv_path, meta)
        assert str(raised.value) == f"{csv_path}:4: {message}"


class TestAtomicWrites:
    def test_failed_json_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        artifacts.write_metrics(path, {"ess": 12.5})
        before = path.read_bytes()
        # json.dump writes the leading keys before it reaches the bad value
        with pytest.raises(TypeError):
            artifacts.write_metrics(path, {"a": 1.0, "z": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_failed_csv_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "hist.csv"
        artifacts.write_histogram(path, np.array([2, 3]),
                                  np.array([0.0, 0.5, 1.0]))
        before = path.read_bytes()

        def rows():
            yield [0.0, 0.5, 4]
            # the header and first row went to the temporary file
            assert len(list(tmp_path.iterdir())) == 2
            raise ValueError("second row")

        with pytest.raises(ValueError, match="second row"):
            artifacts._write_csv(path, ["left", "right", "count"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["hist.csv"]
