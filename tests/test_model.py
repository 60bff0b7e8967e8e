"""Priors, seed derivation and the deterministic per-seed objectives."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import romc.kernels
from conftest import BatchDistance, CountingDistance
from romc import (
    build_model,
    estimate_regions,
    make_ma2_model,
    make_toy_model,
    solve_problems,
)
from romc.model import (
    BoxUniformPrior,
    DeterministicObjective,
    DistanceStack,
    IdentitySummary,
    Model,
    derive_rng,
    draw_nuisance_seeds,
    finite_difference_gradient,
    make_objective,
    squared_distance,
)


def test_squared_distance_hand_case():
    assert squared_distance([1.0, 2.0], [3.0, 5.0]) == pytest.approx(13.0)
    assert squared_distance([0.5], [0.5]) == 0.0


class TestNuisanceSeeds:
    def test_range_and_length(self):
        seeds = draw_nuisance_seeds(200, 7)
        assert len(seeds) == 200
        assert all(isinstance(s, int) for s in seeds)
        assert all(1 <= s < 2**32 for s in seeds)

    def test_deterministic(self):
        assert draw_nuisance_seeds(50, 3) == draw_nuisance_seeds(50, 3)

    def test_prefix_property(self):
        # runs with larger n1 must extend, not reshuffle, smaller runs
        assert draw_nuisance_seeds(80, 11)[:20] == draw_nuisance_seeds(20, 11)

    def test_master_seed_matters(self):
        assert draw_nuisance_seeds(20, 0) != draw_nuisance_seeds(20, 1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            draw_nuisance_seeds(0, 0)


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(5, 3, 1).uniform(size=4)
        b = derive_rng(5, 3, 1).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(5, 3, 1).uniform(size=4)
        b = derive_rng(5, 3, 2).uniform(size=4)
        c = derive_rng(5, 4, 1).uniform(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestBoxUniformPrior:
    def test_pdf_is_inverse_volume(self):
        prior = BoxUniformPrior([[0.0, 2.0], [0.0, 4.0]])
        values = prior.pdf_batch([[1.0, 1.0], [3.0, 1.0]])
        assert values[0] == pytest.approx(1.0 / 8.0)
        assert values[1] == 0.0

    def test_boundary_is_inside(self):
        prior = BoxUniformPrior([[0.0, 1.0]])
        np.testing.assert_allclose(prior.pdf_batch([[0.0], [1.0]]), 1.0)

    def test_samples_stay_inside(self):
        prior = BoxUniformPrior([[-2.0, -1.0], [5.0, 6.0]])
        rng = np.random.default_rng(1)
        draws = np.array([prior.sample(rng) for _ in range(100)])
        assert np.all(prior.pdf_batch(draws) > 0)

    def test_ranges(self):
        prior = BoxUniformPrior([[0.0, 2.0], [-1.0, 3.0]])
        np.testing.assert_array_equal(prior.ranges, [2.0, 4.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxUniformPrior([[1.0, 0.0]])
        with pytest.raises(ValueError):
            BoxUniformPrior([[0.0, np.inf]])
        with pytest.raises(ValueError):
            BoxUniformPrior([0.0, 1.0])


def test_identity_summary_passes_through():
    summary = IdentitySummary(3)
    assert summary.summary_dimension == 3
    np.testing.assert_array_equal(summary([1, 2, 3]), [1.0, 2.0, 3.0])


class TestDeterministicObjective:
    def test_matches_hand_composition(self, toy_model):
        # independent recomputation: one normal draw plus the piecewise
        # location, squared against the observation
        seed = 91
        objective = make_objective(toy_model, seed, 0)
        u = float(np.random.default_rng(seed).standard_normal())
        for theta in (-1.7, -0.2, 0.0, 0.4, 2.2):
            loc = theta**4 if abs(theta) <= 0.5 else abs(theta) - (0.5 - 0.5**4)
            expected = (loc + u - 0.0) ** 2
            assert objective(np.array([theta])) == pytest.approx(expected, rel=1e-12)

    def test_scalar_equals_batch_bitwise(self, toy_model):
        objective = make_objective(toy_model, 17, 0)
        thetas = np.linspace(-2.5, 2.5, 21)[:, None]
        batch = objective.evaluate_batch(thetas)
        for j, theta in enumerate(thetas):
            assert objective(theta) == batch[j]

    def test_same_seed_same_function(self, toy_model):
        a = make_objective(toy_model, 5, 0)
        b = make_objective(toy_model, 5, 3)
        theta = np.array([0.3])
        assert a(theta) == b(theta)

    def test_different_seeds_differ(self, toy_model):
        a = make_objective(toy_model, 5, 0)
        b = make_objective(toy_model, 6, 1)
        assert a(np.array([0.3])) != b(np.array([0.3]))

    def test_summaries_exposed(self, toy_model):
        objective = make_objective(toy_model, 5, 0)
        s = objective.summaries(np.array([0.2]))
        assert s.shape == (1,)

    def test_shape_validation(self, toy_model):
        objective = make_objective(toy_model, 5, 0)
        with pytest.raises(ValueError):
            objective(np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            objective.evaluate_batch(np.zeros((3, 2)))

    def test_model_rejects_observation_of_wrong_shape(self, toy_model):
        # checked once, when the model is built
        with pytest.raises(ValueError, match=r"observed must have shape \(1,\)"):
            Model(name="bad", prior=toy_model.prior, simulator=toy_model.simulator,
                  summary=toy_model.summary, observed=np.zeros(4))

    def test_observation_summarized_once_per_model(self):
        model = build_model("ma2")
        calls = []
        summary = model.summary

        def counting(output):
            calls.append(1)
            return summary(output)

        model.summary = counting
        for i, seed in enumerate(draw_nuisance_seeds(50, 8)):
            make_objective(model, seed, i)
        output = solve_problems(model, n1=10, seed=8)
        assert len(output.indices) == 10
        assert calls == []


class TestObjectiveStack:
    """A model's DistanceStack, as every stage builds it: one factory call
    for all seeds."""

    @pytest.mark.parametrize("make_model", [make_toy_model, make_ma2_model])
    def test_rows_equal_each_objective_alone_bitwise(self, make_model):
        model = make_model()
        seeds = draw_nuisance_seeds(40, 3)
        objectives = [make_objective(model, seed, i)
                      for i, seed in enumerate(seeds)]
        stack = DistanceStack.of_model(model, seeds, range(40))
        assert stack.kernel is not None
        rng = np.random.default_rng(5)
        runs = rng.integers(0, 40, size=300)
        thetas = np.array([model.prior.sample(rng) for _ in runs])
        alone = np.array([objectives[r](t) for r, t in zip(runs, thetas)])
        got = stack(thetas, runs)
        np.testing.assert_array_equal(got.view(np.uint64), alone.view(np.uint64))
        for j in (0, 7):
            one = stack(thetas[j:j + 1], runs[j:j + 1])
            assert one.shape == (1,) and one[0] == alone[j]
        # an int owner evaluates every row under that one distance
        one_owner = stack(thetas, 7)
        np.testing.assert_array_equal(
            one_owner.view(np.uint64),
            objectives[7].evaluate_batch(thetas).view(np.uint64))

    def test_objectives_without_a_stackable_kernel_go_one_call_per_owner(
            self, toy_model):
        calls = []

        class Scaled:
            def __init__(self, scale):
                self.scale = scale

            def evaluate_batch(self, thetas):
                calls.append((self.scale, len(thetas)))
                return self.scale * thetas[:, 0]

        stack = DistanceStack([Scaled(1.0), Scaled(2.0), Scaled(3.0)])
        assert stack.kernel is None
        got = stack(np.array([[1.0], [1.5], [3.0]]), [1, 0, 1])
        np.testing.assert_array_equal(got, [2.0, 1.5, 6.0])
        # owners absent from the rows are not called
        assert calls == [(1.0, 1), (2.0, 2)]
        # a list of objectives goes owner by owner even when they share a
        # kernel, and so does a model without a factory
        listed = DistanceStack([make_objective(toy_model, 4, 0)] * 2)
        bare = replace(toy_model, batch_distance_factory=None)
        assert listed.kernel is None
        stack = DistanceStack.of_model(bare, [4, 9], [0, 5])
        assert stack.kernel is None
        assert [(o.seed, o.index) for o in stack.distances] == [(4, 0), (9, 5)]
        thetas = np.array([[0.3], [1.2], [-0.4]])
        np.testing.assert_array_equal(
            stack(thetas, [1, 0, 1]),
            DistanceStack.of_model(toy_model, [4, 9], [0, 5])(thetas, [1, 0, 1]))


class _ShiftSimulator:
    """theta plus the seed's two standard normal draws."""

    output_dimension = 2

    @staticmethod
    def noise(seed):
        return np.random.default_rng(seed).standard_normal(2)

    def run(self, theta, seed):
        return np.asarray(theta, dtype=np.float64) + self.noise(seed)


def _shift_kernel(thetas, c1, c2):
    return (thetas[:, 0] + c1) ** 2 + (thetas[:, 1] + c2) ** 2


def _shift_distance(seeds, observed_summary):
    u = np.array([_ShiftSimulator.noise(seed) for seed in seeds])
    return _shift_kernel, tuple(u.T - observed_summary[:, None])


def _shift_model():
    return Model(name="shift", prior=BoxUniformPrior([[-2.0, 2.0]] * 2),
                 simulator=_ShiftSimulator(), summary=IdentitySummary(2),
                 observed=np.array([0.3, -0.2]),
                 batch_distance_factory=_shift_distance)


def _shift_objectives(n, kernel_of, make=DeterministicObjective):
    """n objectives of the shift model, objective i with kernel_of(i)."""
    model = _shift_model()
    seeds = draw_nuisance_seeds(n, 2)
    _, args = _shift_distance(seeds, model.observed_summary)
    return [make(model, seed, i, kernel_of(i), [arg[i] for arg in args])
            for i, seed in enumerate(seeds)]


class _CountingObjective(DeterministicObjective):
    def __init__(self, calls, *args):
        super().__init__(*args)
        self.calls = calls

    def evaluate_batch(self, thetas):
        self.calls.append(self.index)
        return super().evaluate_batch(thetas)


@pytest.mark.parametrize("make_model", [
    make_toy_model, _shift_model,
    *(partial(make_ma2_model, n_obs) for n_obs in (3, 100, 257, 1000))])
def test_many_seed_factory_equals_one_seed_factory_bitwise(make_model):
    model = make_model()
    factory = model.batch_distance_factory
    seeds = draw_nuisance_seeds(200, 21)
    kernel, args = factory(seeds, model.observed_summary)
    for k in (0, 1, 57, 199):
        one_kernel, one_args = factory([seeds[k]], model.observed_summary)
        assert one_kernel is kernel and len(one_args) == len(args)
        for arg, one in zip(args, one_args):
            assert arg.shape[-1] == len(seeds) and one.shape[-1] == 1
            np.testing.assert_array_equal(_bits(arg[..., k]),
                                          _bits(one[..., 0]))
    if model.name == "ma2":
        # and the stacked Gram equals the Gram of one seed's noise vector
        noise = model.simulator.noise(seeds[57])
        np.testing.assert_array_equal(_bits(args[0][..., 57]),
                                      _bits(romc.kernels.ma2_gram(noise)))


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


class TestKernelProtocol:
    """batch_distance_factory returns (kernel, args) for many seeds; their
    DistanceStack evaluates rows of any of them in one kernel call."""

    def test_shared_kernel_is_one_call_per_stack_call(self, monkeypatch):
        calls = []

        def kernel(thetas, c1, c2):
            calls.append(len(thetas))
            return _shift_kernel(thetas, c1, c2)

        model = _shift_model()
        monkeypatch.setattr(model, "batch_distance_factory",
                            lambda seeds, observed: (
                                kernel, _shift_distance(seeds, observed)[1]))
        stack = DistanceStack.of_model(model, draw_nuisance_seeds(6, 2),
                                       range(6))
        assert stack.kernel is kernel
        thetas = np.random.default_rng(1).uniform(-2.0, 2.0, size=(9, 2))
        stack(thetas, [0, 1, 2, 3, 4, 5, 0, 1, 5])
        stack(thetas[:4], [3, 3, 2, 2])
        stack(thetas, 4)
        assert calls == [9, 4, 9]

    def test_two_kernels_are_one_call_per_owner(self):
        def other(thetas, c1, c2):
            return _shift_kernel(thetas, c1, c2)

        calls = []
        objectives = _shift_objectives(
            4, lambda i: _shift_kernel if i % 2 else other,
            partial(_CountingObjective, calls))
        stack = DistanceStack(objectives)
        assert stack.kernel is None
        thetas = np.random.default_rng(1).uniform(-2.0, 2.0, size=(5, 2))
        got = stack(thetas, [3, 0, 3, 1, 0])
        assert calls == [0, 1, 3]
        alone = [objectives[o].evaluate(t)
                 for o, t in zip([3, 0, 3, 1, 0], thetas)]
        np.testing.assert_array_equal(got, alone)

    def test_custom_factory_runs_the_pipeline(self):
        model = _shift_model()
        solve = solve_problems(model, n1=12, seed=4)
        assert len(solve.indices) == 12
        bundle = estimate_regions(solve, quantile=0.9)
        result = bundle.sample(5, seed=4)
        assert result.n_samples == 5 * len(bundle.indices)
        stack = bundle.posterior().distances
        assert stack.kernel is _shift_kernel
        objectives = [make_objective(model, seed, index) for seed, index in
                      zip(bundle.seeds.tolist(), bundle.indices.tolist())]
        owners = np.repeat(np.arange(len(objectives)), 5)
        got = stack(result.thetas, owners)
        alone = np.concatenate([
            objectives[k].evaluate_batch(result.thetas[owners == k])
            for k in range(len(objectives))])
        np.testing.assert_array_equal(got.view(np.uint64), alone.view(np.uint64))

    @pytest.mark.parametrize("make_model, name", [
        (make_ma2_model, "ma2_distance_batch"),
        (make_toy_model, "toy_distance_batch")])
    def test_kernel_is_looked_up_when_objectives_are_built(
            self, monkeypatch, make_model, name):
        model = make_model()
        calls = []
        kernel = getattr(romc.kernels, name)

        def spy(thetas, *args):
            calls.append(len(thetas))
            return kernel(thetas, *args)

        monkeypatch.setattr(romc.kernels, name, spy)
        seeds = draw_nuisance_seeds(3, 6)
        objectives = [make_objective(model, seed, i)
                      for i, seed in enumerate(seeds)]
        assert all(o.kernel is spy for o in objectives)
        stack = DistanceStack.of_model(model, seeds, range(3))
        assert stack.kernel is spy
        thetas = np.array([model.prior.sample(np.random.default_rng(2))] * 4)
        objectives[0].evaluate(thetas[0])
        stack(thetas, [0, 1, 2, 1])
        assert calls == [1, 4]


def _gradient(func, x):
    """Gradient of one scalar function at one point."""
    grads, finite = finite_difference_gradient(
        DistanceStack([BatchDistance(func)]),
        np.asarray(x, dtype=np.float64)[None, :], [0]
    )
    assert finite[0]
    return grads[0]


class TestFiniteDifferenceGradient:
    def test_matches_analytic_gradient(self):
        def f(x):
            return 3.0 * x[0] ** 2 + 2.0 * x[0] * x[1] + x[1] ** 2

        def grad(x):
            return np.array([6.0 * x[0] + 2.0 * x[1], 2.0 * x[0] + 2.0 * x[1]])

        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=2)
            g = _gradient(f, x)
            exact = grad(x)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(g - exact)) / scale <= 1e-4

    def test_exact_for_linear_functions(self):
        g = _gradient(lambda x: 2.0 * x[0] - 7.0 * x[1], np.zeros(2))
        np.testing.assert_allclose(g, [2.0, -7.0], atol=1e-9)

    def test_uses_exactly_two_evals_per_coordinate(self):
        counter = CountingDistance(lambda x: float(np.sum(x**2)))
        finite_difference_gradient(
            DistanceStack([counter]), np.array([[1.0, 2.0, 3.0]]), [0]
        )
        assert counter.calls == 6

    def test_one_call_per_coordinate_for_all_rows(self):
        calls = []

        def stacked(points, runs):
            calls.append((len(points), list(runs)))
            return np.sum(points**2, axis=1) * (1.0 + np.asarray(runs))

        thetas = np.random.default_rng(4).uniform(-3, 3, size=(5, 3))
        runs = np.array([4, 0, 2, 2, 1])
        grads, finite = finite_difference_gradient(stacked, thetas, runs)
        # forward probes of every row, then the backward ones
        assert calls == [(10, [4, 0, 2, 2, 1] * 2)] * 3
        assert finite.all()
        for theta, run, grad in zip(thetas, runs, grads):
            alone, _ = finite_difference_gradient(stacked, theta[None, :], [run])
            np.testing.assert_array_equal(grad, alone[0])

    def test_nonfinite_probe_fails_only_its_row(self):
        def f(x):
            return np.nan if x[0] > 1.0 else float(x[0])

        grads, finite = finite_difference_gradient(
            DistanceStack([BatchDistance(f)]), np.array([[1.0], [0.5]]), [0, 0]
        )
        np.testing.assert_array_equal(finite, [False, True])
        assert grads[1, 0] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5),
        x0=st.floats(-3, 3), x1=st.floats(-3, 3),
    )
    def test_quadratic_property(self, a, b, x0, x1):
        # gradient of a x0^2 + b x1^2 is (2a x0, 2b x1)
        def f(x):
            return a * x[0] ** 2 + b * x[1] ** 2

        g = _gradient(f, np.array([x0, x1]))
        exact = np.array([2 * a * x0, 2 * b * x1])
        assert np.max(np.abs(g - exact)) <= 1e-4 * max(1.0, np.max(np.abs(exact)))


def test_make_toy_model_observed_summary(toy_model):
    np.testing.assert_array_equal(toy_model.observed_summary, [0.0])
