"""Worker-pool fan-out: completeness, failure capture, schedule invariance.

The sandbox may expose a single core, so pool engagement is forced by
patching the visible cpu count; with the fork start method the patched
module state carries into the children.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import romc
import romc.parallel
from romc.parallel import TaskFailure, effective_workers, run_tasks

# One task kills its worker process; the run must return, not hang.
_WORKER_DEATH = """
import json, os
import romc.parallel

def task(payload):
    if payload == 3:
        os._exit(1)
    return payload * payload

romc.parallel.os.cpu_count = lambda: 4
results, failures, seconds = romc.parallel.run_tasks(
    task, [(i, i) for i in range(8)], workers=2
)
print(json.dumps({
    "results": list(results.items()),
    "failures": {key: f.message for key, f in failures.items()},
    "seconds": list(seconds),
}))
"""


def _square(payload):
    return payload * payload


def _fail_on_odd(payload):
    if payload % 2 == 1:
        raise ValueError(f"odd payload {payload}")
    return payload


def _seeded_draw(payload):
    seed, size = payload
    return np.random.default_rng(seed).standard_normal(size)


class TestEffectiveWorkers:
    def test_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 8)
        assert effective_workers(0) == 8

    def test_requests_are_capped(self, monkeypatch):
        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 4)
        assert effective_workers(16) == 4
        assert effective_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_workers(-1)

    def test_none_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: None)
        assert effective_workers(0) == 1


class TestRunTasksSequential:
    def test_all_tasks_complete_in_order(self):
        tasks = [(i, i) for i in range(12)]
        results, failures, seconds = run_tasks(_square, tasks, workers=1)
        assert failures == {}
        assert list(results) == list(range(12))
        assert results == {i: i * i for i in range(12)}
        assert set(seconds) == set(range(12))
        assert all(s >= 0.0 for s in seconds.values())

    def test_failures_captured_per_key(self):
        tasks = [(i, i) for i in range(6)]
        results, failures, seconds = run_tasks(_fail_on_odd, tasks, workers=1)
        assert sorted(results) == [0, 2, 4]
        assert sorted(failures) == [1, 3, 5]
        failure = failures[3]
        assert isinstance(failure, TaskFailure)
        assert "ValueError" in failure.message
        assert "odd payload 3" in failure.message
        assert "Traceback" in failure.trace
        # failed tasks still report their duration
        assert set(seconds) == set(range(6))

    def test_nonsequential_keys(self):
        tasks = [(("a", 1), 2), (("b", 2), 3)]
        results, failures, _ = run_tasks(_square, tasks, workers=1)
        assert results == {("a", 1): 4, ("b", 2): 9}


class TestRunTasksParallel:
    def test_pool_results_identical_to_sequential(self, monkeypatch):
        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 4)
        tasks = [(i, (i, 5)) for i in range(12)]
        seq, seq_fail, _ = run_tasks(_seeded_draw, tasks, workers=1)
        par, par_fail, _ = run_tasks(_seeded_draw, tasks, workers=4)
        assert seq_fail == par_fail == {}
        assert list(par) == list(seq)
        for key in seq:
            np.testing.assert_array_equal(seq[key], par[key])

    def test_pool_failures_identical_to_sequential(self, monkeypatch):
        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 4)
        tasks = [(i, i) for i in range(8)]
        seq, seq_fail, _ = run_tasks(_fail_on_odd, tasks, workers=1)
        par, par_fail, _ = run_tasks(_fail_on_odd, tasks, workers=4)
        assert par == seq
        assert sorted(par_fail) == sorted(seq_fail)
        for key in seq_fail:
            assert par_fail[key].message == seq_fail[key].message

    def test_single_task_short_circuits_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool must not be created for one task")

        monkeypatch.setattr(romc.parallel.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(romc.parallel, "get_context", no_pool)
        results, _, _ = run_tasks(_square, [(0, 3)], workers=4)
        assert results == {0: 9}

    def test_worker_death_is_a_failure_not_a_hang(self):
        env = dict(os.environ)
        src = str(Path(romc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _WORKER_DEATH], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        results = dict(out["results"])
        failures = {int(key): msg for key, msg in out["failures"].items()}
        # which other tasks went down with the worker depends on scheduling
        assert "BrokenProcessPool" in failures[3]
        assert set(results).isdisjoint(failures)
        assert set(results) | set(failures) == set(range(8))
        assert all(results[key] == key * key for key in results)
        assert list(results) == sorted(results)
        assert out["seconds"] == list(range(8))
