"""Deterministic fan-out of independent tasks over worker processes.

Every task owns a pre-derived random stream, so results are identical for
any worker count; only wall time changes.  Failures are captured per key
instead of aborting the batch, including tasks lost when a worker process
dies, and per-task durations are returned for the speedup report.
"""

import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing import get_context


@dataclass
class TaskFailure:
    """One task that raised: its key, the exception repr, and the trace."""

    key: object
    message: str
    trace: str


def effective_workers(workers):
    """Resolve a worker request: 0 means all cores, and requests are
    capped at the machine's core count."""
    cpu = os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be nonnegative")
    if workers == 0:
        return cpu
    return min(workers, cpu)


def _invoke(item):
    func, key, payload = item
    start = time.perf_counter()
    try:
        value = func(payload)
        outcome = (key, True, value, None)
    except Exception as exc:  # noqa: BLE001 - captured and reported per key
        outcome = (key, False, None, (repr(exc), traceback.format_exc()))
    return (*outcome, time.perf_counter() - start)


def _collect(future, key):
    """The task's outcome, or a failure when the pool could not return one
    (a worker died, or the payload or result did not pickle); such tasks
    report 0.0 seconds."""
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001 - captured and reported per key
        return key, False, None, (repr(exc), traceback.format_exc()), 0.0


def run_tasks(func, tasks, workers=1):
    """Apply func to every (key, payload) pair, possibly in parallel.

    func must be a module-level callable and payloads picklable when
    workers > 1.  Returns (results, failures, seconds), three dicts keyed
    by task key in task order regardless of scheduling.  When a worker
    process dies, every task that had not finished by then is a failure.
    """
    n_workers = effective_workers(workers)
    items = [(func, key, payload) for key, payload in tasks]
    if n_workers == 1 or len(items) <= 1:
        outputs = [_invoke(item) for item in items]
    else:
        # imported here, so that a sequential run does not pay for loading it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(n_workers, mp_context=get_context()) as pool:
            futures = [pool.submit(_invoke, item) for item in items]
            outputs = [
                _collect(future, key)
                for (_, key, _), future in zip(items, futures)
            ]
    results, failures, seconds = {}, {}, {}
    for key, ok, value, error, elapsed in outputs:
        seconds[key] = elapsed
        if ok:
            results[key] = value
        else:
            failures[key] = TaskFailure(key, error[0], error[1])
    return results, failures, seconds
