"""Tests of the benchmark itself: span self time and a tiny-n1 smoke run.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_romc(run.ROOT)
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_self_time_counts_overlapping_children_once():
    parent = tracing.Span(1, None, "parent", 0.0, 10.0)
    children = [
        tracing.Span(2, 1, "a", 1.0, 3.0),
        tracing.Span(3, 1, "b", 2.0, 5.0),   # overlaps a: [1, 5] counted once
        tracing.Span(4, 1, "c", 7.0, 8.0),
        tracing.Span(5, 1, "d", 9.5, 12.0),  # clipped to the parent's end
    ]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_spans_record_parent_and_share_run_id():
    tracer = tracing.Tracer("run-x")
    with tracer.span("outer", "solve") as outer:
        tracer.count("leaf", rows=3)
        with tracer.span("inner") as inner:
            pass
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert tracer.counter("leaf", ("solve",)) == [1, 3, 0.0]
    assert {s.to_record(tracer.run_id)["run_id"] for s in tracer.spans} == {"run-x"}


def test_instrument_restores_every_wrapped_name():
    import romc.pipeline
    from romc.model import DeterministicObjective

    before = (romc.pipeline.solve_gradient, DeterministicObjective.__call__)
    with tracing.instrument(tracing.Tracer()):
        assert romc.pipeline.solve_gradient is not before[0]
    assert (romc.pipeline.solve_gradient, DeterministicObjective.__call__) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, tmp_path):
    workload = replace(workloads.WORKLOADS[name], n1=20)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = run.run_benchmark(workload, seed=3, seconds=0, trace=trace,
                                   probes=1, out_dir=tmp_path)
        assert record["correct"], record["checks"]
        assert record["failed"] == 0 and record["attempted"] >= 1
        emitted = {k: m["unit"] for k, m in record["metrics"].items()}
        assert emitted == _units(section)
