"""Checks of the benchmark itself: its tracer, its metric table and its workloads.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
The workload test runs each workload briefly with tracing on (about a
minute in all).
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from layers import PER_LAYER, layer_metrics  # noqa: E402
from run import END_TO_END, measure  # noqa: E402
from tracing import Tracer  # noqa: E402

# For each workload, metrics that must be non-zero: at least one for every
# layer the workload is meant to exercise.
EXERCISED = {
    "ingest": (
        "annotate.calls", "annotate.spans.expression", "annotate.spans.signal", "annotate.spans.person",
        "corpus.refine.busy_s", "corpus.records.busy_s", "corpus.calendar.busy_s",
        "vocab.build.busy_s", "objectives.examples", "objectives.mlm_targets",
    ),
    "pretrain": (
        "objectives.examples", "encoder.forward.calls", "encoder.heads.busy_s", "encoder.loss.busy_s",
        "encoder.collect_grads.busy_s", "autodiff.backward.calls", "optim.step.calls",
        "pretrain.step_ms_p50", "pretrain.self_s", "checkpoint.save.busy_s", "checkpoint.bytes",
    ) + tuple(name for name, *_ in PER_LAYER if name.startswith("autodiff.op.") and name.endswith(".calls")),
    "evaluate": (
        "encoder.forward.calls", "autodiff.backward.calls", "optim.step.calls",
        "finetune.train.busy_s", "finetune.predict.calls", "similarity.queries", "similarity.embed.calls",
        "semchange.adapt.busy_s", "semchange.represent.calls", "semchange.forwards_per_word",
        "bm25.index.busy_s", "bm25.query.calls", "checkpoint.load.busy_s",
    ),
}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(EXERCISED)


def test_every_metric_names_the_workload_that_exercises_it():
    for name, _unit, _better, _source, workload, moves in PER_LAYER:
        assert workload in EXERCISED, name
        assert moves, name


def test_spans_nest_and_self_time_excludes_children(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return fake.inner(x) + fake.inner(x)

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    tracer = Tracer()
    tracer.wrap(fake.__name__, "outer", "outer", new_op=True)
    tracer.wrap(fake.__name__, "inner", "inner")
    assert fake.outer(20000) == 2 * sum(range(20000))
    tracer.uninstall()
    assert fake.outer is outer and fake.inner is inner
    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.calls_under("inner", "outer") == 2
    assert 0.0 <= tracer.self_time("outer") < tracer.busy("outer")
    assert tracer.self_time("outer") == pytest.approx(tracer.busy("outer") - tracer.busy("inner"), abs=1e-9)
    assert {span[4] for span in tracer.spans} == {1}


def test_missing_wrap_target_reads_missing_not_zero():
    tracer = Tracer()
    tracer.wrap("tempolm.annotate", "no_such_function", "annotate")
    tracer.wrap_op("tempolm.autodiff", "no_such_op", object)
    tracer.wrap("tempolm.no_such_module", "anything", "bm25.index")
    assert tracer.missing == {"annotate", "autodiff.op.no_such_op", "bm25.index"}
    values = layer_metrics(tracer, 1, {}, 0.0)
    assert values["annotate.calls"] is None and values["annotate.tokens_per_s"] is None
    assert values["bm25.index.busy_s"] is None
    assert values["encoder.forward.calls"] == 0.0
    assert layer_metrics(Tracer(), 1, None, 0.0)["objectives.useful_ratio"] is None


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_every_layer_has_calls_on_its_workload(workload):
    result = measure(workload, seed=3, seconds=0.5, trace=True)
    assert result["problems"] == [] and result["failed"] == 0
    assert result["missing"] == []
    values = result["per_layer"]
    assert set(values) == {name for name, *_ in PER_LAYER}
    for name in EXERCISED[workload]:
        assert values[name] > 0, name
    if workload == "ingest":
        assert values["encoder.forward.calls"] == 0
    if workload == "evaluate":
        assert values["similarity.embed.calls"] == 22
