"""Tests of the benchmark's own code: spans, layer wrappers and checks.

Run with `PYTHONPATH=src python -m pytest bench` from the repository root.
"""

import json
import types
from pathlib import Path

import pytest

from dgareduce import dataset, granular, pipeline, roughset
from layers import CLASSES, MODULES, PER_LAYER, Layers
from spans import Span, Tracer, leftover_wrappers, self_times, union_length

ROOT = Path(__file__).resolve().parents[1]


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8), (7.5, 7.6)]) == 5.0


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: the union counts once
        Span("c", 7.0, 8.0, parent=0),
        Span("a.inner", 1.5, 2.5, parent=1),  # a grandchild of root
        Span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == [10.0 - 5.0, 2.0 - 1.0, 3.0, 1.0, 1.0, 1.0]


def _fake_clock(step=1.0):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]

    return clock


def test_tracer_nests_spans_and_sums_outermost_only():
    module = types.ModuleType("fake")
    alias = types.ModuleType("fake_alias")

    def leaf():
        return 1

    def outer(depth):
        if depth:
            return module.outer(depth - 1) + alias.leaf()
        return module.leaf()

    module.leaf = alias.leaf = leaf
    module.outer = outer
    tracer = Tracer(clock=_fake_clock())
    with tracer.installed(
        lambda t: (t.wrap((module, alias), "leaf", "leaf"), t.wrap((module,), "outer", "outer"))
    ):
        assert alias.leaf is module.leaf is not leaf
        assert module.outer(1) == 2
    assert module.leaf is leaf and alias.leaf is leaf and module.outer is outer
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "outer", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    # one clock tick per reading: outer 1-8 holds outer 2-5 (holding leaf 3-4)
    # and leaf 6-7; the nested outer span is not counted twice
    assert tracer.inclusive("outer") == 7.0
    assert tracer.self_time("outer") == (7.0 - 3.0 - 1.0) + (3.0 - 1.0)
    assert tracer.inclusive("leaf") == 2.0


def _small_table():
    return dataset.synth_generate(200, 0.5, 0.25, seed=3)


def test_layer_wrappers_cover_every_alias_and_are_removed():
    originals = {
        (owner, attr): owner.__dict__[attr]
        for owner in MODULES + CLASSES
        for attr in vars(owner)
    }
    layers, tracer = Layers(), Tracer()
    with tracer.installed(layers.install):
        # reduct_search is imported by name into pipeline and granular
        for owner in (roughset, pipeline, granular):
            assert getattr(owner.reduct_search, "__bench_span__", None) == "roughset.reduct_search"
        pipeline.fit_reducer(_small_table(), "gr", pipeline.ExperimentConfig(), seed=1)
    assert leftover_wrappers(MODULES + CLASSES) == []
    for (owner, attr), value in originals.items():
        assert owner.__dict__[attr] is value, f"{owner}.{attr} not restored"
    search = tracer.named("roughset.reduct_search")
    assert len(search) == 1
    assert tracer.ancestor(search[0], "granular.incremental_rank_reduce") is not None
    metrics = Layers.metrics(tracer)
    assert set(metrics) | {"trace.overhead_s"} == set(PER_LAYER)
    assert metrics["pipeline.fit_reducer_calls"] == 1
    assert metrics["roughset.reduct_search_calls"] == 1
    assert metrics["granular.granules"] > 0
    assert metrics["svm.train_s"] == 0.0


def test_wrappers_are_removed_when_the_pass_raises():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(Layers().install):
            raise ValueError("pass failed")
    assert leftover_wrappers(MODULES + CLASSES) == []


def test_benchmark_file_names_every_reported_metric():
    from run import END_TO_END, layer_unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layer_unit(name) for name in PER_LAYER
    }


def test_a_failed_check_is_named():
    from workloads import CheckFailed, check_accuracy_floor

    check_accuracy_floor(90.0, {"rsxrnn": 90.0})
    check_accuracy_floor(None, {"rsxrnn": 10.0})
    with pytest.raises(CheckFailed, match=r"^accuracy-floor: rsxrnn averages 89\.99 %"):
        check_accuracy_floor(90.0, {"nonexsvm": 99.0, "rsxrnn": 89.99})
