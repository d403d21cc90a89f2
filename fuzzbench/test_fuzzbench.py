"""Tests of the benchmark itself: hooks, the span tracer and a two-seed
smoke run of every workload.

    python -m pytest fuzzbench
"""
import json
import sys
import types
from pathlib import Path

import pytest

import pipeline
from tracer import HOOKS, Tracer, resolve, span_name

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_hook_resolves():
    pipeline.import_taserial()
    assert [span_name(m, p) for m, p in HOOKS if resolve(m, p) is None] == []


def test_missing_hook_is_reported_with_no_calls():
    mods = pipeline.import_taserial()
    hooks = HOOKS + (("taserial.engine", "no_such_function"),
                     ("taserial.no_such_module", "run"))
    with Tracer(hooks) as t:
        t.begin(0)
        mods.engine.run(mods.workloads.counter_config(2, 2))
        t.fold()
    assert t.missing == ["engine.no_such_function", "no_such_module.run"]
    assert t.calls["engine.no_such_function"] == 0
    assert t.calls["engine.run"] == 1


def test_tracer_restores_every_original():
    pipeline.import_taserial()
    before = {span_name(m, p): vars(resolve(m, p)[0])[resolve(m, p)[1]]
              for m, p in HOOKS}
    with Tracer():
        pass
    after = {span_name(m, p): vars(resolve(m, p)[0])[resolve(m, p)[1]]
             for m, p in HOOKS}
    assert after == before


@pytest.fixture
def toy_module():
    mod = types.ModuleType("fuzzbench_toy")

    def leaf():
        return sum(range(1000))

    def countdown(n):
        return leaf() if n == 0 else mod.countdown(n - 1)

    def outer():
        return mod.leaf() + mod.countdown(3)

    mod.leaf, mod.countdown, mod.outer = leaf, countdown, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_self_time_excludes_children_and_recursion_counts_once(toy_module):
    hooks = [("fuzzbench_toy", "outer"), ("fuzzbench_toy", "countdown"),
             ("fuzzbench_toy", "leaf")]
    with Tracer(hooks) as t:
        t.begin(7)
        toy_module.outer()
        assert t.fold() == 3
    assert t.calls == {"fuzzbench_toy.outer": 1, "fuzzbench_toy.countdown": 1,
                       "fuzzbench_toy.leaf": 1}
    child = t.total["fuzzbench_toy.countdown"] + t.total["fuzzbench_toy.leaf"]
    assert t.self_time["fuzzbench_toy.outer"] == pytest.approx(
        t.total["fuzzbench_toy.outer"] - child)
    # countdown's own leaf() is a direct call, so it stays in its self time.
    assert t.self_time["fuzzbench_toy.countdown"] == pytest.approx(
        t.total["fuzzbench_toy.countdown"])


def test_benchmark_json_matches_spec():
    for kind in ("end_to_end", "per_layer"):
        for m in BENCHMARK[kind]:
            spec = SPEC["metrics"][m["name"]]
            assert (spec["kind"], spec["unit"], spec["better"]) == (
                kind, m["unit"], m["better"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])
    assert list(SPEC["workloads"]) == list(pipeline.WORKLOADS)


@pytest.mark.parametrize("workload", list(pipeline.WORKLOADS))
def test_two_seed_smoke_run(workload):
    e2e = pipeline.measure_end_to_end(workload, 0, 2, setups=1)
    assert e2e.problems == [] and e2e.failed == 0 and e2e.attempted == 2
    assert e2e.info["unserializable"] == 0
    assert sorted(e2e.metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(v > 0 for v in e2e.metrics.values())

    layers = pipeline.measure_layers(workload, 0, 2)
    assert layers.problems == [] and layers.info["hooks_missing"] == []
    assert layers.info["trace_sha256"] == e2e.info["trace_sha256"]
    assert sorted(layers.metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert layers.metrics["asm.yields.calls_per_proper"] == 1.0
    assert layers.metrics["seeds.make_rng.calls_per_step"] == 4.0
