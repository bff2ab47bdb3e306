"""Tests of the benchmark itself: generators, metric names, the tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

GENERATORS = [
    lambda s: gen.bsa_round(s, 0),
    lambda s: gen.bsa_round(s, 3),
    lambda s: gen.sweep_grid(s, 0),
    lambda s: gen.sweep_grid(s, 2),
    gen.serve_hot_set,
    lambda s: [gen.serve_block(s, i) for i in range(50)],
]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in GENERATORS:
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_rounds_and_grids_differ_by_index():
    assert gen.bsa_round(0, 0) != gen.bsa_round(0, 1)
    assert gen.sweep_grid(0, 0) != gen.sweep_grid(0, 1)


def test_bsa_round_shape_is_seed_independent():
    def shape(reqs):
        return sorted((r["workload"], r["topology"], r["size"]) for r in reqs)

    assert shape(gen.bsa_round(1, 0)) == shape(gen.bsa_round(2, 5))
    assert len(gen.bsa_round(1, 0)) == (len(gen.BSA_FAMILIES)
                                        * len(gen.BSA_TOPOLOGIES))


def test_sweep_grid_is_stratified():
    for seed in (0, 1, 2):
        cells = gen.sweep_grid(seed, 0)
        assert len(cells) == 96
        triples = Counter((c["algorithm"], c["topology"], c["size"])
                          for c in cells)
        assert len(triples) == 96
        assert sum(1 for c in cells if c["scenario"]) == gen.SWEEP_N_SCENARIO
        assert (sum(1 for c in cells if c["objectives"])
                == gen.SWEEP_N_OBJECTIVES)
        assert not any(c["scenario"] and c["objectives"] for c in cells)
        assert {c["app"] for c in cells} == set(gen.SWEEP_APPS)


def test_serve_blocks_plan_one_fresh_request_each_with_unique_keys():
    seeds = set()
    for index in range(200):
        block = gen.serve_block(3, index)
        kinds = Counter(kind for kind, _ in block)
        assert kinds == {"hot": gen.SERVE_BLOCK - 1, "fresh": 1}
        for kind, item in block:
            if kind == "hot":
                assert 0 <= item < gen.SERVE_HOT_KEYS
            else:
                seeds.add(item["seed"])
    assert len(seeds) == 200


def test_serve_hot_set_keys_are_distinct():
    specs = gen.serve_hot_set(0)
    assert len(specs) == gen.SERVE_HOT_KEYS
    assert len({json.dumps(s, sort_keys=True) for s in specs}) == len(specs)
    for spec in specs:
        if "example" in spec:
            assert os.path.isfile(os.path.join(workloads.INPUTS,
                                               spec["example"]))


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------

def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _benchmark()["workloads"]] == \
        list(gen.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    out = workloads.Outcome(latencies=[0.1, 0.2, 0.3], tasks=30,
                            busy_s=0.6, nsl=[1.5, 2.5])
    metrics = run.end_to_end(out, setup_s=0.5)
    spec = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: u for k, (_v, u) in metrics.items()} == spec
    assert all(v > 0 for v, _u in metrics.values())


def test_per_layer_names_match_benchmark_json():
    metrics = run.per_layer({}, {}, workloads.Outcome(), workloads.Outcome())
    spec = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: u for k, (_v, u) in metrics.items()} == spec


def test_benchmark_json_contract():
    doc = _benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

def _site_objects():
    out = {}
    for layer, sites in layers.LAYERS.items():
        for module, path in sites:
            container, key, is_dict = layers._resolve(module, path)
            out[(module, path)] = (container[key] if is_dict
                                   else getattr(container, key))
    return out


def test_no_wrapper_outside_a_traced_pass():
    assert layers.find_wrappers() == []
    before = _site_objects()
    tracer = layers.Tracer()
    tracer.install()
    try:
        installed = layers.find_wrappers()
    finally:
        tracer.uninstall()
    assert len(installed) == len(before)
    assert layers.find_wrappers() == []
    after = _site_objects()
    assert all(after[k] is before[k] for k in before)
    from repro.core.bsa import BSAScheduler
    from repro.schedule.schedule import ScheduleTxn

    assert "run" in BSAScheduler.__dict__
    assert "rollback" in ScheduleTxn.__dict__


def test_traced_bsa_call_splits_into_layers(tmp_path, monkeypatch):
    from repro.experiments import cache as cache_mod
    from repro.service import ScheduleRequest, pipeline

    # the call builds the process-default ResultCache; keep it off the
    # working directory and leave no instance behind for later tests
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache_mod, "_default_cache", None)
    tracer = layers.Tracer()
    tracer.install()
    try:
        resp = pipeline.execute(
            ScheduleRequest(workload="random", size=40, topology="ring",
                            n_procs=8, algorithm="bsa", seed=3),
            use_cache=False)
    finally:
        tracer.uninstall()
    assert resp.cache == "off"
    totals = tracer.totals()
    for layer in ("service.execute", "sched.bsa", "bsa.run",
                  "serialization", "validator", "bundle.encode"):
        assert totals[layer]["calls"] >= 1, layer
    assert totals["migration.commit"]["calls"] == \
        totals["settle"]["calls"] > 0
    assert totals["bsa.run"]["s"] >= (totals["serialization"]["s"]
                                      + totals["migration.commit"]["s"])
    assert totals["service.execute"]["s"] >= totals["sched.bsa"]["s"]
    trace = tracer.chrome_trace()["traceEvents"]
    assert len(trace) == sum(t["calls"] for t in totals.values())


def test_same_layer_nesting_is_not_counted_twice():
    tracer = layers.Tracer()
    inner = tracer._wrap("x", lambda: None)
    outer = tracer._wrap("x", lambda: inner())
    outer()
    totals = tracer.totals()
    assert totals["x"]["calls"] == 2
    outer_rec, inner_rec = tracer.records
    assert totals["x"]["s"] == outer_rec[2] - outer_rec[1]
    assert inner_rec[3] == 0


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def test_pin_mismatch_and_shortfall_count_as_failures():
    out = workloads.Outcome(digests=[["a", "d1", 1.0], ["b", "d2", 2.0]])
    workloads.check_pins(out, [["a", "d1", 1.0], ["b", "XX", 2.0],
                               ["c", "d3", 3.0]])
    assert out.failed == 2
    clean = workloads.Outcome(digests=[["a", "d1", 1.0]])
    workloads.check_pins(clean, [["a", "d1", 1.0]])
    workloads.check_pins(clean, None)
    assert clean.failed == 0


def test_host_clock_brackets_intervals_and_reaps_its_helper():
    import hostspeed

    clock = hostspeed.HostClock()
    try:
        assert 0 < clock.reference() < 5
        clock.start()
        factor = clock.factor()
        assert factor > 0 and clock.factors == [factor]
    finally:
        clock.close()
    assert clock.pid == 0
    assert hostspeed.normalize(1.0, 0.25, 2.0) == 0.75 + 0.5
    assert hostspeed.normalize(1.0, 3.0, 2.0) == 2.0
