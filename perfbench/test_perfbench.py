"""Tests of the benchmark's own metric code (no engine runs).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

import pytest

from perfbench import hostclock, layers, metrics, streams, tracing
from perfbench.run import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# -- highest supported percentile ---------------------------------------------


@pytest.mark.parametrize(("n", "q", "supported"), [
    (200, 95, True),  # exactly 10 samples beyond p95
    (199, 95, False),
    (20, 50, True),
    (19, 50, False),
    (1000, 99, True),
    (999, 99, False),
])
def test_supports_percentile_needs_ten_beyond(n, q, supported):
    assert metrics.supports_percentile(n, q) is supported
    assert (metrics.samples_beyond(n, q) >= 10) is supported


@pytest.mark.parametrize(("n", "expected"), [
    (5, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_highest_supported_percentile(n, expected):
    assert metrics.highest_supported_percentile(n) == expected


def test_percentile_interpolates_linearly():
    assert metrics.percentile([4, 1, 3, 2], 50) == 2.5
    assert metrics.percentile([10.0], 95) == 10.0
    assert metrics.percentile(list(range(101)), 95) == 95.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


# -- error accounting -----------------------------------------------------------


@pytest.mark.parametrize(("status", "run_status", "kind"), [
    ("ok", "", None),  # cache hit or replay: nothing ran
    ("ok", "ok", None),
    ("ok", "budget", None),
    ("ok", "timeout", "run_status"),
    ("ok", "failed", "run_status"),
    ("rejected_overload", "", "shed"),
    ("rejected_tenant", "", "rejected"),
    ("deadline_exceeded", "timeout", "deadline"),
    ("failed", "failed", "failed"),
    ("some_new_status", "", "failed"),
])
def test_response_error_kind(status, run_status, kind):
    assert metrics.response_error_kind(status, run_status) == kind


@pytest.mark.parametrize(("status", "kind"), [
    ("ok", None), ("budget", None), ("oom", "run_status"), ("recovered", "run_status"),
    ("timeout", "run_status"), ("failed", "run_status"),
])
def test_run_error_kind(status, kind):
    assert metrics.run_error_kind(status) == kind


def test_error_tally_counts_each_kind_against_attempts():
    tally = metrics.ErrorTally()
    for kind in (None, None, *metrics.ERROR_KINDS):
        tally.attempt(kind)
    assert tally.attempted == 2 + len(metrics.ERROR_KINDS)
    assert tally.failed == len(metrics.ERROR_KINDS)
    assert tally.by_kind == {k: 1 for k in metrics.ERROR_KINDS}
    tally.fail("mismatch")  # found later by a check on an attempted op
    assert tally.by_kind["mismatch"] == 2
    assert tally.error_rate == pytest.approx(tally.failed / tally.attempted)
    with pytest.raises(ValueError):
        tally.attempt("typo")
    assert metrics.ErrorTally().error_rate == 0.0


# -- shard timings -------------------------------------------------------------


def test_dispatch_is_run_wall_beyond_the_slowest_shard():
    assert metrics.dispatch_s(9.0, [8.0, 1.5]) == pytest.approx(1.0)
    assert metrics.dispatch_s(4.5, [4.3, 4.4]) == pytest.approx(0.1)
    assert metrics.dispatch_s(4.0, [4.5, 1.0]) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        metrics.dispatch_s(1.0, [])


def test_shard_imbalance_is_max_over_mean():
    assert metrics.shard_imbalance([8.0, 2.0]) == pytest.approx(1.6)
    assert metrics.shard_imbalance([3.0, 3.0, 3.0]) == pytest.approx(1.0)
    assert metrics.shard_imbalance([0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        metrics.shard_imbalance([])
    assert metrics.max_share([9_142_807, 338_885]) == pytest.approx(0.9643, abs=1e-4)
    assert metrics.max_share([0, 0]) == 0.0


def test_pool_starts_counts_live_evicted_and_discarded_pools():
    assert layers.pool_starts({"live_pools": 1, "evictions": 2, "discards": 3}) == 6


# -- seeded streams -------------------------------------------------------------


def _take(it, n):
    return list(itertools.islice(it, n))


def test_read_stream_is_seed_deterministic():
    assert _take(streams.read_stream(7, 0), 200) == _take(streams.read_stream(7, 0), 200)
    assert _take(streams.read_stream(7, 0), 200) != _take(streams.read_stream(8, 0), 200)
    assert _take(streams.read_stream(7, 0), 200) != _take(streams.read_stream(7, 1), 200)


def test_read_stream_keeps_cache_hits_below_half():
    reads = _take(streams.read_stream(3, 1), 20 * len(streams.BLOCK))
    kinds = [r.kind for r in reads]
    assert kinds.count("repeat") / len(kinds) == pytest.approx(0.3)
    assert all(r.budget is None for r in reads if r.kind == "repeat")
    assert all(r.budget == streams.BUDGETS[r.query] for r in reads if r.kind == "budget")
    keys = {r.idempotency_key for r in reads if r.kind == "idem"}
    assert keys <= {f"s3-k{j}" for j in range(len(streams.IDEM_REQUESTS))}
    by_key = {(r.idempotency_key, r.query, r.budget) for r in reads if r.kind == "idem"}
    assert len(by_key) == len(keys)  # one request per key


def _band(n, width=5):
    return [(i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1))]


def test_edit_stream_is_seed_deterministic():
    a = _take(streams.edit_stream(5, _band(30), 2), 25)
    assert a == _take(streams.edit_stream(5, _band(30), 2), 25)
    assert a != _take(streams.edit_stream(6, _band(30), 2), 25)


def _degrees(edges):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def test_edit_stream_swaps_keep_degrees_and_never_normalize_away():
    edges = set(_band(30))
    start = _degrees(edges)
    for inserts, deletes in _take(streams.edit_stream(1, _band(30), 2), 40):
        assert len(inserts) == 4 and len(deletes) == 4
        assert set(deletes) <= edges
        assert not set(inserts) & edges
        assert not set(inserts) & set(deletes)
        assert all(u < v for u, v in inserts + deletes)
        edges = streams.apply_batch(edges, inserts, deletes)
        assert _degrees(edges) == start


# -- tracer ----------------------------------------------------------------------


def test_tracer_times_outermost_calls_once():
    tracer = tracing.LayerTracer()

    def leaf():
        return 3

    inner = tracer.timed("inner", leaf)
    outer = tracer.timed("outer", lambda: inner() + inner())
    again = tracer.timed("outer", lambda: outer())  # re-entering "outer"

    assert again() == 6
    snap = tracer.snapshot()
    assert snap["calls"] == {"outer": 1, "inner": 2}
    assert snap["results"] == {"outer": 6, "inner": 6}
    assert snap["covered"] == pytest.approx(snap["seconds"]["outer"])
    assert snap["seconds"]["inner"] <= snap["seconds"]["outer"]


def test_tracer_keeps_per_thread_totals():
    tracer = tracing.LayerTracer()
    work = tracer.timed("layer", lambda: sum(range(1000)))
    seen = {}

    def client(name):
        for _ in range(5):
            work()
        seen[name] = tracer.thread_seconds("layer")

    threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert tracer.thread_seconds("layer") == 0.0
    assert tracer.snapshot()["calls"]["layer"] == 15
    assert sum(seen.values()) == pytest.approx(tracer.snapshot()["seconds"]["layer"])


def test_tracer_install_restores_the_program():
    pytest.importorskip("repro")
    from repro.core import engine, kernel

    original = kernel.run_kernel
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        assert engine.run_kernel is not original
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert engine.run_kernel is original and kernel.run_kernel is original


def _mark(section, seconds=None, calls=None, results=None, covered=0.0, plans=0):
    return {"section": section, "seconds": seconds or {}, "calls": calls or {},
            "results": results or {}, "covered": covered, "plans_observed": plans}


def test_layer_metrics_from_synthetic_marks():
    marks = [
        _mark("setup", {"pattern.plan": 0.5}, {"pattern.plan": 2}, plans=2),
        _mark("phase", {"pattern.plan": 0.5, "core.kernel": 8.0, "candidates.compute": 6.0},
              {"pattern.plan": 2, "candidates.compute": 100}, {"core.scheduler": 400},
              covered=9.0, plans=2),
        _mark("probe", {"pattern.plan": 0.75, "core.kernel": 9.0, "candidates.compute": 6.5,
                        "dynamic.count_delta": 1.0}, {"pattern.plan": 3, "candidates.compute": 120},
              {"core.scheduler": 450}, covered=10.5, plans=3),
    ]
    out = layers.layer_metrics(marks, graph_s=2.0, results=[], phase_wall_s=10.0,
                               untraced_wall_s=8.0, dynamic_sections=("probe",),
                               extra={"serve.retries": 4})
    assert [name for name in out] == [name for name, _ in layers.PER_LAYER]
    value = {k: v for k, (v, _) in out.items()}
    assert value["graph.build_s"] == 2.0
    assert value["pattern.plan_s"] == pytest.approx(0.75)  # every section
    assert value["pattern.plans_built"] == 3
    assert value["core.kernel_s"] == pytest.approx(8.0)  # the phase only
    assert value["candidates.compute_s"] == pytest.approx(6.0)
    assert value["core.control_s"] == pytest.approx(2.0)
    assert value["core.sched_steps"] == 400
    assert value["candidates.calls"] == 100
    assert value["dynamic.count_delta_s"] == pytest.approx(1.0)
    assert value["obs.trace_overhead"] == pytest.approx(0.25)
    assert value["obs.unattributed_share"] == pytest.approx(0.1)
    assert value["serve.retries"] == 4
    assert value["scale.replicate_s"] == 0.0


# -- host clock ------------------------------------------------------------------


def test_host_clock_divides_by_the_samples_around_an_interval():
    samples = iter([2.0, 4.0, 8.0])
    clock = hostclock.HostClock(sample=lambda: next(samples))
    early = time.perf_counter()
    clock.tick()  # 2.0
    t0 = time.perf_counter()
    time.sleep(0.01)
    t1 = time.perf_counter()
    clock.tick()  # 4.0
    t2 = time.perf_counter()
    clock.tick()  # 8.0
    assert clock.scale(t0, t1) == pytest.approx((t1 - t0) / 3.0)
    assert clock.scale(early - 1.0, early) == pytest.approx(1.0 / 2.0)  # only a sample after
    # the third sample starts inside this interval, so only the one before counts
    assert clock.scale(t2, t2 + 1.0) == pytest.approx(1.0 / 4.0)
    assert clock.samples == [2.0, 4.0, 8.0]
    with pytest.raises(ValueError):
        hostclock.HostClock().scale(0.0, 1.0)


def test_host_slowness_is_a_positive_ratio():
    assert 0.0 < hostclock.slowness() < 100.0


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
