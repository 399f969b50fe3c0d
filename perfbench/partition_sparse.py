"""``partition-sparse``: ``run_partitioned`` on the 2-worker process pool.

wiki_vote(small)/q5 runs exhaustively in ``replicate`` and in ``range``
mode.  The graph is skewed: range mode hands one shard nearly all the
matches, and both modes pay pool dispatch and IPC, so this is the
workload for the ``parallel`` and ``scale`` layers and for the
control plane's stealing tails.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from repro import EngineConfig, STMatchEngine, get_query

from perfbench import common, layers
from perfbench.common import Outcome
from perfbench.hostclock import HostClock
from perfbench.metrics import (
    dispatch_s,
    max_share,
    median,
    run_error_kind,
    shard_imbalance,
)
from perfbench.tracing import LayerTracer

GRAPH = ("wiki_vote", "small")
#: q5 counts 165,081 matches in about 1.4 s serially, so a run yields
#: a dozen partitioned runs to take medians over; in range mode one
#: shard gets 98% of them
QUERY = "q7"
MODES = ("replicate", "range")
PARTITIONS = 2

#: per-shard warm-up budget: spawns the pool, exports the graph and
#: builds the plan and the range replicas without the full run
WARMUP_BUDGET = 50_000

#: every mode's wall is a median of at least this many runs
MIN_PASSES = 2

#: write-path probe (``edit_p50_ms``): swap batches priced for the
#: 5-clique, a few after every pass
PROBE_QUERY, PROBE_PER_PASS = "q8", 5


def _config(mode: str, **kw: Any) -> EngineConfig:
    return EngineConfig(executor="process", num_workers=common.NUM_WORKERS,
                        partition_mode=mode, **kw)


@dataclass
class State:
    graph: Any
    graph_s: float


def setup(seed: int) -> State:
    t0 = time.perf_counter()
    graph = common.relabel(common.build_dataset(*GRAPH), seed)
    graph_s = time.perf_counter() - t0
    query = get_query(QUERY)
    for mode in MODES:
        STMatchEngine(graph, _config(mode, max_results=WARMUP_BUDGET)).run_partitioned(
            query, num_partitions=PARTITIONS)
    return State(graph, graph_s)


def teardown(state: State) -> None:
    common.stop_workers()


def timed_phase(state: State, seed: int, seconds: float | None, clock: HostClock,
                passes: int | None = None, tracer: LayerTracer | None = None,
                probe: common.WriteProbe | None = None, out: Outcome | None = None) -> list:
    """Whole passes (one run per mode, seeded order, then ``probe``
    steps) until ``seconds`` elapse and :data:`MIN_PASSES` are done, or
    exactly ``passes``, with a ``clock`` tick after every run; returns
    ``(mode, (start, end), result, run_shards wall)`` per run (the last
    is 0 untraced)."""
    engines = {m: STMatchEngine(state.graph, _config(m)) for m in MODES}
    query = get_query(QUERY)
    rng = random.Random(f"modes:{seed}")
    ops = []
    clock.tick()
    t0 = time.perf_counter()
    done = 0
    while True:
        modes = list(MODES)
        rng.shuffle(modes)
        for mode in modes:
            shards0 = tracer.thread_seconds("parallel.run_shards") if tracer else 0.0
            t = time.perf_counter()
            result = engines[mode].run_partitioned(query, num_partitions=PARTITIONS)
            span = (t, time.perf_counter())
            shards = tracer.thread_seconds("parallel.run_shards") - shards0 if tracer else 0.0
            ops.append((mode, span, result, shards))
            clock.tick()
        if probe is not None:
            for _ in range(PROBE_PER_PASS):
                probe.step(out)
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            break
    return ops


def _signature(result: Any) -> tuple:
    return (result.matches, repr(result.sim_ms),
            tuple((r.matches, repr(r.sim_ms)) for r in result.per_device))


def check(ops: list, serial_count: int, out: Outcome) -> dict:
    """Every run must count exactly the serial unpartitioned total and
    repeat its per-shard answers on every pass."""
    first: dict = {}
    for mode, _, r, _ in ops:
        kind = run_error_kind(r.status)
        out.tally.attempt(kind)
        if kind is None and r.matches != serial_count:
            out.mismatch(f"{mode}: partitioned count {r.matches} != serial {serial_count}")
        sig = _signature(r)
        if mode not in first:
            first[mode] = sig
        elif sig != first[mode]:
            out.mismatch(f"{mode}: passes disagree: {sig} vs {first[mode]}")
    return first


def serial_count(state: State) -> int:
    """The untimed reference: one serial, unpartitioned, exhaustive run."""
    return STMatchEngine(state.graph).run(get_query(QUERY)).matches


def end_to_end(ops: list, first: dict, out: Outcome, clock: HostClock) -> None:
    """The end-to-end metrics, from walls in reference seconds."""
    ops = [(mode, clock.scale(*span), r, s) for mode, span, r, s in ops]
    walls = {m: median([w for mode, w, _, _ in ops if mode == m]) for m in first}
    common.throughput_metrics([w for _, w, _, _ in ops], [r.matches for _, _, r, _ in ops],
                              out)
    out.metrics["sim_ms"] = (sum(float(sig[1]) for sig in first.values()), "ms")
    common.latency_metrics([w for _, w, _, _ in ops], out)
    out.info["runs"] = len(ops)
    out.info["mode_median_s"] = {m: round(w, 4) for m, w in walls.items()}


def replay(state: State, observe: bool) -> dict[str, list[tuple[float, Any]]]:
    """Each mode's shards, one after another in this process, through
    public calls only: ``(wall, result)`` per shard."""
    from repro.scale.partition import PartitionedGraph, VertexPartition

    extra = {"observe": True} if observe else {}
    cfg = EngineConfig(**extra)
    query = get_query(QUERY)
    shards: dict[str, list[tuple[float, Any]]] = {m: [] for m in MODES}
    engine = STMatchEngine(state.graph, cfg)
    for d in range(PARTITIONS):
        t = time.perf_counter()
        r = engine.run(query, root_partition=(d, PARTITIONS))
        shards["replicate"].append((time.perf_counter() - t, r))
    part = VertexPartition.balanced(state.graph, PARTITIONS)
    for d in range(PARTITIONS):
        lo, hi = part.range_of(d)
        replica = PartitionedGraph.replicate(state.graph, lo, hi)
        t = time.perf_counter()
        r = STMatchEngine(replica, cfg).run(query, root_vertices=(lo, hi))
        shards["range"].append((time.perf_counter() - t, r))
    return shards


def run(seed: int, seconds: float, trace: bool, import_s: float, clock: HostClock) -> Outcome:
    out = Outcome()
    if not trace:
        state, setups = common.repeat_setup(lambda: setup(seed), teardown,
                                            common.SETUP_REPEATS, clock)
        probe = common.WriteProbe(state.graph, PROBE_QUERY, seed, clock)
        ops = timed_phase(state, seed, seconds, clock, probe=probe, out=out)
        first = check(ops, serial_count(state), out)
        end_to_end(ops, first, out, clock)
        probe.verify(out)
        out.metrics["edit_p50_ms"] = (median(probe.walls) * 1e3, "ms")
        out.metrics["setup_s"] = (common.setup_metric(import_s, setups), "s")
        return out

    from repro.parallel import pool_stats

    tracer = LayerTracer()
    tracer.install()
    try:
        state = setup(seed)
    finally:
        tracer.uninstall()
    marks = [tracer.mark("setup")]
    plain = timed_phase(state, seed, seconds, clock)
    probe = common.WriteProbe(state.graph, PROBE_QUERY, seed, clock)
    pools_before = layers.pool_starts(pool_stats())
    tracer.install()
    try:
        # one traced pass keeps a traced run well inside its time limit;
        # it matches the first untraced pass (same seeded mode order).
        # The workers run unobserved, like the replays that set the shard
        # walls, so dispatch_s compares like with like
        traced = timed_phase(state, seed, None, clock, passes=1, tracer=tracer)
        marks.append(tracer.mark("phase"))
        pool_starts = layers.pool_starts(pool_stats()) - pools_before
        shards = replay(state, observe=True)
        marks.append(tracer.mark("replay"))
        for _ in range(PROBE_PER_PASS):
            probe.step(out)
        marks.append(tracer.mark("probe"))
    finally:
        tracer.uninstall()
    probe.verify(out)
    walls = replay(state, observe=False)  # untraced shard walls
    reference = serial_count(state)
    first = check(plain, reference, out)
    check(traced, reference, out)
    for (mode, _, a, _), (_, _, b, _) in zip(plain, traced):
        if _signature(a) != _signature(b):
            out.mismatch(f"{mode}: traced run differs from untraced")
    extra: dict[str, float] = {"parallel.pool_starts": pool_starts,
                               "dynamic.anchor_runs": probe.anchor_runs}
    for mode in MODES:
        pooled = first[mode][2]
        replayed = tuple((r.matches, repr(r.sim_ms)) for _, r in shards[mode])
        if replayed != pooled:
            out.mismatch(f"{mode}: serial shard replay {replayed} != pool shards {pooled}")
        shard_walls = [w for w, _ in walls[mode]]
        run_shards_s = median([s for m, _, _, s in traced if m == mode])
        extra[f"parallel.dispatch_s.{mode}"] = dispatch_s(run_shards_s, shard_walls)
        extra[f"scale.shard_imbalance.{mode}"] = shard_imbalance(shard_walls)
        out.info[f"shard_walls_s.{mode}"] = [round(w, 4) for w in shard_walls]
        out.info[f"run_shards_s.{mode}"] = round(run_shards_s, 4)
    extra["scale.max_shard_match_share"] = max_share([m for m, _ in first["range"][2]])
    out.metrics.update(layers.layer_metrics(
        marks, graph_s=state.graph_s,
        results=[r for mode in MODES for _, r in shards[mode]],
        phase_wall_s=sum(common.span_s(s) for _, s, _, _ in traced),
        untraced_wall_s=sum(common.span_s(s) for _, s, _, _ in plain[:len(traced)]),
        kernel_sections=("replay",), dynamic_sections=("probe",), extra=extra))
    out.info["runs"] = len(traced)
    out.info["serial_count"] = reference
    out.info["missing_hooks"] = tracer.missing
    return out
