"""Per-layer metrics of the traced run, named after the program's modules."""

from __future__ import annotations

from typing import Any, Sequence

from perfbench.tracing import diff

#: every per-layer metric, in the order printed; a workload that never
#: enters a layer reports 0 for it
PER_LAYER = (
    ("graph.build_s", "s"),
    ("pattern.plan_s", "s"),
    ("pattern.plans_built", "count"),
    ("codegen.compile_s", "s"),
    ("codegen.kernels_compiled", "count"),
    ("core.kernel_s", "s"),
    ("core.control_s", "s"),
    ("core.sched_steps", "count"),
    ("core.idle_polls", "count"),
    ("core.idle_poll_share", "share"),
    ("core.steals", "count"),
    ("candidates.compute_s", "s"),
    ("candidates.calls", "count"),
    ("virtgpu.set_ops", "count"),
    ("virtgpu.lane_util", "share"),
    ("parallel.run_shards_s", "s"),
    ("parallel.dispatch_s.replicate", "s"),
    ("parallel.dispatch_s.range", "s"),
    ("parallel.pool_starts", "count"),
    ("scale.shard_imbalance.replicate", "ratio"),
    ("scale.shard_imbalance.range", "ratio"),
    ("scale.max_shard_match_share", "share"),
    ("scale.replicate_s", "s"),
    ("serve.cache_hit_share", "share"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.retries", "count"),
    ("dynamic.count_delta_s", "s"),
    ("dynamic.anchor_runs", "count"),
    ("dynamic.patch_share", "share"),
    ("dynamic.compact_s", "s"),
    ("obs.trace_overhead", "share"),
    ("obs.unattributed_share", "share"),
)

_EMPTY = {"seconds": {}, "calls": {}, "results": {}, "covered": 0.0, "plans_observed": 0}


def _sum(sections: Sequence[dict[str, Any]], key: str, layer: str) -> float:
    return sum(s[key].get(layer, 0) for s in sections)


def pool_starts(stats: dict[str, Any]) -> int:
    """Pools ever started, from a ``repro.parallel.pool_stats()``
    snapshot: each one is still live, or was evicted or discarded."""
    return int(stats["live_pools"]) + int(stats["evictions"]) + int(stats["discards"])


def layer_metrics(
    marks: Sequence[dict[str, Any]],
    *,
    graph_s: float,
    results: Sequence[Any],
    phase_wall_s: float,
    untraced_wall_s: float,
    op_wall_s: float | None = None,
    kernel_sections: Sequence[str] = ("phase",),
    dynamic_sections: Sequence[str] = ("phase",),
    extra: dict[str, float] | None = None,
) -> dict[str, tuple[float, str]]:
    """Fold tracer marks into the :data:`PER_LAYER` metrics.

    ``marks`` are :meth:`~perfbench.tracing.LayerTracer.mark` snapshots taken at the *end* of the sections
    ``setup``, ``phase`` and then any of ``replay`` / ``probe`` (in
    that order, as named by their ``"section"`` key).  The timed-phase
    section alone sets the trace overhead (its wall against the same
    work untraced) and the unattributed share (of ``op_wall_s``, the
    operations' summed wall across threads, by default the phase wall);
    kernel-side layers sum ``kernel_sections`` and the write path
    ``dynamic_sections``; plans and compiles count everywhere.
    ``results`` are the in-process ``RunResult``\\ s behind the kernel
    sections (observed, so their reports carry idle polls).
    """
    sections: dict[str, dict[str, Any]] = {}
    before: dict[str, Any] = _EMPTY
    for mark in marks:
        sections[mark["section"]] = diff(mark, before)
        before = mark
    everything = list(sections.values())
    kernel = [sections[s] for s in kernel_sections if s in sections]
    dynamic = [sections[s] for s in dynamic_sections if s in sections]
    phase = sections["phase"]

    kernel_s = _sum(kernel, "seconds", "core.kernel")
    compute_s = _sum(kernel, "seconds", "candidates.compute")
    steps = _sum(kernel, "results", "core.scheduler")
    idle = sum(int(((r.report or {}).get("steals") or {}).get("idle_polls", 0))
               for r in results)
    utils = [float(r.thread_utilization) for r in results]
    values: dict[str, float] = {
        "graph.build_s": graph_s,
        "pattern.plan_s": _sum(everything, "seconds", "pattern.plan"),
        "pattern.plans_built": sum(s["plans_observed"] for s in everything),
        "codegen.compile_s": _sum(everything, "seconds", "codegen.compile"),
        "codegen.kernels_compiled": _sum(everything, "calls", "codegen.compile"),
        "core.kernel_s": kernel_s,
        "core.control_s": kernel_s - compute_s,
        "core.sched_steps": steps,
        "core.idle_polls": idle,
        "core.idle_poll_share": idle / steps if steps else 0.0,
        "core.steals": sum(r.num_local_steals + r.num_global_steals for r in results),
        "candidates.compute_s": compute_s,
        "candidates.calls": _sum(kernel, "calls", "candidates.compute"),
        "virtgpu.set_ops": sum(int(r.counters.set_ops) for r in results),
        "virtgpu.lane_util": sum(utils) / len(utils) if utils else 0.0,
        "parallel.run_shards_s": _sum([phase], "seconds", "parallel.run_shards"),
        "scale.replicate_s": _sum(everything, "seconds", "scale.replicate"),
        "dynamic.count_delta_s": _sum(dynamic, "seconds", "dynamic.count_delta"),
        "dynamic.compact_s": _sum(dynamic, "seconds", "dynamic.compact"),
        "obs.trace_overhead": phase_wall_s / untraced_wall_s - 1.0,
        "obs.unattributed_share": 1.0 - phase["covered"] / (op_wall_s or phase_wall_s),
    }
    values.update(extra or {})
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}
