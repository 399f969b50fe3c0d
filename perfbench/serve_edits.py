"""``serve-edits``: one ``MatchService`` under reads and edit batches.

Two closed-loop client threads send a seeded mix of repeated queries
(cache hits), budgeted queries (never cached) and keyed retries, in
rounds of :data:`ROUND_READS` reads each; client 0 also applies an edit
batch at the start of every round after the first.  This
exercises admission, the result cache and commit in ``serve`` and
count-patching in ``dynamic``, and runs many small single-shard tasks
on the same 2-worker pool ``partition-sparse`` gives two large ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro import CSRGraph, EngineConfig, STMatchEngine, get_query
from repro.serve import MatchRequest, MatchService

from perfbench import common, layers
from perfbench.common import Outcome
from perfbench.hostclock import HostClock
from perfbench.metrics import median, response_error_kind
from perfbench.streams import (
    BUDGETS,
    REPEAT_QUERIES,
    Read,
    apply_batch,
    edit_stream,
    read_stream,
)
from perfbench.tracing import LayerTracer

GRAPH = ("wiki_vote", "tiny")
NAME = "wiki_vote"
CLIENTS = 2

#: reads per client per round; between rounds both clients wait while
#: the host clock takes a sample.  Client 0 applies one edit batch per
#: round after the first: two degree-preserving double-edge swaps (4
#: deletes, 4 inserts), which evens out the cost of single hub edges
ROUND_READS = 10
EDIT_SWAPS = 2

#: p95 needs 200 samples to leave 10 beyond it; the phase runs past
#: ``--seconds`` until it has them, but never past 4× ``--seconds``
MIN_READS = 200
MAX_OVERRUN = 4.0


@dataclass
class ReadRecord:
    read: Read
    span: tuple[float, float]  # perf_counter start and end
    engine_s: float = 0.0  # run_shards wall inside this request (traced only)
    response: Any = None
    raised: str = ""


@dataclass
class EditRecord:
    inserts: list
    deletes: list
    span: tuple[float, float]
    report: Any = None
    raised: str = ""


@dataclass
class State:
    service: MatchService
    graph: Any
    graph_s: float
    version: int  # the hosted graph's version before any edit
    warm: list[ReadRecord] = field(default_factory=list)


def _send(service: MatchService, read: Read, tracer: LayerTracer | None) -> ReadRecord:
    request = MatchRequest(graph=NAME, query=get_query(read.query), budget=read.budget,
                           idempotency_key=read.idempotency_key)
    engine0 = tracer.thread_seconds("parallel.run_shards") if tracer else 0.0
    t0 = time.perf_counter()
    try:
        response = service.match(request)
    except Exception as e:  # noqa: BLE001 - a raising request is an outcome
        return ReadRecord(read, (t0, time.perf_counter()), raised=repr(e))
    span = (t0, time.perf_counter())
    engine = tracer.thread_seconds("parallel.run_shards") - engine0 if tracer else 0.0
    return ReadRecord(read, span, engine, response)


def setup(seed: int) -> State:
    t0 = time.perf_counter()
    graph = common.build_dataset(*GRAPH)
    graph_s = time.perf_counter() - t0
    service = MatchService({NAME: graph}, EngineConfig(
        executor="process", num_workers=common.NUM_WORKERS))
    state = State(service, graph, graph_s, service.graph_version(NAME))
    # fill the cache for the repeated queries and plan every query
    for q in REPEAT_QUERIES:
        state.warm.append(_send(service, Read("repeat", q), None))
    for q, budget in BUDGETS.items():
        state.warm.append(_send(service, Read("budget", q, budget), None))
    return state


def teardown(state: State) -> None:
    common.stop_workers()


@dataclass
class Phase:
    reads: list[list[ReadRecord]]
    edits: list[EditRecord]
    rounds: list[tuple[float, float]]  # perf_counter start and end of each round
    clock: HostClock

    @property
    def all_reads(self) -> list[ReadRecord]:
        return [r for client in self.reads for r in client]

    @property
    def wall_s(self) -> float:
        """The rounds' summed wall in reference seconds (the clock's
        samples between rounds are not part of it)."""
        return sum(self.clock.scale(*span) for span in self.rounds)

    def wall_of(self, record: ReadRecord | EditRecord) -> float:
        """One operation's wall in reference seconds."""
        return self.clock.scale(*record.span)


def timed_phase(state: State, seed: int, seconds: float, clock: HostClock,
                rounds: int | None = None, tracer: LayerTracer | None = None) -> Phase:
    """Run the clients round by round until ``seconds`` elapse and
    :data:`MIN_READS` reads completed (but never past
    :data:`MAX_OVERRUN` × ``seconds``), or for exactly ``rounds`` rounds.
    The clock takes a sample before the first round and after each."""
    reads: list[list[ReadRecord]] = [[] for _ in range(CLIENTS)]
    edits: list[EditRecord] = []
    spans: list[tuple[float, float]] = []
    stop = [False]
    crashed: list[BaseException] = []
    base_edges = common.canonical_edges(state.graph)
    clock.tick()
    t0 = time.perf_counter()
    starts = [t0]

    def between_rounds() -> None:
        # runs on one client thread while the other waits at the barrier
        spans.append((starts[-1], time.perf_counter()))
        clock.tick()
        if rounds is not None:
            stop[0] = len(spans) >= rounds
        else:
            elapsed = time.perf_counter() - t0
            enough = sum(len(r) for r in reads) >= MIN_READS
            stop[0] = elapsed >= seconds * MAX_OVERRUN or (elapsed >= seconds and enough)
        starts.append(time.perf_counter())

    barrier = threading.Barrier(CLIENTS, action=between_rounds)

    def client(c: int) -> None:
        try:
            stream = read_stream(seed, c)
            batches = edit_stream(seed, base_edges, EDIT_SWAPS) if c == 0 else None
            while not stop[0]:
                if batches is not None and reads[c]:
                    edits.append(_edit(state.service, *next(batches)))
                for _ in range(ROUND_READS):
                    reads[c].append(_send(state.service, next(stream), tracer))
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the other client crashed and broke the barrier
        except BaseException as e:  # noqa: BLE001 - re-raised in the caller
            crashed.append(e)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(c,), name=f"client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashed:
        raise crashed[0]
    if barrier.broken:
        raise RuntimeError("round barrier broke")
    return Phase(reads, edits, spans, clock)


def _edit(service: MatchService, inserts: list, deletes: list) -> EditRecord:
    t0 = time.perf_counter()
    try:
        report = service.apply_edits(NAME, inserts=inserts, deletes=deletes)
    except Exception as e:  # noqa: BLE001 - a raising edit is an outcome
        return EditRecord(inserts, deletes, (t0, time.perf_counter()), raised=repr(e))
    return EditRecord(inserts, deletes, (t0, time.perf_counter()), report)


class Recounter:
    """Serial recounts of one service's graph versions, memoized."""

    def __init__(self, state: State) -> None:
        self.n = state.graph.num_vertices
        self.edges = {state.version: set(common.canonical_edges(state.graph))}
        self._graphs: dict[int, CSRGraph] = {}
        self._counts: dict[tuple, int] = {}

    def add_edit(self, record: EditRecord, out: Outcome) -> None:
        rep = record.report
        if rep.new_version == rep.old_version or rep.old_version not in self.edges:
            out.mismatch(f"edit batch went from version {rep.old_version} to "
                         f"{rep.new_version}")
            return
        self.edges[rep.new_version] = apply_batch(
            self.edges[rep.old_version], record.inserts, record.deletes)

    def count(self, version: int, query: str, budget: int | None) -> int | None:
        key = (version, query, budget)
        if key not in self._counts:
            if version not in self.edges:
                return None
            if version not in self._graphs:
                self._graphs[version] = CSRGraph.from_edges(
                    self.n, sorted(self.edges[version]), name=NAME)
            engine = STMatchEngine(self._graphs[version], EngineConfig(max_results=budget))
            self._counts[key] = engine.run(get_query(query)).matches
        return self._counts[key]


def check(state: State, phase: Phase, out: Outcome) -> None:
    """Tally every read and edit; every countable answer must equal a
    serial recount on the graph version it names."""
    recount = Recounter(state)
    for record in phase.edits:
        out.tally.attempt("raised" if record.raised else None)
        if record.report is not None:
            recount.add_edit(record, out)
    for record in state.warm + phase.all_reads:
        resp = record.response
        if resp is None:
            out.tally.attempt("raised")
            continue
        kind = response_error_kind(resp.status, resp.run_status)
        out.tally.attempt(kind)
        if kind is not None:
            continue
        read = record.read
        expect = recount.count(resp.graph_version, read.query, read.budget)
        if expect is None:
            out.mismatch(f"{read}: response names unknown version {resp.graph_version}")
        elif resp.matches != expect:
            out.mismatch(f"{read} at version {resp.graph_version} "
                         f"({resp.served_from}): {resp.matches} != recount {expect}")
        elif read.budget is None and not resp.exact:
            out.mismatch(f"{read}: unbudgeted answer not marked exact")


def _engine_served(phase: Phase) -> list[ReadRecord]:
    return [r for r in phase.all_reads
            if r.response is not None and r.response.served_from == "engine"
            and response_error_kind(r.response.status, r.response.run_status) is None]


def end_to_end(phase: Phase, out: Outcome) -> None:
    reads = phase.all_reads
    engine = _engine_served(phase)
    phase_s = phase.wall_s
    out.metrics["requests_per_s"] = (len(reads) / phase_s, "req/s")
    common.latency_metrics([phase.wall_of(r) for r in reads], out)
    out.metrics["edit_p50_ms"] = (median([phase.wall_of(e) for e in phase.edits]) * 1e3, "ms")
    out.metrics["matches_per_s"] = (sum(r.response.matches for r in engine) / phase_s,
                                    "matches/s")
    out.metrics["sim_ms"] = (sum(r.response.sim_ms for r in engine) / len(engine), "ms")
    by_wall = sorted(reads, key=phase.wall_of)
    mid = by_wall[len(by_wall) // 2]
    out.info.update({
        "reads": len(reads), "edits": len(phase.edits), "rounds": len(phase.rounds),
        "phase_s": round(phase_s, 3),
        "p50_served_from": mid.response.served_from if mid.response else "raised",
        "served_from": _provenance(reads),
    })


def _provenance(reads: list[ReadRecord]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in reads:
        key = r.response.served_from if r.response is not None else "raised"
        counts[key] = counts.get(key, 0) + 1
    return counts


def run(seed: int, seconds: float, trace: bool, import_s: float, clock: HostClock) -> Outcome:
    out = Outcome()
    if not trace:
        state, setups = common.repeat_setup(lambda: setup(seed), teardown,
                                            common.SETUP_REPEATS, clock)
        phase = timed_phase(state, seed, seconds, clock)
        check(state, phase, out)
        end_to_end(phase, out)
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
    check(state, plain, out)
    # the traced phase replays the same streams on a fresh service
    teardown(state)
    state = setup(seed)
    before = state.service.stats()["requests"]
    pools0 = layers.pool_starts(pool_stats())
    tracer.install()
    try:
        traced = timed_phase(state, seed, seconds, clock, rounds=len(plain.rounds),
                             tracer=tracer)
        marks.append(tracer.mark("phase"))
    finally:
        tracer.uninstall()
    after = state.service.stats()["requests"]
    check(state, traced, out)
    engine = _engine_served(traced)
    reports = [e.report for e in traced.edits if e.report is not None]
    invalidated = sum(r.entries_invalidated for r in reports)
    extra = {
        "parallel.pool_starts": layers.pool_starts(pool_stats()) - pools0,
        "serve.cache_hit_share": (after["cached"] - before["cached"])
        / max(1, after["total"] - before["total"]),
        "serve.engine_ms_p50": median([r.engine_s for r in engine]) * 1e3,
        "serve.overhead_ms_p50": median([common.span_s(r.span) - r.engine_s
                                         for r in engine]) * 1e3,
        "serve.retries": after["retries"] - before["retries"],
        "dynamic.anchor_runs": sum(r.anchor_runs for r in reports),
        "dynamic.patch_share": sum(r.entries_patched for r in reports) / invalidated
        if invalidated else 0.0,
    }
    op_wall = sum(common.span_s(r.span) for r in traced.all_reads + traced.edits)
    out.metrics.update(layers.layer_metrics(
        marks, graph_s=state.graph_s, results=[],
        phase_wall_s=sum(common.span_s(s) for s in traced.rounds),
        untraced_wall_s=sum(common.span_s(s) for s in plain.rounds), op_wall_s=op_wall,
        extra=extra))
    end_to_end(traced, out)
    out.metrics = {k: v for k, v in out.metrics.items() if k in dict(layers.PER_LAYER)}
    out.info["missing_hooks"] = tracer.missing
    return out
