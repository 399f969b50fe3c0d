"""Shared pieces of the workloads: host facts, inputs, clean-up."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench.hostclock import HostClock
from perfbench.metrics import ErrorTally, highest_supported_percentile, median, percentile
from perfbench.streams import edit_stream

#: environment overrides that would re-route the engine behind the
#: benchmark's back; the benchmark process clears them before importing
PINNED_ENV = ("REPRO_EXECUTOR", "REPRO_NUM_WORKERS", "REPRO_CODEGEN", "REPRO_GRAPH_BACKEND")

#: worker processes every pooled workload asks for (the box has 2 CPUs)
NUM_WORKERS = 2

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3

#: a seeded input shuffles vertex ids within blocks of this size, and
#: only in the upper half of the ids: the stand-ins' low-degree tail.
#: Hubs keep their ids, so range partitions stay skewed and the work of
#: a run barely moves, while enumeration order and simulated times do
RELABEL_BLOCK = 8

#: double-edge swaps per write-probe batch (see :class:`WriteProbe`)
PROBE_SWAPS = 2


def pin_environment() -> list[str]:
    """Drop the engine's env overrides; returns the names that were set."""
    return [name for name in PINNED_ENV if os.environ.pop(name, None) is not None]


def host_info() -> dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def source_id(root: Path) -> dict[str, Any]:
    """The commit (when the checkout carries git metadata) and a digest
    of every source file, which identifies the code either way."""
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource  # pragma: no cover - no procfs

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_workers(timeout_s: float = 20.0) -> None:
    """Shut the engine's worker pools, free shared memory, and wait for
    every child process to end."""
    from repro.parallel import release_exports, shutdown_pools

    shutdown_pools()
    release_exports()
    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.1, deadline - time.monotonic()))
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process ``multiprocessing``
    starts on the first export, and wait for it; it unlinks any segment
    still registered on its way out."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def canonical_edges(graph: Any) -> list[tuple[int, int]]:
    """``(u, v)`` with ``u < v`` for every edge of an undirected graph."""
    indptr = np.asarray(graph.indptr)
    src = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    dst = np.asarray(graph.indices)
    keep = src < dst
    return list(zip(src[keep].tolist(), dst[keep].tolist()))


def relabel(graph: Any, seed: int) -> Any:
    """An isomorphic copy of ``graph`` whose upper-half vertex ids are
    shuffled within consecutive blocks by ``seed``.  Exhaustive counts
    are unchanged; budget stops and simulated times shift slightly."""
    from repro import CSRGraph

    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    perm = np.arange(n)
    for start in range(n // 2, n, RELABEL_BLOCK):
        block = slice(start, start + RELABEL_BLOCK)
        perm[block] = rng.permutation(perm[block])
    indptr = np.asarray(graph.indptr)
    src = np.repeat(np.arange(n), np.diff(indptr))
    edges = np.stack([perm[src], perm[np.asarray(graph.indices)]], axis=1)
    labels = None
    if graph.labels is not None:
        old = np.asarray(graph.labels)
        labels = np.empty_like(old)
        labels[perm] = old
    return CSRGraph.from_edges(n, edges, labels=labels, directed=graph.directed,
                               name=graph.name)


def build_dataset(name: str, scale: str) -> Any:
    """Generate a registered stand-in dataset afresh (``load_dataset``
    memoizes, which would hide the build time of repeated set-ups)."""
    from repro.graph.datasets import DATASETS

    return DATASETS[name].build(scale)


@dataclass
class Outcome:
    """What one workload run measured and found."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    tally: ErrorTally = field(default_factory=ErrorTally)
    mismatches: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def mismatch(self, message: str, count_failure: bool = True) -> None:
        """Record a correctness failure; it also fails the operation
        it was found on unless that one was already counted failed."""
        self.mismatches.append(message)
        if count_failure:
            self.tally.fail("mismatch")


def span_s(span: tuple[float, float]) -> float:
    """Raw wall seconds of a ``(start, end)`` span."""
    return span[1] - span[0]


def throughput_metrics(walls_s: list[float], matches: list[int], out: Outcome) -> None:
    """``matches_per_s`` and ``requests_per_s`` of whole passes: every
    run's matches, and the number of runs, over their summed walls.
    Once the walls are in reference seconds, these totals spread less
    from run to run than per-cell medians did."""
    total_s = sum(walls_s)
    out.metrics["matches_per_s"] = (sum(matches) / total_s, "matches/s")
    out.metrics["requests_per_s"] = (len(walls_s) / total_s, "req/s")


def latency_metrics(walls_s: list[float], out: Outcome) -> None:
    """``latency_p50_ms`` and ``latency_p95_ms`` of per-operation walls;
    the payload records the sample count and the highest percentile it
    supports."""
    lat = [w * 1e3 for w in walls_s]
    out.metrics["latency_p50_ms"] = (percentile(lat, 50), "ms")
    out.metrics["latency_p95_ms"] = (percentile(lat, 95), "ms")
    out.info["latency_samples"] = len(lat)
    out.info["highest_supported_percentile"] = highest_supported_percentile(len(lat))


def repeat_setup(setup: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int, clock: HostClock) -> tuple[Any, list[float]]:
    """Run ``setup`` ``repeats`` times (tearing down all but the last)
    and return the last state with every set-up's wall time in
    reference seconds."""
    spans: list[tuple[float, float]] = []
    state = None
    clock.tick()
    for i in range(repeats):
        if i:
            teardown(state)
            clock.tick()
        t0 = time.perf_counter()
        state = setup()
        spans.append((t0, time.perf_counter()))
        clock.tick()
    return state, [clock.scale(*span) for span in spans]


class WriteProbe:
    """The library write path, timed on a workload without write traffic.

    Each :meth:`step` applies one seeded batch of :data:`PROBE_SWAPS`
    double-edge swaps, starting from ``graph`` (which is never mutated):
    the batch is priced by ``repro.dynamic.count_delta`` for
    ``query_name`` and compacted into the next graph, as
    ``MatchService.apply_edits`` does.
    Steps run between the timed passes, so the probe samples the same
    stretch of time as the metrics beside it; each step is followed by a
    ``clock`` tick, so :attr:`walls` are in reference seconds.
    :meth:`verify` recounts.
    """

    def __init__(self, graph: Any, query_name: str, seed: int, clock: HostClock) -> None:
        from repro import get_query

        self.graph = self.current = graph
        self.query_name = query_name
        self.query = get_query(query_name)
        self.stream = edit_stream(seed, canonical_edges(graph), PROBE_SWAPS)
        self.clock = clock
        self.spans: list[tuple[float, float]] = []
        self.net = self.anchor_runs = 0
        self.failed = False

    def step(self, out: Outcome) -> None:
        from repro.dynamic import EditBatch, count_delta

        if self.failed:
            return
        inserts, deletes = next(self.stream)
        t0 = time.perf_counter()
        try:
            delta, mutated = count_delta(self.current, self.query, EditBatch.from_lists(
                inserts=inserts, deletes=deletes))
            self.current = mutated.compact()
        except Exception as e:  # noqa: BLE001 - a failed edit is an outcome
            out.tally.attempt("raised")
            out.mismatch(f"write probe raised {e!r}", count_failure=False)
            self.failed = True
            return
        self.spans.append((t0, time.perf_counter()))
        self.clock.tick()
        out.tally.attempt()
        self.net += delta.net
        self.anchor_runs += delta.anchor_runs

    @property
    def walls(self) -> list[float]:
        return [self.clock.scale(*span) for span in self.spans]

    def verify(self, out: Outcome) -> None:
        """The summed deltas must match serial counts before and after."""
        from repro import STMatchEngine

        before = STMatchEngine(self.graph).run(self.query).matches
        after = STMatchEngine(self.current).run(self.query).matches
        if not self.failed and after != before + self.net:
            out.mismatch(f"write probe {self.graph.name}/{self.query_name}: {before} "
                         f"+ delta {self.net} != recount {after}")
        out.info["write_probe"] = {"graph": self.graph.name, "query": self.query_name,
                                   "batches": len(self.spans), "net": self.net,
                                   "anchor_runs": self.anchor_runs}


def setup_metric(import_s: float, walls: list[float]) -> float:
    """``setup_s``: the imports (paid once per process) plus the median
    of the repeated set-ups, all in reference seconds."""
    return import_s + median(walls)
