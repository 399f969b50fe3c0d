"""Metric arithmetic of the benchmark, free of any ``repro`` import.

Everything here is a pure function of numbers the workloads measured, so
the tests can pin it with synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it; fewer, and one outlier more or less moves it
MIN_SAMPLES_BEYOND = 10

#: percentiles the latency summary considers, highest first
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: run statuses an operation may end with and still count as done
RUN_OK = frozenset({"ok", "budget"})

#: error kinds the accounting distinguishes (one per failed operation)
ERROR_KINDS = (
    "shed",  # refused at admission: queue full
    "rejected",  # refused by a tenant limit
    "deadline",  # deadline expired before or while it ran
    "failed",  # the service reported the request failed
    "raised",  # the call raised an exception
    "run_status",  # the engine run ended other than OK/BUDGET
    "mismatch",  # the answer disagreed with the serial recount
)

#: ``MatchResponse.status`` → error kind (``"ok"`` is no error)
RESPONSE_ERROR_KIND = {
    "rejected_overload": "shed",
    "rejected_tenant": "rejected",
    "deadline_exceeded": "deadline",
    "failed": "failed",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ordered samples lie strictly above the ``q``-th
    percentile's rank."""
    return n - math.ceil(n * q / 100.0)


def supports_percentile(n: int, q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> bool:
    """Whether ``n`` samples leave ``min_beyond`` beyond the ``q``-th
    percentile (``n = 200`` is the smallest that supports p95)."""
    return samples_beyond(n, q) >= min_beyond


def highest_supported_percentile(
    n: int,
    candidates: Iterable[float] = CANDIDATE_PERCENTILES,
    min_beyond: int = MIN_SAMPLES_BEYOND,
) -> float | None:
    """The highest candidate percentile ``n`` samples support, or ``None``."""
    for q in sorted(candidates, reverse=True):
        if supports_percentile(n, q, min_beyond):
            return q
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


@dataclass
class ErrorTally:
    """Attempted operations and the failed ones, by error kind."""

    attempted: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.by_kind.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def attempt(self, kind: str | None = None) -> None:
        """Count one attempted operation; ``kind`` names its failure."""
        self.attempted += 1
        if kind is not None:
            self.fail(kind)

    def fail(self, kind: str) -> None:
        """Mark an already-attempted operation failed (e.g. a mismatch
        found by a later check)."""
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {kind!r}")
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


def run_error_kind(status: str) -> str | None:
    """Error kind of an engine run that ended with ``status``."""
    return None if str(status) in RUN_OK else "run_status"


def response_error_kind(status: str, run_status: str = "") -> str | None:
    """Error kind of a served request: its response ``status`` first,
    then the engine run behind an OK response (empty for cache hits and
    replays, which ran nothing)."""
    kind = RESPONSE_ERROR_KIND.get(status)
    if kind is not None:
        return kind
    if status != "ok":
        return "failed"
    if run_status and run_status not in RUN_OK:
        return "run_status"
    return None


def dispatch_s(run_wall_s: float, shard_walls_s: Sequence[float]) -> float:
    """Time a parallel run spent beyond its slowest shard: pool dispatch,
    pickling, IPC and result collection.  Negative when the shards ran
    faster in the pool than when replayed alone, which is reported as
    measured."""
    if not shard_walls_s:
        raise ValueError("need at least one shard")
    return run_wall_s - max(shard_walls_s)


def shard_imbalance(shard_walls_s: Sequence[float]) -> float:
    """Slowest shard over the mean shard (1.0 = perfectly balanced)."""
    if not shard_walls_s:
        raise ValueError("need at least one shard")
    mean = sum(shard_walls_s) / len(shard_walls_s)
    return max(shard_walls_s) / mean if mean > 0 else 1.0


def max_share(parts: Sequence[int]) -> float:
    """The largest part's share of the total (0.0 for an empty total)."""
    total = sum(parts)
    return max(parts) / total if total else 0.0
