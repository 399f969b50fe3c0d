"""Request/response contract of the match service.

The wire between a client and :class:`repro.serve.MatchService` is two
frozen dataclasses.  The response contract carries the whole robustness
story in three orthogonal fields:

``status``
    What happened to the *request*: served (``OK``), explicitly shed
    (``REJECTED_OVERLOAD`` / ``REJECTED_TENANT``), out of time
    (``DEADLINE_EXCEEDED``) or failed (``FAILED``).  A shed or failed
    request carries zero matches and a non-empty ``detail`` — never a
    silent drop.
``exact``
    Whether ``matches`` equals the full exact count for the graph
    version the response names.  A budget-truncated partial count is a
    served response (``OK``) that is *not* exact.
``degraded``
    Whether the service stepped down the execution ladder (pool →
    in-thread → budget-truncated) to produce the answer; ``detail``
    says why.  A client can therefore never mistake a partial or
    degraded count for an exact one: :attr:`MatchResponse.countable`
    is the one bit the chaos harness audits against golden counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pattern.query import QueryGraph

__all__ = [
    "MatchRequest",
    "MatchResponse",
    "ResponseStatus",
    "RetryPolicy",
    "TenantPolicy",
]


class ResponseStatus:
    """Terminal outcomes of one request (string constants)."""

    OK = "ok"
    REJECTED_OVERLOAD = "rejected_overload"
    REJECTED_TENANT = "rejected_tenant"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    FAILED = "failed"

    ALL = (OK, REJECTED_OVERLOAD, REJECTED_TENANT, DEADLINE_EXCEEDED, FAILED)

    #: statuses that shed the request at admission (no execution ran)
    SHED = (REJECTED_OVERLOAD, REJECTED_TENANT)


@dataclass(frozen=True)
class MatchRequest:
    """One client request: count ``query`` on hosted graph ``graph``.

    Attributes
    ----------
    graph:
        Name of a graph the service hosts (see ``MatchService.graphs``).
    query:
        The pattern to count.
    tenant:
        Accounting/limits bucket; unknown tenants get the default
        policy.
    vertex_induced:
        Matching semantics (as in :meth:`STMatchEngine.run`).
    deadline_s:
        Wall-clock budget for the *whole* request — admission wait,
        retries and backoff included.  Propagates into the worker batch
        deadline; ``None`` inherits the service default.
    budget:
        Client-requested exploration budget (``EngineConfig.budget``):
        stop after this many matches.  A truncated answer comes back
        ``OK`` but ``exact=False``.
    idempotency_key:
        Client-chosen retry token: two requests with the same key are
        the *same* logical request, and the service will execute it at
        most once while the key is remembered (rule X511).  ``None``
        opts out of deduplication.
    """

    graph: str
    query: "QueryGraph"
    tenant: str = "default"
    vertex_induced: bool = False
    deadline_s: float | None = None
    budget: int | None = None
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        if not self.graph:
            raise ValueError("request needs a hosted graph name")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 seconds (or None)")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 matches (or None)")


@dataclass(frozen=True)
class MatchResponse:
    """The service's answer to one :class:`MatchRequest`.

    ``graph_version`` names the snapshot the count is for — responses
    computed while the graph was being replaced still carry a
    consistent ``(matches, version)`` pair.  ``served_from`` records
    provenance: a fresh ``"engine"`` run, the result ``"cache"``, or
    the ``"idempotency"`` window (a retried request served without
    re-execution).
    """

    request_id: str
    tenant: str
    graph: str
    graph_version: int
    status: str
    matches: int = 0
    exact: bool = False
    degraded: bool = False
    degrade_level: int = 0
    detail: str = ""
    run_status: str = ""
    cycles: float = 0.0
    sim_ms: float = 0.0
    wall_ms: float = 0.0
    attempts: int = 0
    served_from: str = "engine"

    def __post_init__(self) -> None:
        if self.status not in ResponseStatus.ALL:
            raise ValueError(f"unknown response status {self.status!r}")
        if self.status != ResponseStatus.OK and self.exact:
            raise ValueError("only a served (OK) response can be exact")
        if self.status != ResponseStatus.OK and self.matches:
            raise ValueError(
                f"a {self.status} response must not expose a partial count"
            )
        if (self.degraded or self.status != ResponseStatus.OK) and not self.detail:
            raise ValueError(
                "degraded and non-OK responses need a non-empty detail"
            )

    @property
    def countable(self) -> bool:
        """Whether ``matches`` is claimed exact for ``graph_version`` —
        the bit the chaos harness audits against golden counts."""
        return self.status == ResponseStatus.OK and self.exact

    @property
    def shed(self) -> bool:
        return self.status in ResponseStatus.SHED


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission and resource limits.

    ``max_concurrency`` bounds the tenant's in-flight requests
    (excess is shed with ``REJECTED_TENANT``); ``cycle_quota`` is a
    budget of *simulated* device cycles the tenant may consume over the
    service's lifetime (charged on completion — a replayed request is
    never double-charged); ``budget`` clamps every request's
    exploration budget (tighter of tenant and client wins, see
    :meth:`EngineConfig.with_budget`).  ``None`` disables a limit.
    """

    max_concurrency: int | None = None
    cycle_quota: float | None = None
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1 (or None)")
        if self.cycle_quota is not None and self.cycle_quota <= 0:
            raise ValueError("cycle_quota must be > 0 cycles (or None)")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1 matches (or None)")


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded retry/backoff for pool-infrastructure failures.

    Mirrors :meth:`repro.core.distributed.NetworkModel.backoff_ms`:
    the pre-retry sleep is ``base_backoff_s * 2**attempt`` capped at
    ``max_backoff_s``, scaled by a seeded jitter factor in
    ``[0.5, 1.0)`` so retry storms decorrelate while staying
    reproducible per (seed, idempotency key, attempt).
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.02
    max_backoff_s: float = 0.5
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                "need 0 <= base_backoff_s <= max_backoff_s"
            )

    def backoff_s(self, attempt: int, jitter_u: float = 1.0) -> float:
        """Sleep before the ``attempt``-th retry (attempt 0 = first
        retry); ``jitter_u`` is the seeded uniform draw in [0, 1)."""
        raw = min(self.max_backoff_s, self.base_backoff_s * 2.0 ** max(attempt, 0))
        if not self.jitter:
            return raw
        return raw * (0.5 + 0.5 * jitter_u)
