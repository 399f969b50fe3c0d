"""Seeded request and edit streams, free of any ``repro`` import.

The same ``(seed, client)`` always yields the same reads and the same
``(seed, edges)`` the same edit batches, so two runs of one seed send
the same load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]

#: unbudgeted reads repeat these queries, so after the warm-up fills the
#: result cache (and ``apply_edits`` patches it forward) they are hits;
#: only the two cheapest exhaustive counts, because the correctness
#: check recounts every repeated query on every graph version
REPEAT_QUERIES = ("q6", "q8")

#: per-query budgets far below each count on the hosted graph and on
#: every edited version of it: the run stops at the budget, so these
#: reads are engine-served, never cached.  (The 5-clique q8 is left
#: out: its count, 36 at the start, falls below any useful budget as
#: the edits rewire the graph, and a read that fits its budget is cached)
BUDGETS = {"q2": 1500, "q4": 6000, "q5": 4000, "q6": 4000, "q7": 8000}

#: idempotency keys per stream seed, each bound to one fixed request
IDEM_REQUESTS = (("q5", 4000), ("q7", 8000), ("q4", 6000))

#: one block of reads: 6 repeats (30%), 12 budgeted (60%) and 2 keyed
#: (10%) in seeded order.  Hits and replays make up about 40% of the
#: reads, and the cheapest budgeted query, q7, the next 20%, so the
#: median request is an engine-served q7 from the middle of its group
#: rather than one from the edge between two groups
BLOCK = (
    [("repeat", q) for q in REPEAT_QUERIES] * 3
    + [("budget", q) for q in ("q2", "q4", "q5", "q6")] * 2
    + [("budget", "q7")] * 4
    + [("idem", None)] * 2
)


@dataclass(frozen=True)
class Read:
    """One ``MatchService.match`` request, before it is built."""

    kind: str  # "repeat" | "budget" | "idem"
    query: str
    budget: int | None = None
    idempotency_key: str | None = None


def read_stream(seed: int, client: int) -> Iterator[Read]:
    """Endless reads of one client: seeded shuffles of :data:`BLOCK`."""
    rng = random.Random(f"reads:{seed}:{client}")
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind, query in block:
            if kind == "repeat":
                yield Read("repeat", query)
            elif kind == "budget":
                yield Read("budget", query, BUDGETS[query])
            else:
                j = rng.randrange(len(IDEM_REQUESTS))
                q, budget = IDEM_REQUESTS[j]
                yield Read("idem", q, budget, f"s{seed}-k{j}")


def edit_stream(seed: int, edges: Iterable[Edge], swaps: int = 1
                ) -> Iterator[tuple[list[Edge], list[Edge]]]:
    """Endless ``(inserts, deletes)`` batches against an evolving graph.

    Each batch is ``swaps`` double-edge swaps: edges ``(a, b)`` and
    ``(c, d)`` become ``(a, d)`` and ``(c, b)``.  Every vertex keeps its
    degree, so the cost of the queries (and of later edits) does not
    drift with the seed over a run.  Deletes are present and inserts
    absent *after* the batches before it, so no batch normalizes to a
    no-op.  Edges are canonical ``(u, v)`` with ``u < v``.
    """
    rng = random.Random(f"edits:{seed}")
    present = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    index = {e: i for i, e in enumerate(present)}

    def remove(e: Edge) -> None:
        i = index.pop(e)
        last = present.pop()
        if i < len(present):
            present[i] = last
            index[last] = i

    def add(e: Edge) -> None:
        index[e] = len(present)
        present.append(e)

    while True:
        inserts: list[Edge] = []
        deletes: list[Edge] = []
        while len(deletes) < 2 * swaps:
            old = rng.sample(present, 2)
            (a, b), (c, d) = old
            if rng.random() < 0.5:
                a, b = b, a
            new = [(min(a, d), max(a, d)), (min(c, b), max(c, b))]
            # four distinct endpoints, new edges absent, and no edge the
            # batch already touched (a batch must not insert and delete
            # the same edge)
            if len({a, b, c, d}) < 4 or any(e in index or e in deletes for e in new) \
                    or any(e in inserts for e in old):
                continue
            for e in old:
                remove(e)
                deletes.append(e)
            for e in new:
                add(e)
                inserts.append(e)
        yield inserts, deletes


def apply_batch(edges: set[Edge], inserts: list[Edge], deletes: list[Edge]) -> set[Edge]:
    """The edge set after one batch (deletes first, then inserts)."""
    return (edges - set(deletes)) | set(inserts)
