"""Host-speed normalisation of the walls the workloads measure.

The small shared hosts this benchmark runs on change speed by up to a
factor of two, within seconds and over minutes, while a process's CPU
time keeps equal to its wall time: co-tenants slow the cores down
rather than take them away.  No median over one run absorbs a slow
minute, so two runs of the same code could differ by more than a
regression.

A :class:`HostClock` therefore times a fixed reference workload between
the operations of a run: a pure-Python piece, a NumPy set-operation
piece and a miniature stack-based clique counter that mixes the two the
way the engine does.  None of them touches the program.  Each
operation's wall is divided by the host's *slowness* next to it, the
mean of the samples just before and just after it, which gives
*reference seconds*: the time the operation would take on a host where
the reference pieces take :data:`REFERENCE_S`.  On the 2-CPU Xeon VM
this was tuned on, the run-to-run spread of 20-second figures fell from
18–26% to 4–11% this way; the workloads still slow down somewhat more
than the pieces do.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable

import numpy as np

#: wall of each reference piece on the reference host (a 2-CPU Xeon VM,
#: Python 3.11, NumPy 2.4); the constants only fix the unit
REFERENCE_S = {"python": 3.5e-3, "numpy": 3.2e-3, "cliques": 7.5e-3}

#: each piece runs this often per sample, and its median wall counts,
#: so one preemption does not skew a sample
REPEATS = 3

_A = np.arange(0, 4000, 3)
_B = np.arange(0, 4000, 5)


def _python_piece() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return acc


def _numpy_piece() -> int:
    size = 0
    for i in range(120):
        size += np.intersect1d(_A[i:], _B, assume_unique=True).size
    return size


def _random_graph(n: int, p: float, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adjacency = upper | upper.T
    return [np.flatnonzero(row) for row in adjacency]


_GRAPH = _random_graph(60, 0.25, seed=5)


def _cliques_piece(k: int = 4) -> int:
    """Count the ``k``-cliques of a fixed random graph with an explicit
    stack of candidate sets, the engine's loop in miniature."""
    total = 0
    stack = [(0, np.arange(len(_GRAPH)))]
    while stack:
        depth, candidates = stack.pop()
        if depth == k - 1:
            total += candidates.size
            continue
        for v in candidates.tolist():
            nxt = np.intersect1d(candidates, _GRAPH[v], assume_unique=True)
            nxt = nxt[nxt > v]
            if nxt.size:
                stack.append((depth + 1, nxt))
    return total


PIECES = {"python": _python_piece, "numpy": _numpy_piece, "cliques": _cliques_piece}


def slowness() -> float:
    """How many times slower than the reference host this one runs now:
    the geometric mean over the pieces of median wall / reference wall."""
    product = 1.0
    for name, piece in PIECES.items():
        walls = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            piece()
            walls.append(time.perf_counter() - t0)
        product *= statistics.median(walls) / REFERENCE_S[name]
    return product ** (1.0 / len(PIECES))


class HostClock:
    """Slowness samples taken between operations, and walls scaled by them.

    Call :meth:`tick` before the first operation and after each one (or
    after each round of concurrent ones); then :meth:`scale` turns any
    interval between two ticks into reference seconds.
    """

    def __init__(self, sample: Callable[[], float] = slowness) -> None:
        self._sample = sample
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._slowness: list[float] = []

    def tick(self) -> None:
        """Sample the host's speed now."""
        t0 = time.perf_counter()
        s = self._sample()
        self._starts.append(t0)
        self._ends.append(time.perf_counter())
        self._slowness.append(s)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds of ``[t0, t1]``: its wall over the mean
        slowness of the last sample that ended by ``t0`` and the first
        that started at or after ``t1`` (either may be missing)."""
        i = bisect.bisect_right(self._ends, t0)
        j = bisect.bisect_left(self._starts, t1)
        near = self._slowness[max(0, i - 1):i] + self._slowness[j:j + 1]
        if not near:
            raise ValueError("no host-speed sample next to this interval")
        return (t1 - t0) * len(near) / sum(near)

    @property
    def samples(self) -> list[float]:
        """Every slowness sample so far, in order."""
        return list(self._slowness)
