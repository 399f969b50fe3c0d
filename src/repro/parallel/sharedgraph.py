"""Zero-copy graph sharing for the process execution backend.

The paper's multi-GPU strategy duplicates the data graph per device
(Sec. VIII-B); on real hardware the duplication is a one-time transfer,
not a per-launch cost.  The process backend mirrors that: the parent
exports the ``CSRGraph`` arrays (``indptr`` / ``indices`` / ``labels``
/ the degree cache) **once** into :mod:`multiprocessing.shared_memory`
segments, and every worker attaches the same pages read-only instead of
re-pickling megabytes of CSR per shard.

Lifecycle
---------
* The parent owns the segments: :func:`export_graph` creates them on
  first use per graph object and caches the handle, so repeated
  multi-GPU calls over the same graph ship only segment *names*.  The
  check-then-create runs under a module lock: serve threads exporting
  one fresh graph version at once share one export.
  Segments are unlinked when the graph is garbage-collected and, as a
  backstop, at interpreter exit.
* Workers attach lazily and cache per export token, so a persistent
  pool attaches once per graph, not once per shard.  Attached arrays
  are marked read-only — the graph is immutable by contract.
* Workers must not let Python's ``resource_tracker`` adopt attached
  segments (it would unlink them when the *worker* exits, racing the
  parent and every sibling); :func:`attach_graph` suppresses the
  tracker's ``register`` call around attachment — the standard
  workaround until the ``track=False`` parameter of Python 3.13.
  An explicit ``unregister`` after the fact would not do: forked
  workers share the parent's tracker process, so concurrent
  unregisters race in its cache and spew ``KeyError`` tracebacks.
"""

from __future__ import annotations

import atexit
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "SharedArraySpec",
    "SharedGraphHandle",
    "export_graph",
    "attach_graph",
    "release_exports",
]


@dataclass(frozen=True)
class SharedArraySpec:
    """One numpy array living in one shared-memory segment."""

    segment: str
    dtype: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class SharedGraphHandle:
    """Everything a worker needs to rebuild the graph zero-copy.

    Cheap to pickle (segment names, not data); ``token`` keys the
    worker-side attachment cache.
    """

    token: str
    name: str
    directed: bool
    indptr: SharedArraySpec
    indices: SharedArraySpec
    degree: SharedArraySpec
    labels: SharedArraySpec | None = None


def _export_array(arr: np.ndarray) -> tuple[SharedArraySpec, shared_memory.SharedMemory]:
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return SharedArraySpec(shm.name, arr.dtype.str, tuple(arr.shape)), shm


class _Export:
    """Parent-side owner of one graph's segments."""

    def __init__(self, graph: CSRGraph) -> None:
        self.segments: list[shared_memory.SharedMemory] = []
        try:
            indptr = self._add(graph.indptr)
            indices = self._add(graph.indices)
            degree = self._add(np.asarray(graph.degree(), dtype=np.int64))
            labels = self._add(graph.labels) if graph.labels is not None else None
        except BaseException:
            self.close()
            raise
        self.handle = SharedGraphHandle(
            token=self.segments[0].name,  # segment names are system-unique
            name=graph.name,
            directed=graph.directed,
            indptr=indptr,
            indices=indices,
            degree=degree,
            labels=labels,
        )

    def _add(self, arr: np.ndarray) -> SharedArraySpec:
        spec, shm = _export_array(arr)
        self.segments.append(shm)
        return spec

    def close(self) -> None:
        for shm in self.segments:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        self.segments = []


# parent side: one export per live graph object (keyed by id; the
# weakref finalizer retires the entry before the id can be reused)
_EXPORTS: dict[int, _Export] = {}
# reentrant: a finalizer run by garbage collection inside the locked
# section (on the same thread) must not deadlock
_EXPORTS_LOCK = threading.RLock()


def _release(graph_id: int) -> None:
    with _EXPORTS_LOCK:
        export = _EXPORTS.pop(graph_id, None)
    if export is not None:
        export.close()


def export_graph(graph: CSRGraph) -> SharedGraphHandle:
    """Export ``graph`` into shared memory (idempotent per object,
    thread-safe)."""
    with _EXPORTS_LOCK:
        export = _EXPORTS.get(id(graph))
        if export is None:
            export = _Export(graph)
            _EXPORTS[id(graph)] = export
            weakref.finalize(graph, _release, id(graph))
    return export.handle


def release_exports() -> None:
    """Unlink every live export (atexit backstop; also used by tests)."""
    for graph_id in list(_EXPORTS):
        _release(graph_id)


atexit.register(release_exports)


# worker side: attach once per export token; keep the SharedMemory
# objects referenced for as long as the arrays are (closing them would
# invalidate the buffers mid-kernel)
_ATTACHED: dict[str, CSRGraph] = {}
_ATTACHED_SEGMENTS: dict[str, list[shared_memory.SharedMemory]] = {}


def _attach_array(spec: SharedArraySpec, keep: list[shared_memory.SharedMemory]) -> np.ndarray:
    # the parent owns this segment's lifetime (unlink() unregisters it
    # there); the attaching side must not register it with the resource
    # tracker at all, or worker exits would unlink pages the parent and
    # sibling workers still map (no track=False before Python 3.13)
    original_register = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None  # type: ignore[assignment]
    try:
        shm = shared_memory.SharedMemory(name=spec.segment)
    finally:
        resource_tracker.register = original_register  # type: ignore[assignment]
    keep.append(shm)
    arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    arr.flags.writeable = False
    return arr


def attach_graph(handle: SharedGraphHandle) -> CSRGraph:
    """Rebuild the exported graph zero-copy (cached per token)."""
    graph = _ATTACHED.get(handle.token)
    if graph is not None:
        return graph
    keep: list[shared_memory.SharedMemory] = []
    indptr = _attach_array(handle.indptr, keep)
    indices = _attach_array(handle.indices, keep)
    degree = _attach_array(handle.degree, keep)
    labels = _attach_array(handle.labels, keep) if handle.labels is not None else None
    graph = CSRGraph.wrap_validated(
        indptr=indptr,
        indices=indices,
        labels=labels,
        degree=degree,
        directed=handle.directed,
        name=handle.name,
    )
    _ATTACHED[handle.token] = graph
    _ATTACHED_SEGMENTS[handle.token] = keep
    return graph
