"""The compiled fast tier (``EngineConfig.fastpath=True``).

Every fast-path run evaluates ``getCandidates`` through Python source
*emitted* for one ``(query, schedule, pinned levels)`` triple — the
plan's set ops inlined as direct intersection/difference sequences over
segmented ``(values, segments)`` batches, code-motion REF reuse
resolved to local variables, label/degree/symmetry filters baked in as
constants, count-only leaves emitted as closed-form tallies, and the
pinned levels of an anchored run (``repro.dynamic``) filtered against
pin values read at run time — then ``exec``-ing and caching the
compiled functions in a process-wide LRU keyed exactly like the
per-graph plan cache (graph-independent, so worker processes re-derive
identical kernels from the pickled plan + config and never ship code
objects).  ``fastpath=False`` keeps the per-slot reference path of
:mod:`repro.core.candidates` as the oracle.

The cost-model-preservation contract is absolute: generated kernels
issue the same cycle charges through the same :class:`~repro.virtgpu.
warp.Warp` methods in the same order as the reference path, so
matches, simulated cycles, steal schedules and tracer event streams are
byte-identical (``tests/test_codegen_identity.py``).  Only host
wall-clock changes.

This ``__init__`` stays import-light on purpose: ``repro.core.engine``
imports :mod:`repro.codegen.cache` at module load, so anything here
that imported back into ``repro.core`` would cycle.  The emitter and
the computer are imported lazily by their consumers
(``repro.codegen.emit`` / ``repro.codegen.computer``).
"""

from .cache import LRUCache

__all__ = ["LRUCache"]
