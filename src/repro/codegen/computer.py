"""The fast tier's candidate computer.

:class:`CodegenCandidateComputer` is the
:class:`~repro.core.candidates.CandidateComputer` every ``fastpath=True``
run uses: its ``compute_frame`` dispatches to the compiled per-level
functions from :mod:`repro.codegen.compile` instead of the per-slot
reference loop.  All graph-dependent state (label LUTs, degree table,
bitmap index, slot capacity, pin values) still lives on the instance —
generated code reaches it through the ``C`` argument — so one compiled
kernel serves every data graph and every anchor.

Byte-identical contract: matches, simulated cycles, steal schedules and
tracer streams equal the reference path's
(``tests/test_codegen_identity.py``); only host wall-clock changes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.candidates import CandidateComputer
from repro.core.config import EngineConfig
from repro.core.stack import Frame, WarpStack
from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.virtgpu.setops import membership_batch
from repro.virtgpu.warp import Warp

from .compile import compiled_kernel
from .runtime import member_sorted

__all__ = ["CodegenCandidateComputer"]


class CodegenCandidateComputer(CandidateComputer):
    """Evaluates ``getCandidates`` through a compiled per-plan kernel."""

    supports_count_only = True

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        config: EngineConfig,
        pins: dict[int, int] | None = None,
    ) -> None:
        super().__init__(graph, plan, config, pins=pins)
        # the pinned levels shape the emitted source; the pin values are
        # read from self.pins at run time, so one kernel serves every anchor
        kernel = compiled_kernel(plan, config, tuple(sorted(self.pins or ())))
        self.kernel = kernel
        self._levels = kernel.levels
        # optional adjacency-bitmap index for high-degree operand vertices
        thr = config.bitmap_threshold
        if thr is not None:
            self._bitmap: dict[int, np.ndarray] | None = graph.adjacency_bitmap(thr)
            self._bitmap_in = (
                graph.reversed_view().adjacency_bitmap(thr)
                if graph.directed
                else self._bitmap
            )
        else:
            self._bitmap = None
            self._bitmap_in = None
        # per-sid label LUT view: generated code indexes by set id, the
        # reference path's dict by frozenset — same arrays either way.
        # On an unlabeled graph the map stays empty; generated code
        # raises before touching it (same error as the reference path).
        self._lut_by_sid = {
            sid: self._label_luts[r.label_filter]
            for sid, r in enumerate(self.program.recipes)
            if r.label_filter is not None and r.label_filter in self._label_luts
        }
        # seg_ids is read-only in generated code (feeds repeat/tile), so
        # one arange per distinct slot count is safe to share
        self._seg_cache: dict[int, np.ndarray] = {}
        # per-stack flipped-intersection memo: id(stack) -> [ref array,
        # inbound flag, per-vertex |ref ∩ N(v)| with -1 = unknown,
        # last m_prefix, members of that prefix found in ref]
        self._flip_memo: dict[int, list[Any]] = {}
        # per-stack tiled-tally memo: id(stack) -> [ca array, m_prefix,
        # |ca| minus the prefix members present in it]
        self._tally_memo: dict[int, list[Any]] = {}
        # per-stack used-exclusion memo: id(stack) -> [m_prefix, inbound
        # flag, per-vertex #(used ∩ N(v)) with -1 = unknown]
        self._excl_memo: dict[int, list[Any]] = {}
        self._has_self_loops: bool | None = None

    def seg_ids(self, nslots: int) -> np.ndarray:
        got = self._seg_cache.get(nslots)
        if got is None:
            got = np.arange(nslots, dtype=np.int64)
            self._seg_cache[nslots] = got
        return got

    def flip_counts(
        self,
        ref: np.ndarray,
        stack: WarpStack,
        slot_arr: np.ndarray,
        inbound: bool,
    ) -> np.ndarray:
        """Per-slot ``|ref ∩ N(v)|``, memoized per stack while ``ref``
        lives.

        The flipped-intersection leaf asks this for every batch of
        slots, and ``ref`` (an earlier frame's set instance) stays the
        same object across the whole subtree below that frame — so the
        per-vertex counts are cached in an n-vector keyed by the array's
        identity (a strong reference is held, so the id cannot be
        recycled; steal splits copy arrays and therefore invalidate
        naturally).  Only vertices never seen under this ``ref`` pay the
        CSR gather + membership probe.
        """
        key = id(stack)
        ent = self._flip_memo.get(key)
        if ent is None or ent[0] is not ref or ent[1] != inbound:
            memo = np.full(self.graph.num_vertices, -1, dtype=np.int64)
            ent = [ref, inbound, memo, None, None]
            self._flip_memo[key] = ent
        memo = ent[2]
        counts: np.ndarray = memo[slot_arr]
        miss = counts < 0
        if miss.any():
            mv = slot_arr[miss]
            g = self.graph.reversed_view() if inbound else self.graph
            nb_v, nb_o = g.neighbors_batch(mv)
            found = member_sorted(ref, nb_v)
            cs = np.zeros(nb_v.size + 1, dtype=np.int64)
            np.cumsum(found, out=cs[1:])
            mc = cs[nb_o[1:]] - cs[nb_o[:-1]]
            memo[mv] = mc
            counts[miss] = mc
        return counts

    def flip_used(
        self,
        ref: np.ndarray,
        stack: WarpStack,
        m_prefix: list[int],
        inbound: bool,
    ) -> list[int]:
        """Indices of ``m_prefix`` vertices present in ``ref``, cached.

        The prefix only changes when a parent frame advances, which is
        far rarer than leaf batches — so the membership probe result is
        kept on the same per-stack memo entry as :meth:`flip_counts`
        (which callers always invoke first, keeping the entry's
        identity check authoritative).
        """
        ent = self._flip_memo[id(stack)]
        if ent[0] is not ref or ent[1] != inbound or ent[3] != m_prefix:
            ua = np.asarray(m_prefix, dtype=np.int32)
            hits = member_sorted(ref, ua)
            ent[3] = list(m_prefix)
            ent[4] = [j for j in range(len(m_prefix)) if hits[j]]
        return ent[4]

    def tally_base(self, ca: np.ndarray, stack: WarpStack, m_prefix: list[int]) -> int:
        """``|ca| - |ca ∩ m_prefix|``, memoized per stack.

        The unrestricted closed-form tally subtracts this same scalar
        for every slot batch over a shared candidate array; both the
        array object and the prefix outlive many batches, so the probe
        runs once per (array, prefix) pair.
        """
        key = id(stack)
        ent = self._tally_memo.get(key)
        if ent is None or ent[0] is not ca or ent[1] != m_prefix:
            ua = np.asarray(m_prefix, dtype=ca.dtype)
            base = int(ca.size) - int(np.count_nonzero(member_sorted(ca, ua)))
            ent = [ca, list(m_prefix), base]
            self._tally_memo[key] = ent
        return ent[2]  # type: ignore[no-any-return]

    def used_excl(
        self,
        stack: WarpStack,
        slot_arr: np.ndarray,
        m_prefix: list[int],
        inbound: bool,
    ) -> np.ndarray:
        """Per-slot ``#(m_prefix ∩ N(v))``, memoized per stack.

        The gather-free leaf subtracts, for each slot vertex ``v``, how
        many already-matched vertices sit in its neighbor list.  That
        count depends only on ``(m_prefix, v)``, so a per-vertex count
        vector is built eagerly whenever the prefix moves — one
        scatter-add per prefix member over the *reverse* adjacency
        (``x ∈ N_out(v), x = w ⟺ v ∈ N_in(w)``; each row has unique
        entries, so ``memo[row] += 1`` tallies exactly) — and every
        batch afterwards is a single gather.  ``inbound`` selects which
        adjacency direction the candidates came from.
        """
        key = id(stack)
        ent = self._excl_memo.get(key)
        if ent is None or ent[0] != m_prefix or ent[1] != inbound:
            g = self.graph
            memo = np.zeros(g.num_vertices, dtype=np.int64)
            for wv in m_prefix:
                row = g.neighbors(wv) if inbound else g.in_neighbors(wv)
                memo[row] += 1
            ent = [list(m_prefix), inbound, memo]
            self._excl_memo[key] = ent
        counts: np.ndarray = ent[2][slot_arr]
        return counts

    @property
    def has_self_loops(self) -> bool:
        """Whether the graph has any self-loop (leaves skip the ``x ==
        slot`` correction entirely on simple graphs)."""
        got = self._has_self_loops
        if got is None:
            got = bool(self.graph.self_loops().any())
            self._has_self_loops = got
        return got

    def _bitmap_membership(
        self,
        vals: np.ndarray,
        segs: np.ndarray,
        position: int,
        inbound: bool,
        opv: np.ndarray,
        opo: np.ndarray | None,
        slot_arr: np.ndarray,
        m_prefix: list[int],
        nslots: int,
    ) -> np.ndarray | None:
        """Membership mask via the adjacency-bitmap index, when it applies.

        Returns ``None`` when no bitmap row covers the operand vertex
        (or the index is disabled) — generated code then falls back to
        the keyed ``searchsorted``.  Bitmap hits are exact set
        membership, so results are identical; only host time changes.
        """
        bm = self._bitmap_in if inbound else self._bitmap
        if bm is None or vals.size == 0:
            return None
        if opo is None:  # broadcast operand: one invariant vertex
            row = bm.get(int(m_prefix[position]))
            return None if row is None else row[vals]
        hot = [u for u in range(nslots) if int(slot_arr[u]) in bm]
        if not hot:
            return None
        found = np.empty(vals.size, dtype=bool)
        bounds = np.searchsorted(segs, np.arange(nslots + 1))
        for u in range(nslots):
            sl = slice(int(bounds[u]), int(bounds[u + 1]))
            seg_vals = vals[sl]
            row = bm.get(int(slot_arr[u]))
            if row is not None:
                found[sl] = row[seg_vals]
            else:
                found[sl] = membership_batch(
                    seg_vals, None, opv[opo[u]: opo[u + 1]], None, None
                )
        return found

    def compute_frame(
        self,
        warp: Warp | None,
        stack: WarpStack,
        level: int,
        slot_vertices: np.ndarray,
        count_only: bool = False,
    ) -> Frame | np.ndarray:
        slot_arr = np.asarray(slot_vertices, dtype=np.int32)
        if slot_arr.size == 0:
            raise ValueError("a frame needs at least one slot")
        result: Frame | np.ndarray = self._levels[level](
            self, warp, stack, slot_arr, count_only
        )
        return result
