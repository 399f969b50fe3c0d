"""Per-(query, schedule, pinned levels) kernel source emission.

:func:`emit_kernel_source` turns one :class:`~repro.pattern.plan.
MatchingPlan` (plus the two config knobs that shape candidate
computation — ``degree_filter`` and whether a bitmap index exists — and
the set of pinned levels of an anchored run) into a self-contained
Python module: one straight-line ``level_{l}`` function per stack
level, each evaluating the level's set program for the whole unrolled
batch on segmented ``(values, segments)`` arrays with

* the ``sets_at_level`` loop unrolled into per-recipe blocks,
* ``BaseKind``/``OpKind`` dispatch and operand indirection resolved at
  emit time (code-motion REF reuse becomes a local variable read),
* ``combined_set_op_batch`` replaced by a direct membership +
  charge + compaction sequence per operand,
* label filters, the level label, symmetry floors, and degree needs
  frozen as literals,
* the count-only leaf emitted as a closed-form ``bincount`` tally,
* at a pinned level, an ``== pin`` term in the fused candidate filter
  (the pin value is read from ``C.pins`` at run time).

Everything graph-dependent (graph reads, label LUTs, slot capacity,
the bitmap index, pin values) is reached through the computer instance
``C`` at run time, so the emitted source is **graph-independent** —
exactly what :func:`codegen_key` promises — and **deterministic**:
emitting the same plan twice yields byte-identical source (no
timestamps, no set-iteration order, no object ids).

The charge discipline is absolute: generated code issues the same
``charge_copy`` / ``charge_set_op`` / spill / ``charge_filter`` cycle
amounts in the same order as the per-slot reference path, so matches,
simulated cycles, tracer event streams and steal schedules are
byte-identical.  Graph reads go through the graph's own read API
(``neighbors_batch``, ``degree``, ``self_loops``), never raw CSR
arrays, so kernels run unmodified on delta overlays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.codemotion.depgraph import BaseKind, OpKind, SetRecipe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig
    from repro.pattern.plan import MatchingPlan

__all__ = [
    "SOURCE_BUDGET_BYTES",
    "codegen_key",
    "emit_kernel_source",
    "estimate_source_size",
]

#: lint budget (rule B408): plans whose generated module would exceed
#: this many source bytes compile slowly and blow the code cache's
#: usefulness — the per-label split layout (Fig. 10a) is the canonical
#: offender, same as for the shared-memory budget
SOURCE_BUDGET_BYTES = 131_072


def codegen_key(
    plan: MatchingPlan, config: EngineConfig, pinned: tuple[int, ...] = ()
) -> tuple[Any, ...]:
    """Graph-independent cache key for a compiled kernel.

    Everything that shapes the emitted source — and nothing that
    doesn't.  ``plan.query`` is already relabeled into matching order,
    so two graphs sharing a query + schedule share one compiled kernel,
    as do matching orders that relabel a query to the same structure
    (the anchored plans of a symmetric query), and process-pool workers
    re-derive it from the pickled ``(plan, config)`` instead of
    shipping code objects.  The set program and restrictions are keyed
    themselves, not just the flags that usually derive them: a plan
    whose program was rewritten (e.g. the per-label split layout of
    Fig. 10a) must not reuse the kernel of the plan it came from.
    ``pinned`` is the sorted tuple of an anchored run's pinned levels:
    they change the emitted filters, the pin *values* do not.
    """
    program = plan.program
    return (
        plan.query,
        plan.vertex_induced,
        plan.symmetry_breaking,
        plan.code_motion,
        tuple(map(tuple, plan.restrictions)),
        tuple(program.recipes),
        tuple(program.candidate_of_level),
        tuple(map(tuple, program.sets_at_level)),
        config.unroll,
        bool(config.degree_filter),
        config.bitmap_threshold is not None,
        pinned,
    )


def estimate_source_size(plan: MatchingPlan, config: EngineConfig) -> int:
    """Byte size of the module :func:`emit_kernel_source` would emit."""
    return len(emit_kernel_source(plan, config).encode("utf-8"))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


class _Writer:
    """Tiny indented line buffer."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def __call__(self, line: str = "", ind: int = 0) -> None:
        self.lines.append("    " * ind + line if line else "")


def _operand_name(position: int, inbound: bool) -> str:
    return f"nb{position}{'i' if inbound else ''}"


def _recipe_desc(sid: int, r: SetRecipe) -> str:
    """Deterministic one-line recipe description (no frozenset reprs)."""
    if r.base is BaseKind.NEIGHBORS:
        base = f"N{'in' if r.base_inbound else ''}(v{r.base_arg})"
    elif r.base is BaseKind.REF:
        base = f"S{r.base_arg}"
    else:
        base = "V"
    parts = [base]
    for op in r.ops:
        sym = "-" if op.kind is OpKind.DIFFERENCE else "&"
        parts.append(f"{sym} N{'in' if op.inbound else ''}(v{op.position})")
    desc = " ".join(parts)
    if r.label_filter is not None:
        desc += f", labels in {sorted(r.label_filter)}"
    return f"# S{sid} = {desc}"


def emit_kernel_source(
    plan: MatchingPlan, config: EngineConfig, pinned: tuple[int, ...] = ()
) -> str:
    """Emit the specialized kernel module for ``plan`` (deterministic)."""
    degree_filter = bool(config.degree_filter)
    bitmap_on = config.bitmap_threshold is not None
    program = plan.program
    w = _Writer()
    w('"""Generated STMatch kernel (repro.codegen) -- DO NOT EDIT.')
    w()
    w(f"plan: size={plan.size} sets={program.num_sets}")
    w(f"      induced={plan.vertex_induced} symmetry={plan.symmetry_breaking} "
      f"code_motion={plan.code_motion}")
    w(f"config: unroll={config.unroll} degree_filter={degree_filter} "
      f"bitmap={bitmap_on} pinned={pinned}")
    w()
    w("One straight-line function per stack level.  Charges flow through")
    w("the same Warp methods in the same order as the reference path,")
    w("so matches AND simulated cycles are byte-identical.")
    w('"""')
    w("import numpy as np")
    w()
    w("from repro.codegen.runtime import member_sorted")
    w("from repro.core.candidates import _split_segments")
    w("from repro.core.stack import Frame")
    w()
    levels = list(range(1, plan.size))
    for level in levels:
        w()
        _emit_level(w, plan, level, degree_filter, bitmap_on, level in pinned)
    w()
    w()
    w("LEVELS = {")
    for level in levels:
        w(f"    {level}: level_{level},")
    w("}")
    return "\n".join(w.lines) + "\n"


def _emit_level(
    w: _Writer,
    plan: MatchingPlan,
    level: int,
    degree_filter: bool,
    bitmap_on: bool,
    pinned: bool,
) -> None:
    program = plan.program
    recipes = program.recipes
    sids: list[int] = list(program.sets_at_level[level])
    sid_c = program.candidate_of_level[level]
    r_c = recipes[sid_c]

    # -- pre-pass: which operands / earlier-level REF bases are needed --
    # keyed (position, inbound) -> {"base", "op"} usage flags, in
    # first-appearance order (deterministic)
    operands: dict[tuple[int, bool], dict[str, bool]] = {}
    ref_bases: list[int] = []  # earlier-level REF base sids, first-use order

    def note_operand(position: int, inbound: bool, use: str) -> None:
        got = operands.setdefault((position, inbound), {"base": False, "op": False})
        got[use] = True

    for sid in sids:
        r = recipes[sid]
        if r.base is BaseKind.NEIGHBORS:
            note_operand(r.base_arg, r.base_inbound, "base")
        elif r.base is BaseKind.REF:
            dep = recipes[r.base_arg]
            if dep.level != level and r.base_arg not in ref_bases:
                ref_bases.append(r.base_arg)
        else:  # ALL appears only at level 0, served by root_frame
            raise AssertionError("ALL base outside the root frame")
        for op in r.ops:
            note_operand(op.position, op.inbound, "op")

    tiled_candidate = r_c.level != level
    need_seg_ids = bool(operands) or bool(ref_bases) or tiled_candidate
    mp = "m_prefix" if level >= 2 else "[]"

    restrictions = tuple(plan.restrictions[level])
    lab = int(plan.query.labels[level]) if plan.query.labels is not None else None
    need = 0
    if degree_filter:
        q = plan.query
        need = int(q.adj[level].sum() + (q.adj[:, level].sum() if q.directed else 0))
    is_last = level == plan.size - 1

    # unfiltered count-only leaves admit two specializations below;
    # they share the gates: unpinned, unlabeled, no degree need, no
    # symmetry floor, and the candidate is the level's only set
    plain_leaf = (
        is_last
        and not pinned
        and level >= 2
        and not tiled_candidate
        and sids == [sid_c]
        and r_c.label_filter is None
        and lab is None
        and not (degree_filter and need > 1)
        and not restrictions
    )
    # gather-free: the candidate is the slots' own neighbor lists —
    # count-only needs no values at all
    gather_free = (
        plain_leaf
        and r_c.base is BaseKind.NEIGHBORS
        and r_c.base_arg == level - 1
        and not r_c.ops
    )
    # flipped intersection: the candidate is a shared earlier-level set
    # intersected with the slots' own neighbor lists — probe the
    # neighbors against the shared set instead of tiling it per slot
    flip_leaf = (
        plain_leaf
        and r_c.base is BaseKind.REF
        and recipes[r_c.base_arg].level != level
        and len(r_c.ops) == 1
        and r_c.ops[0].kind is OpKind.INTERSECT
        and r_c.ops[0].position == level - 1
    )

    w(f"def level_{level}(C, warp, stack, slot_arr, count_only):")
    w("graph = C.graph", 1)
    w("n = graph.num_vertices", 1)
    w("nslots = int(slot_arr.size)", 1)
    if need_seg_ids:
        w("seg_ids = C.seg_ids(nslots)", 1)
    if level >= 2:
        # stack.match_up_to unrolled: frames 1..level-1 always hold a
        # non-empty slot_vertices array, so active_vertex inlines to a
        # direct uiter index
        w("fr = stack.frames", 1)
        for j in range(1, level):
            w(f"f{j} = fr[{j}]", 1)
        parts = ", ".join(
            f"int(f{j}.slot_vertices[f{j}.uiter])" for j in range(1, level)
        )
        w(f"m_prefix = [{parts}]", 1)
    if sids:
        w("cap = C.slot_capacity", 1)

    if gather_free:
        base_nm = _operand_name(r_c.base_arg, r_c.base_inbound)
        deg_src = "graph.reversed_view()" if r_c.base_inbound else "graph"
        w("if count_only:", 1)
        w(f"# gather-free tally: |{base_nm}| per slot straight from the", 2)
        w("# graph's degrees, used-vertex exclusion by reverse adjacency,", 2)
        w("# self-loops from the graph's mask.  The neighbor values", 2)
        w("# are never materialized; charges are the reference", 2)
        w("# path's copy(T), spill(over), filter(T) with identical T.", 2)
        w(f"lens = {deg_src}.degree(slot_arr)", 2)
        w("total = int(lens.sum())", 2)
        w("if warp is not None:", 2)
        w("warp.charge_copy(total)", 3)
        w("if total > cap:", 3)
        w("over = int(np.maximum(lens - cap, 0).sum())", 4)
        w("if over:", 4)
        w("warp.charge(warp.cost.host_access * warp.cost.rounds(over))", 5)
        w("if total:", 3)
        w("warp.charge_filter(total)", 4)
        w("counts = lens", 2)
        # v ∈ N_out(v) iff v ∈ N_in(v): one mask serves both directions
        w("if C.has_self_loops:", 2)
        w("counts -= graph.self_loops()[slot_arr]", 3)
        w(f"counts -= C.used_excl(stack, slot_arr, m_prefix, {r_c.base_inbound})", 2)
        w("return counts", 2)

    if flip_leaf:
        op = r_c.ops[0]
        dep_level = recipes[r_c.base_arg].level
        src = "graph.reversed_view()" if op.inbound else "graph"
        adj_fn = "neighbors" if op.inbound else "in_neighbors"
        w("if count_only:", 1)
        w("# flipped intersection tally: per-slot |base ∩ N(v)| from", 2)
        w("# the computer's per-stack memo (probing the slot's neighbors", 2)
        w("# against the shared sorted base) instead of tiling the base", 2)
        w("# per slot; charges are the reference path's", 2)
        w("# set_op(|base| * nslots), spill(over), filter(kept) with", 2)
        w("# identical arguments.", 2)
        w(f"ref = stack.frames[{dep_level}].set_instance({r_c.base_arg})", 2)
        w("rsz = int(ref.size)", 2)
        w(f"nb_l = {src}.degree(slot_arr)", 2)
        w("nb_m = int(nb_l.max()) if nb_l.size else 0", 2)
        w("total = rsz * nslots", 2)
        w("if warp is not None:", 2)
        w("warp.charge_set_op(total, max(nb_m, 1))", 3)
        w("if warp.tracer is not None:", 3)
        w("warp.tracer.on_combined_set_op(warp, nslots if rsz else 0, total, nb_m)", 4)
        w(f"counts = C.flip_counts(ref, stack, slot_arr, {op.inbound})", 2)
        w("kept_total = int(counts.sum())", 2)
        w("if warp is not None and kept_total > cap:", 2)
        w("over = int(np.maximum(counts - cap, 0).sum())", 3)
        w("if over:", 3)
        w("warp.charge(warp.cost.host_access * warp.cost.rounds(over))", 4)
        w("if warp is not None and kept_total:", 2)
        w("warp.charge_filter(kept_total)", 3)
        w("if C.has_self_loops:", 2)
        w("counts -= member_sorted(ref, slot_arr) & graph.self_loops()[slot_arr]", 3)
        w(f"for j in C.flip_used(ref, stack, m_prefix, {op.inbound}):", 2)
        w(f"counts -= member_sorted(graph.{adj_fn}(m_prefix[j]), slot_arr)", 3)
        w("return counts", 2)

    # -- operand prologue ------------------------------------------------
    for (position, inbound), use in operands.items():
        nm = _operand_name(position, inbound)
        if position == level - 1:  # segmented: one batched CSR gather
            src = "graph.reversed_view()" if inbound else "graph"
            w(f"{nm}_v, {nm}_o = {src}.neighbors_batch(slot_arr)", 1)
            w(f"{nm}_l = {nm}_o[1:] - {nm}_o[:-1]", 1)
            w(f"{nm}_s = np.repeat(seg_ids, {nm}_l)", 1)
            if use["op"]:
                w(f"{nm}_m = int({nm}_l.max()) if {nm}_l.size else 0", 1)
                w(f"{nm}_k = {nm}_s * n + {nm}_v.astype(np.int64)", 1)
        else:  # broadcast: one invariant vertex's neighbor list
            fn = "in_neighbors" if inbound else "neighbors"
            w(f"{nm}_v = graph.{fn}(m_prefix[{position}])", 1)
            if use["op"]:
                w(f"{nm}_c = int({nm}_v.size)", 1)
            if use["base"]:
                w(f"{nm}_tv = np.tile({nm}_v, nslots)", 1)
                w(f"{nm}_ts = np.repeat(seg_ids, {nm}_v.size)", 1)
    for arg in ref_bases:
        dep_level = recipes[arg].level
        w(f"ref{arg}_a = stack.frames[{dep_level}].set_instance({arg})", 1)
        w(f"ref{arg}_v = np.tile(ref{arg}_a, nslots)", 1)
        w(f"ref{arg}_s = np.repeat(seg_ids, ref{arg}_a.size)", 1)

    # -- per-recipe blocks ----------------------------------------------
    for sid in sids:
        r = recipes[sid]
        w(_recipe_desc(sid, r), 1)
        if r.base is BaseKind.NEIGHBORS:
            nm = _operand_name(r.base_arg, r.base_inbound)
            if r.base_arg == level - 1:
                w(f"vals = {nm}_v", 1)
                w(f"segs = {nm}_s", 1)
            else:
                w(f"vals = {nm}_tv", 1)
                w(f"segs = {nm}_ts", 1)
        else:  # REF
            dep = recipes[r.base_arg]
            if dep.level == level:
                w(f"vals = s{r.base_arg}_v", 1)
                w(f"segs = s{r.base_arg}_s", 1)
            else:
                w(f"vals = ref{r.base_arg}_v", 1)
                w(f"segs = ref{r.base_arg}_s", 1)
        if not r.ops:
            # explicit neighbor-list copy into C: charged at the
            # pre-filter size, exactly like the reference path
            w("base_total = int(vals.size)", 1)
            _emit_label_filter(w, sid, r)
            w("if warp is not None:", 1)
            w("warp.charge_copy(base_total)", 2)
        else:
            for op in r.ops:
                nm = _operand_name(op.position, op.inbound)
                segmented = op.position == level - 1
                if segmented:
                    hay, needles = f"{nm}_k", "segs * n + vals.astype(np.int64)"
                    max_op = f"{nm}_m"
                else:
                    hay, needles = f"{nm}_v", "vals"
                    max_op = f"{nm}_c"
                if bitmap_on:
                    o_arg = f"{nm}_o" if segmented else "None"
                    w(f"found = C._bitmap_membership(vals, segs, {op.position}, "
                      f"{op.inbound}, {nm}_v, {o_arg}, slot_arr, {mp}, nslots)", 1)
                    w("if found is None:", 1)
                    w(f"found = member_sorted({hay}, {needles})", 2)
                else:
                    w(f"found = member_sorted({hay}, {needles})", 1)
                w("total = int(vals.size)", 1)
                w("if warp is not None:", 1)
                w(f"warp.charge_set_op(total, max({max_op}, 1))", 2)
                w("if warp.tracer is not None:", 2)
                w("warp.tracer.on_combined_set_op(warp, int(segs.max()) + 1 "
                  f"if segs.size else 0, total, {max_op})", 3)
                if op.kind is OpKind.DIFFERENCE:
                    w("np.logical_not(found, out=found)", 1)
                w("vals = vals[found]", 1)
                w("segs = segs[found]", 1)
            _emit_label_filter(w, sid, r)
        # host-memory spill penalty for sets outgrowing one C slot
        w("if warp is not None and vals.size > cap:", 1)
        w("spill = np.bincount(segs, minlength=nslots)", 2)
        w("over = int(np.maximum(spill - cap, 0).sum())", 2)
        w("if over:", 2)
        w("warp.charge(warp.cost.host_access * warp.cost.rounds(over))", 3)
        w(f"s{sid}_v = vals", 1)
        w(f"s{sid}_s = segs", 1)

    # -- fused candidate filter -----------------------------------------
    base_positions = [i for i in restrictions if i != level - 1]
    uses_slot = (level - 1) in restrictions
    if base_positions:
        floor_expr = "max(-1, " + ", ".join(
            f"m_prefix[{i}]" for i in base_positions) + ")"
    else:
        floor_expr = "-1"

    w(f"# candidates for position {level}: S{sid_c}, fused filter", 1)
    if tiled_candidate:
        w(f"ca = stack.frames[{r_c.level}].set_instance({sid_c})", 1)
        if is_last and level >= 2 and not pinned:
            _emit_closed_form_tally(
                w, restrictions, uses_slot, floor_expr, lab, need, degree_filter
            )
        w("cvals = np.tile(ca, nslots)", 1)
        w("csegs = np.repeat(seg_ids, ca.size)", 1)
    else:
        w(f"cvals = s{sid_c}_v", 1)
        w(f"csegs = s{sid_c}_s", 1)
    w("total_filtered = int(cvals.size)", 1)
    w("if total_filtered:", 1)
    w("slot_of = slot_arr[csegs]", 2)

    if restrictions:
        if uses_slot:
            w(f"keep = cvals > np.maximum(slot_of.astype(np.int64), {floor_expr})", 2)
        else:
            w(f"keep = cvals > {floor_expr}", 2)
    # injectivity by sorted-merge membership (the prefix is shared by
    # all slots, the slot vertex varies)
    if level >= 2:
        w("used = np.sort(np.asarray(m_prefix, dtype=cvals.dtype))", 2)
        w("ipos = np.searchsorted(used, cvals)", 2)
        w("np.minimum(ipos, used.size - 1, out=ipos)", 2)
        w("hit = used[ipos] == cvals", 2)
        w("hit |= cvals == slot_of", 2)
    else:
        w("hit = cvals == slot_of", 2)
    w("np.logical_not(hit, out=hit)", 2)
    if restrictions:
        w("keep &= hit", 2)
    else:
        w("keep = hit", 2)
    if lab is not None:
        w(f"keep &= graph.labels[cvals] == {lab}", 2)
    if degree_filter and need > 1:
        w(f"keep &= C._graph_degree[cvals] >= {need}", 2)
    if pinned:
        w(f"keep &= cvals == C.pins[{level}]", 2)
    w("if count_only:", 2)
    w("if warp is not None:", 3)
    w("warp.charge_filter(total_filtered)", 4)
    w("return np.bincount(csegs[keep], minlength=nslots).astype(np.int64)", 3)
    w("cvals = cvals[keep]", 2)
    w("csegs = csegs[keep]", 2)
    w("if warp is not None and total_filtered:", 1)
    w("warp.charge_filter(total_filtered)", 2)
    w("if count_only:", 1)
    w("return np.zeros(nslots, dtype=np.int64)", 2)
    w("return Frame(", 1)
    w(f"level={level},", 2)
    w("slot_vertices=slot_arr,", 2)
    w("cand=_split_segments(cvals, csegs, nslots),", 2)
    if sids:
        w("sets={", 2)
        for sid in sids:
            w(f"{sid}: _split_segments(s{sid}_v, s{sid}_s, nslots),", 3)
        w("},", 2)
    else:
        w("sets={},", 2)
    w(")", 1)


def _emit_closed_form_tally(
    w: _Writer,
    restrictions: tuple[int, ...],
    uses_slot: bool,
    floor_expr: str,
    lab: int | None,
    need: int,
    degree_filter: bool,
) -> None:
    """Count-only last-level leaf over a *shared* candidate array.

    When the last level's candidate set was computed at an earlier level
    every slot would tile, mask and bincount the same array ``ca``.  The
    tally is closed-form instead, with identical counts and the
    identical ``charge_filter(nslots · |ca|)`` (the cost model prices
    the elements *filtered*, which is unchanged; only host wall-clock
    drops).  Two emissions:

    * unlabeled, no degree need: the membership test is inverted — the
      handful of ``used`` vertices are searched in ``ca`` instead of
      masking all of ``ca``, so no O(|ca|) array is ever built.  The
      slot's own vertex is never in ``used`` (injectivity at level-1
      already dropped the prefix), so its exclusion is one membership
      probe per slot.
    * labeled / degree-filtered: one boolean mask over ``ca``, per-slot
      counts from sorted-array cuts.

    Callers guarantee ``level >= 2``.
    """
    cheap = lab is None and not (degree_filter and need > 1)
    w("if count_only:", 1)
    w("# closed-form tally over the shared candidate array; charge", 2)
    w("# identical to filtering all nslots tiles of it", 2)
    w("m = int(ca.size)", 2)
    w("if m == 0:", 2)
    w("return np.zeros(nslots, dtype=np.int64)", 3)
    w("if warp is not None:", 2)
    w("warp.charge_filter(m * nslots)", 3)
    if cheap:
        if uses_slot or restrictions:
            w("ua = np.asarray(m_prefix, dtype=ca.dtype)", 2)
        if uses_slot:
            # floor >= the slot's own vertex, so x > floor already
            # excludes x == slot
            w(f"floors = np.maximum(slot_arr.astype(np.int64), {floor_expr})", 2)
            w("uhit = ua[member_sorted(ca, ua)]", 2)
            w('fpos = np.searchsorted(ca, floors, side="right")', 2)
            w("counts = (m - fpos).astype(np.int64)", 2)
            w("counts -= (uhit[None, :] > floors[:, None]).sum(axis=1)", 2)
            w("return counts", 2)
        elif restrictions:
            w(f"floor = {floor_expr}", 2)
            w("uhit = ua[member_sorted(ca, ua)]", 2)
            w('base = m - int(np.searchsorted(ca, floor, side="right"))', 2)
            w("base -= int(np.count_nonzero(uhit > floor))", 2)
            w("counts = np.full(nslots, base, dtype=np.int64)", 2)
            w("spos = np.searchsorted(ca, slot_arr)", 2)
            w("np.minimum(spos, m - 1, out=spos)", 2)
            w("counts -= (ca[spos] == slot_arr) & (slot_arr > floor)", 2)
            w("return counts", 2)
        else:
            w("base = C.tally_base(ca, stack, m_prefix)", 2)
            w("counts = np.full(nslots, base, dtype=np.int64)", 2)
            w("spos = ca.searchsorted(slot_arr)", 2)
            w("np.minimum(spos, m - 1, out=spos)", 2)
            w("counts -= ca[spos] == slot_arr", 2)
            w("return counts", 2)
        return
    w("used = np.sort(np.asarray(m_prefix, dtype=ca.dtype))", 2)
    w("keep = member_sorted(used, ca)", 2)
    w("np.logical_not(keep, out=keep)", 2)
    if lab is not None:
        w(f"keep &= graph.labels[ca] == {lab}", 2)
    if degree_filter and need > 1:
        w(f"keep &= C._graph_degree[ca] >= {need}", 2)
    if uses_slot:
        w(f"floors = np.maximum(slot_arr.astype(np.int64), {floor_expr})", 2)
        w("prefix = np.zeros(m + 1, dtype=np.int64)", 2)
        w("np.cumsum(keep, out=prefix[1:])", 2)
        w('fpos = np.searchsorted(ca, floors, side="right")', 2)
        w("return prefix[m] - prefix[fpos]", 2)
    elif restrictions:
        w(f"floor = {floor_expr}", 2)
        w('fpos = int(np.searchsorted(ca, floor, side="right"))', 2)
        w("counts = np.full(nslots, int(np.count_nonzero(keep[fpos:])), dtype=np.int64)", 2)
        w("spos = np.searchsorted(ca, slot_arr)", 2)
        w("np.minimum(spos, m - 1, out=spos)", 2)
        w("counts -= (ca[spos] == slot_arr) & keep[spos] & (slot_arr > floor)", 2)
        w("return counts", 2)
    else:
        w("counts = np.full(nslots, int(np.count_nonzero(keep)), dtype=np.int64)", 2)
        w("spos = np.searchsorted(ca, slot_arr)", 2)
        w("np.minimum(spos, m - 1, out=spos)", 2)
        w("counts -= (ca[spos] == slot_arr) & keep[spos]", 2)
        w("return counts", 2)


def _emit_label_filter(w: _Writer, sid: int, r: SetRecipe) -> None:
    """Merged multi-label filter, frozen to this recipe's LUT."""
    if r.label_filter is None:
        return
    w("if vals.size:", 1)
    w("if graph.labels is None:", 2)
    w('raise ValueError("labeled plan on unlabeled data graph")', 3)
    w(f"lkeep = C._lut_by_sid[{sid}][graph.labels[vals]]", 2)
    w("vals = vals[lkeep]", 2)
    w("segs = segs[lkeep]", 2)
