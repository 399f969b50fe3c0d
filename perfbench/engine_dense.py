"""``engine-dense``: serial ``STMatchEngine.run`` over budget-capped cells.

Set-op compute dominates here and the control plane is nearly idle
(no steals, no idle polls), so this is the workload a candidate-tier
change should move and a control-plane change should not.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

from repro import EngineConfig, STMatchEngine, get_query
from repro.graph.generators import powerlaw_cluster

from perfbench import common, layers
from perfbench.common import Outcome
from perfbench.hostclock import HostClock
from perfbench.metrics import median, run_error_kind
from perfbench.tracing import LayerTracer

#: the codegen bench's dense synthetic graph: Table-I-like density
DENSE24 = {"n": 400, "m": 24, "p_triangle": 0.5, "seed": 41}

#: (graph, query) → matches before the run stops; every cell reaches
#: its budget, and the budgets even out the cells' walls (about 0.35 s
#: each on a 2-CPU box) so no one cell owns the latency percentiles and
#: a run holds about 50 of them
CELLS = {
    ("dense24", "q1"): 2_000_000,
    ("dense24", "q3"): 4_000_000,
    ("dense24", "q4"): 1_500_000,
    ("dense24", "q7"): 1_500_000,
    ("mico", "q1"): 500_000,
}

#: warm-up budget: enough to build plans (and compile any kernel)
WARMUP_BUDGET = 20_000

#: write-path probe (``edit_p50_ms``): swap batches priced for the
#: 5-clique on mico, whose full count is cheap enough to recount, a few
#: after every pass
PROBE_GRAPH, PROBE_QUERY, PROBE_PER_PASS = "mico", "q8", 3


@dataclass
class State:
    graphs: dict[str, Any]
    graph_s: float


def setup(seed: int) -> State:
    t0 = time.perf_counter()
    dense = powerlaw_cluster(DENSE24["n"], m=DENSE24["m"], p_triangle=DENSE24["p_triangle"],
                             seed=DENSE24["seed"], name="dense24")
    mico = common.build_dataset("mico", "small")
    graphs = {"dense24": common.relabel(dense, seed), "mico": common.relabel(mico, seed)}
    graph_s = time.perf_counter() - t0
    warm = EngineConfig(max_results=WARMUP_BUDGET)
    for gname, qname in CELLS:
        STMatchEngine(graphs[gname], warm).run(get_query(qname))
    return State(graphs, graph_s)


def _pass_orders(seed: int) -> Any:
    rng = random.Random(f"cells:{seed}")
    while True:
        cells = list(CELLS)
        rng.shuffle(cells)
        yield cells


def timed_phase(state: State, seed: int, seconds: float | None, clock: HostClock,
                passes: int | None = None, observe: bool = False,
                probe: common.WriteProbe | None = None,
                out: Outcome | None = None) -> list[tuple[tuple[str, str], tuple, Any]]:
    """Whole passes over the cells until ``seconds`` elapse (or exactly
    ``passes`` passes), each followed by ``probe`` steps, with a
    ``clock`` tick after every run; returns ``(cell, (start, end),
    result)`` per run."""
    extra = {"observe": True} if observe else {}
    engines = {cell: STMatchEngine(state.graphs[cell[0]], EngineConfig(max_results=budget,
                                                                         **extra))
               for cell, budget in CELLS.items()}
    queries = {q: get_query(q) for _, q in CELLS}
    ops = []
    orders = _pass_orders(seed)
    clock.tick()
    t0 = time.perf_counter()
    done = 0
    while True:
        for cell in next(orders):
            t = time.perf_counter()
            result = engines[cell].run(queries[cell[1]])
            ops.append((cell, (t, time.perf_counter()), result))
            clock.tick()
        if probe is not None:
            for _ in range(PROBE_PER_PASS):
                probe.step(out)
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif time.perf_counter() - t0 >= seconds:
            break
    return ops


def check(ops: list, out: Outcome) -> dict:
    """Tally every run; each cell must give one answer on every pass."""
    first: dict = {}
    for cell, _, r in ops:
        out.tally.attempt(run_error_kind(r.status))
        sig = (r.matches, repr(r.sim_ms), str(r.status))
        if cell not in first:
            first[cell] = sig
            if str(r.status) == "budget" and r.matches < CELLS[cell]:
                out.mismatch(f"{cell}: budget stop below the budget ({r.matches})")
        elif sig != first[cell]:
            out.mismatch(f"{cell}: passes disagree: {sig} vs {first[cell]}")
    return first


def end_to_end(ops: list, first: dict, out: Outcome, clock: HostClock) -> None:
    """The end-to-end metrics, from walls in reference seconds."""
    ops = [(cell, clock.scale(*span), r) for cell, span, r in ops]
    walls = {cell: median([w for c, w, _ in ops if c == cell]) for cell in first}
    common.throughput_metrics([w for _, w, _ in ops], [r.matches for _, _, r in ops], out)
    out.metrics["sim_ms"] = (sum(float(sig[1]) for sig in first.values()), "ms")
    common.latency_metrics([w for _, w, _ in ops], out)
    out.info["runs"] = len(ops)
    out.info["cell_median_s"] = {f"{g}/{q}": round(w, 4) for (g, q), w in walls.items()}


def run(seed: int, seconds: float, trace: bool, import_s: float, clock: HostClock) -> Outcome:
    out = Outcome()
    if not trace:
        state, setups = common.repeat_setup(lambda: setup(seed), lambda s: None,
                                            common.SETUP_REPEATS, clock)
        probe = common.WriteProbe(state.graphs[PROBE_GRAPH], PROBE_QUERY, seed, clock)
        ops = timed_phase(state, seed, seconds, clock, probe=probe, out=out)
        end_to_end(ops, check(ops, out), out, clock)
        probe.verify(out)
        out.metrics["edit_p50_ms"] = (median(probe.walls) * 1e3, "ms")
        out.metrics["setup_s"] = (common.setup_metric(import_s, setups), "s")
        return out

    tracer = LayerTracer()
    tracer.install()
    try:
        state = setup(seed)
    finally:
        tracer.uninstall()
    marks = [tracer.mark("setup")]
    plain = timed_phase(state, seed, seconds, clock)
    first = check(plain, out)
    passes = len(plain) // len(CELLS)
    probe = common.WriteProbe(state.graphs[PROBE_GRAPH], PROBE_QUERY, seed, clock)
    tracer.install()
    try:
        traced = timed_phase(state, seed, None, clock, passes=passes, observe=True)
        marks.append(tracer.mark("phase"))
        for _ in range(passes * PROBE_PER_PASS):
            probe.step(out)
        marks.append(tracer.mark("probe"))
    finally:
        tracer.uninstall()
    probe.verify(out)
    check(traced, out)
    for (cell, _, a), (_, _, b) in zip(plain, traced):
        if (a.matches, repr(a.sim_ms)) != (b.matches, repr(b.sim_ms)):
            out.mismatch(f"{cell}: traced run differs from untraced "
                         f"({b.matches}, {b.sim_ms!r}) vs ({a.matches}, {a.sim_ms!r})")
    out.metrics.update(layers.layer_metrics(
        marks, graph_s=state.graph_s, results=[r for _, _, r in traced],
        phase_wall_s=sum(common.span_s(s) for _, s, _ in traced),
        untraced_wall_s=sum(common.span_s(s) for _, s, _ in plain),
        dynamic_sections=("probe",),
        extra={"dynamic.anchor_runs": probe.anchor_runs}))
    out.info["runs"] = len(traced)
    out.info["cells"] = {f"{g}/{q}": sig[0] for (g, q), sig in first.items()}
    out.info["missing_hooks"] = tracer.missing
    return out
