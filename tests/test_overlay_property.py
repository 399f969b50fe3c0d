"""OverlayGraph read-API equivalence, property-tested.

An overlay must be observationally identical to the CSR it denotes:
for random base graphs and random edit batches, every read method
(`neighbors`, `neighbors_batch`, `degree`, `has_edge`,
`adjacency_bitmap`, `max_degree`, `edges`, labels) agrees byte-for-byte
with (a) ``compact()``'s freshly merged CSR and (b) a CSR built
independently from the mutated edge list — and the engine itself
produces identical matches *and cycles* on either representation for
the q1–q13 mix (the overlay is not allowed to change the simulated
schedule, only the storage).
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.dynamic import EditBatch, OverlayGraph, overlaid
from repro.graph.csr import CSRGraph
from repro.graph.labels import assign_random_labels
from repro.pattern import QUERIES

PROPERTY_SEEDS = range(12)
QUERY_NAMES = [f"q{i}" for i in range(1, 14)]


def _random_graph(seed: int, n: int = 22, density: float = 0.25) -> CSRGraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    g = CSRGraph.from_edges(n, edges, name=f"rand{seed}")
    if seed % 3 == 0:
        g = assign_random_labels(g, num_labels=3, seed=seed)
    return g


def _random_batch(g: CSRGraph, seed: int,
                  nd: int = 4, ni: int = 4) -> EditBatch:
    rng = np.random.default_rng(seed + 500)
    existing = sorted((min(u, v), max(u, v)) for u, v in g.edges())
    k = min(nd, len(existing))
    picks = rng.choice(len(existing), k, replace=False) if k else []
    deletes = [existing[int(i)] for i in picks]
    inserts = []
    present = set(existing)
    tries = 0
    while len(inserts) < ni and tries < 400:
        tries += 1
        u, v = sorted(int(x) for x in rng.integers(0, g.num_vertices, 2))
        if u != v and (u, v) not in present and (u, v) not in inserts:
            inserts.append((u, v))
    return EditBatch.from_lists(inserts=inserts, deletes=deletes)


def _independent_csr(g: CSRGraph, batch: EditBatch) -> CSRGraph:
    """The mutated graph built WITHOUT the overlay machinery."""
    eff = batch.normalized_against(g)
    edges = {(min(u, v), max(u, v)) for u, v in g.edges()}
    edges -= {tuple(e) for e in eff.deletes.tolist()}
    edges |= {tuple(e) for e in eff.inserts.tolist()}
    return CSRGraph.from_edges(g.num_vertices, sorted(edges),
                               labels=g.labels, name=g.name)


def _assert_reads_identical(ov: OverlayGraph, ref: CSRGraph) -> None:
    n = ref.num_vertices
    assert ov.num_vertices == n
    assert ov.num_edges == ref.num_edges
    assert ov.is_labeled == ref.is_labeled
    assert ov.num_labels == ref.num_labels
    assert np.array_equal(np.asarray(ov.degree()), np.asarray(ref.degree()))
    assert ov.max_degree() == ref.max_degree()
    assert ov.median_degree() == ref.median_degree()
    for v in range(n):
        assert np.array_equal(ov.neighbors(v), ref.neighbors(v)), v
        assert ov.neighbors(v).dtype == ref.neighbors(v).dtype
        assert int(ov.degree(v)) == int(ref.degree(v))
    vs = np.arange(n, dtype=np.int64)
    oval, ooff = ov.neighbors_batch(vs)
    rval, roff = ref.neighbors_batch(vs)
    assert np.array_equal(oval, rval) and np.array_equal(ooff, roff)
    rng = np.random.default_rng(0)
    for _ in range(200):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        assert ov.has_edge(u, v) == ref.has_edge(u, v), (u, v)
    thr = max(1, int(np.asarray(ref.degree()).mean()))
    ob, rb = ov.adjacency_bitmap(thr), ref.adjacency_bitmap(thr)
    assert sorted(ob) == sorted(rb)
    for k in rb:
        assert np.array_equal(ob[k], rb[k])
    assert sorted(ov.edges()) == sorted(ref.edges())
    if ref.is_labeled:
        for lab in range(ref.num_labels):
            assert np.array_equal(ov.vertices_with_label(lab),
                                  ref.vertices_with_label(lab))


class TestReadEquivalence:
    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_overlay_reads_equal_compacted_and_independent(self, seed):
        g = _random_graph(seed)
        batch = _random_batch(g, seed)
        ov = OverlayGraph.from_edits(g, batch)
        compacted = ov.compact()
        independent = _independent_csr(g, batch)
        _assert_reads_identical(ov, compacted)
        _assert_reads_identical(ov, independent)

    @pytest.mark.parametrize("seed", PROPERTY_SEEDS)
    def test_composition_equals_sequential_batches(self, seed):
        # with_edits composes over the same base; two stacked batches
        # must denote the same graph as applying them one at a time to
        # independently rebuilt CSRs
        g = _random_graph(seed)
        b1 = _random_batch(g, seed)
        mid = _independent_csr(g, b1)
        b2 = _random_batch(mid, seed + 77)
        ov = overlaid(overlaid(g, b1), b2)
        assert ov.base is g  # composition, not nesting
        _assert_reads_identical(ov, _independent_csr(mid, b2))

    def test_untouched_rows_are_zero_copy(self):
        g = _random_graph(1)
        ov = OverlayGraph.from_edits(
            g, EditBatch.from_lists(deletes=[next(iter(g.edges()))]))
        untouched = [v for v in range(g.num_vertices)
                     if not ov._touched[v]]
        assert untouched, "delta this small must leave rows untouched"
        v = untouched[0]
        assert ov.neighbors(v) is g.neighbors(v) or np.shares_memory(
            ov.neighbors(v), g.neighbors(v))

    def test_empty_batch_roundtrip(self):
        g = _random_graph(2)
        ov = OverlayGraph.from_edits(g, EditBatch.from_lists())
        _assert_reads_identical(ov, g)


class TestEngineOnOverlay:
    @pytest.mark.parametrize("qname", QUERY_NAMES)
    def test_matches_and_cycles_identical(self, qname):
        g = _random_graph(3)
        batch = _random_batch(g, 3)
        ov = OverlayGraph.from_edits(g, batch)
        compacted = ov.compact()
        q = QUERIES[qname]
        cfg = EngineConfig()
        a = STMatchEngine(ov, cfg).run(q)
        b = STMatchEngine(compacted, cfg).run(q)
        assert a.matches == b.matches
        assert a.cycles == b.cycles  # identical storage-level schedule
        assert a.status == b.status


class TestFastTierOnOverlay:
    """The compiled fast tier reads the overlay through the graph API.

    Its count-only leaves take row lengths from ``degree`` and the
    self-loop mask from ``self_loops``; reading the base CSR arrays
    instead miscounts (gather-free leaf) and mischarges (flipped
    intersection leaf) on touched rows.  A skewed graph with many
    edits makes both leaves hit touched rows.
    """

    @pytest.fixture(scope="class")
    def graphs(self):
        from repro.graph.generators import powerlaw_cluster

        g = powerlaw_cluster(60, 5, 0.3, seed=3)
        ov = OverlayGraph.from_edits(g, _random_batch(g, 7, nd=15, ni=15))
        assert ov.num_delta_arcs == 60
        return ov, ov.compact()

    @pytest.mark.parametrize("qname", [f"q{i}" for i in range(1, 9)])
    def test_overlay_equals_compacted_across_tiers(self, graphs, qname):
        ov, compacted = graphs
        q = QUERIES[qname]
        ref = STMatchEngine(compacted, EngineConfig(fastpath=False)).run(q)
        for graph in (ov, compacted):
            fast = STMatchEngine(graph, EngineConfig(fastpath=True)).run(q)
            assert (fast.matches, fast.cycles, fast.status) == \
                (ref.matches, ref.cycles, ref.status), graph.name
