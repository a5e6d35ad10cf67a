"""The canonical (dist, index) path contract, pinned.

Three properties make the contract load-bearing for the whole library
(see DESIGN.md "Path contract"):

1. **History invariance** — canonical rows depend only on the graph,
   never on heap insertion history: building the same topology with
   shuffled edge-insertion order (identical node interning order)
   yields bit-identical dist/pred arrays.  This is what makes weighted
   Ramalingam–Reps repair legal (Bodwin–Parter, arXiv:2102.10174).
2. **Weighted repair equivalence** — on tie-heavy weighted graphs,
   repaired rows equal from-scratch canonical rows exactly, pred
   arrays included.
3. **Batched repair equivalence** — ``SptCache.repair_batch_idx``
   returns, per source, the row of a from-scratch canonical run.

Plus the BENCH header's stamps of the contract: ``tie_order`` and the
``REPAIR_FALLBACK_FRACTION`` constant.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.csr import (
    CsrGraph,
    as_view,
    bfs_csr,
    dijkstra_csr_canonical,
)
from repro.graph.graph import Graph
from repro.graph.incremental import REPAIR_FALLBACK_FRACTION, SptCache

from .legacy_kernels import dijkstra_csr_legacy
from .test_incremental import forced_repair, scratch_row


def tie_heavy_graph(rng: random.Random, n: int = 36, extra: int = 40) -> Graph:
    """Connected graph with only two weight values: ties everywhere."""
    g = Graph()
    for v in range(n):  # fixed node interning order across variants
        g.add_node(v)
    nodes = list(range(n))
    order = nodes[1:]
    rng.shuffle(order)
    connected = [0]
    for v in order:
        g.add_edge(rng.choice(connected), v, rng.choice((1.0, 2.0)))
        connected.append(v)
    added = 0
    while added < extra:
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.choice((1.0, 2.0)))
            added += 1
    return g


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    """Same nodes/edges/weights, edges inserted in a different order."""
    h = Graph()
    for v in g.nodes:  # identical interning order
        h.add_node(v)
    edges = list(g.weighted_edges())
    rng.shuffle(edges)
    for u, v, w in edges:
        h.add_edge(u, v, w)
    return h


class TestHistoryInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_canonical_rows_survive_edge_order_shuffles(self, seed):
        rng = random.Random(seed)
        g = tie_heavy_graph(rng)
        csr = CsrGraph(g)
        sources = [csr.index[s] for s in rng.sample(range(36), 4)]
        reference = {
            s: dijkstra_csr_canonical(as_view(csr), s) for s in sources
        }
        for shuffle_seed in range(4):
            h = shuffled_copy(g, random.Random(900 + shuffle_seed))
            hcsr = CsrGraph(h)
            assert hcsr.nodes == csr.nodes  # interning order held fixed
            for s in sources:
                dist, pred, _ = dijkstra_csr_canonical(as_view(hcsr), s)
                want_dist, want_pred, _ = reference[s]
                assert dist == want_dist
                assert pred == want_pred

    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_bfs_survives_edge_order_shuffles(self, seed):
        rng = random.Random(40 + seed)
        g = tie_heavy_graph(rng)
        csr = CsrGraph(g)
        src = csr.index[rng.randrange(36)]
        want = bfs_csr(as_view(csr), src)
        for shuffle_seed in range(3):
            h = shuffled_copy(g, random.Random(700 + shuffle_seed))
            assert bfs_csr(as_view(CsrGraph(h)), src) == want

    def test_legacy_mode_is_history_dependent_by_design(self):
        # The dict kernels' heap-history order replays adjacency order; a
        # shuffle that flips which equal-cost parent is relaxed first
        # flips its tree.  We only assert the replay stays self-consistent
        # and distance-equal — its *pred* arrays carry no cross-build
        # guarantee.
        rng = random.Random(11)
        g = tie_heavy_graph(rng)
        h = shuffled_copy(g, random.Random(12))
        ga, ha = CsrGraph(g), CsrGraph(h)
        for s in range(0, 36, 9):
            d1, _ = dijkstra_csr_legacy(as_view(ga), s)
            d2, _ = dijkstra_csr_legacy(as_view(ha), s)
            assert d1 == d2  # distances are tie-invariant


class TestWeightedRepairEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_tie_heavy_weighted_repair_matches_scratch(self, seed):
        """Mirrors test_incremental's deletion trials on graphs built
        to maximize equal-cost ties — the regime heap-history emulation
        could not repair and canonical ties can."""
        rng = random.Random(2000 + seed)
        g = tie_heavy_graph(rng)
        csr = CsrGraph(g)
        src = csr.index[rng.randrange(36)]
        dist, pred, _ = dijkstra_csr_canonical(as_view(csr), src)
        edges = [(u, v) for u, v, _ in g.weighted_edges()]
        for trial in range(6):
            k = rng.choice((1, 2, 3))
            view = csr.with_edges_removed(rng.sample(edges, k))
            got = forced_repair(view, src, dist, pred)
            want = scratch_row(view, src)
            assert got[0] == want[0]  # distances bitwise
            assert got[1] == want[1]  # canonical parents exactly


class TestBatchedRepair:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_repair_batch_matches_single_source_rows(self, weighted):
        rng = random.Random(31)
        g = tie_heavy_graph(rng)
        edges = [(u, v) for u, v, _ in g.weighted_edges()]
        for trial in range(5):
            cache = SptCache(g, weighted=weighted)
            index = cache.csr.index
            sources = [index[s] for s in rng.sample(range(36), 6)]
            view = cache.view_for(g.without(edges=rng.sample(edges, 2)))
            rows = cache.repair_batch_idx(sources, view)
            assert set(rows) == set(sources)
            for s in sources:
                assert rows[s] == scratch_row(view, s, weighted)

    def test_repair_batch_skips_dead_sources(self):
        g = tie_heavy_graph(random.Random(5))
        cache = SptCache(g, weighted=True)
        index = cache.csr.index
        fv = g.without(nodes=[3])
        rows = cache.repair_batch_idx([index[1], index[3], index[7]], fv)
        assert index[3] not in rows and set(rows) == {index[1], index[7]}


class TestBenchHeader:
    def test_payload_gets_policy_fields(self, tmp_path):
        import json

        from repro.experiments.bench import write_bench_json

        out = write_bench_json(
            "contract", {"name": "contract"}, path=str(tmp_path / "b.json")
        )
        payload = json.loads(out.read_text())
        assert payload["tie_order"] == "canonical"
        assert payload["repair_fallback"] == REPAIR_FALLBACK_FRACTION == 0.5

    def test_default_path_lands_in_results_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.experiments.bench import write_bench_json

        out = write_bench_json("contract", {"name": "contract"})
        assert out == tmp_path / "results" / "BENCH_contract.json"
        assert out.exists()
