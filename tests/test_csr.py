"""CSR snapshot + array-kernel equivalence vs. the dict implementations.

Two contracts are pinned here.  The dict kernels keep their
**historical tie order**: the heap-history replays of
:mod:`tests.legacy_kernels` reproduce them exactly (settle order,
predecessor choices, ties included) — the canonical CSR order differs
from them deliberately, not accidentally.  The **canonical kernels**
(``dijkstra_csr_canonical``, and ``dijkstra_csr`` / ``bfs_csr``, which
route to the same tie order) match the dict kernels wherever results
are tie-invariant (distances always) and are themselves pinned by
:mod:`tests.test_canonical_contract`.  Every topology family in
:mod:`repro.topology` is exercised.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NodeNotFound
from repro.graph.csr import (
    INF,
    CsrGraph,
    CsrView,
    as_view,
    bfs_csr,
    dicts_from_arrays,
    dijkstra_csr,
    dijkstra_csr_canonical,
    mask_from_view,
    path_nodes,
    shared_csr,
)
from repro.graph.graph import Graph
from repro.perf import COUNTERS
from repro.topology import (
    comb_graph,
    complete_graph,
    cycle_graph,
    directed_counterexample,
    four_cycle,
    generate_as_graph,
    generate_internet_graph,
    generate_isp_topology,
    grid_graph,
    path_graph,
    preferential_attachment,
    two_level_star,
    weighted_comb_graph,
)
from repro.graph.shortest_paths import bfs_shortest_paths, dijkstra

from .legacy_kernels import bfs_csr_legacy, dijkstra_csr_legacy

TOPOLOGIES = {
    "path": lambda: path_graph(8),
    "cycle": lambda: cycle_graph(9),
    "four_cycle": lambda: four_cycle(),
    "complete": lambda: complete_graph(6),
    "grid": lambda: grid_graph(4, 5),
    "comb": lambda: comb_graph(4)[0],
    "weighted_comb": lambda: weighted_comb_graph(3)[0],
    "two_level_star": lambda: two_level_star(8)[0],
    "isp": lambda: generate_isp_topology(n=60, seed=7),
    "pref_attach": lambda: preferential_attachment(
        80, 2.3, seed=3, triad_probability=0.4
    ),
    "as_graph": lambda: generate_as_graph(n=120, seed=3),
    "internet": lambda: generate_internet_graph(n=150, seed=5),
    "directed": lambda: directed_counterexample(9)[0],
}


@pytest.fixture(params=sorted(TOPOLOGIES), scope="module")
def topo(request) -> Graph:
    return TOPOLOGIES[request.param]()


def sources_of(graph, k=6, seed=0):
    nodes = list(graph.nodes)
    rng = random.Random(seed)
    return nodes if len(nodes) <= k else rng.sample(nodes, k)


class TestSnapshotStructure:
    def test_round_trip_adjacency(self, topo):
        csr = CsrGraph(topo)
        assert csr.n == len(list(topo.nodes))
        for node in topo.nodes:
            i = csr.index[node]
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            got = [
                (csr.nodes[csr.indices[s]], csr.weights[s])
                for s in range(lo, hi)
            ]
            assert got == list(topo.adjacency(node))

    def test_buffers_are_zero_copy_memoryviews(self):
        csr = CsrGraph(path_graph(5))
        indptr, indices, weights = csr.buffers()
        assert indptr.obj is csr.indptr
        assert indices.obj is csr.indices
        assert weights.obj is csr.weights
        assert indices.format == "l" and weights.format == "d"

    def test_edge_slots_mask_both_directions(self):
        g = path_graph(4)
        csr = CsrGraph(g)
        slots = csr.edge_slots([(1, 2)])
        assert len(slots) == 2
        heads = {csr.nodes[csr.indices[s]] for s in slots}
        assert heads == {1, 2}

    def test_edge_slots_directed_masks_one_direction(self):
        g = directed_counterexample(9)[0]
        csr = CsrGraph(g)
        u, v, _ = next(iter(g.weighted_edges()))
        assert len(csr.edge_slots([(u, v)])) == 1

    def test_unknown_endpoints_ignored(self):
        csr = CsrGraph(path_graph(3))
        assert csr.edge_slots([("nope", 0)]) == frozenset()
        assert csr.node_indices(["nope"]) == frozenset()

    def test_with_edges_removed_shares_buffers(self):
        csr = CsrGraph(cycle_graph(6))
        view = csr.with_edges_removed([(0, 1)], [3])
        assert view.csr is csr
        assert view.dead_nodes == {csr.index[3]}
        stacked = view.without(edges=[(4, 5)])
        assert stacked.dead_edges > view.dead_edges
        assert stacked.csr is csr

    def test_build_counter(self):
        before = COUNTERS.csr_builds
        CsrGraph(path_graph(3))
        assert COUNTERS.csr_builds == before + 1

    def test_prefix_costs_sum_left_to_right(self, topo):
        csr = CsrGraph(topo)
        # The shared-memory form: the same buffers as memoryviews.
        attached = CsrGraph.from_buffers(
            csr.nodes, *csr.buffers(), directed=csr.directed
        )
        rng = random.Random(5)
        for _ in range(20):
            walk = [rng.randrange(csr.n)]
            for _ in range(rng.randrange(1, 8)):
                u = walk[-1]
                lo, hi = csr.indptr[u], csr.indptr[u + 1]
                if lo == hi:
                    break
                walk.append(csr.indices[rng.randrange(lo, hi)])
            nodes = [csr.nodes[i] for i in walk]
            want = [0.0]
            for u, v in zip(nodes, nodes[1:]):
                want.append(want[-1] + topo.weight(u, v))
            assert csr.prefix_costs(walk) == want
            assert attached.prefix_costs(walk) == want

    def test_prefix_costs_reject_a_missing_hop(self):
        csr = CsrGraph(path_graph(4))
        attached = CsrGraph.from_buffers(csr.nodes, *csr.buffers(), directed=False)
        for snapshot in (csr, attached):
            assert snapshot.prefix_costs([0, 1, 2]) == [0.0, 1.0, 2.0]
            assert snapshot.prefix_costs([0, 2]) is None
            assert snapshot.prefix_costs([3]) == [0.0]


class TestSharedCsrCache:
    def test_same_snapshot_until_mutation(self):
        g = cycle_graph(5)
        first = shared_csr(g)
        assert shared_csr(g) is first
        g.add_edge(0, 2, 5.0)
        rebuilt = shared_csr(g)
        assert rebuilt is not first
        assert rebuilt.source_version == g.version

    def test_weight_update_also_invalidates(self):
        g = path_graph(4)
        first = shared_csr(g)
        g.add_edge(0, 1, 9.0)  # reweight an existing edge
        assert shared_csr(g) is not first

    def test_filtered_view_not_cached(self):
        g = cycle_graph(5)
        view = g.without(edges=[(0, 1)])
        csr = shared_csr(view)  # not weakref-able: fresh build, no cache
        assert csr.n == 5


class TestKernelEquivalence:
    def test_legacy_dijkstra_exact_match(self, topo):
        """The heap-history replay reproduces the dict kernel exactly."""
        csr = CsrGraph(topo)
        view = as_view(csr)
        for src in sources_of(topo):
            dist_d, pred_d = dijkstra(topo, src)
            dist, pred = dijkstra_csr_legacy(view, csr.index[src])
            got_dist, got_pred = dicts_from_arrays(csr, dist, pred)
            assert got_dist == dist_d
            assert got_pred == pred_d

    def test_legacy_bfs_exact_match(self, topo):
        if topo.directed:
            pytest.skip("bfs_shortest_paths is undirected-only here")
        csr = CsrGraph(topo)
        view = as_view(csr)
        for src in sources_of(topo):
            dist_d, pred_d = bfs_shortest_paths(topo, src)
            dist, pred = bfs_csr_legacy(view, csr.index[src])
            got_dist, got_pred = dicts_from_arrays(csr, dist, pred)
            assert got_dist == dist_d
            assert got_pred == pred_d

    def test_default_dijkstra_is_canonical(self, topo):
        """The undecorated entry point routes to the canonical kernel."""
        csr = CsrGraph(topo)
        view = as_view(csr)
        for src in sources_of(topo, k=3):
            dist, pred = dijkstra_csr(view, csr.index[src])
            c_dist, c_pred, _ = dijkstra_csr_canonical(view, csr.index[src])
            assert dist == c_dist
            assert pred == c_pred

    def test_default_bfs_is_canonical(self, topo):
        """Default BFS picks the min-index parent one level up."""
        if topo.directed:
            pytest.skip("canonical BFS contract is for undirected graphs")
        csr = CsrGraph(topo)
        view = as_view(csr)
        indptr, indices = csr.indptr, csr.indices
        for src in sources_of(topo, k=3):
            dist, pred = bfs_csr(view, csr.index[src])
            for v in range(csr.n):
                if pred[v] < 0:
                    continue
                candidates = [
                    indices[s]
                    for s in range(indptr[v], indptr[v + 1])
                    if dist[indices[s]] == dist[v] - 1.0
                ]
                assert pred[v] == min(candidates)

    def test_canonical_distances_match(self, topo):
        csr = CsrGraph(topo)
        view = as_view(csr)
        for src in sources_of(topo):
            dist_d, _ = dijkstra(topo, src)
            dist, _, exhausted = dijkstra_csr_canonical(view, csr.index[src])
            assert exhausted
            assert dicts_from_arrays(csr, dist, [-1] * csr.n)[0] == dist_d

    def test_masked_view_matches_filtered_view(self, topo):
        if topo.directed:
            pytest.skip("failure masking mirrors undirected FilteredView")
        rng = random.Random(42)
        edges = [(u, v) for u, v, _ in topo.weighted_edges()]
        for _ in range(5):
            dead = rng.sample(edges, min(3, len(edges)))
            fv = topo.without(edges=dead)
            csr = CsrGraph(topo)
            view = mask_from_view(csr, fv)
            src = next(n for n in topo.nodes if fv.has_node(n))
            dist_d, _ = dijkstra(fv, src)
            dist, _ = dijkstra_csr_legacy(view, csr.index[src])
            assert dicts_from_arrays(csr, dist, [-1] * csr.n)[0] == dist_d
            c_dist, _ = dijkstra_csr(view, csr.index[src])
            assert dicts_from_arrays(csr, c_dist, [-1] * csr.n)[0] == dist_d

    def test_early_exit_settles_target_prefix(self):
        g = generate_isp_topology(n=60, seed=7)
        csr = CsrGraph(g)
        nodes = list(g.nodes)
        s, t = nodes[0], nodes[-1]
        full, full_pred = dijkstra_csr(as_view(csr), csr.index[s])
        part, part_pred = dijkstra_csr(
            as_view(csr), csr.index[s], target=csr.index[t]
        )
        it = csr.index[t]
        assert part[it] == full[it]
        assert path_nodes(csr, part_pred, csr.index[s], it) == path_nodes(
            csr, full_pred, csr.index[s], it
        )

    def test_dead_source_raises(self):
        csr = CsrGraph(path_graph(3))
        view = csr.with_edges_removed(nodes=[0])
        with pytest.raises(NodeNotFound):
            dijkstra_csr(view, csr.index[0])
        with pytest.raises(NodeNotFound):
            bfs_csr(view, csr.index[0])
        with pytest.raises(NodeNotFound):
            dijkstra_csr_canonical(view, csr.index[0])

    def test_canonical_targets_pruning(self):
        g = generate_isp_topology(n=60, seed=7)
        csr = CsrGraph(g)
        nodes = list(g.nodes)
        src = csr.index[nodes[0]]
        targets = [csr.index[n] for n in nodes[1:4]]
        dist, _, exhausted = dijkstra_csr_canonical(
            as_view(csr), src, targets=targets
        )
        full, _, _ = dijkstra_csr_canonical(as_view(csr), src)
        for t in targets:
            assert dist[t] == full[t]
        # A pruned run may stop early; settled targets are always final.
        if not exhausted:
            assert any(d == INF for d in dist)


class TestCounters:
    def test_kernels_report_csr_counters(self):
        g = cycle_graph(8)
        csr = CsrGraph(g)
        before_r = COUNTERS.csr_relaxations
        before_s = COUNTERS.csr_settled
        dijkstra_csr(as_view(csr), 0)
        assert COUNTERS.csr_relaxations > before_r
        assert COUNTERS.csr_settled >= before_s + 8

    def test_dict_counters_untouched_by_csr_kernels(self):
        g = cycle_graph(8)
        csr = CsrGraph(g)
        before = COUNTERS.dijkstra_relaxations
        dijkstra_csr(as_view(csr), 0)
        dijkstra_csr_canonical(CsrView(csr), 0)
        assert COUNTERS.dijkstra_relaxations == before
