"""Decremental SPT repair equivalence vs. from-scratch recomputation.

Randomized trials: delete 1–3 edges (or fail nodes) from assorted
graphs and check that the fused kernel repair (``repair_resettle``)
reproduces the from-scratch canonical kernel bit-for-bit (weighted
**and** unweighted — the canonical tie contract makes weighted repair
legal), that :class:`SptCache.backup_path` returns exactly the
canonical kernel's pred-chain path with the dict pipeline's cost
(including NoPath on disconnection), that the fallback policy and its
counters fire when the affected subtree blows past the threshold, and
that a source rents targeted searches until it has settled two rows'
worth and then buys its row once.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NodeNotFound, NoPath
from repro.graph.csr import (
    INF,
    CsrGraph,
    CsrView,
    as_view,
    bfs_csr,
    dijkstra_csr_canonical,
)
from repro.graph.graph import DiGraph, Graph
from repro.graph.incremental import (
    REPAIR_FALLBACK_FRACTION,
    SptCache,
    affected_subtree,
    dead_edge_pairs,
    fast_shortest_path,
)
from repro.graph.shortest_paths import shortest_path, single_source_distances
from repro.kernels import REPAIRED, UNTOUCHED, kernel_backend
from repro.perf import COUNTERS
from repro.topology import cycle_graph, generate_isp_topology, path_graph


def random_graph(rng: random.Random, n=40, extra=40, unit=False) -> Graph:
    """Connected random graph: a scrambled spanning tree plus chords."""
    g = Graph()
    nodes = list(range(n))
    rng.shuffle(nodes)
    weights = [1.0] if unit else [1.0, 2.0, 4.0, 8.0, 16.0]
    for i, v in enumerate(nodes[1:], start=1):
        u = nodes[rng.randrange(i)]
        g.add_edge(u, v, rng.choice(weights))
    added = 0
    while added < extra:
        u, v = rng.sample(nodes, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.choice(weights))
            added += 1
    return g


def random_failures(rng: random.Random, g: Graph, k: int):
    edges = [(u, v) for u, v, _ in g.weighted_edges()]
    return rng.sample(edges, k)


def forced_repair(view: CsrView, src: int, dist, pred, unit: bool = False):
    """One fused kernel repair with no fallback threshold: the repaired
    row, or the pre-failure row itself when no deletion touched the
    tree.  The source must be alive."""
    backend = kernel_backend()
    outcome, new_dist, new_pred = backend.repair_resettle(
        view, src, dist, pred, backend.children_index(pred), INF, unit
    )
    if outcome == UNTOUCHED:
        return dist, pred
    assert outcome == REPAIRED
    return new_dist, new_pred


def scratch_row(view: CsrView, src: int, weighted: bool = True):
    """From-scratch canonical ``(dist, pred)`` row on *view*."""
    if weighted:
        dist, pred, _ = dijkstra_csr_canonical(view, src)
        return dist, pred
    return bfs_csr(view, src)


class TestRepairSpt:
    @pytest.mark.parametrize("unit", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_repair_matches_scratch_after_deletions(self, seed, unit):
        rng = random.Random(seed)
        g = random_graph(rng, unit=unit)
        csr = CsrGraph(g)
        base = as_view(csr)
        src = csr.index[rng.randrange(40)]
        if unit:
            dist, pred = bfs_csr(base, src)
        else:
            dist, pred, _ = dijkstra_csr_canonical(base, src)
        for k in (1, 2, 3):
            view = csr.with_edges_removed(random_failures(rng, g, k))
            got_dist, got_pred = forced_repair(view, src, dist, pred, unit)
            want_dist, want_pred = scratch_row(view, src, not unit)
            assert got_dist == want_dist  # bitwise: same floats
            # Canonical ties make the repaired tree exactly the scratch
            # tree in both metrics: the min-(dist, index) parent rule is
            # a local property of the final labels.
            assert got_pred == want_pred

    @pytest.mark.parametrize("seed", range(4))
    def test_repair_matches_scratch_after_node_failures(self, seed):
        rng = random.Random(100 + seed)
        g = random_graph(rng)
        csr = CsrGraph(g)
        src = csr.index[0]
        dist, pred, _ = dijkstra_csr_canonical(as_view(csr), src)
        dead = [n for n in rng.sample(range(40), 3) if csr.index[n] != src]
        view = csr.with_edges_removed(nodes=dead)
        assert forced_repair(view, src, dist, pred) == scratch_row(view, src)

    def test_disconnection_yields_inf(self):
        g = path_graph(6)
        csr = CsrGraph(g)
        dist, pred, _ = dijkstra_csr_canonical(as_view(csr), csr.index[0])
        view = csr.with_edges_removed([(2, 3)])
        got_dist, got_pred = forced_repair(view, csr.index[0], dist, pred)
        for node in (3, 4, 5):
            assert got_dist[csr.index[node]] == INF
            assert got_pred[csr.index[node]] == -1
        assert got_dist[csr.index[2]] == 2.0

    def test_inputs_never_mutated(self):
        g = cycle_graph(8)
        csr = CsrGraph(g)
        dist, pred, _ = dijkstra_csr_canonical(as_view(csr), 0)
        before = (list(dist), list(pred))
        got = forced_repair(csr.with_edges_removed([(0, 1)]), 0, dist, pred)
        assert got[0] is not dist and got[1] is not pred
        assert (list(dist), list(pred)) == before

    def test_non_tree_deletion_is_free(self):
        # Deleting an edge no shortest path uses leaves the SPT intact.
        g = Graph.from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]
        )
        cache = SptCache(g)
        src = cache.csr.index[0]
        view = cache.csr.with_edges_removed([(0, 2)])
        cache.ensure_rows([src])
        before = COUNTERS.snapshot()
        got_dist, got_pred = cache.repair_batch_idx([src], view)[src]
        delta = COUNTERS.delta(before)
        assert delta.spt_nodes_resettled == 0  # nothing re-settled
        assert delta.spt_repairs == 1 and delta.spt_fallbacks == 0
        # The cached pre-failure row stands, unchanged.
        assert got_dist is cache.row(0)[0] and got_pred is cache.row(0)[1]

    def test_fallback_counter_and_recompute(self):
        g = path_graph(10)  # cutting the first edge affects ~everything
        cache = SptCache(g)
        src = cache.csr.index[0]
        view = cache.csr.with_edges_removed([(0, 1)])
        cache.ensure_rows([src])
        before_f = COUNTERS.spt_fallbacks
        before_r = COUNTERS.spt_repairs
        got = cache.repair_batch_idx([src], view)[src]
        assert COUNTERS.spt_fallbacks == before_f + 1
        assert COUNTERS.spt_repairs == before_r  # abandoned, not a repair
        assert got == scratch_row(view, src)

    def test_affected_subtree_helpers(self):
        g = path_graph(5)
        csr = CsrGraph(g)
        dist, pred, _ = dijkstra_csr_canonical(as_view(csr), csr.index[0])
        view = csr.with_edges_removed([(1, 2)])
        pairs = dead_edge_pairs(view)
        assert {frozenset(p) for p in pairs} == {
            frozenset({csr.index[1], csr.index[2]})
        }
        affected = affected_subtree(dist, pred, csr.n, pairs, view.dead_nodes)
        assert affected == {csr.index[v] for v in (2, 3, 4)}


def canonical_reference(cache: SptCache, fv, s, t, weighted: bool):
    """Node tuple of the from-scratch canonical kernel's pred chain."""
    csr = cache.csr
    si, ti = csr.index[s], csr.index[t]
    dist, pred = scratch_row(cache.view_for(fv), si, weighted)
    assert dist[ti] != INF
    chain = [ti]
    x = ti
    while x != si:
        x = pred[x]
        chain.append(x)
    return tuple(csr.nodes[i] for i in reversed(chain))


class TestSptCacheBackupPath:
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_backup_path_matches_canonical_kernel(self, seed, weighted):
        """Node-exact vs. a from-scratch canonical run; cost-exact vs.
        the dict pipeline (equal-cost path choice may differ)."""
        rng = random.Random(1000 + seed)
        g = random_graph(rng, unit=not weighted)
        cache = SptCache(g, weighted=weighted)
        for _ in range(25):
            k = rng.choice((1, 2, 3))
            dead = random_failures(rng, g, k)
            fv = g.without(edges=dead)
            s, t = rng.sample(range(40), 2)
            try:
                want = shortest_path(fv, s, t, weighted=weighted)
            except NoPath:
                with pytest.raises(NoPath):
                    cache.backup_path(s, t, fv)
                continue
            got = cache.backup_path(s, t, fv)
            assert got.nodes == canonical_reference(cache, fv, s, t, weighted)
            if weighted:
                assert got.cost(fv) == pytest.approx(want.cost(fv))
            else:
                assert got.hops == want.hops

    def test_backup_path_with_node_failures(self):
        rng = random.Random(7)
        g = random_graph(rng, unit=True)
        cache = SptCache(g, weighted=False)
        for _ in range(20):
            s, t = rng.sample(range(40), 2)
            dead = [n for n in rng.sample(range(40), 2) if n not in (s, t)]
            fv = g.without(nodes=dead)
            try:
                want = shortest_path(fv, s, t, weighted=False)
            except NoPath:
                with pytest.raises(NoPath):
                    cache.backup_path(s, t, fv)
                continue
            got = cache.backup_path(s, t, fv)
            assert got.hops == want.hops
            assert got.nodes == canonical_reference(cache, fv, s, t, False)

    def test_dead_endpoint_raises(self):
        g = cycle_graph(5)
        cache = SptCache(g)
        fv = g.without(nodes=[2])
        with pytest.raises(NoPath):
            cache.backup_path(2, 4, fv)
        with pytest.raises(NoPath):
            cache.backup_path(4, 2, fv)

    def test_trivial_pair_is_single_node(self):
        g = cycle_graph(5)
        cache = SptCache(g)
        path = cache.backup_path(3, 3, g.without(edges=[(0, 1)]))
        assert path.nodes == (3,)

    def test_unweighted_cache_on_weighted_graph_uses_hops(self):
        # Hop metric must ignore stored weights (unit=True repair).
        rng = random.Random(77)
        g = random_graph(rng, unit=False)
        cache = SptCache(g, weighted=False)
        for _ in range(15):
            dead = random_failures(rng, g, 2)
            fv = g.without(edges=dead)
            s, t = rng.sample(range(40), 2)
            try:
                want = shortest_path(fv, s, t, weighted=False)
            except NoPath:
                continue
            got = cache.backup_path(s, t, fv)
            assert got.hops == want.hops
            assert got.nodes == canonical_reference(cache, fv, s, t, False)

    @pytest.mark.parametrize("weighted,unit", [(True, False), (False, True), (False, False)])
    def test_backup_chain_cost_is_the_path_cost(self, weighted, unit):
        # The label is the path's left-to-right sum bit for bit; hop
        # rows of a non-unit graph sum the chain's weights instead.
        rng = random.Random(31)
        g = random_graph(rng, unit=unit)
        cache = SptCache(g, weighted=weighted)
        checked = 0
        for _ in range(25):
            fv = g.without(edges=random_failures(rng, g, 2))
            s, t = rng.sample(range(40), 2)
            try:
                chain, cost = cache.backup_chain(s, t, fv)
            except NoPath:
                continue
            path = cache.backup_path(s, t, fv)
            assert [cache.csr.nodes[i] for i in chain] == list(path.nodes)
            assert type(cost) is float and cost == path.cost(g)
            checked += 1
        assert checked > 0
        assert cache.backup_chain(3, 3, g.without(edges=[])) == ([cache.csr.index[3]], 0.0)

    def test_row_memoized_and_repairs_counted(self):
        g = generate_isp_topology(n=60, seed=7)
        cache = SptCache(g, weighted=True)
        nodes = list(g.nodes)
        assert cache.row(nodes[0]) is cache.row(nodes[0])
        before = COUNTERS.spt_repairs + COUNTERS.spt_fallbacks
        fv = g.without(edges=[next(iter(g.weighted_edges()))[:2]])
        cache.repair_batch_idx([cache.csr.index[nodes[0]]], fv)
        assert COUNTERS.spt_repairs + COUNTERS.spt_fallbacks > before

    def test_distances_match_dict_single_source(self):
        g = generate_isp_topology(n=60, seed=7)
        cache = SptCache(g, weighted=True)
        nodes = list(g.nodes)
        u, v, _ = next(iter(g.weighted_edges()))
        fv = g.without(edges=[(u, v)])
        src = cache.csr.index[nodes[0]]
        dist, _ = cache.repair_batch_idx([src], fv)[src]
        got = {nodes[i]: d for i, d in enumerate(dist) if d != INF}
        assert got == single_source_distances(fv, nodes[0], weighted=True)


class TestFastShortestPathDispatch:
    def test_csr_path_none_for_directed(self):
        dg = DiGraph()
        dg.add_edge("a", "b", 1.0)
        dg.add_edge("b", "c", 1.0)
        before = COUNTERS.snapshot()
        # A directed graph is outside the CSR path: the dict search answers.
        assert fast_shortest_path(dg, "a", "c").nodes == ("a", "b", "c")
        delta = COUNTERS.delta(before)
        assert delta.csr_builds == 0 and delta.dijkstra_runs == 1

    def test_csr_path_none_for_unknown_node(self):
        g = cycle_graph(4)
        fast_shortest_path(g, 0, 2)  # prime the snapshot cache
        assert fast_shortest_path(g, 0, 2).nodes == shortest_path(
            g, 0, 2
        ).nodes
        # Endpoints outside the snapshot get the dict path's exceptions.
        with pytest.raises(NoPath):
            fast_shortest_path(g, 0, 99)
        with pytest.raises(NodeNotFound):
            fast_shortest_path(g, 99, 0)

    def test_filtered_view_equivalence(self):
        g = generate_isp_topology(n=60, seed=7)
        rng = random.Random(3)
        nodes = list(g.nodes)
        for _ in range(10):
            dead = random_failures(rng, g, 2)
            fv = g.without(edges=dead)
            s, t = rng.sample(nodes, 2)
            try:
                want = shortest_path(fv, s, t, weighted=True)
            except NoPath:
                with pytest.raises(NoPath):
                    fast_shortest_path(fv, s, t, weighted=True)
                continue
            assert fast_shortest_path(fv, s, t).nodes == want.nodes

    def test_mutation_invalidates_cached_snapshot(self):
        g = cycle_graph(6)
        assert fast_shortest_path(g, 0, 3).hops == 3
        g.add_edge(0, 3, 0.5)  # shortcut added after the snapshot
        assert fast_shortest_path(g, 0, 3).hops == 1


class TestFallbackThreshold:
    def test_threshold_constant_sane(self):
        assert 0.0 < REPAIR_FALLBACK_FRACTION < 1.0

    def test_hub_failure_trips_cache_fallback(self):
        # Failing the hub of a star invalidates every row: the cache
        # must fall back rather than repair node-by-node.
        g = Graph.from_edges([("hub", i) for i in range(12)])
        cache = SptCache(g, weighted=False)
        cache.row(0)
        before = COUNTERS.spt_fallbacks
        fv = g.without(nodes=["hub"])
        with pytest.raises(NoPath):
            cache.backup_path(0, 5, fv)
        assert COUNTERS.spt_fallbacks >= before


class TestRentToBuy:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_source_rents_until_two_rows_then_buys_once(self, weighted):
        """A source's failure queries run targeted searches and build no
        row while those searches have settled fewer than 2n nodes; the
        next query builds the row (one repair or fallback), and later
        queries repair it.  Every chain is the from-scratch canonical
        chain."""
        g = generate_isp_topology(n=60, seed=7)
        cache = SptCache(g, weighted=weighted)
        n, nodes = cache.csr.n, cache.csr.nodes
        s = nodes[0]
        edges = [(u, v) for u, v, _ in g.weighted_edges()]
        rng = random.Random(5)
        rented = 0  # nodes settled by the source's targeted searches
        phases = []
        for _ in range(40):
            fv = g.without(edges=rng.sample(edges, 1))
            t = rng.choice(nodes[1:])
            before = COUNTERS.snapshot()
            chain, _cost = cache.backup_chain(s, t, fv)
            delta = COUNTERS.delta(before)
            repairs = delta.spt_repairs + delta.spt_fallbacks
            if rented < 2 * n:
                assert (delta.warm_row_builds, repairs) == (0, 0)
                rented += delta.csr_settled
                phases.append("rent")
            elif "buy" not in phases:
                assert (delta.warm_row_builds, repairs) == (1, 1)
                phases.append("buy")
            else:
                assert (delta.warm_row_builds, repairs) == (0, 1)
                phases.append("repair")
            assert tuple(nodes[i] for i in chain) == canonical_reference(
                cache, fv, s, t, weighted
            )
        assert phases.count("buy") == 1
        assert phases[0] == "rent" and phases[-1] == "repair"


class TestSubtreeSizes:
    def test_zero_weight_edge_counts_the_whole_subtree(self):
        # c is as close to the root as its parent b: a sizes pass that
        # orders nodes by distance can visit b before c and lose c's
        # subtree from a's total.
        g = Graph()
        g.add_edge("a", "b", 1)
        g.add_edge("b", "c", 0)
        g.add_edge("c", "d", 1)
        cache = SptCache(g)
        index = cache.csr.index
        sizes = cache.subtree_sizes(index["a"])
        assert [sizes[index[x]] for x in "abcd"] == [4, 3, 2, 1]

    @pytest.mark.parametrize("unit", [False, True])
    def test_sizes_count_the_nodes_routed_through_each_node(self, unit):
        rng = random.Random(11)
        g = random_graph(rng, n=30, extra=25, unit=unit)
        g.add_node("island")  # unreachable: size 0
        cache = SptCache(g, weighted=not unit)
        n = cache.csr.n
        for source in range(0, n, 7):
            _dist, pred = cache._row(source)
            expected = [0] * n
            for v in range(n):
                x = v
                while x >= 0 and (x == source or pred[x] >= 0):
                    expected[x] += 1
                    x = pred[x]
            assert cache.subtree_sizes(source) == expected
