"""Tests for dict Dijkstra/BFS search, cross-checked vs networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NodeNotFound, NoPath
from repro.graph.graph import DiGraph, Graph
from repro.graph.shortest_paths import (
    bfs_shortest_paths,
    costs_equal,
    dijkstra,
    is_shortest_path,
    reconstruct_path,
    shortest_path,
    shortest_path_length,
    single_source_distances,
)
from repro.graph.paths import Path


def to_networkx(graph):
    gx = nx.DiGraph() if graph.directed else nx.Graph()
    for u in graph.nodes:
        gx.add_node(u)
    for u, v, w in graph.weighted_edges():
        gx.add_edge(u, v, weight=w)
    return gx


class TestDijkstra:
    def test_simple_distances(self, diamond):
        dist, _ = dijkstra(diamond, 1)
        assert dist == {1: 0.0, 2: 1.0, 3: 1.0, 4: 2.0}

    def test_weighted_distances(self, weighted_diamond):
        dist, _ = dijkstra(weighted_diamond, 1)
        assert dist[4] == 2.0
        assert dist[3] == 2.0

    def test_missing_source_raises(self, diamond):
        with pytest.raises(NodeNotFound):
            dijkstra(diamond, 99)

    def test_early_exit_settles_target(self, line5):
        dist, _ = dijkstra(line5, 0, target=2)
        assert dist[2] == 2.0
        assert 4 not in dist  # never settled

    def test_pred_reconstructs_path(self, diamond):
        dist, pred = dijkstra(diamond, 1)
        path = reconstruct_path(pred, 1, 4)
        assert path.source == 1 and path.target == 4
        assert path.cost(diamond) == dist[4]

    def test_directed_graph(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        dist, _ = dijkstra(g, 1)
        assert dist[3] == 2.0
        dist_back, _ = dijkstra(g, 3)
        assert 1 not in dist_back


class TestBfs:
    def test_matches_dijkstra_on_unit_weights(self, diamond):
        d_bfs, _ = bfs_shortest_paths(diamond, 1)
        d_dij, _ = dijkstra(diamond, 1)
        assert d_bfs == d_dij

    def test_early_exit(self, line5):
        dist, _ = bfs_shortest_paths(line5, 0, target=1)
        assert dist[1] == 1.0

    def test_missing_source_raises(self, diamond):
        with pytest.raises(NodeNotFound):
            bfs_shortest_paths(diamond, 99)


class TestWrappers:
    def test_shortest_path(self, diamond):
        p = shortest_path(diamond, 1, 4)
        assert p.hops == 2
        assert p.source == 1 and p.target == 4

    def test_shortest_path_no_path_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        with pytest.raises(NoPath):
            shortest_path(g, 1, 3)

    def test_shortest_path_length(self, weighted_diamond):
        assert shortest_path_length(weighted_diamond, 1, 4) == 2.0
        assert shortest_path_length(weighted_diamond, 1, 4, weighted=False) == 2.0

    def test_single_source_distances(self, line5):
        assert single_source_distances(line5, 0)[4] == 4.0

    def test_trivial_shortest_path(self, diamond):
        assert shortest_path(diamond, 1, 1).is_trivial

    def test_is_shortest_path(self, diamond):
        assert is_shortest_path(diamond, Path([1, 2, 4]))
        assert is_shortest_path(diamond, Path([1, 3, 4]))
        assert not is_shortest_path(diamond, Path([1, 2, 3, 4]))
        assert not is_shortest_path(diamond, Path([1, 9]))  # invalid

    def test_is_shortest_path_unweighted_mode(self, weighted_diamond):
        # 1-3-4 is 2 hops (hop-optimal) but cost 4 (not cost-optimal).
        assert is_shortest_path(weighted_diamond, Path([1, 3, 4]), weighted=False)
        assert not is_shortest_path(weighted_diamond, Path([1, 3, 4]), weighted=True)


@st.composite
def random_weighted_graphs(draw):
    n = draw(st.integers(4, 16))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 9)),
            max_size=40,
        )
    )
    g = Graph()
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        g.add_edge(parent, i, weight=draw(st.integers(1, 9)))
    for u, v, w in extra:
        if u < n and v < n and u != v and not g.has_edge(u, v):
            g.add_edge(u, v, weight=w)
    return g


@settings(max_examples=60, deadline=None)
@given(random_weighted_graphs())
def test_dijkstra_matches_networkx(g):
    """Distances from node 0 agree with the networkx oracle."""
    gx = to_networkx(g)
    expected = nx.single_source_dijkstra_path_length(gx, 0)
    dist, _ = dijkstra(g, 0)
    assert set(dist) == set(expected)
    for node, d in expected.items():
        assert costs_equal(dist[node], d)


@settings(max_examples=60, deadline=None)
@given(random_weighted_graphs())
def test_dijkstra_paths_are_tight(g):
    """Every reconstructed path's cost equals its claimed distance."""
    dist, pred = dijkstra(g, 0)
    for node in dist:
        path = reconstruct_path(pred, 0, node)
        assert costs_equal(path.cost(g), dist[node])
