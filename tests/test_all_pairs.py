"""Tests for the lazy APSP distance oracle."""

from __future__ import annotations

import pytest

from repro.exceptions import NoPath
from repro.graph.all_pairs import LazyDistanceOracle
from repro.graph.graph import Graph
from repro.graph.shortest_paths import costs_equal, dijkstra


class TestLazyDistanceOracle:
    def test_matches_eager(self, small_isp):
        """Every answer equals the row of an eager dict Dijkstra."""
        lazy = LazyDistanceOracle(small_isp)
        nodes = sorted(small_isp.nodes, key=repr)
        for s in nodes[:3]:
            eager, _ = dijkstra(small_isp, s)
            for t in nodes[::7]:
                if s == t:
                    continue
                assert costs_equal(lazy.distance(s, t), eager[t])

    def test_caches_sources(self, diamond):
        lazy = LazyDistanceOracle(diamond)
        assert lazy.cached_sources() == []
        lazy.distance(1, 4)
        assert lazy.cached_sources() == [1]
        lazy.distance(1, 3)
        assert lazy.cached_sources() == [1]  # reused, not recomputed

    def test_unreachable_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        lazy = LazyDistanceOracle(g)
        with pytest.raises(NoPath):
            lazy.distance(1, 4)
        assert not lazy.has_path(1, 4)

    def test_path(self, weighted_diamond):
        lazy = LazyDistanceOracle(weighted_diamond)
        assert lazy.path(1, 4).cost(weighted_diamond) == 2.0

    def test_oracle_on_view(self, diamond):
        view = diamond.without(edges=[(1, 2)])
        lazy = LazyDistanceOracle(view)
        assert lazy.distance(1, 4) == 2.0  # via 3
        assert lazy.path(1, 4).nodes == (1, 3, 4)
