"""Tests for shortest-path DAGs, path counting and enumeration."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import NoPath
from repro.graph.graph import Graph
from repro.graph.paths import Path
from repro.graph.spt import (
    ShortestPathDag,
    all_shortest_paths,
    count_shortest_paths,
    max_shortest_path_multiplicity,
)


class TestCounting:
    def test_diamond_has_two(self, diamond):
        assert count_shortest_paths(diamond, 1, 4) == 2

    def test_single_route(self, line5):
        assert count_shortest_paths(line5, 0, 4) == 1

    def test_weighted_breaks_tie(self, weighted_diamond):
        assert count_shortest_paths(weighted_diamond, 1, 4) == 1

    def test_grid_counts_binomial(self):
        # 3x3 grid: shortest (0,0)->(2,2) paths = C(4,2) = 6.
        from repro.topology.classic import grid_graph

        g = grid_graph(3, 3)
        assert count_shortest_paths(g, (0, 0), (2, 2)) == 6

    def test_unreachable_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        with pytest.raises(NoPath):
            count_shortest_paths(g, 1, 3)

    def test_modulo(self, diamond):
        dag = ShortestPathDag.compute(diamond, 1)
        assert dag.count_paths_to(4, modulo=2) == 0


class TestEnumeration:
    def test_enumerates_both_diamond_routes(self, diamond):
        paths = all_shortest_paths(diamond, 1, 4)
        assert sorted(p.nodes for p in paths) == [(1, 2, 4), (1, 3, 4)]

    def test_limit(self, diamond):
        assert len(all_shortest_paths(diamond, 1, 4, limit=1)) == 1

    def test_enumeration_matches_count(self):
        from repro.topology.classic import grid_graph

        g = grid_graph(3, 4)
        dag = ShortestPathDag.compute(g, (0, 0))
        for target in [(2, 3), (1, 2), (2, 0)]:
            assert len(list(dag.iter_paths_to(target))) == dag.count_paths_to(target)


class TestContainsAndFirst:
    def test_contains_path(self, diamond):
        dag = ShortestPathDag.compute(diamond, 1)
        assert dag.contains_path(Path([1, 2, 4]))
        assert dag.contains_path(Path([1, 3, 4]))
        assert not dag.contains_path(Path([1, 2, 3, 4]))
        assert not dag.contains_path(Path([2, 4]))  # wrong source

    def test_first_path(self, diamond):
        dag = ShortestPathDag.compute(diamond, 1)
        first = dag.first_path_to(4)
        assert dag.contains_path(first)

    def test_first_path_unreachable_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        dag = ShortestPathDag.compute(g, 1)
        with pytest.raises(NoPath):
            dag.first_path_to(3)


class TestMultiplicity:
    def test_diamond_max(self, diamond):
        assert max_shortest_path_multiplicity(diamond) == 2

    def test_restricted_sources(self, diamond):
        assert max_shortest_path_multiplicity(diamond, sources=[1]) == 2


@st.composite
def random_graphs(draw):
    n = draw(st.integers(4, 12))
    g = Graph()
    for i in range(1, n):
        g.add_edge(draw(st.integers(0, i - 1)), i)
    for u, v in draw(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=25)
    ):
        if u < n and v < n and u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_count_matches_networkx_enumeration(g):
    gx = nx.Graph()
    for u, v in g.edges():
        gx.add_edge(u, v)
    dag = ShortestPathDag.compute(g, 0)
    for target in list(dag.dist)[:6]:
        if target == 0:
            continue
        expected = len(list(nx.all_shortest_paths(gx, 0, target)))
        assert dag.count_paths_to(target) == expected


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_every_enumerated_path_is_shortest(g):
    from repro.graph.shortest_paths import shortest_path_length

    dag = ShortestPathDag.compute(g, 0)
    for target in list(dag.dist)[:5]:
        if target == 0:
            continue
        best = shortest_path_length(g, 0, target)
        for path in dag.iter_paths_to(target, limit=10):
            assert path.cost(g) == best
            assert path.is_simple()


class TestDirected:
    """Tight predecessors on a DiGraph are in-neighbors, not out-neighbors."""

    @pytest.fixture
    def directed_diamond(self):
        from repro.graph.graph import DiGraph

        g = DiGraph()
        for u, v in [(1, 2), (2, 3), (1, 4), (4, 3)]:
            g.add_edge(u, v)
        return g

    def test_counts_parents_and_enumeration(self, directed_diamond):
        dag = ShortestPathDag.compute(directed_diamond, 1)
        assert dag.count_all_paths()[3] == 2
        assert dag.parents(3) == [2, 4]
        paths = all_shortest_paths(directed_diamond, 1, 3)
        assert sorted(p.nodes for p in paths) == [(1, 2, 3), (1, 4, 3)]

    def test_a_view_of_a_digraph_takes_the_dict_path(self, directed_diamond):
        view = directed_diamond.without(edges=[(2, 3)])
        dag = ShortestPathDag.compute(view, 1)
        assert dag.count_all_paths() == {1: 1, 2: 1, 3: 1, 4: 1}
        assert dag.parents(3) == [4]
        assert dag.first_path_to(3).nodes == (1, 4, 3)


@st.composite
def random_digraphs(draw):
    from repro.graph.graph import DiGraph

    n = draw(st.integers(2, 9))
    g = DiGraph()
    for v in range(n):
        g.add_node(v)
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)),
            max_size=30,
        )
    )
    for u, v, w in arcs:
        if u < n and v < n and u != v:
            g.add_edge(u, v, weight=float(w))
    return g


@settings(max_examples=60, deadline=None)
@given(random_digraphs())
def test_directed_dag_matches_networkx(g):
    gx = nx.DiGraph()
    gx.add_nodes_from(g.nodes)
    for u, v in g.edges():
        gx.add_edge(u, v, weight=g.weight(u, v))
    dag = ShortestPathDag.compute(g, 0)
    reachable = set(nx.descendants(gx, 0)) | {0}
    assert set(dag.count_all_paths()) == reachable == set(dag.dist)
    for target in g.nodes:
        if target not in reachable:
            assert not dag.reaches(target)
            with pytest.raises(NoPath):
                dag.count_paths_to(target)
            continue
        expected = sorted(
            tuple(p) for p in nx.all_shortest_paths(gx, 0, target, weight="weight")
        )
        assert dag.count_paths_to(target) == len(expected)
        assert sorted(p.nodes for p in dag.iter_paths_to(target)) == expected
        assert all(dag.contains_path(Path(list(p))) for p in expected)


class TestLazyView:
    """The flat-row DAG builds its dict views on demand, in the order
    the eager dict DAG used."""

    def test_dist_order_and_first_path_match_the_eager_construction(self):
        from repro.graph.shortest_paths import costs_equal, dijkstra
        from repro.topology import generate_isp_topology

        g = generate_isp_topology(n=40, seed=3)
        for source in list(g.nodes)[:8]:
            dag = ShortestPathDag.compute(g, source)
            dist, _ = dijkstra(g, source)
            # Node (interning) order, restricted to reached nodes.
            assert list(dag.dist) == [v for v in g.nodes if v in dist]
            for target in dag.dist:
                nodes, node = [target], target
                while node != source:
                    node = next(
                        u for u, w in g.adjacency(node)
                        if costs_equal(dist[u] + w, dist[node])
                    )
                    nodes.append(node)
                assert dag.first_path_to(target).nodes == tuple(reversed(nodes))

    def test_counts_are_memoized(self, monkeypatch):
        from repro import kernels

        g = Graph.from_edges([(1, 2), (2, 4), (1, 3), (3, 4)])
        dag = ShortestPathDag.compute(g, 1)
        backend = kernels.kernel_backend()
        calls = []
        real = backend.count_paths
        monkeypatch.setattr(
            backend, "count_paths", lambda *a: calls.append(a) or real(*a)
        )
        assert [dag.count_paths_to(t) for t in (1, 2, 3, 4)] == [1, 1, 1, 2]
        assert dag.count_all_paths() == {1: 1, 2: 1, 3: 1, 4: 2}
        assert len(calls) == 1

    def test_zero_weight_tie_raises_value_error(self):
        g = Graph.from_edges([("a", "b", 1), ("b", "c", 0), ("a", "c", 1)])
        with pytest.raises(ValueError, match="tight edge"):
            ShortestPathDag.compute(g, "a").count_all_paths()
        with pytest.raises(ValueError, match="tight edge"):
            ShortestPathDag.compute(g.without(), "a").count_all_paths()

    def test_a_view_matches_its_graph(self, diamond):
        flat = ShortestPathDag.compute(diamond, 1)
        view = ShortestPathDag.compute(diamond.without(), 1)
        assert view.count_all_paths() == flat.count_all_paths()
        assert view.dist == flat.dist
        assert all(view.parents(v) == flat.parents(v) for v in diamond.nodes)
