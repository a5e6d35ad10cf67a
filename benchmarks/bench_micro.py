"""Micro-benchmarks of the computational kernels under the experiments.

Not tied to a specific table; these keep the substrate's costs honest
(and catch accidental quadratic regressions) at the scales the
experiment drivers use them.
"""

from __future__ import annotations

from repro.core.base_paths import UniqueShortestPathsBase
from repro.graph.connectivity import bridges
from repro.graph.shortest_paths import dijkstra
from repro.graph.spt import ShortestPathDag


def bench_dijkstra_isp(benchmark, isp200):
    nodes = sorted(isp200.nodes, key=repr)
    dist, _ = benchmark(dijkstra, isp200, nodes[0])
    assert len(dist) == isp200.number_of_nodes()


def bench_dijkstra_powerlaw(benchmark, as500):
    nodes = sorted(as500.nodes, key=repr)
    dist, _ = benchmark(dijkstra, as500, nodes[0])
    assert len(dist) == as500.number_of_nodes()


def bench_dijkstra_on_failure_view(benchmark, isp200):
    """Dijkstra through a FilteredView must not be much slower than raw."""
    nodes = sorted(isp200.nodes, key=repr)
    source = nodes[0]
    # Fail two links not incident to the source (both uplinks of one
    # access router would isolate it, not stress the view).
    edges = [e for e in sorted(isp200.edges(), key=repr) if source not in e]
    view = isp200.without(edges=edges[:2])
    dist, _ = benchmark(dijkstra, view, source)
    assert len(dist) >= isp200.number_of_nodes() - 4


def bench_shortest_path_dag(benchmark, isp200):
    nodes = sorted(isp200.nodes, key=repr)
    dag = benchmark(ShortestPathDag.compute, isp200, nodes[0])
    reachable = [t for t in dag.dist if t != nodes[0]]
    assert all(dag.count_paths_to(t) >= 1 for t in reachable[:20])


def bench_bridges_isp(benchmark, isp200):
    found = benchmark(bridges, isp200)
    assert found == set()  # PoP-pair design is bridge-free


def bench_base_membership_probe(benchmark, isp200):
    """The decomposition DP's inner loop: one is-base-path probe."""
    base = UniqueShortestPathsBase(isp200)
    nodes = sorted(isp200.nodes, key=repr)
    path = base.path_for(nodes[0], nodes[-1])
    base.is_base_path(path)  # warm the oracle

    result = benchmark(base.is_base_path, path)
    assert result
