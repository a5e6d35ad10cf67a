"""Self-contained graph substrate: structures, shortest paths, connectivity.

Public surface re-exported here; see the submodules for the full API:

* :mod:`repro.graph.graph` — :class:`Graph`, :class:`DiGraph`,
  :class:`FilteredView`, :func:`edge_key`.
* :mod:`repro.graph.paths` — :class:`Path` and concatenation helpers.
* :mod:`repro.graph.heap` — :class:`AddressableHeap`.
* :mod:`repro.graph.shortest_paths` — dict Dijkstra/BFS search.
* :mod:`repro.graph.spt` — shortest-path DAGs and path counting.
* :mod:`repro.graph.all_pairs` — the lazy APSP distance oracle.
* :mod:`repro.graph.connectivity` — components, bridges, cut vertices.
"""

from .all_pairs import LazyDistanceOracle
from .connectivity import (
    articulation_points,
    bridges,
    connected_components,
    is_connected,
    is_two_edge_connected,
    largest_component,
)
from .graph import DiGraph, Edge, FilteredView, Graph, Node, edge_key
from .heap import AddressableHeap
from .ksp import (
    edge_disjoint_backup,
    node_disjoint_backup,
    suurballe_disjoint_pair,
    yen_k_shortest_paths,
)
from .maxflow import edge_disjoint_paths, max_disjoint_path_count, max_flow
from .paths import Path, concat_all, is_concatenation_of
from .shortest_paths import (
    bfs_shortest_paths,
    costs_equal,
    dijkstra,
    is_shortest_path,
    reconstruct_path,
    shortest_path,
    shortest_path_length,
    single_source_distances,
)
from .spt import (
    ShortestPathDag,
    all_shortest_paths,
    count_shortest_paths,
    max_shortest_path_multiplicity,
)

__all__ = [
    "AddressableHeap",
    "DiGraph",
    "Edge",
    "FilteredView",
    "Graph",
    "LazyDistanceOracle",
    "Node",
    "Path",
    "ShortestPathDag",
    "all_shortest_paths",
    "articulation_points",
    "bfs_shortest_paths",
    "bridges",
    "concat_all",
    "connected_components",
    "costs_equal",
    "count_shortest_paths",
    "dijkstra",
    "edge_disjoint_backup",
    "edge_disjoint_paths",
    "edge_key",
    "is_concatenation_of",
    "is_connected",
    "is_shortest_path",
    "is_two_edge_connected",
    "largest_component",
    "max_disjoint_path_count",
    "max_flow",
    "max_shortest_path_multiplicity",
    "node_disjoint_backup",
    "reconstruct_path",
    "shortest_path",
    "shortest_path_length",
    "single_source_distances",
    "suurballe_disjoint_pair",
    "yen_k_shortest_paths",
]
