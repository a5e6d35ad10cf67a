"""Single-source and point-to-point shortest path algorithms.

Everything in the paper sits on shortest paths: the base sets are
all-pairs shortest paths, restoration paths are shortest paths of the
failed graph, and the greedy decomposition repeatedly asks "is this
prefix a shortest path?".  This module provides:

* :func:`dijkstra` — classic single-source Dijkstra over the adjacency
  protocol, with optional early target exit.
* :func:`bfs_shortest_paths` — the unweighted specialization.
* :func:`shortest_path` / :func:`shortest_path_length` — convenience
  wrappers returning :class:`~repro.graph.paths.Path` objects.

The CSR kernels (:mod:`repro.graph.csr`) are tested against these
dict searches, and :func:`~repro.graph.incremental.fast_shortest_path`
falls back to :func:`shortest_path` off the CSR path.
Point-to-point hop counts on the big graphs go through the
bidirectional-BFS kernel, :func:`~repro.graph.csr.hop_distance_csr`.

All functions accept any object implementing the adjacency protocol
(:class:`~repro.graph.graph.Graph`, :class:`~repro.graph.graph.DiGraph`,
or :class:`~repro.graph.graph.FilteredView`), so running them "after k
failures" is just running them on a view.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import NodeNotFound, NoPath
from ..perf import COUNTERS
from .graph import Node
from .heap import AddressableHeap
from .paths import Path

#: Distances closer than this are considered equal when testing whether a
#: path is shortest.  Weights in the experiments are sums of at most a few
#: hundred terms of magnitude <= 1e4, so 1e-9 relative slack is safe.
EPSILON = 1e-9


def costs_equal(a: float, b: float) -> bool:
    """Float-tolerant equality for path costs."""
    return abs(a - b) <= EPSILON * max(1.0, abs(a), abs(b))


def dijkstra(
    graph,
    source: Node,
    target: Optional[Node] = None,
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Single-source Dijkstra.

    Returns ``(dist, pred)`` where ``dist[v]`` is the cost of the shortest
    path from *source* to every reached node *v* and ``pred[v]`` is *v*'s
    predecessor on one such path (``pred[source]`` is absent).

    With *target* given, stops as soon as the target is settled; ``dist``
    then covers only settled nodes.
    """
    if not graph.has_node(source):
        raise NodeNotFound(f"no node {source!r}")
    dist: dict[Node, float] = {}
    pred: dict[Node, Node] = {}
    heap: AddressableHeap[Node] = AddressableHeap()
    heap.push(source, 0.0)
    relaxations = 0
    while heap:
        u, d_u = heap.pop()
        dist[u] = d_u  # type: ignore[assignment]
        if u == target:
            break
        for v, w in graph.adjacency(u):
            relaxations += 1
            if v in dist:
                continue
            if heap.push_or_decrease(v, d_u + w):  # type: ignore[operator]
                pred[v] = u
    COUNTERS.dijkstra_runs += 1
    COUNTERS.dijkstra_settled += len(dist)
    COUNTERS.dijkstra_relaxations += relaxations
    return dist, pred


def bfs_shortest_paths(
    graph, source: Node, target: Optional[Node] = None
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Breadth-first shortest paths for unweighted graphs.

    Returns ``(dist, pred)`` with hop-count distances as floats, so the
    result is interchangeable with :func:`dijkstra` output.

    With *target* given, the search stops at the moment the target is
    *discovered* (its BFS distance is already final then) rather than
    after its whole level is expanded — on small-diameter graphs the
    last level is often the largest, so this halves the work of a
    typical restoration-path query.
    """
    if not graph.has_node(source):
        raise NodeNotFound(f"no node {source!r}")
    dist: dict[Node, float] = {source: 0.0}
    pred: dict[Node, Node] = {}
    if source == target:
        COUNTERS.bfs_runs += 1
        COUNTERS.bfs_settled += 1
        return dist, pred
    frontier = [source]
    while frontier:
        next_frontier = []
        for u in frontier:
            d_next = dist[u] + 1.0
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = d_next
                    pred[v] = u
                    if v == target:
                        COUNTERS.bfs_runs += 1
                        COUNTERS.bfs_settled += len(dist)
                        return dist, pred
                    next_frontier.append(v)
        frontier = next_frontier
    COUNTERS.bfs_runs += 1
    COUNTERS.bfs_settled += len(dist)
    return dist, pred


def reconstruct_path(pred: dict[Node, Node], source: Node, target: Node) -> Path:
    """Rebuild the path from a predecessor map produced by this module."""
    if target == source:
        return Path([source])
    if target not in pred:
        raise NoPath(f"no path from {source!r} to {target!r}")
    nodes = [target]
    node = target
    while node != source:
        node = pred[node]
        nodes.append(node)
    nodes.reverse()
    return Path(nodes)


def shortest_path(
    graph,
    source: Node,
    target: Node,
    weighted: bool = True,
) -> Path:
    """Return one shortest path from *source* to *target* as a :class:`Path`.

    Raises :class:`~repro.exceptions.NoPath` when the nodes are not
    connected in *graph* (e.g. after failures).
    """
    if weighted:
        dist, pred = dijkstra(graph, source, target=target)
    else:
        dist, pred = bfs_shortest_paths(graph, source, target=target)
    if target not in dist:
        raise NoPath(f"no path from {source!r} to {target!r}")
    return reconstruct_path(pred, source, target)


def shortest_path_length(
    graph, source: Node, target: Node, weighted: bool = True
) -> float:
    """Cost of the shortest path, without materializing the path."""
    if weighted:
        dist, _ = dijkstra(graph, source, target=target)
    else:
        dist, _ = bfs_shortest_paths(graph, source, target=target)
    if target not in dist:
        raise NoPath(f"no path from {source!r} to {target!r}")
    return dist[target]


def single_source_distances(graph, source: Node, weighted: bool = True) -> dict[Node, float]:
    """All distances from *source* (missing keys mean unreachable)."""
    if weighted:
        dist, _ = dijkstra(graph, source)
    else:
        dist, _ = bfs_shortest_paths(graph, source)
    return dist


def is_shortest_path(graph, path: Path, weighted: bool = True) -> bool:
    """True if *path* is a shortest path in *graph* between its endpoints.

    The path must be valid in *graph*; its cost is compared (with float
    tolerance) against the true shortest distance.
    """
    if not path.is_valid_in(graph):
        return False
    if path.is_trivial:
        return True
    if weighted:
        actual = path.cost(graph)
        best = shortest_path_length(graph, path.source, path.target, weighted=True)
        return costs_equal(actual, best)
    best = shortest_path_length(graph, path.source, path.target, weighted=False)
    return path.hops == int(best)


def reachable_from(graph, source: Node) -> set[Node]:
    """The set of nodes reachable from *source* (directed reachability)."""
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen
