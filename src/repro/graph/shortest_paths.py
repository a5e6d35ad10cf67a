"""Single-source and point-to-point shortest path algorithms.

Everything in the paper sits on shortest paths: the base sets are
all-pairs shortest paths, restoration paths are shortest paths of the
failed graph, and the greedy decomposition repeatedly asks "is this
prefix a shortest path?".  This module provides:

* :func:`dijkstra` — classic single-source Dijkstra over the adjacency
  protocol, with optional early target exit and optional hop-count
  tie-breaking (so that among equal-cost paths the fewest-hop one is
  found, matching OSPF behaviour).
* :func:`bfs_shortest_paths` — the unweighted specialization.
* :func:`bidirectional_dijkstra` — point-to-point queries on the big
  Internet-scale graphs, where full Dijkstra per query is wasteful.
* :func:`shortest_path` / :func:`shortest_path_length` — convenience
  wrappers returning :class:`~repro.graph.paths.Path` objects.

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
    break_ties_by_hops: bool = False,
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Single-source Dijkstra.

    Returns ``(dist, pred)`` where ``dist[v]`` is the cost of the shortest
    path from *source* to every reached node *v* and ``pred[v]`` is *v*'s
    predecessor on one such path (``pred[source]`` is absent).

    With *target* given, stops as soon as the target is settled; ``dist``
    then covers only settled nodes.  With *break_ties_by_hops*, among
    equal-cost paths the one with fewer hops is preferred — this mirrors
    what an OSPF implementation with equal-cost tie-breaking produces and
    keeps restoration-path hop counts canonical.
    """
    if not graph.has_node(source):
        raise NodeNotFound(f"no node {source!r}")
    dist: dict[Node, float] = {}
    hops: dict[Node, int] = {}
    pred: dict[Node, Node] = {}
    heap: AddressableHeap[Node] = AddressableHeap()
    heap.push(source, (0.0, 0) if break_ties_by_hops else 0.0)
    tentative_hops: dict[Node, int] = {source: 0}
    relaxations = 0
    while heap:
        u, priority = heap.pop()
        if break_ties_by_hops:
            d_u, h_u = priority  # type: ignore[misc]
        else:
            d_u, h_u = priority, tentative_hops.get(u, 0)
        dist[u] = d_u  # type: ignore[assignment]
        hops[u] = h_u
        if u == target:
            break
        for v, w in graph.adjacency(u):
            relaxations += 1
            if v in dist:
                continue
            candidate = d_u + w  # type: ignore[operator]
            if break_ties_by_hops:
                if heap.push_or_decrease(v, (candidate, h_u + 1)):
                    pred[v] = u
            else:
                if heap.push_or_decrease(v, candidate):
                    pred[v] = u
                    tentative_hops[v] = h_u + 1
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


def bidirectional_dijkstra(graph, source: Node, target: Node) -> tuple[float, Path]:
    """Point-to-point shortest path by simultaneous forward/backward search.

    Returns ``(cost, path)``.  Only valid on undirected graphs/views (the
    backward search reuses the forward adjacency).  Raises
    :class:`~repro.exceptions.NoPath` when disconnected.
    """
    if getattr(graph, "directed", False):
        raise ValueError("bidirectional_dijkstra requires an undirected graph")
    if not graph.has_node(source):
        raise NodeNotFound(f"no node {source!r}")
    if not graph.has_node(target):
        raise NodeNotFound(f"no node {target!r}")
    if source == target:
        return 0.0, Path([source])

    dists: list[dict[Node, float]] = [{}, {}]  # settled: forward, backward
    preds: list[dict[Node, Node]] = [{}, {}]
    heaps: list[AddressableHeap[Node]] = [AddressableHeap(), AddressableHeap()]
    heaps[0].push(source, 0.0)
    heaps[1].push(target, 0.0)
    best_cost = float("inf")
    meeting: Optional[Node] = None

    while heaps[0] and heaps[1]:
        # Termination: once the frontier minima sum to >= the best meeting
        # cost, no undiscovered route can improve on it.
        if heaps[0].peek()[1] + heaps[1].peek()[1] >= best_cost:  # type: ignore[operator]
            break
        # Expand the side with the smaller frontier minimum.
        side = 0 if heaps[0].peek()[1] <= heaps[1].peek()[1] else 1
        u, d_u = heaps[side].pop()
        dists[side][u] = d_u  # type: ignore[assignment]
        other = 1 - side
        if u in dists[other] and dists[side][u] + dists[other][u] < best_cost:
            best_cost = dists[side][u] + dists[other][u]
            meeting = u
        for v, w in graph.adjacency(u):
            if v in dists[side]:
                continue
            candidate = d_u + w  # type: ignore[operator]
            if heaps[side].push_or_decrease(v, candidate):
                preds[side][v] = u
            # Path through frontier edge may beat both settled meetings.
            if v in dists[other] and candidate + dists[other][v] < best_cost:
                best_cost = candidate + dists[other][v]
                meeting = v

    if meeting is None:
        raise NoPath(f"no path from {source!r} to {target!r}")
    forward = reconstruct_path(preds[0], source, meeting)
    backward = reconstruct_path(preds[1], target, meeting)
    return best_cost, forward.concat(backward.reversed())


def shortest_path(
    graph,
    source: Node,
    target: Node,
    weighted: bool = True,
    break_ties_by_hops: bool = False,
) -> Path:
    """Return one shortest path from *source* to *target* as a :class:`Path`.

    Raises :class:`~repro.exceptions.NoPath` when the nodes are not
    connected in *graph* (e.g. after failures).
    """
    if weighted:
        dist, pred = dijkstra(
            graph, source, target=target, break_ties_by_hops=break_ties_by_hops
        )
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
