"""k-shortest simple paths (Yen) and min-cost disjoint pairs (Suurballe).

Two classical algorithms the restoration literature the paper cites is
built on:

* :func:`yen_k_shortest_paths` — Yen's algorithm for the k shortest
  *simple* paths; reference [7] of the paper compares k-shortest-paths
  restoration against max-flow routing, and our baseline scheme
  pre-provisions the paths it yields.
* :func:`suurballe_disjoint_pair` — Suurballe's algorithm for the
  min-total-cost pair of edge-disjoint paths, which is how the
  "pre-established disjoint backup path" schemes of [16, 3] pick their
  backups.  Implemented with reduced costs so both phases are plain
  Dijkstra.

Both operate on undirected graphs/views exposing the adjacency
protocol (internally they work on the directed doubling).
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import NoPath
from .graph import Node, edge_key
from .heap import AddressableHeap
from .paths import Path
from .shortest_paths import dijkstra, reconstruct_path, shortest_path


def yen_k_shortest_paths(graph, source: Node, target: Node, k: int) -> list[Path]:
    """The up-to-*k* shortest simple paths, cheapest first (Yen, 1971).

    Returns fewer than *k* paths when the graph does not contain that
    many simple paths.  Raises :class:`NoPath` when source and target
    are disconnected.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    best = shortest_path(graph, source, target)
    accepted: list[Path] = [best]
    # Candidate heap keyed by (cost, path) — paths tie-break determinism.
    candidates: AddressableHeap[Path] = AddressableHeap()

    while len(accepted) < k:
        previous = accepted[-1]
        # Each prefix of the last accepted path becomes a spur point.
        for i in range(len(previous.nodes) - 1):
            spur_node = previous.nodes[i]
            root = previous.prefix(i)
            # Edges to exclude: the next hop of every accepted path
            # sharing this root (prevents re-finding them)...
            banned_edges = set()
            for path in accepted:
                if len(path.nodes) > i and path.nodes[: i + 1] == root.nodes:
                    banned_edges.add(edge_key(path.nodes[i], path.nodes[i + 1]))
            # ...and the root's interior nodes (keeps spur paths simple).
            banned_nodes = set(root.nodes[:-1])
            view = graph.without(edges=banned_edges, nodes=banned_nodes)
            if not view.has_node(spur_node):
                continue
            try:
                spur = shortest_path(view, spur_node, target)
            except NoPath:
                continue
            candidate = root.concat(spur)
            if candidate not in candidates and candidate not in accepted:
                candidates.push_or_decrease(candidate, candidate.cost(graph))
        if not candidates:
            break
        next_path, _ = candidates.pop()
        accepted.append(next_path)
    return accepted


def suurballe_disjoint_pair(
    graph, source: Node, target: Node
) -> tuple[Path, Path]:
    """Min-total-cost pair of edge-disjoint source→target paths.

    Suurballe-Tarjan with reduced costs: after one Dijkstra, all edge
    costs are re-weighted to ``w(u,v) + d(u) - d(v) >= 0``; the first
    shortest path's arcs are then removed (and their reversals made
    free) and a second Dijkstra finds the augmenting path.  Interleaved
    edges that appear in opposite directions cancel, and the union
    splits into two disjoint paths.

    Returns ``(p1, p2)`` with ``p1.cost <= p2.cost``.  Raises
    :class:`NoPath` if no two edge-disjoint paths exist.
    """
    if source == target:
        raise ValueError("source and target must differ")
    dist, _ = dijkstra(graph, source)
    if target not in dist:
        raise NoPath(f"no path from {source!r} to {target!r}")
    first = shortest_path(graph, source, target)
    first_arcs = set(first.edges())

    # Dijkstra over the residual digraph with reduced costs.
    def residual_arcs(u: Node):
        """Residual out-arcs of *u* under reduced costs."""
        for v, w in graph.adjacency(u):
            if v not in dist or u not in dist:
                continue
            if (u, v) in first_arcs:
                continue  # arc removed
            reduced = w + dist[u] - dist[v]
            if (v, u) in first_arcs:
                reduced = 0.0  # reversal of a tree arc is free
            yield v, reduced

    res_dist: dict[Node, float] = {}
    pred: dict[Node, Node] = {}
    heap: AddressableHeap[Node] = AddressableHeap()
    heap.push(source, 0.0)
    while heap:
        u, d_u = heap.pop()
        res_dist[u] = d_u  # type: ignore[assignment]
        if u == target:
            break
        for v, w in residual_arcs(u):
            if v in res_dist:
                continue
            if heap.push_or_decrease(v, d_u + w):  # type: ignore[operator]
                pred[v] = u
    if target not in res_dist:
        raise NoPath(
            f"no two edge-disjoint paths join {source!r} and {target!r}"
        )
    second_walk = reconstruct_path(pred, source, target)

    # Cancel opposite arcs, then split the union into two paths.  The
    # arcs stay in insertion order (the first path's, then the second
    # walk's): a set of node tuples would iterate in hash order, which
    # varies with PYTHONHASHSEED for string labels, and so would the
    # split.
    arcs = dict.fromkeys(first.edges())
    for u, v in second_walk.edges():
        if (v, u) in arcs:
            del arcs[(v, u)]
        else:
            arcs[(u, v)] = None
    out: dict[Node, list[Node]] = {}
    for u, v in arcs:
        out.setdefault(u, []).append(v)
    paths: list[Path] = []
    for _ in range(2):
        nodes = [source]
        current = source
        while current != target:
            current = out[current].pop()
            nodes.append(current)
        paths.append(Path(nodes))
    p1, p2 = sorted(paths, key=lambda p: p.cost(graph))
    return p1, p2


def edge_disjoint_backup(graph, primary: Path) -> Optional[Path]:
    """Cheapest backup avoiding *every* edge of *primary* (None if cut off).

    The simpler (non-optimal) disjoint-backup construction: remove the
    primary's edges and route again.  Unlike Suurballe it keeps the
    given primary fixed, which is what an operator with an existing LSP
    does.
    """
    view = graph.without(edges=primary.edge_keys())
    try:
        return shortest_path(view, primary.source, primary.target)
    except NoPath:
        return None


def node_disjoint_backup(graph, primary: Path) -> Optional[Path]:
    """Cheapest backup sharing no *interior router* with *primary*.

    The stronger protection the Table 2 router-failure rows call for:
    an interior-node-disjoint backup survives any single router failure
    on the primary, not just link cuts.  ``None`` when the endpoints
    have no node-disjoint alternative (primary interior is a cut set).
    """
    view = graph.without(nodes=primary.interior_nodes())
    try:
        backup = shortest_path(view, primary.source, primary.target)
    except NoPath:
        return None
    if primary.hops == 1 and backup == primary:
        # A one-hop primary has no interior; disjointness must then be
        # by edge, or the "backup" is the primary itself.
        return edge_disjoint_backup(graph, primary)
    return backup
