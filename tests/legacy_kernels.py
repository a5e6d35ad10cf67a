"""Heap-history replays of the dict kernels on CSR arrays (test-only).

The dict kernels (:func:`repro.graph.shortest_paths.dijkstra` and
``bfs_shortest_paths``) break ties by history: Dijkstra's predecessor
of ``v`` is whichever equal-cost parent the addressable heap accepted
first, BFS's is the first discoverer in adjacency order.  The library's
CSR kernels use the canonical ``(dist, index)`` order instead
(:mod:`repro.graph.csr`).  These replays drive the dict kernels'
operation sequence over CSR buffers, so the suites can pin that the
dict kernels keep their historical tie behaviour on every topology
family, and show that this order — unlike the canonical one — depends
on the order edges were inserted.
"""

from __future__ import annotations

from repro.graph.heap import AddressableHeap

INF = float("inf")


def dijkstra_csr_legacy(view, source: int, target: int = -1) -> tuple:
    """``(dist, pred)`` lists from the same :class:`AddressableHeap`
    relaxation sequence as :func:`repro.graph.shortest_paths.dijkstra`
    (priorities and operation order identical, ties included)."""
    csr = view.csr
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    edge_dead, node_dead = view.masks()
    dist = [INF] * csr.n
    pred = [-1] * csr.n
    heap: AddressableHeap[int] = AddressableHeap()
    heap.push(source, 0.0)
    while heap:
        u, d_u = heap.pop()
        dist[u] = d_u
        if u == target:
            break
        for slot in range(indptr[u], indptr[u + 1]):
            v = indices[slot]
            if node_dead[v] or edge_dead[slot] or dist[v] != INF:
                continue
            if heap.push_or_decrease(v, d_u + weights[slot]):
                pred[v] = u
    return dist, pred


def bfs_csr_legacy(view, source: int, target: int = -1) -> tuple:
    """``(dist, pred)`` lists in the order of
    :func:`repro.graph.shortest_paths.bfs_shortest_paths`:
    discovery-ordered frontier, predecessor = first discoverer in
    adjacency order, early return when *target* is discovered."""
    csr = view.csr
    indptr, indices = csr.indptr, csr.indices
    edge_dead, node_dead = view.masks()
    dist = [INF] * csr.n
    pred = [-1] * csr.n
    dist[source] = 0.0
    if source == target:
        return dist, pred
    frontier = [source]
    while frontier:
        next_frontier = []
        for u in frontier:
            d_next = dist[u] + 1.0
            for slot in range(indptr[u], indptr[u + 1]):
                v = indices[slot]
                if node_dead[v] or edge_dead[slot] or dist[v] != INF:
                    continue
                dist[v] = d_next
                pred[v] = u
                if v == target:
                    return dist, pred
                next_frontier.append(v)
        frontier = next_frontier
    return dist, pred
