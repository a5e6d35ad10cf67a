"""Pure-Python reference kernels — the semantics every backend must match.

These are the original hot loops of :mod:`repro.graph.csr`,
:mod:`repro.graph.incremental`, and
:mod:`repro.experiments.ilm_accounting`, moved behind the backend
interface unchanged.  Dead-edge/dead-node probes use the flat bytearray
masks of :meth:`~repro.graph.csr.CsrView.masks` instead of per-slot set
membership — an index costs what an empty-frozenset probe used to, and
beats hashing whenever a mask is non-empty — with counter accounting
identical to the historical set-based loops.

Backend interface (duck-typed module):

Every row — ``dist`` and ``pred`` — is a flat buffer: the kernels
return ``array('d')`` / ``array('q')``, and accept those or read-only
memoryviews of the same formats (rows adopted from shared memory).

``NAME``
    Backend identifier stamped into BENCH headers.
``dijkstra_canonical(view, source, targets) -> (dist, pred, exhausted)``
    Canonical-tie-order Dijkstra; the caller has already verified the
    source is alive.
``bfs(view, source, target) -> (dist, pred)``
    Canonical index-ordered BFS with optional early target exit.
``rows_many(view, sources, unit) -> dict | None``
    Batched full rows; ``None`` means "no batched path — caller loops".
``children_index(pred) -> (offsets, kids)``
    CSR inversion of a pre-failure predecessor row: the children of
    ``v`` are ``kids[offsets[v]:offsets[v + 1]]``, ascending.
``repair_resettle(view, source, dist, pred, children, threshold, unit)``
    Fused decremental repair of a cached pre-failure row: finds the
    subtree the view's deletions cut off, compares its size with
    *threshold*, and re-settles it.  Returns ``(outcome, new_dist,
    new_pred)`` — the rows only for :data:`~repro.kernels.REPAIRED`,
    ``None`` for ``UNTOUCHED`` / ``OVER_THRESHOLD`` / ``SOURCE_CUT`` —
    and accounts ``spt_nodes_resettled`` / ``csr_relaxations``.
``decompose_flat(chain, cum, rows) -> (best, choice, probes)``
    The min-pieces decomposition DP over prefix sums and the warmed
    oracle rows of chain positions ``0 .. len(chain) - 3``.
``ilm_account(probe, source, targets, dist, pred, table, naive)``
    Per-link ILM accounting of one (scenario, source) pair: adds every
    restored backup chain (a tree path of the repaired ``pred`` row)
    to the naive counts in place, runs the min-pieces DP once per node
    of the union of those chains over *probe*'s weights and the oracle
    rows of a :class:`~repro.kernels.RowTable`, and returns ``(pieces,
    restored, unrestorable, probes)`` with the distinct pieces as
    index tuples.
``count_paths(csr, source, dist, eps) -> counts``
    Shortest-path counts from *source* over the tight-edge DAG of its
    canonical ``dist`` row, one exact ``int`` per node index (0 for
    unreached nodes); ``ValueError`` when a tight edge does not lead
    later in ``(dist, index)`` order.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, Optional, Sequence

from ..perf import COUNTERS
from . import OVER_THRESHOLD, REPAIRED, SOURCE_CUT, UNTOUCHED

NAME = "python"
INF = float("inf")


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None
) -> tuple[array, array, bool]:
    """Lazy-heap canonical Dijkstra (see ``dijkstra_csr_canonical``)."""
    csr = view.csr
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    edge_dead, node_dead = view.masks()
    dist = [INF] * csr.n
    pred = [-1] * csr.n
    best = [INF] * csr.n
    best[source] = 0.0
    remaining: Optional[set[int]] = None
    if targets is not None:
        remaining = {t for t in targets if t != source and not node_dead[t]}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = 0
    relaxations = 0
    exhausted = True
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d_u, u = pop(heap)
        if dist[u] != INF:
            continue
        dist[u] = d_u
        settled += 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                exhausted = not heap
                break
        for slot in range(indptr[u], indptr[u + 1]):
            v = indices[slot]
            if node_dead[v] or edge_dead[slot]:
                continue
            relaxations += 1
            if dist[v] != INF:
                continue
            candidate = d_u + weights[slot]
            if candidate < best[v]:
                best[v] = candidate
                pred[v] = u
                push(heap, (candidate, v))
            # candidate == best[v] cannot name a better (dist, index)
            # parent here: parents relax in settle order, which IS the
            # (dist, index) order, so the first tight parent already won.
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    return array("d", dist), array("q", pred), exhausted


def bfs(view, source: int, target: int = -1) -> tuple[array, array]:
    """Canonical index-ordered BFS (see ``bfs_csr``)."""
    csr = view.csr
    indptr, indices = csr.indptr, csr.indices
    edge_dead, node_dead = view.masks()
    dist = [INF] * csr.n
    pred = [-1] * csr.n
    dist[source] = 0.0
    settled = 1
    relaxations = 0
    if source == target:
        COUNTERS.csr_settled += settled
        return array("d", dist), array("q", pred)
    frontier = [source]
    while frontier:
        frontier.sort()
        next_frontier = []
        for u in frontier:
            d_next = dist[u] + 1.0
            for slot in range(indptr[u], indptr[u + 1]):
                v = indices[slot]
                if node_dead[v] or edge_dead[slot]:
                    continue
                relaxations += 1
                if dist[v] == INF:
                    dist[v] = d_next
                    pred[v] = u
                    settled += 1
                    if v == target:
                        COUNTERS.csr_relaxations += relaxations
                        COUNTERS.csr_settled += settled
                        return array("d", dist), array("q", pred)
                    next_frontier.append(v)
        frontier = next_frontier
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    return array("d", dist), array("q", pred)


def rows_many(view, sources: list[int], unit: bool):
    """No batched path in the reference backend — callers loop."""
    return None


def children_index(pred) -> tuple[array, array]:
    """CSR children index of a predecessor row (counting sort, O(n))."""
    n = len(pred)
    offsets = array("q", bytes(8 * (n + 1)))
    for p in pred:
        if p >= 0:
            offsets[p + 1] += 1
    for i in range(1, n + 1):
        offsets[i] += offsets[i - 1]
    kids = array("q", bytes(8 * offsets[n]))
    fill = offsets[:n]
    for v, p in enumerate(pred):
        if p >= 0:
            kids[fill[p]] = v
            fill[p] += 1
    return offsets, kids


def cut_subtree(
    view,
    source: int,
    dist,
    pred,
    children: tuple[array, array],
    threshold: float,
) -> tuple[int, set[int]]:
    """The discovery half of :func:`repair_resettle`: the repair
    outcome plus the affected set
    (:func:`~repro.graph.incremental.affected_subtree` over the
    children index)."""
    from ..graph import incremental

    affected = incremental.affected_subtree(
        dist, pred, view.csr.n, incremental.dead_edge_pairs(view),
        view.dead_nodes, children=children,
    )
    if source in affected:
        return SOURCE_CUT, affected
    if not affected:
        return UNTOUCHED, affected
    if len(affected) > threshold:
        return OVER_THRESHOLD, affected
    return REPAIRED, affected


def repair_resettle(
    view,
    source: int,
    dist,
    pred,
    children: tuple[array, array],
    threshold: float,
    unit: bool,
) -> tuple[int, Optional[array], Optional[array]]:
    """Fused repair: :func:`cut_subtree`, then :func:`resettle` when the
    outcome is ``REPAIRED``.  The inputs are never written."""
    outcome, affected = cut_subtree(
        view, source, dist, pred, children, threshold
    )
    if outcome != REPAIRED:
        return outcome, None, None
    new_dist, new_pred = resettle(view, dist, pred, affected, unit)
    return outcome, new_dist, new_pred


def resettle(
    view,
    dist,
    pred,
    affected: set[int],
    unit: bool,
) -> tuple[array, array]:
    """Boundary offers + bounded heap re-settle of the affected subtree.

    The body of the historical ``repair_spt`` hot path: blank the
    affected labels, seed a heap with every surviving edge from an
    intact node into the region (equal offers resolved by the canonical
    ``(dist[parent], parent index)`` rule), then re-settle restricted to
    the region.  *affected* is non-empty and does not contain the
    source; returns fresh ``(new_dist, new_pred)`` rows.
    """
    csr = view.csr
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    edge_dead, node_dead = view.masks()

    new_dist = list(dist)
    new_pred = list(pred)
    for x in affected:
        new_dist[x] = INF
        new_pred[x] = -1

    # Boundary offers: surviving edges from intact nodes into the
    # affected region.  Scanning each affected node's adjacency finds
    # them because the graphs are undirected (every in-edge is visible
    # as an out-edge).  The equal-offer tie rule — parent minimizing
    # ``(dist[parent], parent index)`` — reproduces the canonical
    # kernel's "first tight parent in settle order" choice, so repaired
    # predecessors match a from-scratch run exactly.
    best: dict[int, tuple[float, int]] = {}
    heap: list[tuple[float, int]] = []
    relaxations = 0
    for x in affected:
        if node_dead[x]:
            continue
        for slot in range(indptr[x], indptr[x + 1]):
            u = indices[slot]
            if u in affected or node_dead[u] or edge_dead[slot]:
                continue
            relaxations += 1
            candidate = new_dist[u] + (1.0 if unit else weights[slot])
            old = best.get(x)
            if (
                old is None
                or candidate < old[0]
                or (
                    candidate == old[0]
                    and (new_dist[u], u) < (new_dist[old[1]], old[1])
                )
            ):
                best[x] = (candidate, u)
    for x, (candidate, _) in best.items():
        heapq.heappush(heap, (candidate, x))

    settled = 0
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d_x, x = pop(heap)
        if new_dist[x] != INF:
            continue
        if d_x != best[x][0]:
            continue  # stale entry superseded by a better offer
        new_dist[x] = d_x
        new_pred[x] = best[x][1]
        settled += 1
        for slot in range(indptr[x], indptr[x + 1]):
            v = indices[slot]
            if v not in affected or node_dead[v] or edge_dead[slot]:
                continue
            relaxations += 1
            if new_dist[v] != INF:
                continue
            candidate = d_x + (1.0 if unit else weights[slot])
            old = best.get(v)
            if (
                old is None
                or candidate < old[0]
                or (
                    candidate == old[0]
                    and (d_x, x) < (new_dist[old[1]], old[1])
                )
            ):
                best[v] = (candidate, x)
                push(heap, (candidate, v))
    COUNTERS.spt_nodes_resettled += settled
    COUNTERS.csr_relaxations += relaxations
    return array("d", new_dist), array("q", new_pred)


def decompose_flat(
    chain: Sequence[int],
    cum: Sequence[float],
    rows: Sequence,
) -> tuple[list[int], list[int], int]:
    """Min-pieces DP over prefix sums — forward pass, first-minimal-j ties.

    *cum* holds prefix sums of the chain's probe-graph weights;
    ``rows[j]`` is the (already warmed) oracle distance row of
    ``chain[j]`` for every ``j <= len(chain) - 3``.  Returns ``(best,
    choice, probes)`` with ``best[i] == len(chain) + 1`` meaning unset;
    the caller extracts pieces and accounts the probes.
    """
    from ..graph.shortest_paths import costs_equal

    n = len(chain)
    unset = n + 1
    best = [unset] * n
    choice = [0] * n
    if not n:
        return best, choice, 0
    best[0] = 0
    probes = 0
    for i in range(1, n):
        ci = chain[i]
        cum_i = cum[i]
        bi = unset
        cj = 0
        for j in range(i):
            bj = best[j]
            if bj == unset:
                continue
            probes += 1
            if i - j > 1:
                d = rows[j][ci]
                if d == INF or not costs_equal(cum_i - cum[j], d):
                    continue
            candidate = bj + 1
            if candidate < bi:
                bi = candidate
                cj = j
        best[i] = bi
        choice[i] = cj
    return best, choice, probes


def ilm_account(
    probe, source: int, targets: Sequence[int], dist, pred, table, naive
) -> tuple[list[tuple[int, ...]], int, int, int]:
    """Account every affected demand of one (scenario, source) pair.

    *dist*/*pred* are *source*'s repaired row (``None``: no row, every
    target is unrestorable).  A target with a finite label is restored
    along its backup chain, the tree path ``source -> target`` in
    *pred*, and each node of that chain gets one entry in *naive*
    (``array('l')``, added to in place).  The min-pieces DP then runs
    once per node of the union of those chains, parents first: a
    node's cell reads only its own tree path, so it is the
    :func:`decompose_flat` cell of every chain through it.  ``cum``
    sums *probe* weights from the root down (each chain's prefix sums,
    the same additions) and ties go to the shallowest ancestor (the
    first-minimal ``j``).  The DP reads the oracle row of every node
    with a union descendant two or more levels down from
    ``table.rows`` (a :class:`~repro.kernels.RowTable`), after asking
    ``table.fill`` for the missing ones in one list.

    Returns ``(pieces, restored, unrestorable, probes)``: the distinct
    pieces of the restored chains as index tuples (targets in order,
    each backtracked until it meets a piece already listed), and one
    probe per ancestor of each union node.  A target outside the row,
    a parent outside the row or off the probe graph, a ``pred`` cycle
    and a row the table cannot supply raise ``ValueError`` before
    *naive* is touched.
    """
    from ..graph.shortest_paths import costs_equal

    if dist is None:
        return [], 0, len(targets), 0
    n = probe.n
    indptr, indices, weights = probe.indptr, probe.indices, probe.weights
    cum = {source: 0.0}  # keyed by the union of the restored chains
    parent: dict[int, int] = {}
    order: list[int] = []
    restored: list[int] = []
    unrestorable = 0
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} outside [0, {n})")
        if dist[t] == INF:
            unrestorable += 1
            continue
        restored.append(t)
        walk: list[int] = []
        x = t
        while x not in cum:
            if len(walk) == n:
                raise ValueError(f"pred has a cycle through node {x}")
            p = pred[x]
            if not 0 <= p < n:
                raise ValueError(
                    f"pred of node {x} is outside the row or not a "
                    "probe-graph edge"
                )
            walk.append(x)
            x = p
        for v in reversed(walk):
            for slot in range(indptr[x + 1] - 1, indptr[x] - 1, -1):
                if indices[slot] == v:
                    break
            else:
                raise ValueError(
                    f"pred of node {v} is outside the row or not a "
                    "probe-graph edge"
                )
            parent[v] = x
            cum[v] = cum[x] + weights[slot]
            order.append(v)
            x = v

    height = dict.fromkeys(cum, 0)
    sub = dict.fromkeys(cum, 0)
    for t in restored:
        sub[t] += 1
    for v in reversed(order):
        p = parent[v]
        height[p] = max(height[p], height[v] + 1)
        sub[p] += sub[v]
    rows = table.rows
    needed = [a for a in (source, *order) if height[a] >= 2]
    lacking = [a for a in needed if rows[a] is None]
    if lacking and table.fill is not None:
        table.fill(lacking)
    for a in needed:
        if rows[a] is None:
            raise ValueError(f"rows: no oracle row for node {a}")

    best = {source: 0}
    choice: dict[int, int] = {}
    probes = 0
    for v in order:
        path = []
        x = v
        while x != source:
            x = parent[x]
            path.append(x)
        path.reverse()
        i = len(path)
        cum_v = cum[v]
        bi = i + 1
        cj = source
        for j, a in enumerate(path):
            if i - j > 1:
                d = rows[a][v]
                if d == INF or not costs_equal(cum_v - cum[a], d):
                    continue
            candidate = best[a] + 1
            if candidate < bi:
                bi = candidate
                cj = a
        best[v] = bi
        choice[v] = cj
        probes += i

    pieces: list[tuple[int, ...]] = []
    ends: set[int] = set()
    for v in restored:
        while v != source and v not in ends:
            ends.add(v)
            a = choice[v]
            piece = [v]
            x = v
            while x != a:
                x = parent[x]
                piece.append(x)
            piece.reverse()
            pieces.append(tuple(piece))
            v = a
    for x, count in sub.items():
        naive[x] += count
    return pieces, len(restored), unrestorable, probes


def tight_edge_error(csr, u: int, v: int) -> ValueError:
    """The error for a tight edge ``u -> v`` that does not lead later in
    ``(dist, index)`` order (a zero-weight tie or a corrupt row)."""
    return ValueError(
        f"tight edge ({csr.nodes[u]!r}, {csr.nodes[v]!r}) does not lead "
        "later in (dist, index) order: shortest paths are not a DAG here "
        "(zero-weight edge?)"
    )


def count_paths(csr, source: int, dist, eps: float) -> list[int]:
    """Shortest-path counts over the tight-edge DAG of a canonical row.

    Visits the source, then every other reached node in ``(dist,
    index)`` order; each node adds its count to every out-edge target
    ``v`` with ``costs_equal(dist[u] + w, dist[v])`` (tolerance *eps*),
    never into the source.  Python ints keep the counts exact at any
    size.  A tight edge into a node not later in the order (possible
    only through zero-weight ties) raises ``ValueError`` naming it.
    """
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    n = csr.n
    order = [source]
    order += sorted(
        (i for i in range(n) if i != source and dist[i] != INF),
        key=dist.__getitem__,
    )
    pos = [-1] * n
    for k, v in enumerate(order):
        pos[v] = k
    counts = [0] * n
    counts[source] = 1
    for k, u in enumerate(order):
        c = counts[u]
        d_u = dist[u]
        for slot in range(indptr[u], indptr[u + 1]):
            v = indices[slot]
            if v == source:
                continue
            a = d_u + weights[slot]
            b = dist[v]
            if not abs(a - b) <= eps * max(1.0, abs(a), abs(b)):
                continue
            if pos[v] <= k:
                raise tight_edge_error(csr, u, v)
            counts[v] += c
    return counts
