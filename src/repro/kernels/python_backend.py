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
return and accept ``array('d')`` / ``array('q')``.

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
``preorder(pred, root) -> (order, pos, end)``
    Preorder of the tree a predecessor row spans from *root*, children
    in ascending index order: ``order[pos[v]:end[v]]`` is ``v``'s
    subtree, and ``pos``/``end`` are ``-1`` where *root* does not
    reach; ``ValueError`` for a root or ``pred`` entry out of range or
    a root with a parent.
``repair_resettle(view, source, dist, pred, children, threshold, unit)``
    Fused decremental repair of a cached pre-failure row: finds the
    subtree the view's deletions cut off, compares its size with
    *threshold*, and re-settles it.  Returns ``(outcome, new_dist,
    new_pred)`` — the rows only for :data:`~repro.kernels.REPAIRED`,
    ``None`` for ``UNTOUCHED`` / ``OVER_THRESHOLD`` / ``SOURCE_CUT`` —
    and accounts ``spt_nodes_resettled`` / ``csr_relaxations``.
``decompose_flat(probe, chain, table) -> (best, choice, probes) | None``
    The min-pieces decomposition DP over an index chain of *probe*:
    sums its hop weights (``None`` when a hop is not an edge) and reads
    the rows of chain positions ``0 .. len(chain) - 3`` from an
    :class:`~repro.kernels.OracleRows`, asking ``table.warm`` first for
    the positions whose row is missing or not final at a later chain
    node.
``ilm_account(probe, source, targets, dist, pred, table, naive)``
    Per-link ILM accounting of one (scenario, source) pair: adds every
    restored backup chain (a tree path of the repaired ``pred`` row)
    to the naive counts in place, runs the min-pieces DP once per node
    of the union of those chains over *probe*'s weights and the full
    rows of the same :class:`~repro.kernels.OracleRows`, asking
    ``table.fill`` first for the nodes whose row is not full, and
    returns ``(pieces, restored, unrestorable, probes)`` with the
    distinct pieces as index tuples.
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
                # u's out-edges are not relaxed yet: the component is
                # settled only if none leads to a live unsettled node.
                exhausted = not heap and not any(
                    dist[indices[slot]] == INF
                    and not node_dead[indices[slot]]
                    and not edge_dead[slot]
                    for slot in range(indptr[u], indptr[u + 1])
                )
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


def check_tree(pred, root: int) -> int:
    """Validate a :func:`preorder` input; returns ``len(pred)``.

    ``ValueError`` unless *root* lies in ``[0, n)``, every ``pred``
    entry in ``[-1, n)`` and ``pred[root] == -1``.
    """
    n = len(pred)
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside [0, {n})")
    if min(pred) < -1 or max(pred) >= n:
        raise ValueError(f"pred names a node outside [-1, {n})")
    if pred[root] != -1:
        raise ValueError(f"pred[{root}] is {pred[root]}, not -1: not a root")
    return n


def preorder(pred, root: int) -> tuple[array, array, array]:
    """Preorder of the tree a predecessor row spans from *root*.

    Children are visited in ascending index order.  Returns ``(order,
    pos, end)``: ``order`` lists the reached nodes, *root* first;
    ``pos[v]`` is ``v``'s position there and ``order[pos[v]:end[v]]``
    its subtree; both are ``-1`` for a node *root* does not reach.
    """
    n = check_tree(pred, root)
    offsets, kids = children_index(pred)
    order = array("q")
    pos = array("q", [-1]) * n
    end = array("q", [-1]) * n
    stack = [root]
    while stack:
        x = stack.pop()
        pos[x] = len(order)
        order.append(x)
        stack.extend(reversed(kids[offsets[x]:offsets[x + 1]]))
    for x in order:
        end[x] = 1
    for i in range(len(order) - 1, 0, -1):
        x = order[i]
        end[pred[x]] += end[x]
    for i, x in enumerate(order):
        end[x] += i
    return order, pos, end


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


def edge_weight(probe, u: int, v: int) -> Optional[float]:
    """Weight of *probe*'s edge ``u -> v`` from its last CSR slot (the
    one a slot-by-slot ``{(u, v): w}`` map keeps); ``None`` when there
    is none.  The one hop lookup of :func:`decompose_flat` and
    :func:`ilm_account`."""
    indices = probe.indices
    for slot in range(probe.indptr[u + 1] - 1, probe.indptr[u] - 1, -1):
        if indices[slot] == v:
            return probe.weights[slot]
    return None


def decompose_flat(
    probe, chain: Sequence[int], table
) -> Optional[tuple[list[int], list[int], int]]:
    """Min-pieces DP over an index chain of *probe* — forward pass,
    first-minimal-j ties.

    ``cum`` sums the chain's hop weights left to right
    (:func:`edge_weight`); a hop that is not a probe-graph edge returns
    ``None``.  Rows come from *table*, an
    :class:`~repro.kernels.OracleRows`: the DP reads the row of
    ``chain[j]`` for every ``j <= len(chain) - 3``.  Positions whose
    row is missing, or not finite at some later chain node, go to
    ``table.warm(chain, positions)`` in one ascending list first; a
    row still missing then raises ``ValueError``.  Returns ``(best,
    choice, probes)`` with ``best[i] == len(chain) + 1`` meaning unset;
    the caller extracts pieces and accounts the probes.
    """
    from ..graph.shortest_paths import costs_equal

    n = len(chain)
    if not n:
        return [], [], 0
    if min(chain) < 0 or max(chain) >= probe.n:
        raise ValueError(f"chain index outside [0, {probe.n})")
    cum = [0.0]
    total = 0.0
    for u, v in zip(chain, chain[1:]):
        w = edge_weight(probe, u, v)
        if w is None:
            return None
        total += w
        cum.append(total)
    rows = table.rows
    lacking = [
        j for j in range(n - 2)
        if rows[chain[j]] is None
        or INF in map(rows[chain[j]].__getitem__, chain[j + 1:])
    ]
    if lacking:
        table.warm(chain, lacking)
    chain_rows = [rows[c] for c in chain[:n - 2]]
    if None in chain_rows:
        missing = chain[chain_rows.index(None)]
        raise ValueError(f"rows: no oracle row for node {missing}")
    unset = n + 1
    best = [unset] * n
    choice = [0] * n
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
                d = chain_rows[j][ci]
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
    ``table.rows`` (an :class:`~repro.kernels.OracleRows`), full rows
    only (a truncated row's ``INF`` may be unsettled), after asking
    ``table.fill`` for the nodes whose ``table.full`` flag is clear, in
    one list.

    Returns ``(pieces, restored, unrestorable, probes)``: the distinct
    pieces of the restored chains as index tuples (targets in order,
    each backtracked until it meets a piece already listed), and one
    probe per ancestor of each union node.  A target outside the row,
    a parent outside the row or off the probe graph, a ``pred`` cycle
    and a full row the table cannot supply raise ``ValueError`` before
    *naive* is touched.
    """
    from ..graph.shortest_paths import costs_equal

    if dist is None:
        return [], 0, len(targets), 0
    n = probe.n
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
            w = edge_weight(probe, x, v)
            if w is None:
                raise ValueError(
                    f"pred of node {v} is outside the row or not a "
                    "probe-graph edge"
                )
            parent[v] = x
            cum[v] = cum[x] + w
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
    rows, full = table.rows, table.full
    needed = [a for a in (source, *order) if height[a] >= 2]
    lacking = [a for a in needed if not full[a]]
    if lacking:
        table.fill(lacking)
    for a in needed:
        if not full[a]:
            raise ValueError(f"rows: no full oracle row for node {a}")

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
