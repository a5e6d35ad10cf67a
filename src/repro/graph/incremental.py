"""Decremental shortest-path-tree repair (Ramalingam–Reps style).

The experiments delete 1–2 edges (or 1–2 routers) from a big graph and
ask for post-failure shortest paths.  Recomputing from scratch settles
every node; but deleting k edges only invalidates the *subtree hanging
below them* in the pre-failure SPT — usually a few dozen nodes.  This
module repairs cached pre-failure distance/predecessor arrays instead:

1. **Affected set** — walk the pre-failure predecessor tree (a CSR
   children index, inverted once per cached row from the pred array)
   and collect the descendants of every deleted tree edge / failed
   node.  Nodes outside this set keep their exact distance *and*
   canonical predecessor: their old shortest path is untouched, and no
   distance anywhere ever decreases under deletion, so no new parent
   can beat the old one.
2. **Boundary offers** — every surviving edge from an unaffected node
   into the affected set is a candidate re-attachment; seed a bounded
   heap with those offers.
3. **Re-settle** — run Dijkstra restricted to the affected set, keyed
   ``(dist, node index)`` like
   :func:`~repro.graph.csr.dijkstra_csr_canonical`, so the repaired
   arrays are **bitwise identical** to a from-scratch canonical run
   (distances are sums of the same floats in a different order — but
   each label is a single ``parent + weight`` addition of already-final
   values, so no reassociation occurs).
4. **Fallback** — if the affected set exceeds
   :data:`REPAIR_FALLBACK_FRACTION` of the reachable nodes, repair
   would approach full-recompute cost while paying extra bookkeeping;
   abandon it and recompute (counted in ``COUNTERS.spt_fallbacks``).

All four steps are one kernel call
(:func:`repro.kernels.kernel_backend`'s ``repair_resettle``): it
takes the cached pre-failure row, its children index and the fallback
threshold, and answers with one of four outcomes — repaired row, tree
untouched, over threshold, source cut off — so a failure case never
walks its subtree in Python (the reference backend does, through
:func:`affected_subtree`).

:class:`SptCache` wraps the bookkeeping per graph: it owns the CSR
snapshot, memoizes pre-failure rows per source, and exposes
:meth:`SptCache.backup_chain` — the restoration-path query the
experiment hot loops use, an index chain costed by its row label — and
:meth:`SptCache.backup_path`, the same chain as a :class:`Path`.
Under the canonical ``(dist, index)`` tie
contract (:mod:`repro.graph.csr`), repaired rows are exact for
**weighted and unweighted** graphs alike — the canonical predecessor
is a local property of the final labels, so repair needs no heap
history to replay.  That label-local rule is what licenses exact
repair; it is not the restorable tie-breaking of Bodwin–Parter
(arXiv:2102.10174): against the padded base set, backups chosen
under it need more than k+1 pieces in 27–48% of the unweighted
single-link cases at small scale, and some need more than 2k+1
(DESIGN.md §6).  A backup path is therefore just the predecessor
chain of one repaired source row; when the fallback threshold trips,
one targeted early-exit canonical search yields the identical chain
(tight parents settle before their children, so the settled prefix is
final).  :meth:`SptCache.repair_batch` amortizes one failure scenario
across every source it touches: the dead-edge slots are decoded once
and every affected source is re-settled in the same pass — the
multi-source consumer is the per-scenario ILM accounting.
"""

from __future__ import annotations

from array import array
from operator import sub
from typing import Iterable, Optional

from ..exceptions import NoPath
from ..kernels import OVER_THRESHOLD, REPAIRED, UNTOUCHED, kernel_backend
from ..kernels import python_backend
from ..perf import COUNTERS
from .csr import (
    INF,
    CsrView,
    bfs_csr,
    dijkstra_csr_canonical,
    shared_csr,
)
from .graph import Node
from .paths import Path
from .shortest_paths import shortest_path

#: Repair aborts in favour of a full recompute once the affected set
#: exceeds this fraction of the source's reachable nodes.  Repair does
#: strictly more per-node work than a fresh run (subtree walk, offer
#: scans), and the targeted alternative may exit early, so past ~half
#: the graph the fresh run wins; typical failure cases are far below
#: this, making the fallback a safety valve for pathological cuts
#: (e.g. failing a hub router).  The default was re-tuned from 0.25
#: when weighted repair became legal under the canonical tie contract
#: (sweep in docs/performance.md).
#:
#: A constant, stamped as ``repair_fallback`` in every ``BENCH_*.json``
#: header; :func:`repair_spt` takes a per-call override.
REPAIR_FALLBACK_FRACTION = 0.5


def dead_edge_pairs(view: CsrView) -> list[tuple[int, int]]:
    """Recover (tail, head) index pairs for a view's dead edge slots.

    Tails are delimited by ``indptr``; slots are few (k failures), so a
    binary search per slot is fine.
    """
    csr = view.csr
    indptr, indices, n = csr.indptr, csr.indices, csr.n
    pairs = []
    for slot in view.dead_edges:
        head = indices[slot]
        lo, hi = 0, n
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if indptr[mid] <= slot:
                lo = mid
            else:
                hi = mid
        pairs.append((lo, head))
    return pairs


def affected_subtree(
    dist,
    pred,
    n: int,
    dead_edge_pairs: Iterable[tuple[int, int]],
    dead_nodes: Iterable[int],
    children: Optional[tuple[array, array]] = None,
) -> set[int]:
    """Nodes whose pre-failure shortest path used a deleted edge/node.

    *dead_edge_pairs* are (u, v) index pairs (either orientation);
    a tree edge is cut when ``pred[v] == u`` or ``pred[u] == v``.  The
    affected set is the union of subtrees rooted at the cut points plus
    every failed node's subtree (failed nodes themselves are included so
    callers can blank their labels).

    *children* is the ``(offsets, kids)`` children index of *pred*
    (``children_index``); callers that cache it per source amortize the
    O(n) inversion across failure cases.  The reference backend's
    ``repair_resettle`` runs on this function; the native kernel walks
    the same index in C, and the tests hold it to this result.
    """
    if children is None:
        children = python_backend.children_index(pred)
    offsets, kids = children
    roots: list[int] = []
    for u, v in dead_edge_pairs:
        if pred[v] == u:
            roots.append(v)
        if pred[u] == v:
            roots.append(u)
    for x in dead_nodes:
        if dist[x] != INF:
            roots.append(x)
    affected: set[int] = set()
    stack = roots
    while stack:
        x = stack.pop()
        if x in affected:
            continue
        affected.add(x)
        stack.extend(kids[offsets[x]:offsets[x + 1]])
    return affected


def _full_row(view: CsrView, source: int, unit: bool) -> tuple[array, array]:
    """From-scratch post-failure row: canonical Dijkstra or BFS (*unit*)."""
    if unit:
        return bfs_csr(view, source)
    full_dist, full_pred, _ = dijkstra_csr_canonical(view, source)
    return full_dist, full_pred


def _repair_row(
    view: CsrView,
    source: int,
    dist,
    pred,
    children: tuple[array, array],
    fallback_fraction: float,
    unit: bool,
) -> Optional[tuple]:
    """One fused kernel repair, with the repair counters.

    Returns the repaired row, the pre-failure row itself when no
    deletion touched the tree, or ``None`` when repair is not viable
    (the source failed, or the cut subtree outgrew *fallback_fraction*
    of the reachable nodes — counted in ``spt_fallbacks``).  Reachable
    nodes are the source plus every node with a parent, so the
    children index already counts them.
    """
    threshold = fallback_fraction * max(1, len(children[1]) + 1)
    outcome, new_dist, new_pred = kernel_backend().repair_resettle(
        view, source, dist, pred, children, threshold, unit
    )
    if outcome == REPAIRED:
        COUNTERS.spt_repairs += 1
        return new_dist, new_pred
    if outcome == UNTOUCHED:
        COUNTERS.spt_repairs += 1
        return dist, pred
    if outcome == OVER_THRESHOLD:
        COUNTERS.spt_fallbacks += 1
    return None


def repair_spt(
    view: CsrView,
    source: int,
    dist,
    pred,
    fallback_fraction: float = REPAIR_FALLBACK_FRACTION,
    unit: bool = False,
) -> tuple[array, array]:
    """Repair a canonical pre-failure SPT after the deletions in *view*.

    *dist* / *pred* must be the **pre-failure** rows produced by
    :func:`~repro.graph.csr.dijkstra_csr_canonical` (exhausted run) on
    *view*'s underlying snapshot with no mask — or by
    :func:`~repro.graph.csr.bfs_csr` with ``unit=True``, which makes the
    repair relax hop counts instead of stored edge weights.  Returns
    fresh ``(dist, pred)`` rows for the masked graph — distances
    bitwise identical to re-running from scratch on *view*.  The inputs
    are never mutated.

    *fallback_fraction* defaults to :data:`REPAIR_FALLBACK_FRACTION`.

    Each repair bumps ``COUNTERS.spt_repairs``; the number of re-settled
    vertices (the honest per-failure work) accumulates into
    ``COUNTERS.spt_nodes_resettled``; threshold aborts into
    ``COUNTERS.spt_fallbacks`` before delegating to the full kernel.
    """
    children = kernel_backend().children_index(pred)
    row = _repair_row(
        view, source, dist, pred, children, fallback_fraction, unit
    )
    if row is None:
        return _full_row(view, source, unit)
    if row[0] is dist:
        # Tree untouched: the row stands, but callers get fresh copies.
        return array("d", dist), array("q", pred)
    return row


class SptCache:
    """Per-graph cache of pre-failure SPT rows with repair-based queries.

    Owns the CSR snapshot of an (undirected) graph and memoizes one
    canonical pre-failure ``(dist, pred)`` row per requested source.
    Failure-case queries then cost one :func:`repair_spt` per cached
    endpoint instead of a full search.  The cache holds rows for the
    *unmasked* graph only — masks arrive per query.
    """

    __slots__ = (
        "csr", "weighted", "_rows", "_children", "_spent", "_sizes",
        "_labels_are_costs",
    )

    def __init__(self, graph, weighted: bool = True) -> None:
        self.csr = shared_csr(graph)
        self.weighted = weighted
        # Hop-count labels are path costs only when every weight is 1.
        self._labels_are_costs = weighted or graph.is_unweighted()
        self._rows: dict[int, tuple] = {}
        # Per-source children indices of the pre-failure pred rows (the
        # fused repair's input): they depend only on the cached row, so
        # they amortize across every failure case touching that source.
        self._children: dict[int, tuple[array, array]] = {}
        # Per-source subtree sizes of the pre-failure SPT (cost model).
        self._sizes: dict[int, list[int]] = {}
        # Rent-to-buy ledger for backup_path: settle work spent on
        # targeted searches per source *before* its row exists.
        self._spent: dict[int, int] = {}

    def row(self, source: Node) -> tuple:
        """The pre-failure canonical ``(dist, pred)`` rows for *source*."""
        return self._row(self.csr.index[source])

    def _row(self, i: int) -> tuple:
        row = self._rows.get(i)
        if row is None:
            base = CsrView(self.csr)
            if self.weighted:
                dist, pred, _ = dijkstra_csr_canonical(base, i)
            else:
                dist, pred = bfs_csr(base, i)
            row = (dist, pred)
            self._rows[i] = row
            COUNTERS.warm_row_builds += 1
        return row

    def warm_rows(self, source_idxs: Iterable[int]) -> None:
        """Batch-build missing pre-failure rows where the backend can.

        Vectorized backends settle many sources per relaxation round
        (:func:`repro.kernels.kernel_backend`'s ``rows_many``); the
        reference backend declines and the rows stay lazily built by
        :meth:`_row`.  Either way the cached rows — and the counter
        increments — are bit-identical.
        """
        missing = [
            i for i in dict.fromkeys(source_idxs) if i not in self._rows
        ]
        if len(missing) > 1:
            built = kernel_backend().rows_many(
                CsrView(self.csr), missing, not self.weighted
            )
            if built:
                self._rows.update(built)
                COUNTERS.warm_row_builds += len(built)

    def ensure_rows(self, source_idxs: Iterable[int]) -> None:
        """Guarantee every listed source has a cached pre-failure row.

        :meth:`warm_rows` plus a lazy-build sweep for whatever the
        backend declined to batch (the reference backend batches
        nothing).  A parent warms here the rows its forked workers
        inherit, and the ILM cost model the rows it reads.
        """
        idxs = list(dict.fromkeys(source_idxs))
        self.warm_rows(idxs)
        for i in idxs:
            self._row(i)

    def _children_of(self, i: int) -> tuple[array, array]:
        """Children index of *i*'s cached pre-failure row (memoized)."""
        children = self._children.get(i)
        if children is None:
            children = self._children[i] = kernel_backend().children_index(
                self._row(i)[1]
            )
        return children

    def _repair(self, i: int, view: CsrView) -> Optional[tuple]:
        """*i*'s post-failure row from one fused kernel repair of its
        cached row, or ``None`` when repair is not viable (dead source,
        fallback threshold)."""
        dist, pred = self._row(i)
        return _repair_row(
            view, i, dist, pred, self._children_of(i),
            REPAIR_FALLBACK_FRACTION, not self.weighted,
        )

    def subtree_sizes(self, i: int) -> list[int]:
        """Subtree size of every node in *i*'s pre-failure SPT.

        ``sizes[v]`` counts the nodes whose shortest path from the
        source routes through *v* (including *v* itself); unreachable
        nodes get 0.  Read off the tree's preorder as ``end - pos``, so
        zero-weight edges (a child as close as its parent) count right.
        Memoized per source alongside the children indices.
        """
        sizes = self._sizes.get(i)
        if sizes is None:
            _order, pos, end = kernel_backend().preorder(self._row(i)[1], i)
            sizes = self._sizes[i] = list(map(sub, end, pos))
        return sizes

    def repair_cost_estimate(
        self,
        i: int,
        dead_pairs: Iterable[tuple[int, int]],
        dead_nodes: Iterable[int],
    ) -> int:
        """Estimated :func:`repair_spt` work for source *i* (cost model).

        Sums the pre-failure subtree sizes hanging below each dead tree
        edge and each dead reachable node — an upper-ish bound on the
        affected region the repair will re-settle.  Overlapping dead
        subtrees double-count, so the total is capped at the source's
        reachable-node count (which is also the fallback recompute
        cost).  Pure arithmetic over cached rows: no search work.
        """
        pred = self._row(i)[1]
        sizes = self.subtree_sizes(i)
        cost = 0
        for u, v in dead_pairs:
            if pred[v] == u:
                cost += sizes[v]
            elif pred[u] == v:
                cost += sizes[u]
        for x in dead_nodes:
            cost += sizes[x]
        return min(cost, sizes[i])

    def repaired_row(self, source: Node, view: CsrView) -> tuple:
        """Post-failure ``(dist, pred)`` for *source* under *view*'s mask.

        Repairs the cached pre-failure row when the affected subtree is
        small; recomputes from scratch when the source died or the
        fallback threshold trips.  Either way the arrays are bitwise
        identical to a from-scratch canonical run on *view*.
        """
        return self._repaired_row_idx(self.csr.index[source], view)

    def _repaired_row_idx(self, i: int, view: CsrView) -> tuple:
        dist, pred = self._row(i)
        if not view.dead_edges and not view.dead_nodes:
            return dist, pred
        row = self._repair(i, view)
        return row if row is not None else _full_row(view, i, not self.weighted)

    def repair_batch(
        self, sources: Iterable[Node], scenario_or_view
    ) -> dict[Node, tuple]:
        """Post-failure rows for every source touched by one scenario.

        The multi-source batched entry point: one masked view (and its
        decoded dead slots) serves every touched source, each repaired
        by one fused kernel call.  Each returned row is bitwise
        identical to :meth:`repaired_row` for that source (the repairs
        are independent — they only share the scenario's view and the
        per-source children indices).  Dead sources are omitted from
        the result.
        """
        view = self.view_for(scenario_or_view)
        index, nodes = self.csr.index, self.csr.nodes
        rows_idx = self.repair_batch_idx(
            (index[source] for source in sources), view
        )
        return {nodes[i]: row for i, row in rows_idx.items()}

    def repair_batch_idx(
        self, source_idxs: Iterable[int], scenario_or_view
    ) -> dict[int, tuple]:
        """Index-space :meth:`repair_batch`: ``{source idx: (dist, pred)}``.

        The all-array variant flat-row consumers (the ILM accountant)
        call directly — no Node round-trips.  Dead sources are omitted.

        Besides the shared scenario view, the batch stages its work for
        the native backend: missing pre-failure rows are built in
        one :meth:`warm_rows` call, and the sources whose repair trips
        the fallback policy are recomputed together through
        ``rows_many`` on the masked view.  Rows and counters are
        bit-identical to calling :meth:`repaired_row` per source.
        """
        view = self.view_for(scenario_or_view)
        idxs = [
            i for i in dict.fromkeys(source_idxs)
            if i not in view.dead_nodes
        ]
        self.warm_rows(idxs)
        if not view.dead_edges and not view.dead_nodes:
            return {i: self._row(i) for i in idxs}
        rows: dict[int, Optional[tuple]] = {}
        fallbacks: list[int] = []
        for i in idxs:
            rows[i] = row = self._repair(i, view)
            if row is None:
                fallbacks.append(i)
        full = (
            kernel_backend().rows_many(view, fallbacks, not self.weighted)
            if len(fallbacks) > 1
            else None
        )
        for i in fallbacks:
            rows[i] = (
                full[i]
                if full is not None
                else _full_row(view, i, not self.weighted)
            )
        return rows  # type: ignore[return-value]

    def view_for(self, scenario_or_view) -> CsrView:
        """Masked view for a FailureScenario / FilteredView / (edges, nodes)."""
        if isinstance(scenario_or_view, CsrView):
            return scenario_or_view
        links = getattr(scenario_or_view, "links", None)
        if links is not None:  # FailureScenario
            return self.csr.with_edges_removed(links, scenario_or_view.routers)
        return self.csr.with_edges_removed(
            scenario_or_view.failed_edges, scenario_or_view.failed_nodes
        )

    def backup_path(self, source: Node, target: Node, scenario_or_view) -> Path:
        """Post-failure shortest path under the canonical tie contract.

        The :class:`Path` over :meth:`backup_chain`'s index chain.
        Equals the path of a from-scratch canonical kernel run
        node-for-node (and ``shortest_path`` on the filtered view
        cost-for-cost).  Raises :class:`~repro.exceptions.NoPath` when
        the failure disconnects the pair.
        """
        nodes = self.csr.nodes
        chain, _cost = self.backup_chain(source, target, scenario_or_view)
        return Path([nodes[i] for i in chain])

    def backup_chain(
        self, source: Node, target: Node, scenario_or_view
    ) -> tuple[list[int], float]:
        """Index-space backup: ``(source -> target index chain, its cost)``.

        The predecessor chain of the repaired source row — **one**
        subtree repair per failure case, weighted or not, instead of a
        full search.  When repair is not viable (dead source, or the
        affected subtree trips the fallback threshold) the query
        degrades to a single targeted early-exit canonical search,
        which produces the identical chain: tight parents settle before
        their children in ``(dist, index)`` order, so the settled
        prefix of a pruned run is final.

        The cost is the row's label ``dist[t]``, which equals
        ``Path.cost`` of the chain bit for bit: each label is its
        parent's label plus the hop weight, the same left-to-right sum.
        Hop-count rows of a graph with non-unit weights are the one
        exception; there the chain's weights are summed instead.
        Raises :class:`~repro.exceptions.NoPath` when the failure
        disconnects the pair.
        """
        view = self.view_for(scenario_or_view)
        s, t = self.csr.index[source], self.csr.index[target]
        if s in view.dead_nodes or t in view.dead_nodes:
            raise NoPath(f"no path from {source!r} to {target!r}")
        if s == t:
            return [s], 0.0
        dist, pred = self._backup_row(s, t, view)
        cost = dist[t]
        if cost == INF:
            raise NoPath(f"no path from {source!r} to {target!r}")
        chain = [t]
        x = t
        while x != s:
            x = pred[x]
            chain.append(x)
        chain.reverse()
        if not self._labels_are_costs:
            cost = self.csr.prefix_costs(chain)[-1]
        return chain, cost

    def _backup_row(self, s: int, t: int, view: CsrView) -> tuple:
        """Repaired source row, or one targeted search when not viable.

        Rent-to-buy: while *s* has no cached row, targeted early-exit
        searches answer (renting); their settle work accrues in
        ``_spent``, and only once a source has paid about one full
        row's worth does the cache build the row and switch to repair
        (buying).  One-shot sources — table3 bypasses each edge of the
        graph once, every source ~degree times — never pay for a full
        row, while table2's sources (hundreds of failure cases each)
        cross the threshold almost immediately.  Total work is within
        2x of the better strategy either way, without knowing the
        query distribution in advance.
        """
        if not view.dead_edges and not view.dead_nodes:
            return self._row(s)
        if s not in self._rows and self._spent.get(s, 0) < 2 * self.csr.n:
            before = COUNTERS.csr_settled
            row = self._targeted_row(s, t, view)
            self._spent[s] = self._spent.get(s, 0) + (
                COUNTERS.csr_settled - before
            )
            return row
        row = self._repair(s, view)
        return row if row is not None else self._targeted_row(s, t, view)

    def _targeted_row(self, s: int, t: int, view: CsrView) -> tuple:
        """One early-exit canonical search toward *t* (no caching)."""
        if self.weighted:
            dist, pred, _ = dijkstra_csr_canonical(view, s, targets=(t,))
            return dist, pred
        return bfs_csr(view, s, target=t)

    def distances(
        self, source: Node, scenario_or_view=None
    ) -> dict[Node, float]:
        """Dict of post-failure distances from *source* (repair-based)."""
        view = (
            CsrView(self.csr)
            if scenario_or_view is None
            else self.view_for(scenario_or_view)
        )
        dist, _ = self.repaired_row(source, view)
        nodes = self.csr.nodes
        return {nodes[i]: d for i, d in enumerate(dist) if d != INF}


def csr_shortest_path(
    graph, source: Node, target: Node, weighted: bool = True
) -> Optional[Path]:
    """CSR-backed drop-in for :func:`repro.graph.shortest_paths.shortest_path`.

    Dispatches on the argument: a :class:`FilteredView` over an
    undirected base becomes a mask on the base's **shared
    per-process** :class:`SptCache` (so one-shot callers like figure10,
    table3 bypasses and the restoration planners amortize pre-failure
    rows across the many failure cases of the same pair, exactly like
    table2); a bare undirected :class:`Graph` queries the same cache
    with an empty mask.  Returns ``None`` when the argument is outside
    the fast path (directed graphs, non-weakref-able objects, nodes
    added after the snapshot) so the caller can fall back to the dict
    implementation.  Raises :class:`~repro.exceptions.NoPath` exactly
    like the original.
    """
    base = getattr(graph, "base", None)
    filtered = base is not None
    if not filtered:
        base = graph
    if getattr(base, "directed", False):
        return None
    # Lazy import: repro.core.cache imports SptCache from this module.
    from ..core.cache import shared_spt_cache

    try:
        cache = shared_spt_cache(base, weighted=weighted)
    except TypeError:  # pragma: no cover - Graph is weakref-able
        return None
    csr = cache.csr
    if source not in csr.index or target not in csr.index:
        return None  # node added after the snapshot; stay on dict path
    view = cache.view_for(graph) if filtered else CsrView(csr)
    return cache.backup_path(source, target, view)


def fast_shortest_path(
    graph, source: Node, target: Node, weighted: bool = True
) -> Path:
    """:func:`~repro.graph.shortest_paths.shortest_path` on flat arrays.

    Same results, same exceptions; falls back to the dict implementation
    transparently whenever the argument is outside the CSR fast path.
    """
    path = csr_shortest_path(graph, source, target, weighted=weighted)
    if path is None:
        return shortest_path(graph, source, target, weighted=weighted)
    return path
