"""Flat-array (CSR) graph snapshots and array-based search kernels.

The dict-of-dicts :class:`~repro.graph.graph.Graph` is the right
*mutation* structure, but the experiment pipeline is read-dominated:
thousands of failure cases run shortest-path searches over the same
frozen topology.  This module interns a graph once into compressed
sparse row form — ``indptr`` / ``indices`` / ``weights`` flat buffers
plus a node ↔ int index bijection — and runs Dijkstra/BFS directly on
the int arrays.  Failure scenarios become *masks* (small sets of dead
edge slots / node indices) applied by :meth:`CsrGraph.with_edges_removed`,
so removing k edges from a 40k-node graph costs O(k · degree), never a
copy.

Path contract (pinned by ``tests/test_csr.py`` and
``tests/test_canonical_contract.py``):

* :func:`dijkstra_csr_canonical` is **the** production kernel: a lazy
  heap keyed by ``(dist, node index)`` — the *canonical* tie order.
  The predecessor of ``v`` is the tight parent minimizing
  ``(dist, index)``, a local property of the final distance labels and
  therefore independent of heap insertion history.  That locality is
  what licenses decremental repair (:mod:`repro.graph.incremental`)
  and weighted repaired rows.  It is label-local, not the restorable
  tie-breaking of Bodwin–Parter (arXiv:2102.10174): against the
  padded base set it is not restorable (DESIGN.md §6).
* :func:`dijkstra_csr` is a thin façade over it, and :func:`bfs_csr`
  is its unit-weight twin: canonical BFS processes each frontier in
  index order, so its predecessor of ``v`` is the least-index neighbor
  one level up — exactly what canonical Dijkstra produces on unit
  weights.

Kernels report to ``COUNTERS.csr_relaxations`` / ``csr_settled`` rather
than the ``dijkstra_*`` counters, so ``repro.obs diff`` shows work
*moving* from the dict kernels to the array kernels instead of silently
vanishing.
"""

from __future__ import annotations

import weakref
from array import array
from operator import indexOf
from typing import Iterable, Optional, Sequence

from ..exceptions import NodeNotFound
from ..kernels import kernel_backend
from ..perf import COUNTERS
from .graph import Edge, Node

INF = float("inf")


class CsrGraph:
    """An immutable int-indexed CSR snapshot of an adjacency-protocol graph.

    ``nodes[i]`` is the node interned at index ``i`` (in the source
    graph's ``nodes`` iteration order, which also fixes tie-breaking);
    slots ``indptr[i]:indptr[i+1]`` of ``indices`` / ``weights`` hold
    ``i``'s neighbors in adjacency order.  The buffers are
    :class:`array.array` instances (exposable as memoryviews), which
    shared-memory publication and the native kernels adopt unchanged;
    ``native_state`` holds the native backend's addresses of them and
    the dead masks its calls over any view of this snapshot mark and
    clear, one call at a time.
    """

    __slots__ = (
        "nodes",
        "index",
        "indptr",
        "indices",
        "weights",
        "n",
        "directed",
        "source_version",
        "keepalive",
        "_zero_masks",
        "native_state",
    )

    def __init__(self, graph) -> None:
        self.keepalive = None
        self._zero_masks = None
        self.native_state = None
        self.directed = bool(getattr(graph, "directed", False))
        self.source_version = getattr(graph, "version", None)
        nodes = list(graph.nodes)
        index = {node: i for i, node in enumerate(nodes)}
        indptr = array("l", [0])
        indices = array("l")
        weights = array("d")
        for node in nodes:
            for neighbor, weight in graph.adjacency(node):
                indices.append(index[neighbor])
                weights.append(weight)
            indptr.append(len(indices))
        self.nodes = nodes
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.n = len(nodes)
        COUNTERS.csr_builds += 1

    @classmethod
    def from_buffers(
        cls,
        nodes: list[Node],
        indptr,
        indices,
        weights,
        directed: bool,
        source_version=None,
        keepalive=None,
    ) -> "CsrGraph":
        """Adopt pre-built buffers without re-interning a graph.

        The buffers may be :class:`array.array` instances *or*
        memoryview casts over a shared-memory segment
        (:mod:`repro.graph.shm`) — the kernels only index them.
        *keepalive* pins whatever owns the buffers (e.g. the attached
        segment handle) to the snapshot's lifetime.  Does **not** bump
        ``COUNTERS.csr_builds``: nothing was rebuilt, which is the
        point.
        """
        self = cls.__new__(cls)
        self.nodes = nodes
        self.index = {node: i for i, node in enumerate(nodes)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.n = len(nodes)
        self.directed = directed
        self.source_version = source_version
        self.keepalive = keepalive
        self._zero_masks = None
        self.native_state = None
        return self

    def zero_masks(self) -> tuple[bytearray, bytearray]:
        """Shared all-zero ``(edge, node)`` masks for unmasked views.

        Built once per snapshot so the no-failure fast path never
        allocates; every unmasked :class:`CsrView` hands these out from
        :meth:`CsrView.masks`.  Callers must never write into them.
        """
        masks = self._zero_masks
        if masks is None:
            masks = self._zero_masks = (
                bytearray(len(self.indices)),
                bytearray(self.n),
            )
        return masks

    # -- views --------------------------------------------------------------

    def buffers(self) -> tuple[memoryview, memoryview, memoryview]:
        """``(indptr, indices, weights)`` as memoryviews (zero-copy)."""
        return (
            memoryview(self.indptr),
            memoryview(self.indices),
            memoryview(self.weights),
        )

    def edge_slots(self, edges: Iterable[Edge]) -> frozenset[int]:
        """CSR slot positions covering *edges* (both directions).

        On an undirected snapshot each edge occupies two slots — one per
        endpoint's adjacency run; masking both makes the failure
        symmetric, exactly like :class:`~repro.graph.graph.FilteredView`
        on an undirected base.  On a directed snapshot only the ``u→v``
        slot is masked.  Edges whose endpoints are not interned are
        ignored (a failed link elsewhere in a larger scenario).  Each
        direction masks its first slot, found by ``indexOf`` on the
        adjacency run.
        """
        slots: set[int] = set()
        indptr, indices = self.indptr, self.indices
        for u, v in edges:
            iu, iv = self.index.get(u), self.index.get(v)
            if iu is None or iv is None:
                continue
            directions = ((iu, iv),) if self.directed else ((iu, iv), (iv, iu))
            for a, b in directions:
                lo = indptr[a]
                try:
                    slots.add(lo + indexOf(indices[lo:indptr[a + 1]], b))
                except ValueError:
                    pass
        return frozenset(slots)

    def prefix_costs(self, chain: Sequence[int]) -> Optional[list[float]]:
        """Running costs along an index chain: ``costs[k]`` sums its first
        *k* hop weights, added left to right as ``Path.cost`` adds them.

        Each hop reads the weight of its first ``u -> v`` slot; ``None``
        when some hop is not an edge of the snapshot.
        """
        indptr, indices, weights = self.indptr, self.indices, self.weights
        costs = [0.0]
        total = 0.0
        u = chain[0]
        for v in chain[1:]:
            lo = indptr[u]
            try:
                # indexOf, not index(): shared-memory snapshots hold
                # memoryviews, which have no index().
                total += weights[lo + indexOf(indices[lo:indptr[u + 1]], v)]
            except ValueError:
                return None
            costs.append(total)
            u = v
        return costs

    def node_indices(self, nodes: Iterable[Node]) -> frozenset[int]:
        """Int indices of *nodes* (unknown nodes ignored)."""
        return frozenset(
            i for i in (self.index.get(node) for node in nodes) if i is not None
        )

    def with_edges_removed(
        self, edges: Iterable[Edge] = (), nodes: Iterable[Node] = ()
    ) -> "CsrView":
        """A cheap masked view: same buffers, *edges*/*nodes* failed."""
        return CsrView(self, self.edge_slots(edges), self.node_indices(nodes))


class CsrView:
    """A :class:`CsrGraph` minus a set of dead edge slots / node indices.

    The topology buffers are shared with the parent snapshot; only the
    (typically tiny) masks are per-view.  ``EMPTY`` masks make this a
    zero-cost pass-through, so kernels take a view unconditionally.

    The dead sets are canonical (hashable, cheap to union/stack).  The
    reference backend probes their flat bytearray projection
    (:meth:`masks`) instead — an index costs what an empty-frozenset
    probe used to and skips hashing whenever failures are present.  The
    native backend never builds those masks: ``native_state`` caches
    the view's checked dead slots and nodes, which each native call
    marks in the snapshot's own masks (:attr:`CsrGraph.native_state`)
    for its duration.
    """

    __slots__ = (
        "csr", "dead_edges", "dead_nodes", "_edge_mask", "_node_mask",
        "native_state",
    )

    def __init__(
        self,
        csr: CsrGraph,
        dead_edges: frozenset[int] = frozenset(),
        dead_nodes: frozenset[int] = frozenset(),
    ) -> None:
        self.csr = csr
        self.dead_edges = dead_edges
        self.dead_nodes = dead_nodes
        self._edge_mask: Optional[bytearray] = None
        self._node_mask: Optional[bytearray] = None
        self.native_state = None

    def masks(self) -> tuple[bytearray, bytearray]:
        """Flat 0/1 ``(edge slot, node index)`` masks — 1 marks dead.

        The reference backend's dead probes; the native backend marks
        the snapshot's own masks per call instead.  Built lazily, one
        pair of snapshot-sized buffers per failure view; views with no
        failures share the snapshot's zero masks
        (:meth:`CsrGraph.zero_masks`), so the common unmasked path
        allocates nothing.  The returned buffers are read-only by
        contract — they may be shared across views.
        """
        edge_mask = self._edge_mask
        if edge_mask is None:
            if self.dead_edges:
                edge_mask = bytearray(len(self.csr.indices))
                for slot in self.dead_edges:
                    edge_mask[slot] = 1
            else:
                edge_mask = self.csr.zero_masks()[0]
            self._edge_mask = edge_mask
        node_mask = self._node_mask
        if node_mask is None:
            if self.dead_nodes:
                node_mask = bytearray(self.csr.n)
                for i in self.dead_nodes:
                    node_mask[i] = 1
            else:
                node_mask = self.csr.zero_masks()[1]
            self._node_mask = node_mask
        return edge_mask, node_mask

    def without(
        self, edges: Iterable[Edge] = (), nodes: Iterable[Node] = ()
    ) -> "CsrView":
        """Stack further failures onto this view."""
        return CsrView(
            self.csr,
            self.dead_edges | self.csr.edge_slots(edges),
            self.dead_nodes | self.csr.node_indices(nodes),
        )


def as_view(csr_or_view) -> CsrView:
    """Normalize a :class:`CsrGraph` to an unmasked :class:`CsrView`."""
    if isinstance(csr_or_view, CsrView):
        return csr_or_view
    return CsrView(csr_or_view)


#: graph -> CsrGraph, weakly keyed so snapshots die with their graphs.
_CSR_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def shared_csr(graph) -> CsrGraph:
    """The process-wide CSR snapshot for *graph* (built at most once).

    A cached snapshot is transparently rebuilt when the graph's mutation
    :attr:`~repro.graph.graph.Graph.version` has moved on — live-network
    tests mutate topologies between queries.  Falls back to an uncached
    build for objects that cannot be weakly referenced (e.g. a
    :class:`~repro.graph.graph.FilteredView` — but prefer snapshotting
    the view's *base* and masking).
    """
    try:
        csr = _CSR_CACHE.get(graph)
    except TypeError:
        return CsrGraph(graph)
    if csr is None or csr.source_version != getattr(graph, "version", None):
        csr = CsrGraph(graph)
        try:
            _CSR_CACHE[graph] = csr
        except TypeError:
            pass
    return csr


def adopt_csr(graph, csr: CsrGraph) -> bool:
    """Install *csr* as *graph*'s cached snapshot (shared-memory path).

    Validates the node interning matches (same nodes, same order — the
    canonical tie order is an *index* order, so a permuted snapshot
    would silently change every tie) before stamping the graph's
    current mutation version onto the snapshot and seeding the
    :func:`shared_csr` cache.  Returns ``False`` — caller keeps the
    local rebuild path — on any mismatch or an unweakrefable graph.
    """
    if csr.n != len(csr.nodes) or list(graph.nodes) != csr.nodes:
        return False
    csr.source_version = getattr(graph, "version", None)
    try:
        _CSR_CACHE[graph] = csr
    except TypeError:
        return False
    return True


def _require_alive(view: CsrView, src: int) -> None:
    if src in view.dead_nodes:
        raise NodeNotFound(f"node {view.csr.nodes[src]!r} has failed")


def dijkstra_csr(
    view: CsrView, source: int, target: int = -1
) -> tuple[array, array]:
    """Dijkstra on CSR buffers in the canonical tie order.

    Returns ``(dist, pred)`` rows indexed by node index (``inf`` /
    ``-1`` for unreached) as ``array('d')`` / ``array('q')``.  With
    ``target >= 0`` stops as soon as the target settles; the settled
    prefix (and hence the source→target predecessor chain) is identical
    to an exhaustive run's.  A thin façade over
    :func:`dijkstra_csr_canonical` — one kernel, one tie order, across
    the whole library.
    """
    dist, pred, _ = dijkstra_csr_canonical(
        view, source, targets=None if target < 0 else (target,)
    )
    return dist, pred


def dijkstra_csr_canonical(
    view: CsrView,
    source: int,
    targets: Optional[Iterable[int]] = None,
) -> tuple[array, array, bool]:
    """Canonical-tie-order Dijkstra on CSR buffers — the production kernel.

    A lazy binary heap keyed ``(dist, node index)``: among equal-cost
    frontier nodes the smallest index settles first, and the recorded
    predecessor of ``v`` is the tight parent minimizing
    ``(dist[parent], parent index)`` — a *local* property of the final
    distance labels, which is what makes this tree repairable by
    :mod:`repro.graph.incremental` without heap-history replay.

    With *targets*, stops once every live target is settled; returns
    ``(dist, pred, exhausted)`` where *exhausted* is true when the run
    settled the source's whole live component (the search ran dry, or
    the last target settled with the heap empty and no live unsettled
    neighbour): only an exhausted run proves unreached nodes
    unreachable.

    Dispatches to the active kernel backend (:mod:`repro.kernels`);
    every backend returns bit-identical rows — ``dist`` as
    ``array('d')``, ``pred`` as ``array('q')`` — and counter increments:
    the canonical contract makes both a pure function of the view.
    """
    _require_alive(view, source)
    return kernel_backend().dijkstra_canonical(view, source, targets)


def bfs_csr(
    view: CsrView, source: int, target: int = -1
) -> tuple[array, array]:
    """BFS on CSR buffers (unweighted shortest paths), canonical order.

    Each frontier is processed in **index order**, so the predecessor
    of ``v`` is the least-index neighbor one level up — exactly the
    tree :func:`dijkstra_csr_canonical` produces on unit weights, and
    the tree decremental repair maintains with ``unit=True``.  Early
    return the moment *target* is discovered (the predecessor chain
    back to the source is already final: every earlier level was fully
    assigned, and within the current level parents are scanned in index
    order, so the first discoverer is the canonical one).  Distances
    are floats for interchangeability with the Dijkstra kernels.
    Dispatches to the active kernel backend (:mod:`repro.kernels`).
    """
    _require_alive(view, source)
    return kernel_backend().bfs(view, source, target)


def dicts_from_arrays(
    csr: CsrGraph, dist: list[float], pred: list[int]
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Convert array results back to the dict shapes the library speaks."""
    nodes = csr.nodes
    dist_d: dict[Node, float] = {}
    pred_d: dict[Node, Node] = {}
    for i, d in enumerate(dist):
        if d != INF:
            dist_d[nodes[i]] = d
            p = pred[i]
            if p >= 0:
                pred_d[nodes[i]] = nodes[p]
    return dist_d, pred_d


def path_nodes(csr: CsrGraph, pred: list[int], source: int, target: int) -> list[Node]:
    """Node sequence source→target from a predecessor array."""
    chain = [target]
    node = target
    while node != source:
        node = pred[node]
        chain.append(node)
    chain.reverse()
    return [csr.nodes[i] for i in chain]


def mask_from_view(csr: CsrGraph, filtered_view) -> CsrView:
    """CSR masked view equivalent to a :class:`FilteredView` over *csr*'s graph."""
    return csr.with_edges_removed(
        filtered_view.failed_edges, filtered_view.failed_nodes
    )
