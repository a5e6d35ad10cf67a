"""All-pairs shortest paths (APSP) — the raw material of every base set.

The base LSP sets of Section 4 are all-pairs shortest paths; RBPC's
decision procedure "is this sub-path a basic path?" reduces to "is it a
shortest path?", which is answered from an APSP distance oracle.

For the graph sizes in the paper (200 — 40k nodes) a distance *matrix*
is only feasible for the small graphs, so this module provides both:

* :class:`ApspDistances` — dense oracle, one Dijkstra per node, built
  eagerly (ISP-sized graphs).
* :class:`LazyDistanceOracle` — per-source Dijkstra computed on first
  use and cached (Internet-sized graphs, where experiments touch only a
  sample of sources).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..exceptions import NoPath
from ..kernels import kernel_backend
from ..perf import COUNTERS, in_warm_up, warm_up_phase
from .csr import INF, CsrView, dijkstra_csr_canonical, shared_csr
from .graph import Node
from .paths import Path
from .shortest_paths import costs_equal, dijkstra, dijkstra_pruned, reconstruct_path


class ApspDistances:
    """Eager all-pairs distances and predecessor maps.

    >>> from repro.graph.graph import Graph
    >>> g = Graph.from_edges([(1, 2), (2, 3)])
    >>> apsp = ApspDistances.compute(g)
    >>> apsp.distance(1, 3)
    2.0
    """

    __slots__ = ("_dist", "_pred")

    def __init__(
        self,
        dist: dict[Node, dict[Node, float]],
        pred: dict[Node, dict[Node, Node]],
    ) -> None:
        self._dist = dist
        self._pred = pred

    @classmethod
    def compute(
        cls, graph, sources: Optional[list[Node]] = None, break_ties_by_hops: bool = False
    ) -> "ApspDistances":
        """One Dijkstra per source (all nodes, unless *sources* restricts)."""
        dist: dict[Node, dict[Node, float]] = {}
        pred: dict[Node, dict[Node, Node]] = {}
        for s in sources if sources is not None else graph.nodes:
            dist[s], pred[s] = dijkstra(graph, s, break_ties_by_hops=break_ties_by_hops)
        return cls(dist, pred)

    @property
    def sources(self) -> Iterator[Node]:
        """Iterate over the sources this oracle covers."""
        return iter(self._dist)

    def distance(self, u: Node, v: Node) -> float:
        """Shortest distance u→v; raises :class:`NoPath` if unreachable."""
        row = self._dist.get(u)
        if row is None:
            raise NoPath(f"source {u!r} not covered by this APSP")
        if v not in row:
            raise NoPath(f"no path from {u!r} to {v!r}")
        return row[v]

    def has_path(self, u: Node, v: Node) -> bool:
        """True if a path exists (and the source is covered)."""
        row = self._dist.get(u)
        return row is not None and v in row

    def path(self, u: Node, v: Node) -> Path:
        """One shortest path u→v."""
        if u not in self._pred:
            raise NoPath(f"source {u!r} not covered by this APSP")
        return reconstruct_path(self._pred[u], u, v)

    def is_shortest(self, path: Path, cost: float) -> bool:
        """True if a path of weight *cost* between the endpoints is shortest."""
        return costs_equal(cost, self.distance(path.source, path.target))

    def average_distance(self) -> float:
        """Mean distance over all covered, connected, distinct pairs."""
        total, count = 0.0, 0
        for s, row in self._dist.items():
            for t, d in row.items():
                if s != t:
                    total += d
                    count += 1
        return total / count if count else 0.0


class LazyDistanceOracle:
    """Distance oracle computing per-source canonical rows on demand.

    Suitable for Internet-scale graphs where only sampled sources are
    queried.  The cache is unbounded by design — an experiment's working
    set is its sample of sources.

    Rows are stored **array-native**: one flat ``(dist, pred)`` pair of
    int-indexed buffers per source (``array('d')`` / ``array('q')``, or
    read-only memoryviews when adopted from shared memory), straight
    from the canonical CSR kernel
    (:func:`~repro.graph.csr.dijkstra_csr_canonical`) — the same shape
    :class:`~repro.graph.incremental.SptCache` caches, so rows flow
    between the graph, cache, kernel, and experiment layers without
    conversion.  Dict views (:meth:`distances_from`) are built on
    demand, restricted to the requested targets.

    Two row flavors coexist:

    * **full rows** — the whole component settled; ``INF`` in the row
      proves unreachability (what :meth:`distance` / :meth:`path` use);
    * **truncated rows** — computed by :meth:`warm` with a target set,
      stopping as soon as every requested target settles.  This is the
      decomposition kernel's access pattern: a restoration path's O(1)
      membership probes only ever compare against distances *between
      nodes of that path*, so settling the rest of a 40k-node graph is
      wasted work.  On a truncated row, ``INF`` is ambiguous (unsettled
      or unreachable); a query beyond the settled frontier transparently
      promotes the row to a full one (counted in
      ``COUNTERS.oracle_promotions``).

    Predecessors follow the library-wide canonical ``(dist, index)``
    tie order, so :meth:`path` answers match every other canonical
    consumer (SptCache backups, routing SPF) node-for-node.  *tie_free*
    is retained for API compatibility but inert: it used to gate the
    CSR kernel behind a no-ties guarantee; under the canonical contract
    the kernel is deterministic with or without ties.  With
    *break_ties_by_hops* the oracle keeps the dict pipeline (the CSR
    kernels do not implement the hop-count tie rule).
    """

    __slots__ = (
        "_graph",
        "_dist",
        "_pred",
        "_complete",
        "_truncated",
        "_csr",
        "break_ties_by_hops",
        "tie_free",
    )

    def __init__(
        self, graph, break_ties_by_hops: bool = False, tie_free: bool = False
    ) -> None:
        self._graph = graph
        # Array mode: source -> flat buffers (array('d'), array('q')).
        # Hops mode: source -> dict rows, as produced by dijkstra().
        self._dist: dict[Node, object] = {}
        self._pred: dict[Node, object] = {}
        self._complete: set[Node] = set()
        self._truncated: set[Node] = set()
        self._csr: Optional[CsrView] = None
        self.break_ties_by_hops = break_ties_by_hops
        self.tie_free = tie_free

    @property
    def graph(self):
        """The graph whose distances this oracle answers."""
        return self._graph

    def _csr_view(self) -> CsrView:
        """The (lazily interned) CSR snapshot the canonical rows run on."""
        if self._csr is None:
            self._csr = CsrView(shared_csr(self._graph))
        return self._csr

    def csr(self):
        """The interned :class:`CsrGraph` the array rows are indexed by.

        Consumers holding flat rows from :meth:`row_arrays` use this to
        check that their own index space (``shared_csr(other).nodes``)
        lines up before mixing buffers.
        """
        return self._csr_view().csr

    def row_arrays(self, source: Node) -> tuple:
        """The full canonical ``(dist, pred)`` buffers for *source*.

        The zero-conversion hand-off other layers consume; indices are
        positions in ``shared_csr(graph).nodes``.  Unavailable in
        hop-count tie mode.
        """
        if self.break_ties_by_hops:
            raise ValueError("array rows unavailable with break_ties_by_hops")
        self._ensure(source)
        return self._dist[source], self._pred[source]  # type: ignore[return-value]

    def _ensure(self, source: Node) -> None:
        """Make the row for *source* a full row."""
        if source in self._complete:
            return
        promoted = source in self._truncated
        if promoted:
            COUNTERS.oracle_promotions += 1
            self._truncated.discard(source)
        if self.break_ties_by_hops:
            self._dist[source], self._pred[source] = dijkstra(
                self._graph, source, break_ties_by_hops=True
            )
        else:
            view = self._csr_view()
            arr_dist, arr_pred, _ = dijkstra_csr_canonical(
                view, view.csr.index[source]
            )
            self._dist[source], self._pred[source] = arr_dist, arr_pred
        self._complete.add(source)
        COUNTERS.oracle_rows_full += 1
        if not promoted and in_warm_up():
            # Promotions are query-driven (a probe outran a truncated
            # frontier) and cold builds outside a warm-up phase are
            # demand work: only batch warm-up builds count as work that
            # warm-row publication can eliminate.
            COUNTERS.warm_row_builds += 1

    def _covered(self, row, t: Node) -> bool:
        """Is *t*'s label in this (possibly truncated) row final?"""
        if self.break_ties_by_hops:
            return t in row
        it = self._csr.csr.index.get(t)
        return it is not None and row[it] != INF

    def warm_many(self, sources: Iterable[Node]) -> None:
        """Batch-build full rows for every source with no cached row yet.

        Hands the whole batch to the active kernel backend's
        ``rows_many`` — batched C calls under native; a no-op under
        the reference backend (``None`` return), where rows keep
        materializing lazily through :meth:`_ensure`.  Either
        way the rows, their flavors, and the oracle counters end up
        identical: only sources with *no* row are batched (truncated
        rows still promote through :meth:`_ensure`, preserving
        ``oracle_promotions``), and each batched row accounts one
        ``oracle_rows_full`` exactly as its lazy twin would.
        """
        if self.break_ties_by_hops:
            return
        missing = [s for s in dict.fromkeys(sources) if s not in self._dist]
        if len(missing) < 2:
            return
        view = self._csr_view()
        index = view.csr.index
        idxs = [index[s] for s in missing]
        rows = kernel_backend().rows_many(view, idxs, unit=False)
        if rows is None:
            return
        warm_up = in_warm_up()
        for s, i in zip(missing, idxs):
            self._dist[s], self._pred[s] = rows[i]
            self._complete.add(s)
            COUNTERS.oracle_rows_full += 1
            if warm_up:
                COUNTERS.warm_row_builds += 1

    def warm(self, source: Node, targets: Iterable[Node]):
        """Guarantee each target is settled or provably unreachable.

        First request for a source runs a target-pruned search; a later
        request outrunning the settled frontier promotes the row to a
        full one (re-running truncated searches per query would forfeit
        the cross-case caching the experiments rely on).  Returns the
        source's distance row as it now stands — possibly truncated,
        but final at every target, which is all the decomposition DP
        reads (taking it as is keeps ``oracle_promotions`` untouched).
        """
        if source in self._complete:
            return self._dist[source]
        row = self._dist.get(source)
        if row is not None:
            if all(self._covered(row, t) for t in targets):
                return row
            self._ensure(source)
            return self._dist[source]
        if self.break_ties_by_hops:
            dist, pred, exhausted = dijkstra_pruned(
                self._graph, source, targets
            )
        else:
            view = self._csr_view()
            index = view.csr.index
            dist, pred, exhausted = dijkstra_csr_canonical(
                view, index[source], targets=[index[t] for t in targets]
            )
        self._dist[source], self._pred[source] = dist, pred
        if exhausted:
            # A target-pruned query that happened to settle everything:
            # demand-driven, so not accounted as warm-up duplication.
            self._complete.add(source)
            COUNTERS.oracle_rows_full += 1
        else:
            self._truncated.add(source)
            COUNTERS.oracle_rows_truncated += 1
        return dist

    def distances_from(self, source: Node, targets: Iterable[Node]) -> dict[Node, float]:
        """Exact distances to *targets*; a missing key means unreachable.

        The O(1) sub-path probes' bulk accessor (greedy and
        base-path-budget decompositions): one call warms the row, and
        the returned plain dict — the on-demand dict view of the flat
        buffers, restricted to the probe's targets — makes every
        subsequent probe a dictionary lookup plus one float comparison.
        The min-pieces DP skips the dict and reads :meth:`warm`'s row.
        """
        targets = list(targets)
        self.warm(source, targets)
        row = self._dist[source]
        if self.break_ties_by_hops:
            return {t: row[t] for t in targets if t in row}
        index = self._csr.csr.index
        out: dict[Node, float] = {}
        for t in targets:
            it = index.get(t)
            if it is not None and row[it] != INF:
                out[t] = row[it]
        return out

    def distance(self, u: Node, v: Node) -> float:
        """Shortest distance source->target; raises NoPath if unreachable."""
        row = self._dist.get(u)
        if row is not None and self._covered(row, v):
            return row[v] if self.break_ties_by_hops else row[self._csr.csr.index[v]]
        if u not in self._complete:
            self._ensure(u)
            row = self._dist[u]
            if self._covered(row, v):
                return (
                    row[v]
                    if self.break_ties_by_hops
                    else row[self._csr.csr.index[v]]
                )
        raise NoPath(f"no path from {u!r} to {v!r}")

    def has_path(self, u: Node, v: Node) -> bool:
        """True if a path exists (and the source is covered)."""
        row = self._dist.get(u)
        if row is not None and self._covered(row, v):
            return True
        if u in self._complete:
            return False
        self._ensure(u)
        return self._covered(self._dist[u], v)

    def path(self, u: Node, v: Node) -> Path:
        """One shortest path for the pair, from the cached pred buffers."""
        if u not in self._complete:
            self._ensure(u)
        if self.break_ties_by_hops:
            return reconstruct_path(self._pred[u], u, v)
        csr = self._csr.csr
        dist, pred = self._dist[u], self._pred[u]
        iv = csr.index.get(v)
        if iv is None or dist[iv] == INF:
            raise NoPath(f"no path from {u!r} to {v!r}")
        iu = csr.index[u]
        chain = [iv]
        x = iv
        while x != iu:
            x = pred[x]
            chain.append(x)
        chain.reverse()
        return Path([csr.nodes[i] for i in chain])

    def cached_sources(self) -> list[Node]:
        """Sources whose rows are currently cached."""
        return list(self._dist)

    def ensure_rows(self, sources: Iterable[Node]) -> None:
        """Build full rows for every listed source (publisher warm-up).

        ``warm_many`` batches the cold sources through the kernel
        backend, then a lazy ``_ensure`` sweep picks up whatever the
        backend declined (reference backend, batches of one) plus any
        truncated rows.  No-op in hop-count tie mode.
        """
        if self.break_ties_by_hops:
            return
        wanted = list(dict.fromkeys(sources))
        with warm_up_phase():
            self.warm_many(wanted)
            for s in wanted:
                self._ensure(s)

    def export_rows(self) -> dict[int, tuple]:
        """Complete array-mode rows keyed by CSR source index.

        The publication payload for
        :func:`repro.graph.shm.publish_rows`: truncated rows are
        excluded (their ``INF`` labels are ambiguous — an adopter could
        not tell unsettled from unreachable), and hop-count tie mode
        exports nothing (dict rows have no flat layout).
        """
        if self.break_ties_by_hops:
            return {}
        index = self._csr_view().csr.index
        return {
            index[s]: (self._dist[s], self._pred[s])
            for s in self._complete
        }

    def adopt_rows(self, table) -> int:
        """Install warm full rows from an attached shm ``RowTable``.

        Mirrors :meth:`repro.graph.incremental.SptCache.adopt_rows`:
        only sources with **no cached row at all** are filled (a
        truncated local row keeps its normal promotion path so
        ``oracle_promotions`` accounting is undisturbed), the installed
        views are zero-copy and read-only, and the only counter moved
        is ``warm_rows_adopted`` — adoption must never look like
        search work.  Returns the number of rows installed; raises
        ``ValueError`` on a kind/shape/version mismatch or in
        hop-count tie mode.
        """
        if self.break_ties_by_hops:
            raise ValueError(
                "cannot adopt array rows with break_ties_by_hops"
            )
        if table.kind != "oracle":
            raise ValueError(
                f"cannot adopt {table.kind!r} rows into a distance oracle"
            )
        csr = self._csr_view().csr
        if table.n != csr.n:
            raise ValueError(
                f"row table has n={table.n}, oracle graph has n={csr.n}"
            )
        if (
            table.source_version is not None
            and csr.source_version is not None
            and table.source_version != csr.source_version
        ):
            raise ValueError(
                f"row table published for graph version "
                f"{table.source_version}, oracle snapshot is version "
                f"{csr.source_version}"
            )
        nodes = csr.nodes
        adopted = 0
        for i in table.sources:
            s = nodes[i]
            if s in self._dist:
                continue
            self._dist[s], self._pred[s] = table.row(i)
            self._complete.add(s)
            adopted += 1
        COUNTERS.warm_rows_adopted += adopted
        return adopted
