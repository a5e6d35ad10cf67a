"""All-pairs shortest paths (APSP) — the raw material of every base set.

The base LSP sets of Section 4 are all-pairs shortest paths; RBPC's
decision procedure "is this sub-path a basic path?" reduces to "is it a
shortest path?", which is answered from an APSP distance oracle.

For the graph sizes in the paper (200 — 40k nodes) a distance *matrix*
is only feasible for the small graphs, so the one oracle,
:class:`LazyDistanceOracle`, computes each source's row on first use
and caches it: experiments on the Internet-sized graphs touch only a
sample of sources.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..exceptions import NoPath
from ..kernels import OracleRows, kernel_backend
from ..perf import COUNTERS, in_warm_up, warm_up_phase
from .csr import INF, CsrView, dijkstra_csr_canonical, shared_csr
from .graph import Node
from .paths import Path


class LazyDistanceOracle:
    """Distance oracle computing per-source canonical rows on demand.

    Suitable for Internet-scale graphs where only sampled sources are
    queried.  The cache is unbounded by design — an experiment's working
    set is its sample of sources.

    Rows are stored **array-native**, once, by CSR source index, in the
    oracle's :class:`~repro.kernels.OracleRows` (:meth:`row_table`): one
    flat ``(dist, pred)`` pair of int-indexed buffers per source
    (``array('d')`` / ``array('q')``), straight from the canonical CSR
    kernel (:func:`~repro.graph.csr.dijkstra_csr_canonical`) — the same shape
    :class:`~repro.graph.incremental.SptCache` caches, so rows flow
    between the graph, cache, kernel, and experiment layers without
    conversion.  Every decomposition reads that table directly: the
    kernel backends' ``decompose_flat`` and ``ilm_account``, and the
    per-probe chain prober of :mod:`repro.core.decomp_kernel`, each
    through the table's ``warm`` / ``fill`` entries.

    Two row flavors coexist, told apart by the table's ``full`` flag:

    * **full rows** — the whole component settled; ``INF`` in the row
      proves unreachability (what :meth:`distance` / :meth:`path` and
      the ILM tree DP use);
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
    consumer (SptCache backups, routing SPF) node-for-node.
    """

    __slots__ = ("_graph", "_csr", "_table")

    def __init__(self, graph) -> None:
        self._graph = graph
        # Both built on first use (a base set may never be queried).
        self._csr: Optional[CsrView] = None
        self._table: Optional[OracleRows] = None

    @property
    def graph(self):
        """The graph whose distances this oracle answers."""
        return self._graph

    def row_table(self) -> OracleRows:
        """The rows by CSR node index, as they stand (truncated rows
        included): what every query reads, and the row source of the
        kernel backends' ``decompose_flat`` (whose warm requests run
        :meth:`warm`) and ``ilm_account`` (whose fill requests build
        and promote full rows)."""
        table = self._table
        if table is None:
            self._csr = CsrView(shared_csr(self._graph))
            table = self._table = OracleRows(
                self._csr.csr.n, self._warm_chain, self._make_full
            )
        return table

    def _index(self) -> dict:
        """Node -> CSR index of the snapshot the rows live in."""
        self.row_table()
        return self._csr.csr.index

    def csr(self):
        """The interned :class:`CsrGraph` the array rows are indexed by.

        Consumers holding flat rows from :meth:`row_arrays` use this to
        check that their own index space (``shared_csr(other).nodes``)
        lines up before mixing buffers.
        """
        self.row_table()
        return self._csr.csr

    def _ensure(self, i: int) -> None:
        """Make node index *i*'s row a full row."""
        table = self._table
        if table.full[i]:
            return
        promoted = table.rows[i] is not None
        if promoted:
            COUNTERS.oracle_promotions += 1
        dist, pred, _ = dijkstra_csr_canonical(self._csr, i)
        table.store(i, dist, pred, True)
        COUNTERS.oracle_rows_full += 1
        if not promoted and in_warm_up():
            # Promotions are query-driven (a probe outran a truncated
            # frontier) and cold builds outside a warm-up phase are
            # demand work: only batch warm-up builds count as work that
            # warm-row publication can eliminate.
            COUNTERS.warm_row_builds += 1

    def _build_many(self, idxs: Iterable[int]) -> None:
        """Batch-build full rows for every listed index with no row yet.

        Hands the whole batch to the active kernel backend's
        ``rows_many`` — batched C calls under native; a no-op under
        the reference backend (``None`` return), where rows keep
        materializing lazily through :meth:`_ensure`.  Either
        way the rows, their flavors, and the oracle counters end up
        identical: only indices with *no* row are batched (truncated
        rows still promote through :meth:`_ensure`, preserving
        ``oracle_promotions``), and each batched row accounts one
        ``oracle_rows_full`` exactly as its lazy twin would.
        """
        rows = self._table.rows
        missing = [i for i in dict.fromkeys(idxs) if rows[i] is None]
        if len(missing) < 2:
            return
        built = kernel_backend().rows_many(self._csr, missing, unit=False)
        if built is None:
            return
        warm_up = in_warm_up()
        for i in missing:
            self._table.store(i, *built[i], True)
            COUNTERS.oracle_rows_full += 1
            if warm_up:
                COUNTERS.warm_row_builds += 1

    def _make_full(self, idxs: list[int]) -> None:
        """Make the rows of *idxs* full: one :meth:`_build_many` batch
        for those with no row, then :meth:`_ensure` each (a truncated
        row is promoted).  The table's ``fill`` callback."""
        self._build_many(idxs)
        for i in idxs:
            self._ensure(i)

    def _warm(self, i: int, targets: Iterable[int]):
        """:meth:`warm` by CSR index; *targets* is read only when the
        row is not full."""
        table = self._table
        row = table.rows[i]
        if table.full[i]:
            return row
        targets = list(targets)
        if row is not None:
            if INF not in map(row.__getitem__, targets):
                return row
            self._ensure(i)
            return table.rows[i]
        dist, pred, exhausted = dijkstra_csr_canonical(
            self._csr, i, targets=targets
        )
        # A target-pruned query that happened to settle everything is a
        # full row: demand-driven, so not accounted as warm-up work.
        table.store(i, dist, pred, exhausted)
        if exhausted:
            COUNTERS.oracle_rows_full += 1
        else:
            COUNTERS.oracle_rows_truncated += 1
        return dist

    def _warm_chain(self, chain, positions) -> None:
        """:meth:`warm` each listed position of an index chain toward
        the chain's later nodes, in the order given (the table's
        ``warm`` callback)."""
        for j in positions:
            self._warm(chain[j], chain[j + 1:])

    def row_arrays(self, source: Node) -> tuple:
        """The full canonical ``(dist, pred)`` buffers for *source*.

        The zero-conversion hand-off other layers consume; indices are
        positions in ``shared_csr(graph).nodes``.
        """
        i = self._index()[source]
        self._ensure(i)
        return self._table.rows[i], self._table.preds[i]

    def warm_many(self, sources: Iterable[Node]) -> None:
        """Batch-build full rows for every source with no cached row yet
        (see :meth:`_build_many`)."""
        index = self._index()
        self._build_many(index[s] for s in sources)

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
        index = self._index()
        return self._warm(index[source], (index[t] for t in targets))

    def distances_from(self, source: Node, targets: Iterable[Node]) -> dict[Node, float]:
        """Exact distances to *targets*; a missing key means unreachable.

        A public dict view of the flat buffers, restricted to *targets*:
        one :meth:`warm` of *source*'s row, then one entry per reachable
        target.  Nothing in the library calls it — every decomposition
        reads the row table (:meth:`row_table`) by node index — but it
        stays for callers that want plain dicts, and the benchmark
        harness's tracer wraps it.
        """
        index = self._index()
        targets = list(targets)
        idxs = [index[t] for t in targets]
        row = self._warm(index[source], idxs)
        return {t: row[it] for t, it in zip(targets, idxs) if row[it] != INF}

    def _label(self, u: Node, v: Node) -> float:
        """*u*'s final label of *v* (``INF``: unreachable or not a
        node), promoting or building *u*'s row unless it settles *v*."""
        index = self._index()
        i, j = index[u], index.get(v)
        table = self._table
        row = table.rows[i]
        if row is None or not table.full[i] and (j is None or row[j] == INF):
            self._ensure(i)
            row = table.rows[i]
        return INF if j is None else row[j]

    def distance(self, u: Node, v: Node) -> float:
        """Shortest distance source->target; raises NoPath if unreachable."""
        d = self._label(u, v)
        if d == INF:
            raise NoPath(f"no path from {u!r} to {v!r}")
        return d

    def has_path(self, u: Node, v: Node) -> bool:
        """True if a path exists (and the source is covered)."""
        return self._label(u, v) != INF

    def path(self, u: Node, v: Node) -> Path:
        """One shortest path for the pair, from the cached pred buffers."""
        dist, pred = self.row_arrays(u)
        csr = self._csr.csr
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
        """Sources whose rows are currently cached, in CSR index order."""
        rows = self.row_table().rows
        nodes = self._csr.csr.nodes
        return [nodes[i] for i, row in enumerate(rows) if row is not None]

    def ensure_rows(self, sources: Iterable[Node]) -> None:
        """Build full rows for every listed source (a warm-up).

        One batch through the kernel backend, then a lazy sweep picks up
        whatever the backend declined (reference backend, batches of
        one) plus any truncated rows (:meth:`_make_full`).
        """
        index = self._index()
        with warm_up_phase():
            self._make_full([index[s] for s in sources])
