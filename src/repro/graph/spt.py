"""Shortest-path DAGs, path counting, and shortest-path enumeration.

Two of the paper's measurements need more than "one shortest path":

* **Redundancy** (Table 2) is "the percentage of backup paths that have
  cost equal to the original shortest path", and the table also reports
  the *maximum number of distinct shortest paths* between any two routers.
  Counting shortest paths is done here on the shortest-path DAG.
* The **greedy decomposition** needs to ask whether a given sub-path is
  *some* shortest path, which the DAG answers without enumeration.

The shortest-path DAG from a source ``s`` contains the edge ``(u, v)``
iff ``dist(s, u) + w(u, v) == dist(s, v)``; every s→t shortest path is a
DAG path and vice versa.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..exceptions import NoPath
from ..kernels import kernel_backend
from .csr import INF, CsrView, dijkstra_csr_canonical, shared_csr
from .graph import Graph, Node
from .paths import Path
from .shortest_paths import EPSILON, costs_equal, dijkstra


class ShortestPathDag:
    """The DAG of all shortest paths out of a single source.

    On a :class:`~repro.graph.graph.Graph` (directed or not) the DAG is
    a lazy view over the source's canonical flat row: path counts come
    from one kernel pass over that row (``count_paths``), and the
    ``dist`` dict and per-node parent lists are built only when asked
    for.  Other adjacency-protocol inputs (e.g. a
    :class:`~repro.graph.graph.FilteredView`) run the dict Dijkstra.

    >>> from repro.graph.graph import Graph
    >>> g = Graph.from_edges([(1, 2), (2, 4), (1, 3), (3, 4)])
    >>> dag = ShortestPathDag.compute(g, 1)
    >>> dag.count_paths_to(4)
    2
    """

    __slots__ = ("source", "_graph", "_csr", "_row", "_dist", "_parents", "_counts")

    def __init__(self, graph, source: Node, dist=None, csr=None, row=None):
        self.source = source
        self._graph = graph
        self._csr = csr
        self._row = row
        self._dist: Optional[dict[Node, float]] = dist
        self._parents: dict[Node, list[Node]] = {}
        self._counts = None

    @classmethod
    def compute(cls, graph, source: Node) -> "ShortestPathDag":
        """Settle *source*'s shortest paths; everything else is lazy.

        A :class:`~repro.graph.graph.Graph` gets one canonical CSR
        kernel row; distances are tie-invariant (each label is the same
        minimal parent-plus-weight sum whatever the heap order), so the
        DAG — built from epsilon-tolerant tightness tests — is identical
        to the dict kernel's.
        """
        if isinstance(graph, Graph):
            csr = shared_csr(graph)
            row, _, _ = dijkstra_csr_canonical(CsrView(csr), csr.index[source])
            return cls(graph, source, csr=csr, row=row)
        dist, _ = dijkstra(graph, source)
        return cls(graph, source, dist=dist)

    @property
    def dist(self) -> dict[Node, float]:
        """Shortest distance from the source to every reached node."""
        if self._dist is None:
            self._dist = {
                node: d for node, d in zip(self._csr.nodes, self._row) if d != INF
            }
        return self._dist

    def reaches(self, target: Node) -> bool:
        """True if the DAG reaches *target* from its source."""
        if self._dist is None:
            i = self._csr.index.get(target)
            return i is not None and self._row[i] != INF
        return target in self._dist

    def parents(self, v: Node) -> list[Node]:
        """Tight predecessors of *v*, in adjacency order (empty for the
        source and for unreached nodes); built on first use."""
        got = self._parents.get(v)
        if got is None:
            dist = self.dist
            d_v = dist.get(v)
            got = []
            if d_v is not None and v != self.source:
                for u, w in _in_edges(self._graph, v):
                    d_u = dist.get(u)
                    if d_u is not None and costs_equal(d_u + w, d_v):
                        got.append(u)
            self._parents[v] = got
        return got

    def _exact_counts(self):
        """Exact counts, memoized: per node index on the flat path, per
        node on the dict path."""
        if self._counts is None:
            if self._csr is not None:
                self._counts = kernel_backend().count_paths(
                    self._csr, self._csr.index[self.source], self._row, EPSILON
                )
            else:
                self._counts = self._dict_counts()
        return self._counts

    def _dict_counts(self) -> dict[Node, int]:
        memo: dict[Node, int] = {self.source: 1}
        for v in sorted(self.dist, key=self.dist.__getitem__):
            if v == self.source:
                continue
            total = 0
            for u in self.parents(v):
                if u not in memo:
                    raise ValueError(
                        f"tight edge ({u!r}, {v!r}) does not lead later in "
                        "distance order: shortest paths are not a DAG here "
                        "(zero-weight edge?)"
                    )
                total += memo[u]
            memo[v] = total
        return memo

    def count_all_paths(self, modulo: Optional[int] = None) -> dict[Node, int]:
        """Shortest-path counts from the source to *every* reached node.

        One pass over the DAG in ``(dist, index)`` order serves every
        target; the counts are memoized on the DAG, so later calls (and
        :meth:`count_paths_to`) reuse them.  The counts are exact
        integers, optionally reduced *modulo* (the source's own count
        stays 1).  Raises ``ValueError`` when a tight edge does not
        lead later in ``(dist, index)`` order (zero-weight ties).
        """
        counts = self._exact_counts()
        if self._csr is not None:
            out = {v: c for v, c in zip(self._csr.nodes, counts) if c}
        else:
            out = dict(counts)
        if modulo:
            for v in out:
                if v != self.source:
                    out[v] %= modulo
        return out

    def count_paths_to(self, target: Node, modulo: Optional[int] = None) -> int:
        """Number of distinct shortest paths from the source to *target*.

        Counts can be astronomically large on meshy graphs, hence the
        optional *modulo*.  Raises :class:`~repro.exceptions.NoPath` if
        the target is unreachable.
        """
        if not self.reaches(target):
            raise NoPath(f"{target!r} unreachable from {self.source!r}")
        key = self._csr.index[target] if self._csr is not None else target
        count = self._exact_counts()[key]
        return count % modulo if modulo and target != self.source else count

    def iter_paths_to(self, target: Node, limit: Optional[int] = None) -> Iterator[Path]:
        """Yield distinct shortest paths source→target (up to *limit*)."""
        if not self.reaches(target):
            raise NoPath(f"{target!r} unreachable from {self.source!r}")
        emitted = 0
        stack: list[tuple[Node, list[Node]]] = [(target, [target])]
        while stack:
            node, suffix = stack.pop()
            if node == self.source:
                yield Path(list(reversed(suffix)))
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
                continue
            for parent in self.parents(node):
                stack.append((parent, suffix + [parent]))

    def contains_path(self, path: Path) -> bool:
        """True if *path* starts at the source and is a shortest path."""
        if path.source != self.source:
            return False
        if not self.reaches(path.target):
            return False
        node = path.target
        for prev in reversed(path.nodes[:-1]):
            if prev not in self.parents(node):
                return False
            node = prev
        return True

    def first_path_to(self, target: Node) -> Path:
        """One canonical shortest path (first tight predecessor at each hop)."""
        if not self.reaches(target):
            raise NoPath(f"{target!r} unreachable from {self.source!r}")
        nodes = [target]
        node = target
        while node != self.source:
            node = self.parents(node)[0]
            nodes.append(node)
        return Path(list(reversed(nodes)))


def _in_edges(graph, v: Node) -> Iterator[tuple[Node, float]]:
    """``(u, w)`` for every edge ``u -> v``: in-neighbors on a directed
    graph (or a view of one), the adjacency otherwise."""
    if not getattr(graph, "directed", False):
        return graph.adjacency(v)
    if isinstance(graph, Graph):
        tails = graph.predecessors(v)
    else:  # a FilteredView: the base's in-neighbors whose arc survives
        tails = (u for u in graph.base.predecessors(v) if graph.has_edge(u, v))
    return ((u, graph.weight(u, v)) for u in tails)


def count_shortest_paths(graph, source: Node, target: Node) -> int:
    """Convenience: number of distinct shortest source→target paths."""
    return ShortestPathDag.compute(graph, source).count_paths_to(target)


def all_shortest_paths(
    graph, source: Node, target: Node, limit: Optional[int] = None
) -> list[Path]:
    """All distinct shortest source→target paths (up to *limit*)."""
    dag = ShortestPathDag.compute(graph, source)
    return list(dag.iter_paths_to(target, limit=limit))


def max_shortest_path_multiplicity(graph, sources: Optional[list[Node]] = None) -> int:
    """Max number of distinct shortest paths over (sampled) source pairs.

    Table 2's "(max)" column annotation reports this per topology.  With
    *sources* given, only DAGs from those sources are examined (sampling
    for the huge graphs); otherwise all nodes are used.
    """
    best = 0
    nodes = sources if sources is not None else list(graph.nodes)
    for s in nodes:
        dag = ShortestPathDag.compute(graph, s)
        counts = dag.count_all_paths()
        best = max(best, max((c for t, c in counts.items() if t != s), default=0))
    return best
