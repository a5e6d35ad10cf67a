"""SPF computation over a link-state database — the OSPF stand-in.

The paper runs RBPC "in conjunction with e.g. OSPF": the routing
protocol supplies shortest paths (both the provisioned base set and,
after multiple failures, the new route the restoration scheme must
cover).  :class:`SpfRouter` is that per-router computation: it owns an
LSDB, recomputes its shortest-path tree when the LSDB changes, and
answers route queries.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import NoPath
from ..graph.csr import dicts_from_arrays, dijkstra_csr_canonical, shared_csr
from ..graph.graph import Graph, Node
from ..graph.paths import Path
from ..graph.shortest_paths import reconstruct_path
from .lsdb import LinkStateAd, LinkStateDatabase


def _spf_run(graph: Graph, root: Node) -> tuple[dict[Node, float], dict[Node, Node]]:
    """One full SPF: the canonical CSR kernel, dict-shaped results.

    :func:`~repro.graph.csr.dijkstra_csr_canonical` breaks equal-cost
    ties by ``(dist, node index)`` — the library-wide path contract —
    so every router deterministically picks the same equal-cost route
    regardless of the order LSAs arrived (real OSPF's first-learned
    tie-breaking is history-dependent; a deterministic rule is what the
    restoration proofs need).
    """
    csr = shared_csr(graph)
    dist, pred, _ = dijkstra_csr_canonical(csr.unmasked, csr.index[root])
    return dicts_from_arrays(csr, dist, pred)


class SpfRouter:
    """One router's routing process: LSDB + lazily recomputed SPF tree."""

    __slots__ = ("name", "lsdb", "_dist", "_pred", "_dirty")

    def __init__(self, name: Node, lsdb: LinkStateDatabase) -> None:
        self.name = name
        self.lsdb = lsdb
        self._dist: dict[Node, float] = {}
        self._pred: dict[Node, Node] = {}
        self._dirty = True

    def receive(self, ad: LinkStateAd) -> bool:
        """Apply an advertisement; marks SPF dirty if the LSDB changed."""
        changed = self.lsdb.apply(ad)
        if changed:
            self._dirty = True
        return changed

    def _recompute(self) -> None:
        graph = self.lsdb.to_graph()
        if graph.has_node(self.name):
            self._dist, self._pred = _spf_run(graph, self.name)
        else:
            self._dist, self._pred = {self.name: 0.0}, {}
        self._dirty = False

    def distance_to(self, target: Node) -> float:
        """Believed shortest distance to *target* (NoPath if unreachable)."""
        if self._dirty:
            self._recompute()
        if target not in self._dist:
            raise NoPath(f"{self.name!r} believes {target!r} unreachable")
        return self._dist[target]

    def route_to(self, target: Node) -> Path:
        """Believed shortest path to *target*."""
        if self._dirty:
            self._recompute()
        if target not in self._dist:
            raise NoPath(f"{self.name!r} believes {target!r} unreachable")
        return reconstruct_path(self._pred, self.name, target)

    def next_hop_to(self, target: Node) -> Optional[Node]:
        """First hop of the believed route (None when target is self)."""
        route = self.route_to(target)
        return route.nodes[1] if route.hops else None

    def believes_up(self, u: Node, v: Node) -> bool:
        """True if this router's LSDB has the link up."""
        return self.lsdb.is_up(u, v)


def spf_tree(graph: Graph, root: Node) -> dict[Node, Path]:
    """Convenience: full shortest-path tree of *graph* from *root* as paths."""
    dist, pred = _spf_run(graph, root)
    return {t: reconstruct_path(pred, root, t) for t in dist}
