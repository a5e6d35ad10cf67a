"""Base path sets — the pre-provisioned LSPs that restoration concatenates.

The paper considers several flavors of base set:

* **All-pairs shortest paths** (the main experimental setting): every
  shortest path of the original graph is a base path, and — per
  Section 4.1 — every single edge is too ("in the rare cases where an
  edge (u, v) is not a shortest path between u and v, the basic set of
  paths must also contain the single edge path").  Represented
  *implicitly* by :class:`AllShortestPathsBase`: membership is a
  distance-oracle check, so it scales to the 40k-node Internet graph.
* **One path per pair** (Theorem 3): obtained by infinitesimal weight
  padding that makes shortest paths unique —
  :func:`unique_shortest_path_base`.
* **The Corollary 4 expansion**: the unique set plus every base path
  extended by one incident edge, which removes the need for the ``k``
  extra edges — :func:`expanded_base_set`.

Explicit sets are held in :class:`ExplicitBaseSet`;
:func:`provision_base_set` turns any base set into real LSPs in an
:class:`~repro.mpls.network.MplsNetwork`.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from ..exceptions import NoPath
from ..graph.all_pairs import LazyDistanceOracle
from ..graph.graph import Graph, Node
from ..graph.paths import Path
from ..graph.shortest_paths import costs_equal, dijkstra, reconstruct_path


class BaseSet:
    """Interface shared by all base-set representations.

    A base set answers three questions:

    * :meth:`is_base_path` — may this exact path be one pre-provisioned
      LSP? (the membership test the decomposition algorithms probe);
    * :meth:`path_for` — the canonical base path for a demand pair (the
      LSP packets ride before any failure);
    * :meth:`iter_canonical_paths` — one path per covered ordered pair,
      for provisioning and ILM accounting.

    The methods here answer them for the implicit shortest-path sets,
    from :attr:`oracle` alone; :class:`ExplicitBaseSet` overrides them.
    """

    graph: Graph
    include_all_edges: bool

    #: The implicit shortest-path sets' distance oracle, over the graph
    #: whose costs define membership: a valid path of two or more hops
    #: is basic iff its cost there equals the oracle's distance.
    #: ``None`` for every other set.  The oracle's rows are indexed by
    #: ``shared_csr(oracle.graph).nodes``, which matches
    #: ``shared_csr(graph).nodes`` (padding keeps the node insertion
    #: order), so array consumers such as the ILM accountant mix them
    #: with the graph's own.  The decomposition fast paths
    #: (``decomp_kernel``) key on it alone.
    oracle: Optional[LazyDistanceOracle] = None

    def is_base_path(self, path: Path) -> bool:
        """True if *path* may be one pre-provisioned base LSP."""
        if path.is_trivial or not path.is_valid_in(self.graph):
            return False
        if self.include_all_edges and path.hops == 1:
            return True
        try:
            best = self.oracle.distance(path.source, path.target)
        except NoPath:
            return False
        return costs_equal(path.cost(self.oracle.graph), best)

    def path_for(self, source: Node, target: Node) -> Path:
        """The canonical base path for the ordered pair (source, target)."""
        return self.oracle.path(source, target)

    def has_pair(self, source: Node, target: Node) -> bool:
        """True if this base set covers the ordered pair."""
        return source != target and self.oracle.has_path(source, target)

    def iter_canonical_paths(self) -> Iterator[Path]:
        """Yield one canonical base path per covered ordered pair —
        O(n^2) for the implicit sets, so small graphs only."""
        oracle = self.oracle
        for s in self.graph.nodes:
            for t in self.graph.nodes:
                if s != t and oracle.has_path(s, t):
                    yield oracle.path(s, t)


class AllShortestPathsBase(BaseSet):
    """Implicit base set: *every* shortest path (and every edge) is basic.

    Membership for a candidate path is "is it a valid path whose cost
    equals the shortest distance between its endpoints", answered from
    a lazy per-source Dijkstra cache — no enumeration ever happens, so
    the representation works unchanged on Internet-scale graphs.

    This is the setting of all Table 2/3 and Figure 10 experiments:
    "In each case the set of basic paths corresponds to all-pairs
    shortest paths".
    """

    def __init__(self, graph: Graph, include_all_edges: bool = True) -> None:
        self.graph = graph
        self.include_all_edges = include_all_edges
        self.oracle = LazyDistanceOracle(graph)


class UniqueShortestPathsBase(BaseSet):
    """Implicit Theorem-3 base set: one shortest path per pair, plus subpaths.

    This is the base set of the paper's experiments: "the set of basic
    paths corresponds to all-pairs shortest paths.  (One shortest path
    was chosen arbitrarily if several existed.)", closed under
    sub-paths as Section 4.1 requires, with every single edge also
    admitted.

    The choice is realized by infinitesimal weight padding (the
    Theorem 3 construction): on the :attr:`padded` graph shortest paths
    are unique, so "is this path the chosen one?" becomes "does its
    padded cost equal the padded distance?" — an O(path length) probe
    against a lazy distance oracle over the padded graph, with no
    enumeration.  Uniqueness also gives sub-path closure for free: any
    sub-path of the unique shortest path is the unique shortest path of
    its own endpoints.
    """

    def __init__(
        self, graph: Graph, seed: int = 1, include_all_edges: bool = True
    ) -> None:
        self.graph = graph
        self.include_all_edges = include_all_edges
        self.padded = padded_graph(graph, seed=seed)
        self.oracle = LazyDistanceOracle(self.padded)


class ExplicitBaseSet(BaseSet):
    """A materialized base set: an explicit collection of paths.

    Multiple paths per ordered pair are allowed; the first added for a
    pair is its canonical path.  Single-edge paths can be implicitly
    admitted via *include_all_edges* (RBPC needs every edge available
    as a last-resort piece, see Section 4.1).
    """

    def __init__(
        self,
        graph: Graph,
        paths: Iterable[Path] = (),
        include_all_edges: bool = False,
    ) -> None:
        self.graph = graph
        self.include_all_edges = include_all_edges
        # Insertion-ordered, not a set: ``iter_all_paths`` order must
        # not follow the string-hash seed (searches over the stored
        # paths break ties by it).
        self._paths: dict[Path, None] = {}
        self._canonical: dict[tuple[Node, Node], Path] = {}
        for path in paths:
            self.add(path)

    def add(self, path: Path) -> None:
        """Add *path* (must be valid in the graph and non-trivial)."""
        if path.is_trivial:
            raise ValueError("trivial paths cannot be base paths")
        if not path.is_valid_in(self.graph):
            raise ValueError(f"{path!r} is not a path of the graph")
        self._paths[path] = None
        self._canonical.setdefault((path.source, path.target), path)

    def is_base_path(self, path: Path) -> bool:
        """True if *path* may be one pre-provisioned base LSP."""
        if path in self._paths:
            return True
        return (
            self.include_all_edges
            and path.hops == 1
            and path.is_valid_in(self.graph)
        )

    def path_for(self, source: Node, target: Node) -> Path:
        """The canonical base path for the ordered pair (source, target)."""
        path = self._canonical.get((source, target))
        if path is None:
            if (
                self.include_all_edges
                and self.graph.has_edge(source, target)
            ):
                return Path([source, target])
            raise NoPath(f"no base path for pair ({source!r}, {target!r})")
        return path

    def has_pair(self, source: Node, target: Node) -> bool:
        """True if this base set covers the ordered pair."""
        if (source, target) in self._canonical:
            return True
        return self.include_all_edges and self.graph.has_edge(source, target)

    def iter_canonical_paths(self) -> Iterator[Path]:
        """Yield one canonical base path per covered ordered pair."""
        return iter(self._canonical.values())

    def iter_all_paths(self) -> Iterator[Path]:
        """Yield every stored path (all variants, not just canonical)."""
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: Path) -> bool:
        return self.is_base_path(path)

    def close_under_subpaths(self) -> None:
        """Add every contiguous sub-path of every stored path.

        Section 4.1 requires the basic set to contain "all subpaths" of
        each chosen shortest path, so any suffix/prefix the greedy
        decomposition needs is guaranteed to be provisioned.
        """
        for path in list(self._paths):
            for sub in path.all_subpaths(min_hops=1):
                if sub not in self._paths:
                    self.add(sub)


def padded_graph(graph: Graph, seed: int = 1, scale: float = 1e-5) -> Graph:
    """Infinitesimally pad edge weights to make shortest paths unique.

    Each edge gets an independent uniform pad in ``(0, scale * w_min)``,
    deterministic in *seed* — the construction behind Theorem 3.

    Safety condition: the total pad along any path (at most
    ``hops * scale * w_min``) must stay below the smallest true cost
    difference between distinct path costs, so padding only breaks
    ties and never flips a strict comparison.  The default suits
    graphs whose weights are small integers (all experiment
    topologies); pass a smaller *scale* for nearly-degenerate float
    weights.  The scale must also stay far above the float comparison
    tolerance so distinct padded costs compare as distinct.
    """
    weights = [w for _, _, w in graph.weighted_edges()]
    if not weights:
        return graph.copy()
    w_min = min(weights)
    rng = random.Random(seed)
    padded = type(graph)()  # Graph or DiGraph, preserved
    for u in graph.nodes:
        padded.add_node(u)
    for u, v, w in graph.weighted_edges():
        padded.add_edge(u, v, weight=w + rng.uniform(0.0, scale * w_min))
    return padded


def unique_shortest_path_base(
    graph: Graph,
    seed: int = 1,
    sources: Optional[list[Node]] = None,
    subpath_closed: bool = False,
) -> ExplicitBaseSet:
    """Theorem 3's base set: exactly one shortest path per (ordered) pair.

    Paths are computed on the padded graph (unique there) but stored
    against the original graph.  *sources* restricts which rows are
    materialized (sampling on large graphs).  With *subpath_closed*
    the set is closed under contiguous sub-paths, which also makes it
    suffix-closed as Section 4.1's Dijkstra-over-base-paths requires.
    """
    padded = padded_graph(graph, seed=seed)
    base = ExplicitBaseSet(graph, include_all_edges=True)
    for s in sources if sources is not None else graph.nodes:
        dist, pred = dijkstra(padded, s)
        for t in dist:
            if t == s:
                continue
            base.add(reconstruct_path(pred, s, t))
    if subpath_closed:
        base.close_under_subpaths()
    return base


def expanded_base_set(
    graph: Graph,
    seed: int = 1,
    sources: Optional[list[Node]] = None,
) -> ExplicitBaseSet:
    """Corollary 4's expanded base set.

    Start from the unique per-pair set; then for every edge ``(u, v)``
    append that edge to every base path terminating at ``u`` or ``v``
    (both directions — the undirected reading, size
    ``n(n-1)/2 + 2m(n-1)`` before dedup).  With this set, restoration
    after ``k`` failures needs at most ``k + 1`` base paths and *no*
    extra edges.
    """
    base = unique_shortest_path_base(graph, seed=seed, sources=sources)
    extensions: list[Path] = []
    for path in list(base.iter_canonical_paths()):
        tail = path.target
        for neighbor in graph.neighbors(tail):
            if neighbor != path.nodes[-2] and not path.uses_node(neighbor):
                extensions.append(path.concat(Path([tail, neighbor])))
        head = path.source
        for neighbor in graph.neighbors(head):
            if neighbor != path.nodes[1] and not path.uses_node(neighbor):
                extensions.append(Path([neighbor, head]).concat(path))
    for ext in extensions:
        base.add(ext)
    return base


def provision_base_set(
    network,
    base_set: BaseSet,
    pairs: Optional[list[tuple[Node, Node]]] = None,
    php: bool = False,
    include_edges: bool = False,
) -> dict[Path, int]:
    """Provision LSPs for a base set in an MPLS network.

    With *pairs* given, only those ordered pairs' canonical paths (and
    nothing else) are provisioned — what a bandwidth-conscious operator
    would do; otherwise every canonical path is.  With *include_edges*,
    every directed single-edge path gets an LSP too (Section 4.1: edges
    that are not shortest paths "must also" be in the basic set — they
    appear as decomposition pieces).  Returns the mapping
    ``path -> lsp_id`` used by the restoration schemes to translate a
    decomposition into a label stack.
    """
    lsp_ids: dict[Path, int] = {}
    if pairs is not None:
        paths = [base_set.path_for(s, t) for s, t in pairs if base_set.has_pair(s, t)]
    else:
        paths = list(base_set.iter_canonical_paths())
    if include_edges:
        for u, v in network.graph.edges():
            paths.append(Path([u, v]))
            paths.append(Path([v, u]))
    for path in paths:
        if path not in lsp_ids:
            lsp_ids[path] = network.provision_lsp(path, php=php).lsp_id
    return lsp_ids
