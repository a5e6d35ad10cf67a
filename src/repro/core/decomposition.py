"""Decomposing a restoration path into base paths — the RBPC kernel.

Given the new shortest path ``SP'_st`` computed after failures, the
restoration scheme must express it as a concatenation of surviving base
paths (Section 4.1).  Three algorithms are provided:

* :func:`greedy_decompose` — the paper's algorithm: repeatedly take the
  *largest* prefix of the remaining suffix that is a base path, found
  by binary search on prefix lengths.  Binary search is sound whenever
  base-path-ness is prefix-monotone along the path — true for
  all-shortest-path base sets, because a prefix of a shortest path is a
  shortest path; a linear probe is available for arbitrary sets.
* :func:`min_pieces_decompose` — dynamic program computing the
  *smallest* number of pieces (what Table 2's "PC length" reports:
  "determined the smallest number of basic LSP's whose concatenation
  is the backup path").
* :func:`concatenation_shortest_path` — the paper's fallback when a
  sparse base set cannot cover the chosen shortest path: run Dijkstra
  on the auxiliary graph "in which the surviving base paths are edges",
  minimizing true cost with piece count as tie-break.

Pieces that are single edges but not base paths are permitted when
*allow_edges* is set (the Theorem 2 / weighted situation) and are
reported separately.

The three decompositions of a given path ask their membership questions
through :mod:`repro.core.decomp_kernel`, which answers them for the
implicit base sets from the oracle's row table along the path's index
chain.  They record only where each piece starts and whether it is a
base path, and build their ``Path`` pieces once, through
:meth:`Decomposition.from_choice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..exceptions import DecompositionError, NoPath
from ..graph.graph import Node
from ..graph.heap import AddressableHeap
from ..graph.paths import Path, concat_all
from .base_paths import AllShortestPathsBase, BaseSet, ExplicitBaseSet
from .decomp_kernel import min_pieces_choice, subpath_probe


@dataclass(frozen=True)
class Decomposition:
    """A restoration path expressed as an ordered sequence of pieces.

    ``base_flags[i]`` tells whether ``pieces[i]`` is a base path
    (otherwise it is a bare edge admitted by *allow_edges* — the
    Theorem 2 "k edges").
    """

    pieces: tuple[Path, ...]
    base_flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.pieces) != len(self.base_flags):
            raise ValueError("pieces and base_flags must align")

    @classmethod
    def from_choice(
        cls,
        path: Path,
        choice: Sequence[int],
        base_at: Optional[Sequence[bool]] = None,
    ) -> "Decomposition":
        """The decomposition a ``choice`` column encodes: the last piece
        covering ``path[0 .. i]`` starts at ``choice[i]``, and
        ``base_at[i]`` tells whether it is a base path (every piece is
        when *base_at* is omitted).  Every decomposition DP records its
        cuts this way and builds its pieces here, once."""
        nodes = path.nodes
        pieces: list[Path] = []
        flags: list[bool] = []
        i = len(nodes) - 1
        while i > 0:
            j = choice[i]
            pieces.append(Path(nodes[j : i + 1]))
            flags.append(base_at is None or base_at[i])
            i = j
        pieces.reverse()
        flags.reverse()
        return cls(pieces=tuple(pieces), base_flags=tuple(flags))

    @property
    def num_pieces(self) -> int:
        """Total component count — the paper's "PC length"."""
        return len(self.pieces)

    @property
    def num_base_paths(self) -> int:
        """Pieces that are base paths (vs. bare edges)."""
        return sum(self.base_flags)

    @property
    def num_extra_edges(self) -> int:
        """Pieces that are bare edges, not base paths (Theorem 2's k edges)."""
        return len(self.pieces) - self.num_base_paths

    @property
    def path(self) -> Path:
        """The full restoration path (concatenation of the pieces)."""
        return concat_all(list(self.pieces))

    def cost(self, graph) -> float:
        """Total weight of the restoration path in *graph*."""
        return self.path.cost(graph)

    def __repr__(self) -> str:
        return (
            f"<Decomposition pieces={self.num_pieces} "
            f"base={self.num_base_paths} edges={self.num_extra_edges}>"
        )


def greedy_decompose(
    path: Path,
    base_set: BaseSet,
    allow_edges: bool = True,
    prefix_probe: Optional[str] = None,
) -> Decomposition:
    """The paper's greedy largest-prefix decomposition.

    *prefix_probe* is ``"binary"`` (default for
    :class:`AllShortestPathsBase`, where prefix membership is monotone)
    or ``"linear"`` (default otherwise — correct for any base set).
    Raises :class:`DecompositionError` if no progress can be made.

    Membership probes go through :func:`~repro.core.decomp_kernel.subpath_probe`
    (O(1) arithmetic over the oracle's index chain for the implicit
    shortest-path sets); the probe sequence, and therefore the result,
    is identical to the path-allocating reference's
    (``tests/decomp_oracles.py``).
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    if prefix_probe is None:
        prefix_probe = (
            "binary" if isinstance(base_set, AllShortestPathsBase) else "linear"
        )
    if prefix_probe not in ("binary", "linear"):
        raise ValueError(f"unknown prefix_probe {prefix_probe!r}")

    probe = subpath_probe(base_set, path)
    n = path.hops
    pos = 0
    choice = [0] * (n + 1)
    base_at = [True] * (n + 1)
    while pos < n:
        if prefix_probe == "binary":
            lo, hi = 0, n - pos
            # Invariant: subpath(pos, pos+lo) is base or lo == 0.
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if probe.is_base(pos, pos + mid):
                    lo = mid
                else:
                    hi = mid - 1
            length = lo
        else:
            length = 0
            for cand in range(1, n - pos + 1):
                if probe.is_base(pos, pos + cand):
                    length = cand
        if length < 1:
            admissible, base_at[pos + 1] = probe.piece(pos, pos + 1, allow_edges)
            if not admissible:
                raise DecompositionError(
                    f"no base path or admissible edge covers "
                    f"{path.subpath(pos, pos + 1)!r}"
                )
            length = 1
        choice[pos + length] = pos
        pos += length
    return Decomposition.from_choice(path, choice, base_at)


def min_pieces_decompose(
    path: Path,
    base_set: BaseSet,
    allow_edges: bool = True,
) -> Decomposition:
    """Optimal decomposition: the fewest pieces covering *path* exactly.

    Dynamic program over node positions; among decompositions with the
    same piece count, the one with fewer bare edges wins.  This is the
    quantity Table 2's "avg. PC length" averages.

    When the base set is an implicit shortest-path set admitting every
    edge (Table 2's configuration), every piece is a base path and the
    whole DP runs in the kernel backend's ``decompose_flat`` over the
    path's CSR index chain (:func:`~repro.core.decomp_kernel.min_pieces_choice`).
    Otherwise — or when the path leaves the oracle's graph — the O(L²)
    loop runs on :func:`~repro.core.decomp_kernel.subpath_probe`, O(1)
    arithmetic per probe for the implicit sets.  Results equal the
    path-allocating reference DP's piece for piece either way
    (``tests/decomp_oracles.py``).
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    choice = min_pieces_choice(base_set, path.nodes)
    if choice is not None:
        return Decomposition.from_choice(path, choice)
    probe = subpath_probe(base_set, path)
    n = len(path.nodes)
    INF = (n + 1, n + 1)
    # best[i] = (pieces, extra_edges) to cover path[0..i]; the last piece
    # runs from choice[i] to i and is a base path iff base_at[i].
    best: list[tuple[int, int]] = [INF] * n
    choice = [0] * n
    base_at = [False] * n
    best[0] = (0, 0)
    for i in range(1, n):
        for j in range(i):
            if best[j] == INF:
                continue
            admissible, is_base = probe.piece(j, i, allow_edges)
            if not admissible:
                continue
            candidate = (best[j][0] + 1, best[j][1] + (0 if is_base else 1))
            if candidate < best[i]:
                best[i] = candidate
                choice[i] = j
                base_at[i] = is_base
    if best[n - 1] == INF:
        raise DecompositionError(f"{path!r} cannot be covered by the base set")
    return Decomposition.from_choice(path, choice, base_at)


def min_base_paths_decompose(
    path: Path,
    base_set: BaseSet,
    max_edges: int,
) -> Decomposition:
    """Fewest *base paths* covering *path*, using at most *max_edges* bare edges.

    This is the quantity Theorem 3 bounds: after ``k`` failures there
    is a covering with at most ``k + 1`` base paths interleaved with at
    most ``k`` edges — which :func:`min_pieces_decompose` may miss,
    since a piece-minimal covering can trade an allowed edge for an
    extra base path.  DP state: (position, edges used so far).
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    if max_edges < 0:
        raise ValueError("max_edges must be >= 0")
    probe = subpath_probe(base_set, path)
    nodes = path.nodes
    n = len(nodes)
    INF = n + 1
    # best[i][e] = min base pieces covering path[0..i] with e bare edges.
    best = [[INF] * (max_edges + 1) for _ in range(n)]
    choice: list[list[Optional[tuple[int, int, bool]]]] = [
        [None] * (max_edges + 1) for _ in range(n)
    ]
    best[0][0] = 0
    for i in range(1, n):
        for j in range(i):
            is_base = probe.is_base(j, i)
            is_edge = i - j == 1 and base_set.graph.has_edge(nodes[j], nodes[i])
            if not is_base and not is_edge:
                continue
            for e in range(max_edges + 1):
                if best[j][e] >= INF:
                    continue
                if is_base and best[j][e] + 1 < best[i][e]:
                    best[i][e] = best[j][e] + 1
                    choice[i][e] = (j, e, True)
                if is_edge and e < max_edges and best[j][e] < best[i][e + 1]:
                    best[i][e + 1] = best[j][e]
                    choice[i][e + 1] = (j, e, False)
    final_e = min(
        range(max_edges + 1), key=lambda e: (best[n - 1][e], e), default=0
    )
    if best[n - 1][final_e] >= INF:
        raise DecompositionError(
            f"{path!r} cannot be covered with <= {max_edges} bare edges"
        )
    # Backtrack the (position, edges) table into one choice column.
    column = [0] * n
    base_at = [False] * n
    i, e = n - 1, final_e
    while i > 0:
        j, e, base_at[i] = choice[i][e]  # type: ignore[misc]
        column[i] = j
        i = j
    return Decomposition.from_choice(path, column, base_at)


def concatenation_shortest_path(
    surviving_view,
    base_set: ExplicitBaseSet,
    source: Node,
    target: Node,
    allow_edges: bool = True,
) -> Decomposition:
    """Min-cost restoration route over the *surviving-base-paths graph*.

    Used when the base set is sparse (one path per pair, Theorem 3) so
    a given shortest path of ``G'`` may not decompose at all: instead,
    search the auxiliary graph whose arcs are surviving base paths
    (plus surviving raw edges when *allow_edges*), minimizing
    ``(true cost, piece count)`` lexicographically.

    Requires an enumerable (:class:`ExplicitBaseSet`) base set.
    Raises :class:`~repro.exceptions.NoPath` when no concatenation
    connects the endpoints.
    """
    # Index surviving base paths by their source.
    by_source: dict[Node, list[Path]] = {}
    for path in base_set.iter_all_paths():
        if path.is_valid_in(surviving_view):
            by_source.setdefault(path.source, []).append(path)

    graph = base_set.graph
    dist: dict[Node, tuple[float, int]] = {}
    via: dict[Node, tuple[Node, Path, bool]] = {}
    heap: AddressableHeap[Node] = AddressableHeap()
    heap.push(source, (0.0, 0))
    while heap:
        u, priority = heap.pop()
        if u in dist:
            continue
        dist[u] = priority  # type: ignore[assignment]
        if u == target:
            break
        cost_u, pieces_u = priority  # type: ignore[misc]
        explicit = by_source.get(u, [])
        moves: list[tuple[Path, bool]] = [(p, True) for p in explicit]
        already = {p for p in explicit if p.hops == 1}
        if surviving_view.has_node(u):
            for v, _ in surviving_view.adjacency(u):
                edge_path = Path([u, v])
                if edge_path in already:
                    continue
                is_base = base_set.is_base_path(edge_path)
                if is_base or allow_edges:
                    moves.append((edge_path, is_base))
        for move, is_base in moves:
            v = move.target
            if v in dist:
                continue
            candidate = (cost_u + move.cost(graph), pieces_u + 1)
            if heap.push_or_decrease(v, candidate):
                via[v] = (u, move, is_base)
    if target not in dist:
        raise NoPath(
            f"no concatenation of surviving base paths joins {source!r} to {target!r}"
        )
    pieces: list[Path] = []
    flags: list[bool] = []
    node = target
    while node != source:
        prev, move, is_base = via[node]
        pieces.append(move)
        flags.append(is_base)
        node = prev
    pieces.reverse()
    flags.reverse()
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))
