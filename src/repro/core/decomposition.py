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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import DecompositionError, NoPath
from ..graph.graph import Node
from ..graph.heap import AddressableHeap
from ..graph.paths import Path, concat_all
from .base_paths import AllShortestPathsBase, BaseSet, ExplicitBaseSet
from .decomp_kernel import PrefixSumProbe


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


def _is_piece(sub: Path, base_set: BaseSet, allow_edges: bool) -> tuple[bool, bool]:
    """``(admissible, is_base)`` for a candidate piece."""
    if base_set.is_base_path(sub):
        return True, True
    if allow_edges and sub.hops == 1 and base_set.graph.has_edge(*sub.nodes):
        return True, False
    return False, False


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

    Membership probes go through the base set's sub-path prober (O(1)
    prefix-sum arithmetic for the implicit shortest-path sets — see
    ``repro.core.decomp_kernel``); the probe sequence, and therefore the
    result, is identical to :func:`greedy_decompose_reference`.
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    if prefix_probe is None:
        prefix_probe = (
            "binary" if isinstance(base_set, AllShortestPathsBase) else "linear"
        )
    if prefix_probe not in ("binary", "linear"):
        raise ValueError(f"unknown prefix_probe {prefix_probe!r}")

    probe = base_set.subpath_probe(path)
    n = path.hops
    pos = 0
    pieces: list[Path] = []
    flags: list[bool] = []
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
        if length >= 1:
            pieces.append(path.subpath(pos, pos + length))
            flags.append(True)
            pos += length
        else:
            admissible, is_base = probe.piece(pos, pos + 1, allow_edges)
            if not admissible:
                raise DecompositionError(
                    f"no base path or admissible edge covers "
                    f"{path.subpath(pos, pos + 1)!r}"
                )
            pieces.append(path.subpath(pos, pos + 1))
            flags.append(is_base)
            pos += 1
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))


def greedy_decompose_reference(
    path: Path,
    base_set: BaseSet,
    allow_edges: bool = True,
    prefix_probe: Optional[str] = None,
) -> Decomposition:
    """Pre-kernel implementation of :func:`greedy_decompose`.

    Allocates a :class:`Path` per membership probe.  Kept as the
    specification the equivalence tests check the kernel against.
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    if prefix_probe is None:
        prefix_probe = (
            "binary" if isinstance(base_set, AllShortestPathsBase) else "linear"
        )
    if prefix_probe not in ("binary", "linear"):
        raise ValueError(f"unknown prefix_probe {prefix_probe!r}")

    pieces: list[Path] = []
    flags: list[bool] = []
    remaining = path
    while not remaining.is_trivial:
        length = _largest_base_prefix(remaining, base_set, probe=prefix_probe)
        if length >= 1:
            piece = remaining.prefix(length)
            pieces.append(piece)
            flags.append(True)
        else:
            piece = remaining.prefix(1)
            admissible, is_base = _is_piece(piece, base_set, allow_edges)
            if not admissible:
                raise DecompositionError(
                    f"no base path or admissible edge covers {piece!r}"
                )
            pieces.append(piece)
            flags.append(is_base)
        remaining = remaining.suffix_from(piece.hops)
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))


def _largest_base_prefix(path: Path, base_set: BaseSet, probe: str) -> int:
    """Largest ``L`` such that ``path.prefix(L)`` is a base path (0 if none)."""
    if probe == "binary":
        lo, hi = 0, path.hops
        # Invariant: prefix(lo) is a base path or lo == 0; prefix(> hi) unknown.
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if base_set.is_base_path(path.prefix(mid)):
                lo = mid
            else:
                hi = mid - 1
        return lo
    best = 0
    for length in range(1, path.hops + 1):
        if base_set.is_base_path(path.prefix(length)):
            best = length
    return best


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
    warmed oracle rows (:meth:`PrefixSumProbe.min_pieces_choice`).
    Otherwise the O(L²) loop runs on the base set's sub-path prober —
    O(1) arithmetic per probe for the implicit sets.  Results are
    identical to :func:`min_pieces_decompose_reference` either way.
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    probe = base_set.subpath_probe(path)
    if isinstance(probe, PrefixSumProbe) and probe.admits_every_edge:
        choice = probe.min_pieces_choice()
        pieces: list[Path] = []
        i = len(path.nodes) - 1
        while i > 0:
            j = choice[i]
            pieces.append(path.subpath(j, i))
            i = j
        pieces.reverse()
        return Decomposition(
            pieces=tuple(pieces), base_flags=(True,) * len(pieces)
        )
    n = len(path.nodes)
    INF = (n + 1, n + 1)
    # best[i] = (pieces, extra_edges) to cover path[0..i]; choice[i] = (j, is_base)
    best: list[tuple[int, int]] = [INF] * n
    choice: list[Optional[tuple[int, bool]]] = [None] * n
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
                choice[i] = (j, is_base)
    if best[n - 1] == INF:
        raise DecompositionError(f"{path!r} cannot be covered by the base set")
    pieces: list[Path] = []
    flags: list[bool] = []
    i = n - 1
    while i > 0:
        j, is_base = choice[i]  # type: ignore[misc]
        pieces.append(path.subpath(j, i))
        flags.append(is_base)
        i = j
    pieces.reverse()
    flags.reverse()
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))


def min_pieces_decompose_reference(
    path: Path,
    base_set: BaseSet,
    allow_edges: bool = True,
) -> Decomposition:
    """Pre-kernel implementation of :func:`min_pieces_decompose`.

    Allocates a :class:`Path` per DP probe.  Kept as the specification
    the equivalence tests check the kernel against.
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    n = len(path.nodes)
    INF = (n + 1, n + 1)
    best: list[tuple[int, int]] = [INF] * n
    choice: list[Optional[tuple[int, bool]]] = [None] * n
    best[0] = (0, 0)
    for i in range(1, n):
        for j in range(i):
            if best[j] == INF:
                continue
            sub = path.subpath(j, i)
            admissible, is_base = _is_piece(sub, base_set, allow_edges)
            if not admissible:
                continue
            candidate = (best[j][0] + 1, best[j][1] + (0 if is_base else 1))
            if candidate < best[i]:
                best[i] = candidate
                choice[i] = (j, is_base)
    if best[n - 1] == INF:
        raise DecompositionError(f"{path!r} cannot be covered by the base set")
    pieces: list[Path] = []
    flags: list[bool] = []
    i = n - 1
    while i > 0:
        j, is_base = choice[i]  # type: ignore[misc]
        pieces.append(path.subpath(j, i))
        flags.append(is_base)
        i = j
    pieces.reverse()
    flags.reverse()
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))


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
    probe = base_set.subpath_probe(path)
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
    pieces: list[Path] = []
    flags: list[bool] = []
    i, e = n - 1, final_e
    while i > 0:
        j, prev_e, is_base = choice[i][e]  # type: ignore[misc]
        pieces.append(path.subpath(j, i))
        flags.append(is_base)
        i, e = j, prev_e
    pieces.reverse()
    flags.reverse()
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))


def min_base_paths_decompose_reference(
    path: Path,
    base_set: BaseSet,
    max_edges: int,
) -> Decomposition:
    """Pre-kernel implementation of :func:`min_base_paths_decompose`.

    Allocates a :class:`Path` per DP probe.  Kept as the specification
    the equivalence tests check the kernel against.
    """
    if path.is_trivial:
        return Decomposition(pieces=(), base_flags=())
    if max_edges < 0:
        raise ValueError("max_edges must be >= 0")
    n = len(path.nodes)
    INF = n + 1
    best = [[INF] * (max_edges + 1) for _ in range(n)]
    choice: list[list[Optional[tuple[int, int, bool]]]] = [
        [None] * (max_edges + 1) for _ in range(n)
    ]
    best[0][0] = 0
    for i in range(1, n):
        for j in range(i):
            sub = path.subpath(j, i)
            is_base = base_set.is_base_path(sub)
            is_edge = sub.hops == 1 and base_set.graph.has_edge(*sub.nodes)
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
    pieces: list[Path] = []
    flags: list[bool] = []
    i, e = n - 1, final_e
    while i > 0:
        j, prev_e, is_base = choice[i][e]  # type: ignore[misc]
        pieces.append(path.subpath(j, i))
        flags.append(is_base)
        i, e = j, prev_e
    pieces.reverse()
    flags.reverse()
    return Decomposition(pieces=tuple(pieces), base_flags=tuple(flags))


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
