"""Path-allocating decomposition oracles (test-only).

The pre-kernel implementations of :func:`~repro.core.decomposition.greedy_decompose`,
:func:`~repro.core.decomposition.min_pieces_decompose` and
:func:`~repro.core.decomposition.min_base_paths_decompose`.  Each
membership probe allocates the candidate sub-path and asks the base set
(``is_base_path`` walks it), so they share no code with the O(1) probes
and the kernel DP; the equivalence suites hold the library's
decompositions to them piece for piece.  :func:`decompose_flat_reference`
is the kernel DP itself over handed-in prefix sums and rows, the
reference the tree DP and the numpy oracle are held to.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.base_paths import AllShortestPathsBase, BaseSet
from repro.core.decomposition import Decomposition
from repro.exceptions import DecompositionError
from repro.graph.paths import Path
from repro.graph.shortest_paths import costs_equal

INF = float("inf")


def _is_piece(sub: Path, base_set: BaseSet, allow_edges: bool) -> tuple[bool, bool]:
    """``(admissible, is_base)`` for a candidate piece."""
    if base_set.is_base_path(sub):
        return True, True
    if allow_edges and sub.hops == 1 and base_set.graph.has_edge(*sub.nodes):
        return True, False
    return False, False


def greedy_decompose_reference(
    path: Path,
    base_set: BaseSet,
    allow_edges: bool = True,
    prefix_probe: Optional[str] = None,
) -> Decomposition:
    """Greedy largest-prefix decomposition, one allocated prefix per probe."""
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


def min_pieces_decompose_reference(
    path: Path,
    base_set: BaseSet,
    allow_edges: bool = True,
) -> Decomposition:
    """Fewest-pieces DP, one allocated sub-path per probe."""
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


def min_base_paths_decompose_reference(
    path: Path,
    base_set: BaseSet,
    max_edges: int,
) -> Decomposition:
    """Fewest base paths with at most *max_edges* bare edges, one
    allocated sub-path per probe."""
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


def decompose_flat_reference(
    chain: Sequence[int],
    cum: Sequence[float],
    rows: Sequence,
) -> tuple[list[int], list[int], int]:
    """The min-pieces DP over prefix sums and already-warmed rows.

    *cum* holds the chain's prefix sums of probe-graph weights and
    ``rows[j]`` the distance row of ``chain[j]`` for every ``j <=
    len(chain) - 3``: the kernel DP with its inputs handed over, so the
    tree DP (``ilm_account``) and the numpy oracle are held to the same
    forward pass, first-minimal-``j`` ties included.  Returns ``(best,
    choice, probes)`` with ``best[i] == len(chain) + 1`` meaning unset.
    """
    n = len(chain)
    unset = n + 1
    best = [unset] * n
    choice = [0] * n
    if not n:
        return best, choice, 0
    best[0] = 0
    probes = 0
    for i in range(1, n):
        ci = chain[i]
        bi = unset
        cj = 0
        for j in range(i):
            if best[j] == unset:
                continue
            probes += 1
            if i - j > 1:
                d = rows[j][ci]
                if d == INF or not costs_equal(cum[i] - cum[j], d):
                    continue
            if best[j] + 1 < bi:
                bi = best[j] + 1
                cj = j
        best[i] = bi
        choice[i] = cj
    return best, choice, probes
