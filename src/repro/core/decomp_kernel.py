"""O(1) sub-path membership probes and the index-chain min-pieces DP.

The decomposition algorithms (`greedy_decompose`, `min_pieces_decompose`,
`min_base_paths_decompose`) are built on one primitive: "is the sub-path
of the restoration path between node positions *j* and *i* a base
path?".  The straightforward implementation allocates a
:class:`~repro.graph.paths.Path` per probe and re-walks its edges to sum
its cost — O(L) work per probe, repeated O(L²) times by the dynamic
programs.

For the implicit shortest-path base sets the membership test is "does
the sub-path's cost (in the probe graph — padded for the Theorem 3
unique-choice set) equal the shortest distance between its
endpoints?".  Both sides are precomputed: ``cum[t]``, the probe-graph
cost of the path's first ``t`` hops, so a sub-path costs ``cum[i] -
cum[j]``; and one target-pruned row of the base set's shared
:class:`~repro.graph.all_pairs.LazyDistanceOracle` per probed source
position.  Two entry points use them:

* :func:`min_pieces_choice` — Table 2's configuration (an implicit
  set, one with an ``oracle``, admitting every edge), the fast path of
  :func:`~repro.core.decomposition.min_pieces_decompose` that every
  ``ConcatenationPolicy.evaluate_case`` takes.  It maps the path
  onto the oracle's CSR index chain, sums ``cum`` from that CSR's
  weight array (the same arrays the per-link ILM kernel reads; a hop
  that is not a probe-graph edge sends the caller to the
  :class:`SubpathProbe` fallback), warms the rows of chain positions
  ``0 .. L-3`` in ascending order, and hands the whole O(L²) DP to the
  kernel backend's ``decompose_flat``, which reads those rows in place.
* :class:`PrefixSumProbe` — the per-probe form the greedy, the
  base-path-budget and the edge-restricted min-pieces decompositions
  drive: two list indexings, a dict lookup and one float-tolerant
  comparison per probe.

Float caveat (see ``docs/performance.md``): ``cum[i] - cum[j]``
accumulates rounding differently than the direct left-to-right summation
in ``Path.cost``.  The discrepancy is bounded by a few ulps of the total
path cost (~1e-13 relative), six orders of magnitude below the 1e-9
relative tolerance of :func:`~repro.graph.shortest_paths.costs_equal`,
so both formulations land on the same side of every comparison the
pipeline makes; the equivalence tests pin this down.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..graph.graph import Node
from ..graph.paths import Path
from ..graph.shortest_paths import costs_equal
from ..kernels import kernel_backend
from ..perf import COUNTERS


class SubpathProbe:
    """Fallback probe: allocate the sub-path and ask the base set.

    Correct for *any* base set (explicit sets, invalid walks, graphs the
    oracle does not cover) — the O(1) kernel falls back to this whenever
    its preconditions do not hold.  Probes are counted in
    ``COUNTERS.path_probes``.
    """

    __slots__ = ("path", "base_set")

    def __init__(self, path: Path, base_set) -> None:
        self.path = path
        self.base_set = base_set

    def is_base(self, j: int, i: int) -> bool:
        """True if ``path.subpath(j, i)`` is a base path."""
        COUNTERS.probe_calls += 1
        COUNTERS.path_probes += 1
        if i <= j:
            return False
        return self.base_set.is_base_path(self.path.subpath(j, i))

    def piece(self, j: int, i: int, allow_edges: bool) -> tuple[bool, bool]:
        """``(admissible, is_base)`` for the candidate piece ``subpath(j, i)``."""
        if self.is_base(j, i):
            return True, True
        if (
            allow_edges
            and i - j == 1
            and self.base_set.graph.has_edge(self.path.nodes[j], self.path.nodes[i])
        ):
            return True, False
        return False, False


class PrefixSumProbe(SubpathProbe):
    """O(1) probe for implicit shortest-path base sets.

    Preconditions (enforced by ``BaseSet.subpath_probe``, which builds
    this prober for base sets with an oracle):

    * the restoration path is valid in the base set's graph — then every
      contiguous sub-path is valid too, so the validity clause of
      ``is_base_path`` is discharged once up front;
    * *probe_graph* carries the weights membership is defined on (the
      padded graph for :class:`UniqueShortestPathsBase`, the original
      for :class:`AllShortestPathsBase`) and *oracle* its distances.

    Distance rows are pulled lazily, one target-pruned oracle request
    per probed source position; the greedy decomposition touches only
    the positions its binary search visits, while the dynamic programs
    end up warming every position exactly once.
    """

    __slots__ = ("_nodes", "_cum", "_oracle", "_rows", "_include_edges")

    def __init__(self, path: Path, base_set, probe_graph, oracle, include_all_edges: bool) -> None:
        super().__init__(path, base_set)
        self._nodes = path.nodes
        cum = [0.0]
        total = 0.0
        for u, v in path.edges():
            total += probe_graph.weight(u, v)
            cum.append(total)
        self._cum = cum
        self._oracle = oracle
        self._rows: dict[int, dict] = {}
        self._include_edges = include_all_edges

    def _row(self, j: int) -> dict:
        row = self._rows.get(j)
        if row is None:
            row = self._oracle.distances_from(self._nodes[j], self._nodes[j + 1 :])
            self._rows[j] = row
        return row

    def is_base(self, j: int, i: int) -> bool:
        """True if ``path.subpath(j, i)`` is a base path — pure arithmetic."""
        COUNTERS.probe_calls += 1
        COUNTERS.o1_probes += 1
        if i <= j:
            return False
        if self._include_edges and i - j == 1:
            return True
        d = self._row(j).get(self._nodes[i])
        if d is None:
            return False
        return costs_equal(self._cum[i] - self._cum[j], d)

    def piece(self, j: int, i: int, allow_edges: bool) -> tuple[bool, bool]:
        """``(admissible, is_base)`` — single-edge pieces of a valid path
        always exist in the graph, so no ``has_edge`` lookup is needed."""
        if self.is_base(j, i):
            return True, True
        if allow_edges and i - j == 1:
            return True, False
        return False, False


def min_pieces_choice(base_set, nodes: Sequence[Node]) -> Optional[list[int]]:
    """The min-pieces DP's ``choice`` column for the path through *nodes*.

    ``choice[i]`` is where the last piece covering ``nodes[0 .. i]``
    starts.  Runs when *base_set* is an implicit shortest-path set that
    admits every edge: every one-hop piece is then a base path, so
    every prefix is reachable and the DP reads the oracle row of every
    position ``j <= L - 3``.  Rows are warmed in ascending ``j`` and
    read as they stand, so the ``oracle_*`` counters move exactly as
    under the probe loop, and ``probe_calls`` / ``o1_probes`` grow by
    the same L(L−1)/2.

    Returns ``None`` for a base set without an ``oracle`` or one that
    does not admit every edge, and when a node or hop of the path is
    not in the oracle's CSR; the caller then falls back to the probe
    loop.
    """
    oracle = base_set.oracle
    if oracle is None or not base_set.include_all_edges:
        return None
    csr = oracle.csr()
    index = csr.index
    try:
        chain = [index[node] for node in nodes]
    except KeyError:
        return None
    cum = csr.prefix_costs(chain)
    if cum is None:
        return None
    warm = oracle.warm
    rows = [warm(nodes[j], nodes[j + 1 :]) for j in range(len(nodes) - 2)]
    _best, choice, probes = kernel_backend().decompose_flat(chain, cum, rows)
    COUNTERS.probe_calls += probes
    COUNTERS.o1_probes += probes
    return choice
