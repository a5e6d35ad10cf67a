"""O(1) sub-path membership probes and the index-chain min-pieces DP.

The decomposition algorithms (`greedy_decompose`, `min_pieces_decompose`,
`min_base_paths_decompose`) are built on one primitive: "is the sub-path
of the restoration path between node positions *j* and *i* a base
path?".  The straightforward implementation allocates a
:class:`~repro.graph.paths.Path` per probe and re-walks its edges to sum
its cost — O(L) work per probe, repeated O(L²) times by the dynamic
programs.

For the implicit shortest-path base sets (those with an ``oracle``) the
membership test is "does the sub-path's cost (on the oracle's graph —
padded for the Theorem 3 unique-choice set) equal the shortest distance
between its endpoints?".  Both sides live in the oracle's index space:
the path maps once onto its CSR index *chain* (:func:`_index_chain`),
``cum[t]`` is the cost of the chain's first ``t`` hops, so a sub-path
costs ``cum[i] - cum[j]``, and the distance is entry ``chain[i]`` of
``chain[j]``'s row in the oracle's row table
(:class:`~repro.kernels.OracleRows`), warmed toward the chain's later
nodes.  Two entry points use them:

* :func:`min_pieces_choice` — Table 2's configuration (an implicit
  set admitting every edge), the fast path of
  :func:`~repro.core.decomposition.min_pieces_decompose` that every
  ``ConcatenationPolicy.evaluate_case`` takes.  One call to the kernel
  backend's ``decompose_flat`` sums ``cum`` from the CSR's weight
  arrays (a hop that is not an edge there sends the caller to the
  probe loop), reads the rows of chain positions ``0 .. L-3`` in place
  by node index, has the oracle warm, in ascending order, only the
  positions whose row is missing or not final at a later chain node,
  and runs the whole O(L²) DP.
* :func:`subpath_probe` — the per-probe form the greedy, the
  base-path-budget and the edge-restricted min-pieces decompositions
  drive: a :class:`ChainProbe` when the oracle's CSR holds the whole
  path (two list indexings and one float-tolerant comparison per
  probe, each position's row warmed through the table's entry on its
  first probe), else the allocating :class:`SubpathProbe`.

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

from ..graph.csr import INF
from ..graph.graph import Node
from ..graph.paths import Path
from ..graph.shortest_paths import costs_equal
from ..kernels import kernel_backend
from ..perf import COUNTERS


class SubpathProbe:
    """Fallback probe: allocate the sub-path and ask the base set.

    Correct for *any* base set (explicit sets, invalid walks, graphs the
    oracle does not cover) — :func:`subpath_probe` falls back to this
    whenever the chain probe's preconditions do not hold.  Probes are
    counted in ``COUNTERS.path_probes``.
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


class ChainProbe(SubpathProbe):
    """O(1) probe over the path's index chain in the oracle's CSR.

    Built by :func:`subpath_probe` only when every hop of the path is an
    edge of the oracle's CSR, so every contiguous sub-path is valid too
    and the validity clause of ``is_base_path`` is discharged once up
    front.  *cum* is :meth:`CsrGraph.prefix_costs
    <repro.graph.csr.CsrGraph.prefix_costs>` of *chain*.

    Position *j*'s row is warmed on its first probe, through the same
    ``table.warm(chain, (j,))`` entry ``decompose_flat`` uses, and read
    in place from the row table after: the greedy decomposition touches
    only the positions its search visits, while the dynamic programs
    end up warming every position exactly once.
    """

    __slots__ = ("_chain", "_cum", "_table", "_rows", "_include_edges")

    def __init__(self, path: Path, base_set, table, chain: list[int], cum: list[float]) -> None:
        super().__init__(path, base_set)
        self._chain = chain
        self._cum = cum
        self._table = table
        self._rows: list = [None] * len(chain)
        self._include_edges = base_set.include_all_edges

    def _row(self, j: int):
        row = self._rows[j]
        if row is None:
            table = self._table
            table.warm(self._chain, (j,))
            row = self._rows[j] = table.rows[self._chain[j]]
        return row

    def is_base(self, j: int, i: int) -> bool:
        """True if ``path.subpath(j, i)`` is a base path — pure arithmetic."""
        COUNTERS.probe_calls += 1
        COUNTERS.o1_probes += 1
        if i <= j:
            return False
        if self._include_edges and i - j == 1:
            return True
        d = self._row(j)[self._chain[i]]
        return d != INF and costs_equal(self._cum[i] - self._cum[j], d)

    def piece(self, j: int, i: int, allow_edges: bool) -> tuple[bool, bool]:
        """``(admissible, is_base)`` — single-edge pieces of a valid path
        always exist in the graph, so no ``has_edge`` lookup is needed."""
        if self.is_base(j, i):
            return True, True
        if allow_edges and i - j == 1:
            return True, False
        return False, False


def _index_chain(oracle, nodes: Sequence[Node]):
    """``(table, csr, chain)``: *oracle*'s row table and CSR, and
    *nodes* as indices of that CSR; ``None`` when a node is not in it."""
    table = oracle.row_table()
    csr = oracle.csr()
    index = csr.index
    try:
        return table, csr, [index[node] for node in nodes]
    except KeyError:
        return None


def subpath_probe(base_set, path: Path) -> SubpathProbe:
    """A sub-path membership prober for *path* over *base_set*.

    A :class:`ChainProbe` when *base_set* has an ``oracle`` whose CSR
    holds every node and hop of *path*; otherwise a
    :class:`SubpathProbe`, whose probes materialize the sub-path and
    call ``is_base_path``.
    """
    oracle = base_set.oracle
    if oracle is not None:
        mapped = _index_chain(oracle, path.nodes)
        if mapped is not None:
            table, csr, chain = mapped
            cum = csr.prefix_costs(chain)
            if cum is not None:
                return ChainProbe(path, base_set, table, chain, cum)
    return SubpathProbe(path, base_set)


def min_pieces_choice(base_set, nodes: Sequence[Node]) -> Optional[list[int]]:
    """The min-pieces DP's ``choice`` column for the path through *nodes*.

    ``choice[i]`` is where the last piece covering ``nodes[0 .. i]``
    starts.  Runs when *base_set* is an implicit shortest-path set that
    admits every edge: every one-hop piece is then a base path, so
    every prefix is reachable and the DP reads the oracle row of every
    position ``j <= L - 3``.  The path's nodes are mapped to the
    oracle's CSR indices once (:func:`_index_chain`), and one
    ``decompose_flat`` call does the rest over the oracle's row table
    (:meth:`LazyDistanceOracle.row_table
    <repro.graph.all_pairs.LazyDistanceOracle.row_table>`): it sums the
    hop weights, warms the positions whose row is missing or not final
    at a later chain node in ascending order (the rows other positions
    hold already are what a warm would return), and runs the DP on the
    rows as they stand.  The ``oracle_*`` counters therefore move
    exactly as under the probe loop, and ``probe_calls`` /
    ``o1_probes`` grow by the same L(L−1)/2.

    Returns ``None`` for a base set without an ``oracle`` or one that
    does not admit every edge, and when a node or hop of the path is
    not in the oracle's CSR; the caller then falls back to the probe
    loop.
    """
    oracle = base_set.oracle
    if oracle is None or not base_set.include_all_edges:
        return None
    mapped = _index_chain(oracle, nodes)
    if mapped is None:
        return None
    table, csr, chain = mapped
    result = kernel_backend().decompose_flat(csr, chain, table)
    if result is None:
        return None
    _best, choice, probes = result
    COUNTERS.probe_calls += probes
    COUNTERS.o1_probes += probes
    return choice
