"""``ilm_account``: per-link ILM accounting of one (scenario, source) pair.

The entry walks every affected target's backup chain in a repaired
``pred`` row, adds it to the naive counts, and runs the min-pieces DP
once per node of the union of those chains.  Three things are pinned
here:

* the native backend equals the python reference bit for bit —
  pieces, counts, probes, naive counts and the rows it asks for — over
  the 13-family sweep of ``tests/test_kernels.py`` (tie-heavy unit
  graphs with BFS rows included) plus random tie-heavy weighted graphs,
  with rows passed as ``array`` and as read-only memoryviews, and with
  one :class:`~repro.kernels.OracleRows` reused across calls;
* each target's pieces are exactly those of the kernel DP over its
  chain (``decomp_oracles.decompose_flat_reference``), with the same
  probe count, and a multi-target call returns the
  union of those pieces (the tree DP is exact);
* malformed input raises ``ValueError`` before any count is written,
  and only full rows are read: a distance oracle's truncated row is
  promoted first.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.graph.all_pairs import LazyDistanceOracle
from repro.graph.csr import INF, as_view, shared_csr
from repro.graph.graph import Graph
from repro.kernels import OracleRows
from repro.kernels import python_backend as pyk
from repro.perf import COUNTERS

from .decomp_oracles import decompose_flat_reference
from .test_kernels import TOPOLOGY_FAMILIES, _alive_sources, _view_variants

try:  # importing builds the cached .so; no toolchain must skip
    from repro.kernels import native_backend as natk
except ImportError:
    natk = None

BACKENDS = pytest.mark.parametrize("name", ["python", "native"])


def _backend(name):
    if name == "python":
        return pyk
    if natk is None:
        pytest.skip("no C toolchain for the native backend")
    return natk


def _random_graph(n, m, weights, seed):
    """A connected random graph: a random spanning tree plus extra
    edges, every weight drawn from *weights* (few values: many ties)."""
    rng = random.Random(seed)
    graph = Graph()
    for v in range(1, n):
        graph.add_edge(rng.randrange(v), v, rng.choice(weights))
    while graph.number_of_edges() < m:
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice(weights))
    return graph


GRAPHS = [(name, factory) for name, factory in TOPOLOGY_FAMILIES] + [
    ("random-12", lambda: _random_graph(30, 60, (1.0, 2.0), seed=4)),
    ("random-123", lambda: _random_graph(45, 80, (1.0, 2.0, 3.0), seed=9)),
]
GRAPH_PARAMS = pytest.mark.parametrize(
    "factory", [f for _, f in GRAPHS], ids=[name for name, _ in GRAPHS]
)


def _read_only(buf):
    """A read-only memoryview of *buf*'s bytes in its own format."""
    return memoryview(buf.tobytes()).cast(buf.typecode)


class _Oracle:
    """Full canonical rows of the probe graph, with a fill log."""

    def __init__(self, csr, read_only=False):
        self.view = as_view(csr)
        self.read_only = read_only
        self.cache = {}
        self.requests = []

    def row(self, a):
        row = self.cache.get(a)
        if row is None:
            row = self.cache[a] = pyk.dijkstra_canonical(self.view, a)[0]
        return row

    def table(self):
        def fill(missing):
            self.requests.append(list(missing))
            for a in missing:
                row = self.row(a)
                table.store(
                    a, _read_only(row) if self.read_only else row, full=True
                )

        table = OracleRows(self.view.csr.n, fill=fill)
        return table


def _cases(graph, seed):
    """``(source, targets, dist, pred)`` over clean and failed views:
    repaired rows come from a search on the failed view (BFS on unit
    graphs), targets mix reached, unreached and the source itself."""
    csr = shared_csr(graph)
    unit = all(w == 1.0 for w in csr.weights)
    rng = random.Random(seed)
    for _label, view in _view_variants(graph):
        alive = _alive_sources(view)
        for source in rng.sample(alive, min(3, len(alive))):
            if unit:
                dist, pred = pyk.bfs(view, source)
            else:
                dist, pred, _ = pyk.dijkstra_canonical(view, source)
            targets = rng.sample(range(csr.n), min(csr.n, 14))
            yield source, targets + [source, targets[0]], dist, pred


def _chain(pred, source, target):
    chain = [target]
    while chain[-1] != source:
        chain.append(pred[chain[-1]])
    return chain[::-1]


def _decompose_chain(csr, oracle, chain):
    """The kernel DP's pieces and probes over one chain."""
    weight = {}
    for u in range(csr.n):
        for k in range(csr.indptr[u], csr.indptr[u + 1]):
            weight[(u, csr.indices[k])] = csr.weights[k]
    cum = [0.0]
    for u, v in zip(chain, chain[1:]):
        cum.append(cum[-1] + weight[(u, v)])
    rows = [oracle.row(c) for c in chain[:-2]]
    _best, choice, probes = decompose_flat_reference(chain, cum, rows)
    pieces = []
    i = len(chain) - 1
    while i > 0:
        pieces.append(tuple(chain[choice[i]:i + 1]))
        i = choice[i]
    return pieces[::-1], probes


class TestNativeMatchesReference:
    @pytest.mark.parametrize("read_only", [False, True], ids=["array", "view"])
    @GRAPH_PARAMS
    def test_every_output_matches(self, factory, read_only):
        if natk is None:
            pytest.skip("no C toolchain for the native backend")
        graph = factory()
        csr = shared_csr(graph)
        ref_oracle = _Oracle(csr, read_only)
        nat_oracle = _Oracle(csr, read_only)
        # One table per backend across every call: stored rows and the
        # native scratch must carry over between calls without leaking.
        ref_table, nat_table = ref_oracle.table(), nat_oracle.table()
        ref_naive = array("l", bytes(8 * csr.n))
        nat_naive = array("l", bytes(8 * csr.n))
        for source, targets, dist, pred in _cases(graph, seed=17):
            if read_only:
                dist, pred = _read_only(dist), _read_only(pred)
            want = pyk.ilm_account(
                csr, source, targets, dist, pred, ref_table, ref_naive
            )
            got = natk.ilm_account(
                csr, source, targets, dist, pred, nat_table, nat_naive
            )
            assert got == want
            assert nat_naive == ref_naive
        assert nat_oracle.requests == ref_oracle.requests

    def test_a_growing_piece_buffer_gives_the_same_pieces(self):
        """Pieces longer than the initial flat buffer make the native
        call grow it and run again, with the same result."""
        if natk is None:
            pytest.skip("no C toolchain for the native backend")
        graph = _random_graph(40, 39, (1.0,), seed=3)  # a tree: long pieces
        csr = shared_csr(graph)
        dist, pred = pyk.bfs(as_view(csr), 0)
        targets = list(range(csr.n))
        table = _Oracle(csr).table()
        natk.ilm_account(csr, 0, [], dist, pred, table, array("l", [0] * csr.n))
        natk._graph_state(csr).ilm.flat = array("q", [0])
        got = natk.ilm_account(
            csr, 0, targets, dist, pred, table, array("l", [0] * csr.n)
        )
        want = pyk.ilm_account(
            csr, 0, targets, dist, pred, _Oracle(csr).table(),
            array("l", [0] * csr.n),
        )
        assert got == want


class TestTreeDpIsExact:
    """Each chain's pieces and probes are the kernel DP's."""

    @BACKENDS
    @GRAPH_PARAMS
    def test_each_target_matches_its_chain(self, factory, name):
        mod = _backend(name)
        graph = factory()
        csr = shared_csr(graph)
        oracle = _Oracle(csr)
        for source, targets, dist, pred in _cases(graph, seed=29):
            union: set = set()
            depths = {}
            restored = 0
            naive = array("l", bytes(8 * csr.n))
            for t in targets:
                if dist[t] == INF:
                    continue
                restored += 1
                chain = _chain(pred, source, t)
                for k, x in enumerate(chain):
                    depths[x] = k
                    naive[x] += 1
                pieces, probes = _decompose_chain(csr, oracle, chain)
                union.update(pieces)
                got = mod.ilm_account(
                    csr, source, [t], dist, pred, oracle.table(),
                    array("l", bytes(8 * csr.n)),
                )
                assert got == (pieces[::-1], 1, 0, probes)
            got_naive = array("l", bytes(8 * csr.n))
            pieces, r, u, probes = mod.ilm_account(
                csr, source, targets, dist, pred, oracle.table(), got_naive
            )
            assert set(pieces) == union and len(pieces) == len(union)
            assert (r, u) == (restored, len(targets) - restored)
            assert probes == sum(depths.values())
            assert got_naive == naive

    @BACKENDS
    def test_no_row_means_every_target_is_unrestorable(self, name):
        mod = _backend(name)
        csr = shared_csr(_random_graph(10, 15, (1.0, 2.0), seed=1))
        naive = array("l", bytes(8 * csr.n))
        got = mod.ilm_account(csr, 0, [3, 4], None, None, OracleRows(csr.n), naive)
        assert got == ([], 0, 2, 0)
        assert not any(naive)


class TestMalformedInput:
    """``ValueError`` before any count is written; the table stays
    usable afterwards."""

    def _setup(self):
        graph = _random_graph(30, 50, (1.0, 2.0, 3.0), seed=12)
        csr = shared_csr(graph)
        dist, pred, _ = pyk.dijkstra_canonical(as_view(csr), 0)
        # A target whose chain is source -> a -> b -> t or longer.
        deep = max(range(csr.n), key=lambda t: len(_chain(pred, 0, t)))
        chain = _chain(pred, 0, deep)
        assert len(chain) >= 4
        return csr, dist, pred, chain

    def _assert_rejected(self, mod, csr, dist, pred, targets, match,
                         table=None):
        oracle = _Oracle(csr)
        table = table if table is not None else oracle.table()
        naive = array("l", bytes(8 * csr.n))
        with pytest.raises(ValueError, match=match):
            mod.ilm_account(csr, 0, targets, dist, pred, table, naive)
        assert not any(naive)
        return table

    @BACKENDS
    def test_target_out_of_range(self, name):
        mod = _backend(name)
        csr, dist, pred, chain = self._setup()
        for bad in (csr.n, -1):
            self._assert_rejected(
                mod, csr, dist, pred, [chain[-1], bad], "target"
            )

    @BACKENDS
    def test_pred_cycle_and_out_of_row_parent(self, name):
        mod = _backend(name)
        csr, dist, pred, chain = self._setup()
        _s, a, _b, t = chain[:3] + [chain[-1]]
        cyclic = array("q", pred)
        cyclic[a] = t  # t -> ... -> a -> t, never reaching the source
        table = self._assert_rejected(mod, csr, dist, cyclic, [t], "cycle")
        # The table (and the native scratch) stays usable.
        want = pyk.ilm_account(
            csr, 0, [t], dist, pred, _Oracle(csr).table(),
            array("l", bytes(8 * csr.n)),
        )
        assert mod.ilm_account(
            csr, 0, [t], dist, pred, table, array("l", bytes(8 * csr.n))
        ) == want
        for parent in (csr.n, -1):
            broken = array("q", pred)
            broken[t] = parent
            self._assert_rejected(
                mod, csr, dist, broken, [chain[1], t], "outside the row"
            )
        neighbours = {
            csr.indices[k] for k in range(csr.indptr[t], csr.indptr[t + 1])
        }
        stranger = next(
            x for x in range(csr.n) if x != t and x not in neighbours
        )
        broken = array("q", pred)
        broken[t] = stranger
        self._assert_rejected(
            mod, csr, dist, broken, [t], "not a probe-graph edge"
        )

    @BACKENDS
    def test_missing_needed_row(self, name):
        mod = _backend(name)
        csr, dist, pred, chain = self._setup()
        lazy = OracleRows(csr.n, fill=lambda missing: None)
        self._assert_rejected(
            mod, csr, dist, pred, [chain[-1]], "no full oracle row", table=lazy
        )
        # A truncated row is not read: the fill must make it full.
        view = as_view(csr)
        for a in chain[:-2]:
            lazy.store(a, pyk.dijkstra_canonical(view, a, chain[-1:])[0])
        self._assert_rejected(
            mod, csr, dist, pred, [chain[-1]], "no full oracle row", table=lazy
        )
        # Two-hop chains read no row at all.
        assert mod.ilm_account(
            csr, 0, [chain[1]], dist, pred, OracleRows(csr.n),
            array("l", bytes(8 * csr.n)),
        )[1] == 1

    def test_native_shape_checks(self):
        if natk is None:
            pytest.skip("no C toolchain for the native backend")
        csr, dist, pred, chain = self._setup()
        t = [chain[-1]]
        table = _Oracle(csr).table()
        naive = array("l", bytes(8 * csr.n))
        with pytest.raises(ValueError, match="dist"):
            natk.ilm_account(csr, 0, t, dist[:-1], pred, table, naive)
        with pytest.raises(ValueError, match="pred"):
            natk.ilm_account(csr, 0, t, dist, list(pred), table, naive)
        with pytest.raises(ValueError, match="naive"):
            natk.ilm_account(
                csr, 0, t, dist, pred, table, array("q", naive)
            )
        with pytest.raises(ValueError, match="source"):
            natk.ilm_account(csr, csr.n, t, dist, pred, table, naive)
        with pytest.raises(ValueError, match="rows"):
            natk.ilm_account(
                csr, 0, t, dist, pred, OracleRows(csr.n - 1), naive
            )
        with pytest.raises(ValueError, match="rows"):
            OracleRows(csr.n).store(0, dist[:-1])
        assert not any(naive)


class TestDistanceOracleRows:
    """``ilm_account`` reads a distance oracle's own row table."""

    @BACKENDS
    def test_a_truncated_row_left_by_a_decomposition_is_promoted(self, name):
        mod = _backend(name)
        graph = _random_graph(30, 50, (1.0, 2.0, 3.0), seed=12)
        csr = shared_csr(graph)
        dist, pred, _ = pyk.dijkstra_canonical(as_view(csr), 0)
        target = max(range(csr.n), key=lambda t: len(_chain(pred, 0, t)))
        chain = _chain(pred, 0, target)
        assert len(chain) >= 4
        oracle = LazyDistanceOracle(graph)
        table = oracle.row_table()
        # A decomposition of chain[1:4] leaves chain[1] a truncated row.
        assert mod.decompose_flat(csr, chain[1:4], table) is not None
        a = chain[1]
        assert table.rows[a] is not None and not table.full[a]
        naive = array("l", bytes(8 * csr.n))
        before = COUNTERS.snapshot()
        got = mod.ilm_account(csr, 0, [target], dist, pred, table, naive)
        delta = COUNTERS.delta(before)
        assert delta.oracle_promotions == 1
        assert table.full[a]
        fresh_naive = array("l", bytes(8 * csr.n))
        want = mod.ilm_account(
            csr, 0, [target], dist, pred,
            LazyDistanceOracle(graph).row_table(), fresh_naive,
        )
        assert got == want and naive == fresh_naive
