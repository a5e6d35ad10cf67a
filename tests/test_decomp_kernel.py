"""Equivalence of the O(1) decomposition kernel with the reference code.

The kernel (``repro.core.decomp_kernel``) answers "is this sub-path a
base path?" with prefix-sum arithmetic against cached oracle rows; the
reference implementations answer it by allocating the sub-path and
walking its edges.  Every decomposition the pipeline computes must be
**piece-for-piece identical** between the two — these tests pin that on
random graphs (hypothesis), on the experiment topologies (fixed seeds),
and on every base-set flavor.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base_paths import (
    AllShortestPathsBase,
    UniqueShortestPathsBase,
    unique_shortest_path_base,
)
from repro.core.decomp_kernel import ChainProbe, SubpathProbe, subpath_probe
from repro.core.decomposition import (
    greedy_decompose,
    min_base_paths_decompose,
    min_pieces_decompose,
)
from repro.exceptions import DecompositionError
from repro.failures.sampler import cases_for_pair, sample_pairs
from repro.graph.all_pairs import LazyDistanceOracle
from repro.graph.graph import Graph
from repro.graph.paths import Path
from repro.graph.shortest_paths import shortest_path
from repro.perf import COUNTERS

from .decomp_oracles import (
    greedy_decompose_reference,
    min_base_paths_decompose_reference,
    min_pieces_decompose_reference,
)
from .test_kernels import FAMILY_PARAMS


def random_connected_graph(seed: int, n: int = 20, extra: int = 12) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    for i in range(1, n):
        g.add_edge(rng.randrange(i), i, weight=rng.choice([1, 1, 2, 3, 5, 10]))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, weight=rng.choice([1, 1, 2, 3, 5, 10]))
    return g


def assert_same(d_new, d_ref):
    assert d_new.pieces == d_ref.pieces
    assert d_new.base_flags == d_ref.base_flags


def backup_paths(graph, seed: int, k_links: int = 1, limit: int = 12):
    """Deterministic (backup path, weighted) samples after random failures."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    edges = sorted(graph.edges())
    out = []
    for _ in range(limit):
        s, t = rng.sample(nodes, 2)
        failed = rng.sample(edges, min(k_links, len(edges)))
        view = graph.without(edges=failed)
        try:
            out.append(shortest_path(view, s, t))
        except Exception:
            continue
    return out


class TestKernelEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5_000), case_seed=st.integers(0, 5_000))
    def test_unique_base_random_graphs(self, seed, case_seed):
        g = random_connected_graph(seed)
        base = UniqueShortestPathsBase(g)
        for path in backup_paths(g, case_seed, limit=4):
            assert_same(
                min_pieces_decompose(path, base),
                min_pieces_decompose_reference(path, base),
            )
            assert_same(
                greedy_decompose(path, base),
                greedy_decompose_reference(path, base),
            )
            assert_same(
                min_base_paths_decompose(path, base, max_edges=2),
                min_base_paths_decompose_reference(path, base, max_edges=2),
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000), case_seed=st.integers(0, 5_000))
    def test_all_sp_base_random_graphs(self, seed, case_seed):
        g = random_connected_graph(seed)
        for include_all_edges in (True, False):
            base = AllShortestPathsBase(g, include_all_edges=include_all_edges)
            for path in backup_paths(g, case_seed, limit=3):
                try:
                    d_ref = min_pieces_decompose_reference(path, base)
                except DecompositionError:
                    with pytest.raises(DecompositionError):
                        min_pieces_decompose(path, base)
                    continue
                assert_same(min_pieces_decompose(path, base), d_ref)
                assert_same(
                    greedy_decompose(path, base),
                    greedy_decompose_reference(path, base),
                )

    def test_explicit_base_falls_back_and_matches(self):
        g = random_connected_graph(7)
        base = unique_shortest_path_base(g, seed=3)
        before = COUNTERS.snapshot()
        for path in backup_paths(g, 11, limit=6):
            assert_same(
                min_pieces_decompose(path, base),
                min_pieces_decompose_reference(path, base),
            )
        delta = COUNTERS.delta(before)
        # Explicit sets have no oracle: every probe takes the fallback.
        assert delta.o1_probes == 0
        assert delta.path_probes > 0

    def test_experiment_networks_fixed_seed(self):
        from repro.experiments.networks import suite

        for network in suite(scale="tiny", seed=1):
            g = network.graph
            base = UniqueShortestPathsBase(g)
            pairs = sample_pairs(g, 6, seed=5)
            for pair in pairs:
                primary = base.path_for(*pair)
                for case in cases_for_pair(pair, primary, "link"):
                    view = case.scenario.apply(g)
                    try:
                        backup = shortest_path(
                            view, *pair, weighted=network.weighted
                        )
                    except Exception:
                        continue
                    assert_same(
                        min_pieces_decompose(backup, base),
                        min_pieces_decompose_reference(backup, base),
                    )


class TestProbeMechanics:
    def test_valid_path_uses_o1_probes_only(self):
        g = random_connected_graph(3)
        base = UniqueShortestPathsBase(g)
        path = backup_paths(g, 5, limit=1)[0]
        assert isinstance(subpath_probe(base, path), ChainProbe)
        before = COUNTERS.snapshot()
        min_pieces_decompose(path, base)
        delta = COUNTERS.delta(before)
        assert delta.probe_calls > 0
        assert delta.path_probes == 0
        assert delta.o1_probes == delta.probe_calls

    def test_invalid_path_gets_fallback_probe(self):
        g = random_connected_graph(3)
        base = UniqueShortestPathsBase(g)
        # A walk with a hop that is not an edge of the graph.
        nodes = sorted(g.nodes)
        non_edge = None
        for u in nodes:
            for v in nodes:
                if u != v and not g.has_edge(u, v):
                    non_edge = (u, v)
                    break
            if non_edge:
                break
        assert non_edge is not None
        probe = subpath_probe(base, Path(list(non_edge)))
        assert isinstance(probe, SubpathProbe)
        assert not isinstance(probe, ChainProbe)

    @pytest.mark.parametrize("flavor", [AllShortestPathsBase, UniqueShortestPathsBase])
    def test_path_leaving_the_graph_takes_the_fallback(self, flavor):
        g = random_connected_graph(3)
        base = flavor(g)
        u, v = next(
            (u, v) for u in sorted(g.nodes) for v in sorted(g.nodes)
            if u != v and not g.has_edge(u, v)
        )
        w = next(iter(sorted(g.neighbors(u))))
        for walk in ([w, u, v], [w, u, "not-a-node"]):
            path = Path(walk)
            with pytest.raises(DecompositionError):
                min_pieces_decompose_reference(path, base)
            before = COUNTERS.snapshot()
            with pytest.raises(DecompositionError):
                min_pieces_decompose(path, base)
            delta = COUNTERS.delta(before)
            assert delta.path_probes > 0 and delta.o1_probes == 0

    @pytest.mark.parametrize("flavor", [AllShortestPathsBase, UniqueShortestPathsBase])
    def test_python_dps_read_the_row_table(self, kernel, flavor, monkeypatch):
        """The greedy, edge-restricted min-pieces and base-path-budget
        DPs probe the oracle's row table, never its dict view."""

        def refuse(*_args):
            raise AssertionError("distances_from is not a decomposition input")

        monkeypatch.setattr(LazyDistanceOracle, "distances_from", refuse)
        g = random_connected_graph(13)
        base, ref = flavor(g), flavor(g)
        edge_free = flavor(g, include_all_edges=False)
        ref_edge_free = flavor(g, include_all_edges=False)
        before = COUNTERS.snapshot()
        for path in backup_paths(g, 17, limit=6):
            for order in ("binary", "linear"):
                assert_same(
                    greedy_decompose(path, base, prefix_probe=order),
                    greedy_decompose_reference(path, ref, prefix_probe=order),
                )
            assert_same(
                min_pieces_decompose(path, edge_free),
                min_pieces_decompose_reference(path, ref_edge_free),
            )
            assert_same(
                min_base_paths_decompose(path, base, max_edges=1),
                min_base_paths_decompose_reference(path, ref, max_edges=1),
            )
        delta = COUNTERS.delta(before)
        assert delta.path_probes == 0
        assert delta.o1_probes == delta.probe_calls > 0

    def test_probe_matches_is_base_path_exhaustively(self):
        g = random_connected_graph(9)
        base = UniqueShortestPathsBase(g)
        for path in backup_paths(g, 2, limit=4):
            probe = subpath_probe(base, path)
            n = len(path.nodes)
            for j in range(n):
                for i in range(j + 1, n):
                    assert probe.is_base(j, i) == base.is_base_path(
                        path.subpath(j, i)
                    ), (j, i, path)


class TestTruncatedOracle:
    def test_truncated_rows_match_full_rows(self):
        g = random_connected_graph(21, n=40, extra=30)
        full = LazyDistanceOracle(g)
        pruned = LazyDistanceOracle(g)
        nodes = sorted(g.nodes)
        rng = random.Random(0)
        for _ in range(10):
            source = rng.choice(nodes)
            targets = rng.sample(nodes, 5)
            got = pruned.distances_from(source, targets)
            for t in targets:
                if t == source:
                    continue
                assert got[t] == full.distance(source, t)

    def test_promotion_answers_beyond_the_frontier(self):
        g = random_connected_graph(22, n=30, extra=20)
        oracle = LazyDistanceOracle(g)
        nodes = sorted(g.nodes)
        source = nodes[0]
        near = min(
            (n for n in nodes if n != source),
            key=lambda n: LazyDistanceOracle(g).distance(source, n),
        )
        before = COUNTERS.snapshot()
        oracle.warm(source, [near])
        # A far query outruns the truncated frontier and promotes.
        reference = LazyDistanceOracle(g)
        for t in nodes:
            if t != source:
                assert oracle.distance(source, t) == reference.distance(source, t)
        assert COUNTERS.delta(before).oracle_promotions >= 0


ORACLE_COUNTERS = ("oracle_rows_full", "oracle_rows_truncated", "oracle_promotions")


@pytest.fixture(params=["python", "native"])
def kernel(request, monkeypatch):
    """Run the test under each backend, restoring the selection after."""
    from repro.kernels import available_backends, backend_name, set_backend

    if request.param not in available_backends():
        pytest.skip(f"{request.param} backend unavailable")
    monkeypatch.setenv("REPRO_KERNEL", backend_name())
    previous = set_backend(request.param)
    yield request.param
    set_backend(previous)


def random_walks(graph: Graph, seed: int, count: int = 8) -> list[Path]:
    """Random simple walks (valid, not necessarily shortest) of 2-12 nodes."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    walks = []
    while len(walks) < count:
        walk = [rng.choice(nodes)]
        for _ in range(rng.randrange(1, 12)):
            options = [
                v for v in sorted(graph.neighbors(walk[-1])) if v not in walk
            ]
            if not options:
                break
            walk.append(rng.choice(options))
        if len(walk) >= 2:
            walks.append(Path(walk))
    return walks


class TestKernelDecomposition:
    """min_pieces_decompose's kernel path (implicit base, every edge
    admitted) against the reference, probe for probe and row for row."""

    @pytest.mark.parametrize("flavor", ["all", "unique"])
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_path_matches_reference_and_lazy_fetch(
        self, kernel, flavor, seed, monkeypatch
    ):
        from repro.kernels import kernel_backend

        g = random_connected_graph(seed)
        make = (
            (lambda: AllShortestPathsBase(g))
            if flavor == "all"
            else (lambda: UniqueShortestPathsBase(g, seed=seed))
        )
        base, lazy, ref_base = make(), make(), make()
        backend = kernel_backend()
        calls = []
        monkeypatch.setattr(
            backend, "decompose_flat",
            lambda *a, _f=backend.decompose_flat: calls.append(1) or _f(*a),
        )
        for path in random_walks(g, seed + 100):
            before = COUNTERS.snapshot()
            got = min_pieces_decompose(path, base, allow_edges=True)
            delta = COUNTERS.delta(before)
            assert_same(
                got,
                min_pieces_decompose_reference(path, ref_base, allow_edges=True),
            )
            assert all(got.base_flags)
            size = len(path.nodes)
            assert delta.probe_calls == size * (size - 1) // 2
            assert delta.o1_probes == delta.probe_calls
            before = COUNTERS.snapshot()
            nodes = path.nodes
            for j in range(size - 2):
                lazy.oracle.distances_from(nodes[j], nodes[j + 1:])
            lazy_delta = COUNTERS.delta(before)
            for name in ORACLE_COUNTERS + ("csr_settled", "csr_relaxations"):
                assert getattr(delta, name) == getattr(lazy_delta, name), name
        assert len(calls) == 8


class TestOracleRowTable:
    """The oracle's index table follows every stored row, and the one
    ``decompose_flat`` call per decomposition moves the counters the
    ascending warm loop moves."""

    def test_a_promoted_row_is_read_at_its_new_address(self, kernel):
        from repro.topology import cycle_graph

        g = cycle_graph(20)
        base = AllShortestPathsBase(g)
        oracle = base.oracle
        table = oracle.row_table()
        index = oracle.csr().index
        a = index[0]
        # A full store sets the full flag (position 1's row, built whole).
        b = index[1]
        oracle.row_arrays(1)
        assert table.full[b] == 1
        # First call: position 0 gets a row truncated near the source,
        # with the flag clear.
        min_pieces_decompose(Path([0, 1, 2]), base)
        truncated = table.rows[a]
        assert table.addrs[a] == truncated.buffer_info()[0]
        assert truncated[index[8]] == float("inf")
        assert table.full[a] == 0
        # A query past the frontier promotes the row between two calls.
        before = COUNTERS.snapshot()
        oracle.distance(0, 8)
        assert COUNTERS.delta(before).oracle_promotions == 1
        full = oracle.row_arrays(0)[0]
        assert full is not truncated
        assert table.rows[a] is full
        assert table.addrs[a] == full.buffer_info()[0]
        assert table.full[a] == 1
        # Second call: the whole shortest path is one piece only if the
        # DP reads the promoted row.
        path = Path(list(range(9)))
        got = min_pieces_decompose(path, base)
        assert got.num_pieces == 1
        assert_same(
            got, min_pieces_decompose_reference(path, AllShortestPathsBase(g))
        )

    def test_a_row_truncated_as_the_heap_empties_stays_truncated(self, kernel):
        """A targeted warm whose last target settles with the heap empty
        but an onward edge unrelaxed files a truncated row, which a far
        query promotes (it used to be filed full and raise NoPath)."""
        from repro.topology import path_graph

        oracle = LazyDistanceOracle(path_graph(10))
        oracle.warm(0, [1, 2])
        assert oracle.row_table().full[oracle.csr().index[0]] == 0
        before = COUNTERS.snapshot()
        assert oracle.distance(0, 9) == 9.0
        assert COUNTERS.delta(before).oracle_promotions == 1

    def test_a_hop_off_the_graph_takes_the_fallback(self, kernel):
        g = random_connected_graph(3)
        base = UniqueShortestPathsBase(g)
        u, v = next(
            (u, v) for u in sorted(g.nodes) for v in sorted(g.nodes)
            if u != v and not g.has_edge(u, v)
        )
        w = next(iter(sorted(g.neighbors(u))))
        from repro.kernels import kernel_backend

        backend = kernel_backend()
        csr = base.oracle.csr()
        chain = [csr.index[x] for x in (w, u, v)]
        assert backend.decompose_flat(csr, chain, base.oracle.row_table()) is None
        before = COUNTERS.snapshot()
        with pytest.raises(DecompositionError):
            min_pieces_decompose(Path([w, u, v]), base)
        delta = COUNTERS.delta(before)
        assert delta.path_probes > 0 and delta.o1_probes == 0

    @FAMILY_PARAMS
    def test_counter_deltas_equal_the_ascending_warm_loop(self, kernel, family):
        g = family()
        base, twin = UniqueShortestPathsBase(g), UniqueShortestPathsBase(g)
        rng = random.Random(41)
        nodes = list(g.nodes)  # insertion order: labels may mix types
        for _ in range(6):
            walk = [rng.choice(nodes)]
            while len(walk) < 12:
                options = [v for v in g.neighbors(walk[-1]) if v not in walk]
                if not options:
                    break
                walk.append(rng.choice(options))
            path = Path(walk)
            if path.is_trivial:
                continue
            before = COUNTERS.snapshot()
            got = min_pieces_decompose(path, base, allow_edges=True)
            delta = COUNTERS.delta(before)
            nodes = path.nodes
            before = COUNTERS.snapshot()
            for j in range(len(nodes) - 2):
                twin.oracle.warm(nodes[j], nodes[j + 1:])
            loop = COUNTERS.delta(before)
            for name in ORACLE_COUNTERS + ("csr_settled", "csr_relaxations"):
                assert getattr(delta, name) == getattr(loop, name), name
            size = len(nodes)
            assert delta.o1_probes == delta.probe_calls == size * (size - 1) // 2
            assert_same(
                got,
                min_pieces_decompose_reference(
                    path, UniqueShortestPathsBase(g), allow_edges=True
                ),
            )
