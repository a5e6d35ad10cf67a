"""Kernel equivalence: the native backend and the numpy oracle vs. the
reference.

The backend contract (:mod:`repro.kernels`) is that the compiled
backend is a drop-in for the pure-Python reference — same rows, same
repaired SPTs, same decomposition columns, same perf counters, bit for
bit.  This suite pins that contract over a representative of every
topology family the repo generates (the 13-family sweep
``tests/test_parallel.py`` reuses for the fork hand-off), for clean
views and for views with dead edges
and dead nodes.  Each case also runs against
:mod:`tests.numpy_kernels`, a test-only vectorized fixpoint
re-derivation of the same interface (under the scipy settle stage
*and* the Bellman–Ford fallback it uses when scipy is absent): it
shares no control flow with the heap loops, so agreement shows the
reference's output is a function of the final labels alone.

The oracle's vectorized stages are called directly
(``_repair_resettle_vec``, ``_decompose_flat_vec``) so its size gates
cannot hide a divergence; the native backend has no gates, so its
public entry points are exercised at every input size: the
bidirectional-BFS hop distance against the canonical BFS, the fused
repair through all four outcomes, the decomposition DP over ``array``
rows it reads in place (validated first — a malformed buffer or a
memoryview raises ``ValueError`` instead of reaching C), and
shortest-path counting from
every source, including counts past u64 (rerun exactly by the
reference) and the zero-weight tie every backend rejects.

Tie-heavy graphs matter most here: on unit-weight topologies (grid,
cycle, comb) nearly every node has several tight parents, so any
deviation from the canonical ``(dist[parent], parent index)`` rule
shows up immediately.  Oracle cases are skipped without numpy and
native cases without a C toolchain; the selection and import-hygiene
tests run regardless.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.graph.csr import as_view, shared_csr
from repro.graph.graph import Graph
from repro.graph.shortest_paths import EPSILON
from repro.graph.spt import ShortestPathDag
from repro.kernels import (
    KERNEL_CHOICES,
    OVER_THRESHOLD,
    OracleRows,
    REPAIRED,
    SOURCE_CUT,
    UNTOUCHED,
    available_backends,
    backend_name,
    set_backend,
)
from repro.kernels import python_backend as pyk
from repro.perf import COUNTERS
from repro.topology import (
    complete_graph,
    cycle_graph,
    four_cycle,
    generate_as_graph,
    generate_internet_graph,
    generate_isp_topology,
    grid_graph,
    path_graph,
)
from repro.topology.classic import (
    comb_graph,
    two_level_star,
    weighted_comb_graph,
)
from repro.topology.powerlaw import preferential_attachment

from .decomp_oracles import decompose_flat_reference

try:  # try/except, not find_spec: a broken numpy must also skip
    from . import numpy_kernels as npk

    numpy_missing = False
except ImportError:
    npk = None
    numpy_missing = True

try:  # importing builds the cached .so; no toolchain must skip
    from repro.kernels import native_backend as natk

    native_missing = False
except ImportError:
    natk = None
    native_missing = True

requires_numpy = pytest.mark.skipif(
    numpy_missing, reason="numpy not installed"
)
requires_native = pytest.mark.skipif(
    native_missing, reason="no C toolchain for the native backend"
)

#: What every bit-identity case checks against the reference: the numpy
#: oracle and the native backend.
ACCEL_PARAMS = pytest.mark.parametrize("accel", ["numpy", "native"])


def _accel_module(accel):
    """The oracle or backend module for *accel*, skipping when
    unavailable."""
    if accel == "numpy":
        if numpy_missing:
            pytest.skip("numpy not installed")
        return npk
    if native_missing:
        pytest.skip("no C toolchain for the native backend")
    return natk

#: One small instance per topology family the generators can produce;
#: tests/test_ilm_kernel.py and the fork hand-off sweep in
#: tests/test_parallel.py reuse it.
TOPOLOGY_FAMILIES = [
    ("path", lambda: path_graph(7)),
    ("cycle", lambda: cycle_graph(6)),
    ("four-cycle", lambda: four_cycle()),
    ("complete", lambda: complete_graph(5)),
    ("grid", lambda: grid_graph(3, 4)),
    ("comb", lambda: comb_graph(4)[0]),
    ("weighted-comb", lambda: weighted_comb_graph(4)[0]),
    ("two-level-star", lambda: two_level_star(7)[0]),
    ("isp-weighted", lambda: generate_isp_topology(n=40, seed=3)),
    ("isp-unweighted", lambda: generate_isp_topology(n=40, seed=3, weighted=False)),
    ("powerlaw", lambda: preferential_attachment(50, 2.0, seed=5)),
    ("as-graph", lambda: generate_as_graph(n=60, seed=2)),
    ("internet", lambda: generate_internet_graph(n=60, seed=2)),
]

FAMILY_PARAMS = pytest.mark.parametrize(
    "family", [f for _, f in TOPOLOGY_FAMILIES],
    ids=[name for name, _ in TOPOLOGY_FAMILIES],
)


def _view_variants(graph):
    """Clean view plus dead-edge and dead-node views of *graph*."""
    csr = shared_csr(graph)
    base = as_view(csr)
    yield "clean", base
    edges = sorted(graph.edges(), key=repr)  # labels mix str and int
    if edges:
        yield "dead-edges", base.without(edges=edges[: 1 + len(edges) // 6])
    if csr.n > 2:
        victims = csr.nodes[csr.n // 2 : csr.n // 2 + 1 + csr.n // 8]
        yield "dead-nodes", base.without(nodes=victims)


def _alive_sources(view):
    node_dead = view.masks()[1]
    return [i for i in range(view.csr.n) if not node_dead[i]]


def _reference_rows(view, sources, unit):
    """Per-source rows from the reference backend, with a counter delta."""
    before = COUNTERS.snapshot()
    rows = {}
    for s in sources:
        if unit:
            rows[s] = pyk.bfs(view, s)
        else:
            dist, pred, _ = pyk.dijkstra_canonical(view, s)
            rows[s] = (dist, pred)
    return rows, COUNTERS.delta(before)


class TestRowsBitIdentity:
    """Batched accelerated rows == per-source reference rows, exactly."""

    def _assert_family(self, family, mod):
        graph = family()
        for label, view in _view_variants(graph):
            sources = _alive_sources(view)
            for unit in (False, True):
                expected, ref_delta = _reference_rows(view, sources, unit)
                before = COUNTERS.snapshot()
                got = mod.rows_many(view, sources, unit)
                acc_delta = COUNTERS.delta(before)
                assert got is not None, (label, unit)
                assert got == expected, (label, unit)
                assert acc_delta == ref_delta, (label, unit)

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_rows_match(self, family, accel):
        self._assert_family(family, _accel_module(accel))

    @requires_numpy
    @FAMILY_PARAMS
    def test_rows_match_without_scipy(self, family, monkeypatch):
        """The Bellman–Ford fallback settle is equally bit-identical."""
        monkeypatch.setattr(npk, "_sp_dijkstra", None)
        monkeypatch.setattr(npk, "_sp_csr_matrix", None)
        self._assert_family(family, npk)

    @ACCEL_PARAMS
    def test_single_row_entry_points_match(self, accel):
        """dijkstra_canonical/bfs dispatch above the numpy size gate too."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=500, seed=9)
        view = as_view(shared_csr(graph))
        if accel == "numpy":
            assert view.csr.n >= npk.SINGLE_MIN_N
        dist, pred, exhausted = mod.dijkstra_canonical(view, 0)
        rd, rp, _ = pyk.dijkstra_canonical(view, 0)
        assert exhausted and (dist, pred) == (rd, rp)
        unit_view = as_view(
            shared_csr(generate_isp_topology(n=500, seed=9, weighted=False))
        )
        assert mod.bfs(unit_view, 3) == pyk.bfs(unit_view, 3)

    @ACCEL_PARAMS
    def test_targeted_queries_keep_the_reference_truncation(self, accel):
        """Early-exit probes must not be silently widened to full rows."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=500, seed=9)
        view = as_view(shared_csr(graph))
        before = COUNTERS.snapshot()
        dist, pred, exhausted = mod.dijkstra_canonical(view, 0, targets=[1])
        delta = COUNTERS.delta(before)
        before = COUNTERS.snapshot()
        rd, rp, re_ = pyk.dijkstra_canonical(view, 0, targets=[1])
        ref_delta = COUNTERS.delta(before)
        assert (dist, pred, exhausted) == (rd, rp, re_)
        assert delta == ref_delta
        assert delta.csr_settled < view.csr.n  # truncated, not exhaustive

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_a_last_target_settled_as_the_heap_empties_is_not_exhausted(
        self, name
    ):
        """On a path the last target settles with an empty heap and its
        onward edge unrelaxed: the row is truncated, not complete."""
        mod = pyk if name == "python" else _accel_module("native")
        view = as_view(shared_csr(path_graph(10)))
        dist, _pred, exhausted = mod.dijkstra_canonical(view, 0, targets=[1, 2])
        assert list(dist[:4]) == [0.0, 1.0, 2.0, float("inf")]
        assert not exhausted
        # The path's far end has no unsettled neighbour: a complete run.
        assert mod.dijkstra_canonical(view, 0, targets=[9])[2]


def _pre_failure_row(view, source, unit):
    if unit:
        return pyk.bfs(view, source)
    dist, pred, _ = pyk.dijkstra_canonical(view, source)
    return dist, pred


class TestRepairBitIdentity:
    """Accelerated SPT repair == the reference, outcome and row."""

    def _repair_cases(self, graph, unit):
        """Yield (view, source, dist, pred, threshold) fused-repair cases.

        Per source: random tree-edge cuts under a threshold that admits
        them (repaired) and under a zero threshold (over threshold), a
        non-tree cut and the clean view (tree untouched), and the
        source's own failure (source cut off).
        """
        csr = shared_csr(graph)
        base = as_view(csr)
        nodes = csr.nodes
        rng = random.Random(11)
        for source in (0, csr.n // 2):
            dist, pred = _pre_failure_row(base, source, unit)
            tree_nodes = [v for v in range(csr.n) if pred[v] >= 0]
            if not tree_nodes:
                continue
            roomy = 2.0 * csr.n
            yield base, source, dist, pred, roomy
            yield base.without(nodes=[nodes[source]]), source, dist, pred, roomy
            for k in (1, 3):
                picks = rng.sample(tree_nodes, min(k, len(tree_nodes)))
                view = base.without(
                    edges=[(nodes[pred[v]], nodes[v]) for v in picks]
                )
                yield view, source, dist, pred, roomy
                yield view, source, dist, pred, 0.0
            tree_edges = {
                frozenset((v, pred[v])) for v in tree_nodes
            }
            spare = [
                (u, v) for u, v in graph.edges()
                if frozenset((csr.index[u], csr.index[v])) not in tree_edges
            ]
            if spare:
                yield base.without(edges=spare[:1]), source, dist, pred, roomy

    def _assert_fused(self, graph, unit, mod):
        outcomes = set()
        for view, source, dist, pred, threshold in self._repair_cases(
            graph, unit
        ):
            children = pyk.children_index(pred)
            before = COUNTERS.snapshot()
            ref = pyk.repair_resettle(
                view, source, dist, pred, children, threshold, unit
            )
            ref_delta = COUNTERS.delta(before)
            before = COUNTERS.snapshot()
            got = mod.repair_resettle(
                view, source, dist, pred, mod.children_index(pred),
                threshold, unit,
            )
            acc_delta = COUNTERS.delta(before)
            assert got == ref
            assert acc_delta == ref_delta
            outcomes.add(ref[0])
        return outcomes

    def _assert_resettle(self, graph, unit, entry):
        """The numpy vectorized stage == the reference re-settle."""
        for view, source, dist, pred, threshold in self._repair_cases(
            graph, unit
        ):
            outcome, affected = pyk.cut_subtree(
                view, source, dist, pred, pyk.children_index(pred), threshold
            )
            if outcome != REPAIRED:
                continue
            before = COUNTERS.snapshot()
            ref = pyk.resettle(view, dist, pred, affected, unit)
            ref_delta = COUNTERS.delta(before)
            before = COUNTERS.snapshot()
            acc = entry(view, source, dist, pred, set(affected), unit)
            acc_delta = COUNTERS.delta(before)
            assert acc == ref
            assert acc_delta == ref_delta

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_repaired_rows_match(self, family, accel):
        """Native: the fused call through all four outcomes, counters
        included; numpy: its vectorized re-settle stage."""
        graph = family()
        mod = _accel_module(accel)
        if accel == "numpy":
            self._assert_resettle(graph, False, npk._repair_resettle_vec)
            self._assert_resettle(graph, True, npk._repair_resettle_vec)
            return
        outcomes = self._assert_fused(graph, False, mod)
        outcomes |= self._assert_fused(graph, True, mod)
        assert outcomes == {REPAIRED, UNTOUCHED, OVER_THRESHOLD, SOURCE_CUT}

    @requires_numpy
    @FAMILY_PARAMS
    def test_repaired_rows_match_without_scipy(self, family, monkeypatch):
        monkeypatch.setattr(npk, "_sp_dijkstra", None)
        monkeypatch.setattr(npk, "_sp_csr_matrix", None)
        graph = family()
        self._assert_resettle(graph, False, npk._repair_resettle_vec)

    @ACCEL_PARAMS
    def test_public_repair_matches_the_reference(self, accel):
        """numpy's gated public entry agrees too (above and below the gate)."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=500, seed=9)
        assert self._assert_fused(graph, False, mod) >= {REPAIRED}

    @ACCEL_PARAMS
    def test_children_index_matches_the_reference(self, accel):
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=60, seed=4)
        view = as_view(shared_csr(graph))
        for source in (0, 7, 31):
            pred = _pre_failure_row(view, source, False)[1]
            offsets, kids = mod.children_index(pred)
            assert (offsets, kids) == pyk.children_index(pred)
            for v in range(len(pred)):
                assert list(kids[offsets[v]:offsets[v + 1]]) == [
                    c for c in range(len(pred)) if pred[c] == v
                ]


def _disconnected_graph():
    """Two components and an isolated node: rows with unreached nodes."""
    graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)])
    graph.add_node(7)
    return graph


def _tree_rows(graph):
    """Every source's pred row from the padded base oracle and from the
    SPT cache (weighted and unit), as ``(label, root, pred)``."""
    from repro.core.cache import shared_unique_base
    from repro.graph.incremental import SptCache

    oracle = shared_unique_base(graph).oracle
    caches = [SptCache(graph, weighted=True), SptCache(graph, weighted=False)]
    for root, node in enumerate(shared_csr(graph).nodes):
        yield "oracle", root, oracle.row_arrays(node)[1]
        for cache in caches:
            yield f"spt-weighted={cache.weighted}", root, cache.row(node)[1]


def _ancestor(pred, a, v):
    """Is *a* a proper ancestor of *v* in the tree *pred*?"""
    while pred[v] >= 0:
        v = pred[v]
        if v == a:
            return True
    return False


class _NoNativeCalls:
    """Stands in for the native library: any call into C fails."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} reached C")


def _hop_queries(graph, view):
    """``(u, v)`` bypass queries on *view*: each link's endpoints, then
    a seeded sample of other pairs (equal, dead and disconnected
    endpoints included)."""
    csr = view.csr
    for a, b in sorted(graph.edges(), key=repr):
        yield csr.index[a], csr.index[b]
    rng = random.Random(csr.n)
    for _ in range(12):
        yield rng.randrange(csr.n), rng.randrange(csr.n)


class TestHopDistance:
    """``bypass_hops``: the reference's bidirectional BFS gives the
    canonical BFS distance over the view minus the ``u``–``v`` link,
    and native gives the same answers and counter increments."""

    @staticmethod
    def _bfs_hops(view, s, t):
        """The canonical BFS distance from *s* to *t* with their link
        (if any) also removed; ``-1`` when cut or dead."""
        nodes = view.csr.nodes
        view = view.without(edges=[(nodes[s], nodes[t])])
        node_dead = view.masks()[1]
        if node_dead[s] or node_dead[t]:
            return -1
        d = pyk.bfs(view, s, t)[0][t]
        return -1 if d == float("inf") else int(d)

    @pytest.mark.parametrize(
        "family", [f for _, f in TOPOLOGY_FAMILIES] + [_disconnected_graph],
        ids=[name for name, _ in TOPOLOGY_FAMILIES] + ["disconnected"],
    )
    def test_backends_give_the_bfs_distance(self, family):
        graph = family()
        queries = 0
        for label, view in _view_variants(graph):
            for s, t in _hop_queries(graph, view):
                want = self._bfs_hops(view, s, t)
                before = COUNTERS.snapshot()
                got = pyk.bypass_hops(view, s, t)
                delta = COUNTERS.delta(before)
                assert got == want, (label, s, t)
                if natk is not None:
                    before = COUNTERS.snapshot()
                    assert natk.bypass_hops(view, s, t) == want
                    assert COUNTERS.delta(before) == delta, (label, s, t)
                queries += 1
        assert queries > 12

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_dead_endpoints_and_equal_endpoints(self, name):
        mod = pyk if name == "python" else _accel_module("native")
        view = as_view(shared_csr(cycle_graph(6)))
        dead = view.without(nodes=[view.csr.nodes[2]])
        assert mod.bypass_hops(view, 0, 3) == 3  # not a link: nothing cut
        assert mod.bypass_hops(view, 0, 1) == 5  # round the other side
        assert mod.bypass_hops(dead, 0, 3) == 3
        assert mod.bypass_hops(dead, 0, 1) == -1
        assert mod.bypass_hops(dead, 0, 2) == -1
        assert mod.bypass_hops(dead, 2, 0) == -1
        assert mod.bypass_hops(dead, 2, 2) == -1
        before = COUNTERS.snapshot()
        assert mod.bypass_hops(dead, 4, 4) == 0
        assert COUNTERS.delta(before).csr_settled == 1

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_a_link_the_view_already_cut(self, name):
        mod = pyk if name == "python" else _accel_module("native")
        graph = grid_graph(3, 4)
        base = as_view(shared_csr(graph))
        for a, b in sorted(graph.edges(), key=repr):
            u, v = base.csr.index[a], base.csr.index[b]
            cut = base.without(edges=[(a, b)])
            before = COUNTERS.snapshot()
            want = mod.bypass_hops(base, u, v)
            delta = COUNTERS.delta(before)
            before = COUNTERS.snapshot()
            assert mod.bypass_hops(cut, u, v) == want == 3
            assert COUNTERS.delta(before) == delta

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_directed_snapshots_and_bad_indices_raise_before_c(
        self, name, monkeypatch
    ):
        from repro.graph.graph import DiGraph

        mod = pyk
        if name == "native":
            mod = _accel_module("native")
            monkeypatch.setattr(natk, "_LIB", _NoNativeCalls())
        digraph = DiGraph()
        digraph.add_edge(0, 1)
        digraph.add_edge(1, 0)
        with pytest.raises(ValueError, match="undirected"):
            mod.bypass_hops(as_view(shared_csr(digraph)), 0, 1)
        view = as_view(shared_csr(path_graph(4)))
        for s, t in ((0, 4), (-1, 2), (4, 4)):
            with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
                mod.bypass_hops(view, s, t)


class TestPreorder:
    """``preorder``: the reference walk is a preorder with ascending
    children and exact subtree ends, and native matches it bit for bit."""

    @staticmethod
    def _assert_preorder(pred, root, order, pos, end):
        n = len(pred)

        def reaches(v):
            while v != root:
                v = pred[v]
                if v < 0:
                    return False
            return True

        reached = [v for v in range(n) if reaches(v)]
        assert order[0] == root and sorted(order) == reached
        for v in range(n):
            if v not in reached:
                assert pos[v] == end[v] == -1
                continue
            assert order[pos[v]] == v
            below = [u for u in reached if u == v or _ancestor(pred, v, u)]
            assert sorted(order[pos[v]:end[v]]) == below
            kids = [c for c in range(n) if pred[c] == v]
            at = pos[v] + 1
            for c in kids:  # ascending index order, back to back
                assert pos[c] == at
                at = end[c]
            assert at == end[v]

    @pytest.mark.parametrize(
        "family", [f for _, f in TOPOLOGY_FAMILIES] + [_disconnected_graph],
        ids=[name for name, _ in TOPOLOGY_FAMILIES] + ["disconnected"],
    )
    def test_native_matches_the_reference_walk(self, family):
        graph = family()
        for label, root, pred in _tree_rows(graph):
            got = pyk.preorder(pred, root)
            assert all(type(a) is array and a.typecode == "q" for a in got)
            self._assert_preorder(pred, root, *got)
            if natk is not None:
                assert natk.preorder(pred, root) == got, (label, root)

    def test_a_pred_cycle_off_the_root_is_unreached(self):
        pred = array("q", [-1, 2, 1, 0])
        for mod in [pyk] + ([natk] if natk is not None else []):
            order, pos, end = mod.preorder(pred, 0)
            assert list(order) == [0, 3]
            assert list(pos) == [0, -1, -1, 1]
            assert list(end) == [2, -1, -1, 2]

    @pytest.mark.parametrize("name", ["python", "native"])
    @pytest.mark.parametrize(
        "pred, root, message",
        [
            ([-1, 0, 1], 3, r"root 3 outside \[0, 3\)"),
            ([-1, 0, 1], -1, r"root -1 outside \[0, 3\)"),
            ([-1, 0, 3], 0, r"outside \[-1, 3\)"),
            ([-1, -2, 0], 0, r"outside \[-1, 3\)"),
            ([1, -1, 1], 0, r"pred\[0\] is 1, not -1"),
        ],
        ids=["root-high", "root-negative", "pred-high", "pred-low",
             "root-has-parent"],
    )
    def test_malformed_input_raises_before_c(
        self, name, pred, root, message, monkeypatch
    ):
        mod = pyk
        if name == "native":
            mod = _accel_module("native")
            monkeypatch.setattr(natk, "_LIB", _NoNativeCalls())
        with pytest.raises(ValueError, match=message):
            mod.preorder(array("q", pred), root)


class TestRowTypes:
    """Every backend hands rows out as array('d') / array('q')."""

    @staticmethod
    def _assert_row(dist, pred, n):
        assert type(dist) is array and dist.typecode == "d" and len(dist) == n
        assert type(pred) is array and pred.typecode == "q" and len(pred) == n

    @pytest.mark.parametrize("name", ["python", "numpy", "native"])
    def test_row_entry_points_return_flat_buffers(self, name):
        mod = pyk if name == "python" else _accel_module(name)
        for size in (40, 500):  # below and above numpy's single-row gate
            graph = generate_isp_topology(n=size, seed=9)
            view = as_view(shared_csr(graph))
            n = view.csr.n
            dist, pred, _ = mod.dijkstra_canonical(view, 0)
            self._assert_row(dist, pred, n)
            self._assert_row(*mod.dijkstra_canonical(view, 0, [5])[:2], n)
            self._assert_row(*mod.bfs(view, 0), n)
            self._assert_row(*mod.bfs(view, 0, 5), n)
            rows = mod.rows_many(view, [0, 1, 2], False)
            for row in (rows or {}).values():
                self._assert_row(*row, n)
            nodes = view.csr.nodes
            failed = view.without(edges=[(nodes[pred[7]], nodes[7])])
            outcome, new_dist, new_pred = mod.repair_resettle(
                failed, 0, dist, pred, mod.children_index(pred), 2.0 * n, False
            )
            assert outcome == REPAIRED
            self._assert_row(new_dist, new_pred, n)
            offsets, kids = mod.children_index(pred)
            assert type(offsets) is array and offsets.typecode == "q"
            assert type(kids) is array and kids.typecode == "q"
            assert len(offsets) == n + 1 and offsets[n] == len(kids)


class TestDecomposeBitIdentity:
    """Accelerated decomposition DP == the forward reference DP, exactly."""

    def _chains(self, graph, rng):
        """Random simple walks through *graph*, as index chains + costs."""
        csr = shared_csr(graph)
        view = as_view(csr)
        indptr, indices, weights = csr.indptr, csr.indices, csr.weights
        for _ in range(6):
            chain = [rng.randrange(csr.n)]
            cum = [0.0]
            seen = {chain[0]}
            while len(chain) < 40:
                u = chain[-1]
                nbrs = [
                    (indices[s], weights[s])
                    for s in range(indptr[u], indptr[u + 1])
                    if indices[s] not in seen
                ]
                if not nbrs:
                    break
                v, w = rng.choice(nbrs)
                chain.append(v)
                cum.append(cum[-1] + w)
                seen.add(v)
            if len(chain) >= 3:
                yield view, tuple(chain), cum

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_decomposition_columns_match(self, family, accel):
        graph = family()
        mod = _accel_module(accel)
        rng = random.Random(23)
        for view, chain, cum in self._chains(graph, rng):
            rows = [
                pyk.dijkstra_canonical(view, chain[j])[0]
                for j in range(len(chain) - 2)
            ]
            before = COUNTERS.snapshot()
            ref = decompose_flat_reference(chain, cum, rows)
            ref_delta = COUNTERS.delta(before)
            if accel == "numpy":
                args = (chain, cum, rows)
                entry = mod._decompose_flat_vec
            else:
                args = (view.csr, chain, _row_table(view.csr, chain, rows))
                entry = mod.decompose_flat
                assert pyk.decompose_flat(*args) == ref
            before = COUNTERS.snapshot()
            acc = entry(*args)
            acc_delta = COUNTERS.delta(before)
            assert acc == ref
            assert acc_delta == ref_delta

    @ACCEL_PARAMS
    def test_truncated_rows_are_read_as_they_stand(self, accel):
        """Rows settled only up to the chain's later nodes suffice: no
        position is warmed."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=40, seed=3)
        view = as_view(shared_csr(graph))
        rng = random.Random(5)
        for _, chain, cum in self._chains(graph, rng):
            rows = [
                pyk.dijkstra_canonical(view, chain[j], chain[j + 1:])[0]
                for j in range(len(chain) - 2)
            ]
            ref = decompose_flat_reference(chain, cum, rows)
            if accel == "numpy":
                assert mod.decompose_flat(chain, cum, rows) == ref
                continue
            table = _row_table(view.csr, chain, rows)
            assert mod.decompose_flat(view.csr, chain, table) == ref
            assert pyk.decompose_flat(view.csr, chain, table) == ref
            assert table.warm.calls == []


class _Warm:
    """A ``warm`` callback for an :class:`OracleRows` over *view*: it
    records each request and stores the full row of every listed
    position."""

    def __init__(self, view) -> None:
        self.view = view
        self.table = None
        self.calls: list[list[int]] = []

    def __call__(self, chain, positions) -> None:
        self.calls.append(list(positions))
        for j in positions:
            row = pyk.dijkstra_canonical(self.view, chain[j])[0]
            self.table.store(chain[j], row)


def _row_table(csr, chain=(), rows=()):
    """An :class:`OracleRows` holding ``rows[j]`` for ``chain[j]``, with
    a recording :class:`_Warm` callback."""
    warm = _Warm(as_view(csr))
    table = warm.table = OracleRows(csr.n, warm)
    for c, row in zip(chain, rows):
        table.store(c, row)
    return table


@requires_native
class TestDecomposeWarmContract:
    """Both backends' ``decompose_flat`` warm the same positions — those
    whose row is missing or not final at a later chain node, ascending,
    in one request — and then return the same columns."""

    STATES = ("full", "missing", "truncated", "mixed")

    def _table(self, view, chain, state):
        table = _row_table(view.csr)
        for j in range(len(chain) - 2):
            c = chain[j]
            if state == "full" or (state == "mixed" and j % 2):
                table.store(c, pyk.dijkstra_canonical(view, c)[0])
            elif state == "truncated":
                table.store(c, pyk.dijkstra_canonical(view, c, chain[j + 1:j + 2])[0])
        return table

    @FAMILY_PARAMS
    def test_backends_warm_the_same_positions(self, family):
        graph = family()
        view = as_view(shared_csr(graph))
        rng = random.Random(31)
        for _, chain, cum in TestDecomposeBitIdentity()._chains(graph, rng):
            for state in self.STATES:
                ref_table = self._table(view, chain, state)
                nat_table = self._table(view, chain, state)
                want = pyk.decompose_flat(view.csr, chain, ref_table)
                got = natk.decompose_flat(view.csr, chain, nat_table)
                assert got == want, state
                assert nat_table.warm.calls == ref_table.warm.calls, state
                assert len(ref_table.warm.calls) <= 1
                if state == "full":
                    assert ref_table.warm.calls == []
                if state == "missing":
                    assert ref_table.warm.calls == [list(range(len(chain) - 2))]
                rows = [ref_table.rows[c] for c in chain[:-2]]
                assert want == decompose_flat_reference(chain, cum, rows)

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_a_hop_off_the_probe_graph_returns_none(self, name):
        mod = pyk if name == "python" else natk
        graph = path_graph(6)
        csr = shared_csr(graph)
        index = csr.index
        table = _row_table(csr)
        chain = [index[0], index[1], index[3], index[4]]
        assert mod.decompose_flat(csr, chain, table) is None
        assert table.warm.calls == []

    @pytest.mark.parametrize("name", ["python", "native"])
    def test_a_row_the_warm_cannot_supply_raises(self, name):
        mod = pyk if name == "python" else natk
        csr = shared_csr(path_graph(6))
        table = OracleRows(csr.n, lambda chain, positions: None)
        with pytest.raises(ValueError, match="no oracle row"):
            mod.decompose_flat(csr, list(range(5)), table)


def _diamond_chain(k):
    """*k* diamonds in series: 2**k shortest paths from 0 to the last
    node, which is returned with the graph."""
    graph = Graph()
    for i in range(k):
        a, b, c, d = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        graph.add_edge(a, b)
        graph.add_edge(a, c)
        graph.add_edge(b, d)
        graph.add_edge(c, d)
    return graph, 3 * k


def _zero_weight_tie():
    """``a-b (1), b-c (0), a-c (1)``: b and c are tight parents of each
    other, so the tight edges from a form no DAG."""
    return Graph.from_edges([("a", "b", 1), ("b", "c", 0), ("a", "c", 1)])


class TestCountPaths:
    """``count_paths``: every backend equals the reference, exactly."""

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_counts_match_for_every_source(self, family, accel):
        mod = _accel_module(accel)
        csr = shared_csr(family())
        view = as_view(csr)
        for s in range(csr.n):
            dist = pyk.dijkstra_canonical(view, s)[0]
            before = COUNTERS.snapshot()
            ref = pyk.count_paths(csr, s, dist, EPSILON)
            got = mod.count_paths(csr, s, dist, EPSILON)
            assert not any(COUNTERS.delta(before).as_dict().values())
            assert got == ref
            assert ref[s] == 1
            # 0 marks exactly the unreached nodes.
            assert [c > 0 for c in ref] == [d != float("inf") for d in dist]

    @pytest.mark.parametrize("k", [63, 64, 70])
    def test_counts_past_u64_stay_exact(self, k):
        """2**63 fits a u64 count; 2**64 and 2**70 overflow it, and the
        native backend reruns the exact reference."""
        graph, end = _diamond_chain(k)
        csr = shared_csr(graph)
        dist = pyk.dijkstra_canonical(as_view(csr), 0)[0]
        want = 2 ** k
        assert pyk.count_paths(csr, 0, dist, EPSILON)[csr.index[end]] == want
        if not native_missing:
            got = natk.count_paths(csr, 0, dist, EPSILON)
            assert got[csr.index[end]] == want
            assert got == pyk.count_paths(csr, 0, dist, EPSILON)

    @pytest.mark.parametrize("name", ["python", "numpy", "native"])
    def test_zero_weight_tie_raises_value_error_naming_the_edge(self, name):
        mod = pyk if name == "python" else _accel_module(name)
        csr = shared_csr(_zero_weight_tie())
        source = csr.index["a"]
        dist = pyk.dijkstra_canonical(as_view(csr), source)[0]
        with pytest.raises(ValueError, match=r"tight edge \('c', 'b'\)"):
            mod.count_paths(csr, source, dist, EPSILON)

    def test_modulo_reduces_the_exact_counts(self):
        graph, end = _diamond_chain(70)
        dag = ShortestPathDag.compute(graph, 0)
        exact = dag.count_all_paths()
        assert exact[end] == 2 ** 70
        for modulo in (2, 7, 1000003):
            reduced = dag.count_all_paths(modulo=modulo)
            assert reduced[0] == 1  # the source's own count is not reduced
            assert reduced == {
                v: c if v == 0 else c % modulo for v, c in exact.items()
            }
            assert dag.count_paths_to(end, modulo=modulo) == 2 ** 70 % modulo


@requires_native
class TestNativeValidation:
    """Malformed buffers — memoryviews included — raise ValueError
    before any pointer reaches C; the rows C reads are never written."""

    def _setup(self):
        graph = generate_isp_topology(n=40, seed=3)
        view = as_view(shared_csr(graph))
        dist, pred, _ = pyk.dijkstra_canonical(view, 0)
        nodes = view.csr.nodes
        failed = view.without(edges=[(nodes[pred[9]], nodes[9])])
        return view, failed, dist, pred

    def test_repair_rejects_a_short_row(self):
        _, failed, dist, pred = self._setup()
        children = natk.children_index(pred)
        with pytest.raises(ValueError, match="dist"):
            natk.repair_resettle(
                failed, 0, dist[:-1], pred, children, 100.0, False
            )
        with pytest.raises(ValueError, match="pred"):
            natk.repair_resettle(
                failed, 0, dist, array("l", pred), children, 100.0, False
            )
        with pytest.raises(ValueError, match="dist"):
            natk.repair_resettle(
                failed, 0, list(dist), pred, children, 100.0, False
            )
        with pytest.raises(ValueError, match="dist"):
            natk.repair_resettle(
                failed, 0, memoryview(dist), pred, children, 100.0, False
            )

    def test_repair_rejects_a_bad_children_index(self):
        _, failed, dist, pred = self._setup()
        offsets, kids = natk.children_index(pred)
        with pytest.raises(ValueError, match="children offsets"):
            natk.repair_resettle(
                failed, 0, dist, pred, (offsets[:-1], kids), 100.0, False
            )
        with pytest.raises(ValueError, match="children index"):
            natk.repair_resettle(
                failed, 0, dist, pred, (offsets, kids[:-1]), 100.0, False
            )

    def test_repair_rejects_out_of_range_dead_indices(self):
        view, _, dist, pred = self._setup()
        n = view.csr.n
        children = natk.children_index(pred)
        from repro.graph.csr import CsrView

        bad_node = CsrView(view.csr, frozenset(), frozenset({n}))
        with pytest.raises(ValueError, match="dead node"):
            natk.repair_resettle(bad_node, 0, dist, pred, children, 1e9, False)
        bad_slot = CsrView(view.csr, frozenset({len(view.csr.indices)}))
        with pytest.raises(ValueError, match="dead edge slot"):
            natk.repair_resettle(bad_slot, 0, dist, pred, children, 1e9, False)

    def test_dp_rejects_a_short_row_and_an_out_of_range_chain_index(self):
        view, _, _, _ = self._setup()
        csr = view.csr
        n = csr.n
        dist, pred, _ = pyk.dijkstra_canonical(view, 0)
        chain = [0]
        while len(chain) < 4:  # a tree path out of node 0
            chain.append(next(v for v in range(n) if pred[v] == chain[-1]))
        rows = [pyk.dijkstra_canonical(view, c)[0] for c in chain[:2]]
        table = _row_table(csr, chain, rows)
        assert natk.decompose_flat(csr, chain, table) == pyk.decompose_flat(
            csr, chain, table
        )
        with pytest.raises(ValueError, match="rows"):
            table.store(chain[1], rows[1][:-1])
        with pytest.raises(ValueError, match="rows"):
            table.store(chain[1], list(rows[1]))
        with pytest.raises(ValueError, match="rows"):
            table.store(chain[1], array("f", rows[1]))
        with pytest.raises(ValueError, match="rows"):
            table.store(chain[1], memoryview(rows[1]))
        with pytest.raises(ValueError, match="chain index"):
            natk.decompose_flat(csr, (0, 1, n), table)
        with pytest.raises(ValueError, match="chain index"):
            natk.decompose_flat(csr, (0, 1, -1), table)
        with pytest.raises(ValueError, match="rows"):
            natk.decompose_flat(csr, chain, OracleRows(n - 1, None))

    def test_count_paths_rejects_a_short_or_mistyped_row(self):
        view, _, dist, _ = self._setup()
        csr = view.csr
        assert natk.count_paths(csr, 0, dist, EPSILON) == pyk.count_paths(
            csr, 0, dist, EPSILON
        )
        with pytest.raises(ValueError, match="dist"):
            natk.count_paths(csr, 0, dist[:-1], EPSILON)
        with pytest.raises(ValueError, match="dist"):
            natk.count_paths(csr, 0, list(dist), EPSILON)
        with pytest.raises(ValueError, match="dist"):
            natk.count_paths(csr, 0, array("f", dist), EPSILON)
        with pytest.raises(ValueError, match="dist"):
            natk.count_paths(csr, 0, memoryview(dist), EPSILON)
        with pytest.raises(ValueError, match="source"):
            natk.count_paths(csr, csr.n, dist, EPSILON)

    def test_rows_read_in_place_are_never_written(self):
        view, failed, dist, pred = self._setup()
        n = view.csr.n
        pristine = (bytes(dist), bytes(pred))
        got = natk.repair_resettle(
            failed, 0, dist, pred, natk.children_index(pred), 2.0 * n, False
        )
        assert (bytes(dist), bytes(pred)) == pristine
        want = pyk.repair_resettle(
            failed, 0, dist, pred, pyk.children_index(pred), 2.0 * n, False
        )
        assert got == want and got[0] == REPAIRED
        chain = [0]
        while len(chain) < 6:  # a tree path out of node 0
            chain.append(next(v for v in range(n) if pred[v] == chain[-1]))
        table = _row_table(view.csr, chain, [dist])
        assert natk.decompose_flat(view.csr, chain, table) == (
            pyk.decompose_flat(view.csr, chain, table)
        )
        assert table.rows[0] is dist
        assert (bytes(dist), bytes(pred)) == pristine


@requires_native
class TestSnapshotMasks:
    """A failure view costs O(k) under the native backend: each call
    marks its view's dead slots and nodes in masks its snapshot owns
    and clears them before it returns, whatever its status."""

    def _views(self):
        graph = generate_isp_topology(n=40, seed=3)
        csr = shared_csr(graph)
        base = as_view(csr)
        edges = sorted(graph.edges(), key=repr)
        return csr, base.without(edges=edges[:3]), base.without(
            nodes=csr.nodes[5:7]
        )

    @staticmethod
    def _assert_clear(csr):
        """Both masks and the side bytes are all zero: every slot,
        those of the link ``bypass_hops`` cuts in C included."""
        state = csr.native_state
        assert not any(state.edge_mask) and not any(state.node_mask)
        assert state.hops is None or not any(state.hops.side)

    @staticmethod
    def _live_link(view):
        """A link of *view* with both endpoints and both slots alive,
        so ``bypass_hops`` marks and clears slots the view leaves live."""
        csr = view.csr
        node_dead = view.masks()[1]
        for u in range(csr.n):
            for slot in range(csr.indptr[u], csr.indptr[u + 1]):
                v = csr.indices[slot]
                if not (node_dead[u] or node_dead[v]) and not (
                    csr.edge_slots([(csr.nodes[u], csr.nodes[v])])
                    & view.dead_edges
                ):
                    return u, v
        raise AssertionError("no live link")

    def _calls(self, view):
        """Every view-taking entry point once, as ``(name, args)``."""
        dist, pred, _ = pyk.dijkstra_canonical(as_view(view.csr), 0)
        children = pyk.children_index(pred)
        alive = _alive_sources(view)
        return [
            ("dijkstra_canonical", (view, alive[0])),
            ("dijkstra_canonical", (view, alive[1], alive[-3:])),
            ("bfs", (view, alive[0])),
            ("bypass_hops", (view, alive[0], alive[-1])),
            ("bypass_hops", (view, *self._live_link(view))),
            ("repair_resettle", (view, 0, dist, pred, children, 1e9, False)),
        ]

    def test_masks_are_zero_after_every_call(self):
        csr, failed_edges, failed_nodes = self._views()
        for view in (failed_edges, failed_nodes, csr.unmasked):
            for name, args in self._calls(view):
                assert getattr(natk, name)(*args) == getattr(pyk, name)(*args)
                self._assert_clear(csr)
            sources = _alive_sources(view)[:5]
            rows = natk.rows_many(view, sources, False)
            assert rows == _reference_rows(view, sources, False)[0]
            self._assert_clear(csr)

    def test_interleaved_views_of_one_snapshot(self):
        csr, failed_edges, failed_nodes = self._views()
        pairs = list(zip(self._calls(failed_edges), self._calls(failed_nodes)))
        for first, second in pairs + [p[::-1] for p in pairs]:
            for name, args in (first, second):
                assert getattr(natk, name)(*args) == getattr(pyk, name)(*args)
            self._assert_clear(csr)

    def test_a_call_that_raises_leaves_the_masks_clear(self, monkeypatch):
        csr, failed_edges, failed_nodes = self._views()

        def fail(status):
            raise RuntimeError("native kernel failed")

        monkeypatch.setattr(natk, "_check", fail)
        for view in (failed_edges, failed_nodes, csr.unmasked):
            for name, args in self._calls(view):
                with pytest.raises(RuntimeError):
                    getattr(natk, name)(*args)
                self._assert_clear(csr)
            with pytest.raises(RuntimeError):
                natk.rows_many(view, _alive_sources(view)[:2], False)
            self._assert_clear(csr)
        monkeypatch.undo()
        # A dead index outside the snapshot is refused before marking.
        from repro.graph.csr import CsrView

        bad = CsrView(csr, frozenset({0, len(csr.indices)}))
        with pytest.raises(ValueError, match="dead edge slot"):
            natk.dijkstra_canonical(bad, 1)
        self._assert_clear(csr)


class TestSelection:
    """Backend selection: env var, --kernel, and the auto fallback."""

    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        previous = backend_name()
        yield
        set_backend(previous)

    def test_choices_cover_all_backends(self):
        assert KERNEL_CHOICES == ("auto", "python", "native")
        assert available_backends()[0] == "python"

    def test_set_backend_round_trips_and_exports(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        set_backend("python")
        assert backend_name() == "python"
        # The resolved name is exported so forked/spawned workers make
        # the same deterministic choice instead of re-running "auto".
        assert os.environ.get("REPRO_KERNEL") == "python"

    @requires_native
    def test_auto_prefers_native_when_buildable(self):
        set_backend("auto")
        assert backend_name() == "native"

    @requires_native
    def test_explicit_native_resolves(self):
        set_backend("native")
        assert backend_name() == "native"

    def test_unknown_backend_is_rejected(self):
        choices = re.escape("choose from ('auto', 'python', 'native')")
        for name in ("fortran", "numpy"):
            with pytest.raises(
                ValueError, match=f"unknown kernel backend.*{choices}"
            ):
                set_backend(name)

    def test_reference_backend_has_the_full_interface(self):
        for attr in (
            "NAME", "dijkstra_canonical", "bfs", "bypass_hops", "rows_many",
            "children_index", "preorder", "repair_resettle",
            "decompose_flat", "ilm_account", "count_paths",
        ):
            assert hasattr(pyk, attr)


def test_no_module_imports_numpy_or_scipy():
    """Every module under ``repro`` imports in a fresh interpreter without
    pulling in numpy or scipy: the library has no runtime dependencies."""
    code = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.endswith(".__main__"):
        continue  # running a CLI is not importing it
    try:
        importlib.import_module(info.name)
    except ImportError:
        if info.name != "repro.kernels.native_backend":
            raise  # only the compiled backend may be unavailable
print(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
"""
    src_dir = str(Path(pyk.__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
