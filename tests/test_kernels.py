"""Kernel equivalence: the native backend and the numpy oracle vs. the
reference.

The backend contract (:mod:`repro.kernels`) is that the compiled
backend is a drop-in for the pure-Python reference — same rows, same
repaired SPTs, same decomposition columns, same perf counters, bit for
bit.  This suite pins that contract over a representative of every
topology family the repo generates (the same 13-family sweep as
``tests/test_shm.py``), for clean views and for views with dead edges
and dead nodes.  Each case also runs against
:mod:`tests.numpy_kernels`, a test-only vectorized fixpoint
re-derivation of the same interface (under the scipy settle stage
*and* the Bellman–Ford fallback it uses when scipy is absent): it
shares no control flow with the heap loops, so agreement shows the
reference's output is a function of the final labels alone.

The oracle's vectorized stages are called directly
(``_repair_resettle_vec``, ``_decompose_flat_vec``) so its size gates
cannot hide a divergence; the native backend has no gates, so its
public entry points are exercised at every input size: the fused
repair through all four outcomes, the decomposition DP over row
buffers it reads in place (validated first — a malformed buffer raises
``ValueError`` instead of reaching C), and shortest-path counting from
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

#: Same representatives as the shared-memory sweep in tests/test_shm.py.
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
        entry = mod._decompose_flat_vec if accel == "numpy" else mod.decompose_flat
        rng = random.Random(23)
        for view, chain, cum in self._chains(graph, rng):
            rows = [
                pyk.dijkstra_canonical(view, chain[j])[0]
                for j in range(len(chain) - 2)
            ]
            before = COUNTERS.snapshot()
            ref = pyk.decompose_flat(chain, cum, rows)
            ref_delta = COUNTERS.delta(before)
            before = COUNTERS.snapshot()
            acc = entry(chain, cum, rows)
            acc_delta = COUNTERS.delta(before)
            assert acc == ref
            assert acc_delta == ref_delta

    @ACCEL_PARAMS
    def test_truncated_rows_are_read_as_they_stand(self, accel):
        """Rows settled only up to the chain's later nodes suffice."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=40, seed=3)
        view = as_view(shared_csr(graph))
        rng = random.Random(5)
        for _, chain, cum in self._chains(graph, rng):
            rows = [
                pyk.dijkstra_canonical(view, chain[j], chain[j + 1:])[0]
                for j in range(len(chain) - 2)
            ]
            assert mod.decompose_flat(chain, cum, rows) == pyk.decompose_flat(
                chain, cum, rows
            )


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
    """Malformed buffers raise ValueError before any pointer reaches C;
    read-only shared-memory rows are accepted and never written."""

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
        n = view.csr.n
        chain = (0, 1, 2, 3)
        cum = [0.0, 1.0, 2.0, 3.0]
        rows = [pyk.dijkstra_canonical(view, c)[0] for c in chain[:2]]
        assert natk.decompose_flat(chain, cum, rows) == pyk.decompose_flat(
            chain, cum, rows
        )
        with pytest.raises(ValueError, match="rows"):
            natk.decompose_flat(chain, cum, [rows[0], rows[1][:-1]])
        with pytest.raises(ValueError, match="chain index"):
            natk.decompose_flat((0, 1, n), cum[:3], rows[:1])
        with pytest.raises(ValueError, match="chain index"):
            natk.decompose_flat((0, 1, -1), cum[:3], rows[:1])
        with pytest.raises(ValueError, match="rows"):
            natk.decompose_flat(chain, cum, rows[:1])

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
        with pytest.raises(ValueError, match="source"):
            natk.count_paths(csr, csr.n, dist, EPSILON)

    def test_read_only_shared_memory_rows_are_accepted_and_never_written(self):
        from repro.graph import shm

        if not shm.shm_enabled():
            pytest.skip("shared memory disabled")
        view, failed, dist, pred = self._setup()
        n = view.csr.n
        seg = shm.publish_rows("spt", n, True, None, {0: (dist, pred)})
        if seg is None:
            pytest.skip("shared memory unavailable")
        try:
            table, attached = shm.attach_rows(seg.name)
            try:
                ro_dist, ro_pred = table.row(0)
                assert ro_dist.readonly and ro_pred.readonly
                children = natk.children_index(ro_pred)
                got = natk.repair_resettle(
                    failed, 0, ro_dist, ro_pred, children, 2.0 * n, False
                )
                want = pyk.repair_resettle(
                    failed, 0, dist, pred, pyk.children_index(pred),
                    2.0 * n, False,
                )
                assert got == want and got[0] == REPAIRED
                assert list(ro_dist) == list(dist)
                assert list(ro_pred) == list(pred)
                chain = tuple(range(6))
                cum = [float(k) for k in range(6)]
                rows = [ro_dist] * 4
                assert natk.decompose_flat(chain, cum, rows) == (
                    pyk.decompose_flat(chain, cum, rows)
                )
                assert list(ro_dist) == list(dist)
            finally:
                attached.close()
        finally:
            seg.close()
            seg.unlink()


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
            "NAME", "dijkstra_canonical", "bfs", "rows_many",
            "children_index", "repair_resettle", "decompose_flat",
            "ilm_account", "count_paths",
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
