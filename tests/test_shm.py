"""Shared-memory row publication, inherited worker state, and fan-out
identity.

Five contracts pinned here:

* **Format round-trip** — a published ``RROW`` segment attaches back to
  a :class:`RowTable` whose rows are byte-identical to the published
  ones, with zero payload copies (the attached blocks are memoryview
  casts over the shared pages).
* **Validation** — segments with a wrong magic, a future format
  version, or a foreign tie-order contract are refused with
  :class:`ShmFormatError`, never reinterpreted.
* **Lifecycle / leak-freedom** — after normal teardown *and* after an
  exception inside the publication scope, ``residual_segments()`` is
  empty; attach-side handles can never unlink a creator's segment.
* **Inherited state** — fan-out workers are forked, so the snapshots
  the parent built are the ones every worker cache holds, and only
  rows built after the fork travel through shared memory.
* **Fan-out identity** — per-link ILM accounting produces byte-identical
  results at ``--jobs 1`` and ``--jobs 4``, with shared memory enabled
  and with ``REPRO_SHM=0`` (the per-worker warm-up fallback).
"""

from __future__ import annotations

import json
import os
import random
from array import array

import pytest

from repro.core.cache import shared_spt_cache, shared_unique_base
from repro.experiments import figure10, parallel, table2, table3
from repro.experiments.ilm_accounting import IlmAccountant
from repro.experiments.networks import cached_suite
from repro.experiments.parallel import chunk_bounds, make_executor, publish_suite
from repro.failures.sampler import sample_pairs
from repro.graph import shm
from repro.graph.csr import shared_csr
from repro.graph.shm import (
    ShmFormatError,
    attach_rows,
    attach_rows_cached,
    detach_all,
    publish_rows,
    residual_segments,
    segment_exists,
)
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


def _warm_spt_cache(graph, sources=(0, 1, 2), weighted=True):
    """A fresh (non-shared) SptCache with rows built for *sources*."""
    from repro.graph.incremental import SptCache

    cache = SptCache(graph, weighted=weighted)
    cache.ensure_rows(sources)
    return cache


def publish_rows_or_skip(kind, n, weighted, version, rows):
    seg = publish_rows(kind, n, weighted, version, rows)
    if seg is None:
        pytest.skip("shared memory unavailable on this platform")
    return seg


def _published(graph=None, sources=(0,)):
    """A creator handle for the SPT rows of *graph* (default a path)."""
    cache = _warm_spt_cache(
        graph if graph is not None else path_graph(4), sources=sources
    )
    csr = cache.csr
    return publish_rows_or_skip(
        "spt", csr.n, True, csr.source_version, cache.export_rows()
    )


def _corrupt(seg, offset: int, payload: bytes) -> None:
    view = shm._attach_untracked(seg.name)
    try:
        view.buf[offset : offset + len(payload)] = payload
    finally:
        view.close()


class TestFormatRoundTrip:
    def test_attach_reproduces_buffers_exactly(self):
        """Every row comes back bit for bit, unreachable ``inf`` /
        ``-1`` entries included."""
        graph = grid_graph(3, 4)
        graph.add_node("island")
        cache = _warm_spt_cache(graph, sources=(0, 5, 11))
        csr = cache.csr
        rows = cache.export_rows()
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, rows
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                assert table.sources == (0, 5, 11)
                for i in table.sources:
                    dist, pred = table.row(i)
                    assert dist.tobytes() == array("d", rows[i][0]).tobytes()
                    assert pred.tobytes() == array("q", rows[i][1]).tobytes()
                    assert dist[csr.index["island"]] == float("inf")
                    assert pred[csr.index["island"]] == -1
            finally:
                handle.close()

    def test_attach_is_zero_copy(self):
        """The row blocks are casts over the shared pages: a write
        through the creator's mapping shows in the attached view."""
        with _published(cycle_graph(5)) as seg:
            table, handle = attach_rows(seg.name)
            try:
                dist, _pred = table.row(0)
                assert isinstance(dist, memoryview)
                # The table pins its segment so the mapping outlives
                # local references to the handle.
                assert table.segment is handle
                offset = seg._shm.buf.tobytes().index(dist.tobytes())
                seg._shm.buf[offset : offset + 8] = array("d", [7.5]).tobytes()
                assert dist[0] == 7.5
            finally:
                handle.close()


class TestValidation:
    def test_failed_attach_leaves_no_local_handle(self):
        with _published() as seg:
            _corrupt(seg, 0, b"NOPE")
            with pytest.raises(ShmFormatError):
                attach_rows(seg.name)
            # The refused attach closed its own mapping; the creator's
            # segment itself is untouched and still published.
            assert segment_exists(seg.name)


class TestLifecycle:
    def test_normal_teardown_leaves_no_residue(self):
        seg = _published(four_cycle())
        name = seg.name
        assert segment_exists(name)
        seg.close()
        seg.unlink()
        assert not segment_exists(name)
        assert residual_segments() == []

    def test_exceptional_teardown_leaves_no_residue(self):
        name = None
        with pytest.raises(RuntimeError, match="boom"):
            with _published(four_cycle()) as seg:
                name = seg.name
                raise RuntimeError("boom")
        assert name is not None
        assert not segment_exists(name)
        assert residual_segments() == []

    def test_attacher_cannot_unlink(self):
        with _published(four_cycle()) as seg:
            _table, handle = attach_rows(seg.name)
            handle.unlink()  # no-op: not the creator
            assert segment_exists(seg.name)
            handle.close()
        assert not segment_exists(seg.name)

    def test_close_and_unlink_are_idempotent(self):
        seg = _published(four_cycle())
        for _ in range(2):
            seg.close()
            seg.unlink()
        assert residual_segments() == []

    def test_attach_cache_is_per_name_and_detachable(self):
        with _published(grid_graph(2, 3)) as seg:
            first = attach_rows_cached(seg.name)
            second = attach_rows_cached(seg.name)
            assert first is second
            detach_all()
            third = attach_rows_cached(seg.name)
            assert third is not first
            detach_all()

    def test_disabled_publication_falls_back(self, monkeypatch):
        cache = _warm_spt_cache(path_graph(3), sources=(0,))
        monkeypatch.setenv("REPRO_SHM", "0")
        assert not shm.shm_enabled()
        before = COUNTERS.shm_fallbacks
        assert publish_rows("spt", 3, True, None, cache.export_rows()) is None
        assert COUNTERS.shm_fallbacks == before + 1

    def test_oversize_payload_falls_back(self, monkeypatch):
        cache = _warm_spt_cache(complete_graph(6), sources=(0, 1))
        monkeypatch.setattr(shm, "MAX_SEGMENT_BYTES", 16)
        before = COUNTERS.shm_fallbacks
        assert publish_rows("spt", 6, True, None, cache.export_rows()) is None
        assert COUNTERS.shm_fallbacks == before + 1
        assert residual_segments() == []


#: One small instance per topology family the generators can produce.
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

#: The graph a TestEveryTopologyFamily worker reads.  Set in the parent
#: before the pool forks: inheritance is the only way it can arrive.
_INHERITED_GRAPH = None


def _inherited_csr_report() -> tuple:
    """Worker side: builds counted, and the snapshot it finds."""
    before = COUNTERS.csr_builds
    csr = shared_csr(_INHERITED_GRAPH)
    return (
        COUNTERS.csr_builds - before, csr.nodes,
        bytes(csr.indptr), bytes(csr.indices), bytes(csr.weights),
    )


class TestEveryTopologyFamily:
    """Property: the parent-to-worker hand-off is the identity on CSR
    buffers and rebuilds nothing, for a representative of every
    topology family the repo generates."""

    @pytest.mark.parametrize(
        "family", [f for _, f in TOPOLOGY_FAMILIES],
        ids=[name for name, _ in TOPOLOGY_FAMILIES],
    )
    def test_round_trip_preserves_family_csr(self, family, monkeypatch):
        graph = family()
        csr = shared_csr(graph)
        monkeypatch.setattr(f"{__name__}._INHERITED_GRAPH", graph)
        executor = make_executor(2)
        try:
            report = executor.submit(_inherited_csr_report).result()
        finally:
            executor.shutdown()
        assert report == (
            0, csr.nodes,
            bytes(csr.indptr), bytes(csr.indices), bytes(csr.weights),
        )
        assert residual_segments() == []


#: Where the probing chunk wrappers append one line per worker chunk.
#: Set in the parent before the pool forks, so every worker inherits it.
_PROBE_LOG = None


def _log_inherited_state(scale: str, seed: int, index: int) -> None:
    """Worker side: do this network's caches hold the snapshots
    ``shared_csr`` returns?"""
    network = cached_suite(scale=scale, seed=seed)[index]
    graph = network.graph
    cache = shared_spt_cache(graph, weighted=network.weighted)
    base = shared_unique_base(graph)
    with open(_PROBE_LOG, "a") as fh:
        fh.write(json.dumps([
            os.getpid(),
            cache.csr is shared_csr(graph),
            base.oracle.csr() is shared_csr(base.padded),
        ]) + "\n")


def _probing_case_chunk(scale, seed, index, *rest):
    result = parallel.table2_case_chunk(scale, seed, index, *rest)
    _log_inherited_state(scale, seed, index)
    return result


def _probing_ilm_chunk(scale, seed, index, *rest):
    result = parallel.ilm_scenario_chunk(scale, seed, index, *rest)
    _log_inherited_state(scale, seed, index)
    return result


class TestInheritedState:
    """Workers get the parent's pre-fork state one way only: ``fork``."""

    def test_worker_caches_hold_the_shared_snapshots(
        self, monkeypatch, tmp_path
    ):
        """In every worker chunk of a jobs-2 Table 2 run the network's
        SPT cache sits on ``shared_csr(graph)`` and its base oracle on
        ``shared_csr(base.padded)``: one snapshot per graph."""
        log = tmp_path / "probe.jsonl"
        monkeypatch.setattr(f"{__name__}._PROBE_LOG", str(log))
        monkeypatch.setattr(table2, "table2_case_chunk", _probing_case_chunk)
        monkeypatch.setattr(table2, "ilm_scenario_chunk", _probing_ilm_chunk)
        table2.run(
            scale="tiny", modes=("link",), ilm_accounting="per-link", jobs=2
        )
        records = [json.loads(line) for line in log.read_text().splitlines()]
        networks = len(cached_suite(scale="tiny", seed=1))
        assert len(records) > 2 * networks  # case and ILM chunks alike
        assert all(pid != os.getpid() for pid, _, _ in records)
        assert all(spt and oracle for _, spt, oracle in records), records
        assert residual_segments() == []

    def test_table3_and_figure10_create_no_segment(self):
        """Neither fan-out builds rows after its workers start, so
        neither has anything to publish."""
        before = COUNTERS.snapshot()
        table3.run(scale="tiny", jobs=2)
        figure10.run(scale="tiny", jobs=2)
        delta = COUNTERS.delta(before)
        assert delta.shm_segments == 0
        assert delta.shm_fallbacks == 0
        assert residual_segments() == []


def _ilm_reference(network, pairs, scenarios):
    """Sequential per-link accounting for one network/mode."""
    base = shared_unique_base(network.graph)
    accountant = IlmAccountant(
        network.graph,
        base,
        demand_sources=table2.ilm_demand_sources(network.graph, pairs),
        weighted=network.weighted,
    )
    accountant.process_scenarios(scenarios)
    return accountant


def _ilm_summary(accountant):
    return (
        accountant.stretch_factors(),
        accountant.table_sizes(),
        accountant.base_lsp_count(),
        accountant.demands_restored,
        accountant.demands_unrestorable,
    )


class TestIlmChunkMergeIdentity:
    """The order-free accountant merge: chunked == sequential, exactly."""

    def test_shuffled_chunk_merge_matches_sequential(self):
        network = cached_suite(scale="tiny", seed=1)[0]
        base = shared_unique_base(network.graph)
        pairs = sample_pairs(network.graph, network.sample_pairs, seed=1)
        scenarios = table2.ilm_scenarios(base, pairs, "link", 200)
        assert len(scenarios) > 4

        sequential = _ilm_reference(network, pairs, scenarios)

        states = []
        for start, end in chunk_bounds(len(scenarios), 4):
            chunk = IlmAccountant(
                network.graph,
                base,
                demand_sources=table2.ilm_demand_sources(network.graph, pairs),
                weighted=network.weighted,
            )
            chunk.process_scenarios(scenarios[start:end])
            states.append(chunk.export_state())
        random.Random(7).shuffle(states)  # merge must be order-free

        merged = IlmAccountant(
            network.graph,
            base,
            demand_sources=table2.ilm_demand_sources(network.graph, pairs),
            weighted=network.weighted,
        )
        for state in states:
            merged.merge_state(state)

        assert _ilm_summary(merged) == _ilm_summary(sequential)


class TestIlmJobsIdentity:
    """End-to-end: per-link rows identical at jobs=1 and jobs=4, with
    the shared-memory fast path and with REPRO_SHM=0 (rebuild fallback)."""

    def _rows(self, jobs: int) -> dict:
        network = cached_suite(scale="tiny", seed=1)[0]
        executor = make_executor(jobs) if jobs > 1 else None
        try:
            return table2.evaluate_network(
                network,
                modes=("link",),
                seed=1,
                with_multiplicity=False,
                ilm_accounting="per-link",
                jobs=jobs,
                suite_ref=("tiny", 1, 0),
                executor=executor,
            )
        finally:
            if executor is not None:
                executor.shutdown()

    def test_jobs4_matches_jobs1_with_shm(self):
        sequential = self._rows(jobs=1)
        before_chunks = COUNTERS.ilm_scenario_chunks
        parallel = self._rows(jobs=4)
        assert parallel == sequential
        assert COUNTERS.ilm_scenario_chunks > before_chunks
        assert residual_segments() == []

    def test_jobs4_matches_jobs1_without_shm(self, monkeypatch):
        sequential = self._rows(jobs=1)
        monkeypatch.setenv("REPRO_SHM", "0")
        parallel = self._rows(jobs=4)
        assert parallel == sequential
        assert residual_segments() == []


# -- warm-row (RROW) segments -------------------------------------------------


class TestRowSegmentRoundTrip:
    def test_attach_reproduces_rows_exactly(self):
        graph = grid_graph(3, 4)
        cache = _warm_spt_cache(graph, sources=(0, 3, 7))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                assert table.kind == "spt"
                assert table.n == csr.n
                assert table.weighted is True
                assert table.source_version == csr.source_version
                assert table.sources == (0, 3, 7)
                for i in table.sources:
                    dist, pred = cache.export_rows()[i]
                    got_dist, got_pred = table.row(i)
                    assert list(got_dist) == list(dist)
                    assert list(got_pred) == list(pred)
            finally:
                handle.close()

    def test_attached_rows_are_read_only_views(self):
        graph = grid_graph(2, 3)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                dist, pred = table.row(0)
                assert isinstance(dist, memoryview) and dist.readonly
                assert isinstance(pred, memoryview) and pred.readonly
                with pytest.raises(TypeError):
                    dist[0] = 0.0
                with pytest.raises(TypeError):
                    pred[0] = 0
            finally:
                handle.close()

    def test_publication_counters_move(self):
        from repro.perf import COUNTERS

        graph = path_graph(5)
        cache = _warm_spt_cache(graph, sources=(0, 1))
        csr = cache.csr
        before = COUNTERS.snapshot()
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            handle.close()
        delta = COUNTERS.delta(before)
        assert delta.shm_segments == 1
        assert delta.shm_attach == 1
        assert delta.warm_rows_published == 2


class TestRowSegmentValidation:
    def test_format_version_mismatch_is_refused(self):
        with _published() as seg:
            _corrupt(seg, 4, (999).to_bytes(4, "little"))
            with pytest.raises(ShmFormatError, match="format v999"):
                attach_rows(seg.name)

    def test_bad_magic_is_refused(self):
        with _published() as seg:
            _corrupt(seg, 0, b"NOPE")
            with pytest.raises(ShmFormatError, match="magic"):
                attach_rows(seg.name)

    def test_foreign_tie_order_is_refused(self, monkeypatch):
        with _published() as seg:
            monkeypatch.setattr(shm, "SHM_TIE_ORDER", "hops")
            with pytest.raises(ShmFormatError, match="tie order"):
                attach_rows(seg.name)

    def test_attach_after_unlink_raises(self):
        seg = _published()
        name = seg.name
        seg.unlink()
        assert not segment_exists(name)
        with pytest.raises(Exception):
            attach_rows(name)
        assert residual_segments() == []

    def test_adopt_refuses_wrong_kind(self):
        graph = path_graph(4)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        with publish_rows_or_skip(
            "oracle", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                fresh = _warm_spt_cache(graph, sources=())
                with pytest.raises(ValueError, match="cannot adopt"):
                    fresh.adopt_rows(table)
            finally:
                handle.close()

    def test_adopt_refuses_wrong_shape_and_flavor(self):
        graph = path_graph(4)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                from repro.graph.incremental import SptCache

                other = SptCache(path_graph(6), weighted=True)
                with pytest.raises(ValueError, match="n="):
                    other.adopt_rows(table)
                unweighted = SptCache(path_graph(4), weighted=False)
                with pytest.raises(ValueError, match="weighted"):
                    unweighted.adopt_rows(table)
            finally:
                handle.close()


class TestRowSegmentLifecycle:
    def test_unlink_leaves_no_residue(self):
        graph = four_cycle()
        cache = _warm_spt_cache(graph, sources=(0, 1))
        csr = cache.csr
        seg = publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        )
        name = seg.name
        assert segment_exists(name)
        seg.unlink()
        assert not segment_exists(name)
        assert residual_segments() == []

    def test_attach_cache_survives_creator_unlink(self):
        """POSIX keeps the mapping alive: a memoized attach outlives the
        creator's unlink (the fan-out unlinks right after the last
        future resolves while workers may still hold their views)."""
        from repro.graph.shm import attach_rows_cached

        graph = path_graph(5)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        seg = publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        )
        expected = [list(b) for b in cache.export_rows()[0]]
        table = attach_rows_cached(seg.name)
        seg.unlink()
        dist, pred = table.row(0)
        assert [list(dist), list(pred)] == expected
        detach_all()
        assert residual_segments() == []

    def test_disabled_publication_falls_back(self, monkeypatch):
        from repro.perf import COUNTERS

        graph = path_graph(3)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        monkeypatch.setenv("REPRO_SHM", "0")
        before = COUNTERS.shm_fallbacks
        assert publish_rows(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) is None
        assert COUNTERS.shm_fallbacks == before + 1

    def test_empty_rows_do_not_publish_or_fall_back(self):
        from repro.perf import COUNTERS

        before = COUNTERS.shm_fallbacks
        assert publish_rows("spt", 4, True, None, {}) is None
        assert COUNTERS.shm_fallbacks == before

    def test_copy_on_repair_keeps_shared_rows_intact(self):
        from repro.failures.models import FailureScenario
        from repro.graph.incremental import SptCache

        graph = grid_graph(3, 3)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        pristine = [list(b) for b in cache.export_rows()[0]]
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                adopter = SptCache(graph, weighted=True)
                assert adopter.adopt_rows(table) == 1
                nodes = csr.nodes
                scenario = FailureScenario.single_link(nodes[0], nodes[1])
                view = adopter.view_for(scenario)
                dist, pred = adopter._repaired_row_idx(0, view)
                # The repair produced a post-failure row...
                assert list(dist) != pristine[0] or list(pred) != pristine[1]
                # ...while the shared pre-failure buffers are untouched.
                got_dist, got_pred = table.row(0)
                assert [list(got_dist), list(got_pred)] == pristine
            finally:
                handle.close()


class TestWorkerWarmUpAccounting:
    """Satellite: adoption is bookkeeping, never search work, and the
    fan-out's worker-side warm-up counters prove it end to end."""

    def test_adoption_moves_no_search_counters(self):
        from repro.graph.incremental import SptCache
        from repro.perf import COUNTERS

        graph = grid_graph(3, 4)
        cache = _warm_spt_cache(graph, sources=(0, 5))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                fresh = SptCache(graph, weighted=True)
                before = COUNTERS.snapshot()
                assert fresh.adopt_rows(table) == 2
                delta = COUNTERS.delta(before)
                assert delta.warm_rows_adopted == 2
                assert delta.csr_settled == 0
                assert delta.csr_relaxations == 0
                assert delta.dijkstra_relaxations == 0
                assert delta.dijkstra_settled == 0
                assert delta.warm_row_builds == 0
            finally:
                handle.close()

    def _evaluate(self, jobs: int, with_rows: bool) -> tuple[dict, object]:
        from repro.core.cache import clear_cache
        from repro.perf import COUNTERS

        # Start from cold shared caches: fork-started workers inherit
        # the parent's warm state, which would mask the adopt-vs-rebuild
        # distinction this class is pinning.
        clear_cache()
        network = cached_suite(scale="tiny", seed=1)[0]
        executor = make_executor(jobs) if jobs > 1 else None
        before = COUNTERS.snapshot()
        try:
            if executor is not None:
                publish_suite(
                    [network], with_base=True, with_rows=with_rows, seed=1
                )
            rows = table2.evaluate_network(
                network,
                modes=("link",),
                seed=1,
                with_multiplicity=False,
                ilm_accounting="per-link",
                jobs=jobs,
                suite_ref=("tiny", 1, 0),
                executor=executor,
            )
        finally:
            if executor is not None:
                executor.shutdown()
        return rows, COUNTERS.delta(before)

    def test_ilm_work_counter_parity_weighted_chunks_vs_sequential(self):
        """Pinned parity: the cost-weighted partition performs exactly
        the sequential run's repair work — same repairs, same re-settled
        vertices, same fallbacks — just distributed."""
        from repro.experiments.parallel import weighted_chunks
        from repro.perf import COUNTERS

        network = cached_suite(scale="tiny", seed=1)[0]
        base = shared_unique_base(network.graph)
        pairs = sample_pairs(network.graph, network.sample_pairs, seed=1)
        scenarios = table2.ilm_scenarios(base, pairs, "link", 200)

        def accountant():
            return IlmAccountant(
                network.graph,
                base,
                demand_sources=table2.ilm_demand_sources(
                    network.graph, pairs
                ),
                weighted=network.weighted,
            )

        sequential = accountant()
        before = COUNTERS.snapshot()
        sequential.process_scenarios(scenarios)
        seq = COUNTERS.delta(before)

        planner = accountant()
        costs, _touched = planner.plan_scenarios(scenarios)
        chunks = weighted_chunks(costs, jobs=4)
        covered = sorted(i for indices, _cost in chunks for i in indices)
        assert covered == list(range(len(scenarios)))

        before = COUNTERS.snapshot()
        merged = accountant()
        for indices, _cost in chunks:
            worker = accountant()
            worker.process_scenarios([scenarios[i] for i in indices])
            merged.merge_state(worker.export_state())
        par = COUNTERS.delta(before)

        for name in ("spt_repairs", "spt_nodes_resettled", "spt_fallbacks"):
            assert getattr(par, name) == getattr(seq, name), name
        assert merged.stretch_factors() == sequential.stretch_factors()
        assert merged.table_sizes() == sequential.table_sizes()

    def test_jobs4_rows_identical_and_workers_adopt(self):
        """End to end: publication on, jobs-4 payload rows byte-identical
        to jobs-1, workers adopt instead of re-settling (their warm-up
        counter is zero)."""
        if not shm.shm_enabled():
            pytest.skip("shared memory unavailable on this platform")
        detach_all()
        seq_rows, seq = self._evaluate(jobs=1, with_rows=False)
        par_rows, par = self._evaluate(jobs=4, with_rows=True)
        assert par_rows == seq_rows
        assert seq.worker_warm_row_builds == 0
        assert par.worker_warm_row_builds == 0
        assert par.warm_rows_adopted > 0
        assert par.shm_segments > 0
        assert residual_segments() == []

    def test_worker_warm_up_returns_without_publication(self, monkeypatch):
        """The counter measures real duplication: with REPRO_SHM=0 the
        workers are back to re-settling sources per process."""
        monkeypatch.setenv("REPRO_SHM", "0")
        _rows, par = self._evaluate(jobs=4, with_rows=True)
        assert par.worker_warm_row_builds > 0
        assert residual_segments() == []
