"""Determinism of the parallel experiment fan-out.

The contract: ``--jobs N`` is a wall-clock knob only.  Rows, rendered
tables and per-case results must be byte-identical to the sequential
run — chunk reassembly and deterministic case ordering are what make
that true, and these tests pin it.  The acceptance test additionally
re-implements the pre-optimization sequential pipeline (fresh base
set, reference decomposer, per-target multiplicity counting) and
checks the optimized ``evaluate_network`` reproduces its rows exactly.

Workers get the parent's state one way only: they are forked, so the
snapshots the parent built before the first submit are the ones every
worker cache holds, for every topology family; rows the parent builds
after the fork (the per-link ILM planning pass) the workers build
themselves, and no fan-out constructs a shared-memory segment.  The
per-link ILM accountant's chunk states merge, in any order, into the
sequential result, with the sequential run's repair work.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path as FilePath

import pytest

from repro.core.base_paths import UniqueShortestPathsBase
from repro.core.cache import clear_cache, shared_spt_cache, shared_unique_base
from repro.exceptions import NoPath
from repro.experiments import figure10, parallel, table2, table3
from repro.experiments.ilm_accounting import IlmAccountant
from repro.experiments.metrics import CaseResult, build_row
from repro.experiments.networks import cached_suite
from repro.experiments.parallel import (
    chunk_bounds,
    make_executor,
    resolve_jobs,
    weighted_chunks,
)
from repro.failures.models import FailureScenario
from repro.failures.sampler import FAILURE_MODES, cases_for_pair, sample_pairs
from repro.graph.csr import (
    INF,
    CsrGraph,
    bfs_csr,
    dijkstra_csr_canonical,
    mask_from_view,
    shared_csr,
)
from repro.graph.incremental import SptCache
from repro.graph.paths import Path
from repro.graph.spt import ShortestPathDag
from repro.perf import COUNTERS
from repro.topology import grid_graph

from .decomp_oracles import min_pieces_decompose_reference
from .test_kernels import FAMILY_PARAMS


def reference_canonical_backup(csr: CsrGraph, view, s, t, weighted: bool) -> Path:
    """Independent re-derivation of a backup under the path contract:
    one from-scratch canonical run per case, no repair, no row cache."""
    cv = mask_from_view(csr, view)
    si, ti = csr.index[s], csr.index[t]
    if si in cv.dead_nodes or ti in cv.dead_nodes:
        raise NoPath(f"no path from {s!r} to {t!r}")
    if weighted:
        dist, pred, _ = dijkstra_csr_canonical(cv, si)
    else:
        dist, pred = bfs_csr(cv, si)
    if dist[ti] == INF:
        raise NoPath(f"no path from {s!r} to {t!r}")
    chain = [ti]
    x = ti
    while x != si:
        x = pred[x]
        chain.append(x)
    return Path([csr.nodes[i] for i in reversed(chain)])


class TestChunking:
    def test_chunk_bounds_partition_exactly(self):
        for n_items in (0, 1, 2, 7, 100, 1001):
            for jobs in (1, 2, 3, 8):
                bounds = chunk_bounds(n_items, jobs)
                covered = []
                last_end = 0
                for start, end in bounds:
                    assert start == last_end, "chunks must be contiguous"
                    assert start < end
                    covered.extend(range(start, end))
                    last_end = end
                assert covered == list(range(n_items))

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestParallelDeterminism:
    def test_table2_tiny_rows_identical_across_jobs(self):
        sequential = table2.run(scale="tiny", seed=1, jobs=1)
        parallel = table2.run(scale="tiny", seed=1, jobs=4)
        assert table2.render(parallel) == table2.render(sequential)
        for mode in sequential:
            assert parallel[mode] == sequential[mode]


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

    @FAMILY_PARAMS
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

    def test_no_fan_out_constructs_shared_memory(self, monkeypatch):
        """Tiny jobs-2 runs of per-link Table 2, Table 3 and Figure 10
        construct no ``SharedMemory`` in the parent and print the
        jobs-1 reports.  The recorder lets a construction go through,
        so a caller that swallows construction errors is caught too."""
        runs = {
            "table2": lambda jobs: table2.render(table2.run(
                scale="tiny", modes=("link",), ilm_accounting="per-link",
                jobs=jobs,
            )),
            "table3": lambda jobs: table3.render(
                table3.run(scale="tiny", jobs=jobs)
            ),
            "figure10": lambda jobs: figure10.render(
                figure10.run(scale="tiny", jobs=jobs)
            ),
        }
        sequential = {name: run(1) for name, run in runs.items()}
        made = []
        original = shared_memory.SharedMemory

        class Recording(original):
            def __init__(self, *args, **kwargs):
                made.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
        for name, run in runs.items():
            assert run(2) == sequential[name], name
            assert made == [], name

    def test_copy_on_repair_keeps_shared_rows_intact(self):
        """A repair writes a fresh row: the cached pre-failure row,
        whose pages forked workers share with the parent, is never
        written."""
        cache = SptCache(grid_graph(3, 3), weighted=True)
        cache.ensure_rows([0])
        dist, pred = cache.row(cache.csr.nodes[0])
        pristine = (bytes(dist), bytes(pred))
        nodes = cache.csr.nodes
        view = cache.view_for(FailureScenario.single_link(nodes[0], nodes[1]))
        got_dist, got_pred = cache._repaired_row_idx(0, view)
        # The repair produced a post-failure row...
        assert (bytes(got_dist), bytes(got_pred)) != pristine
        # ...while the cached pre-failure row is the same, untouched.
        assert cache.row(nodes[0]) == (dist, pred)
        assert cache.row(nodes[0])[0] is dist
        assert (bytes(dist), bytes(pred)) == pristine


def _ilm_accountant(network, base, pairs) -> IlmAccountant:
    return IlmAccountant(
        network.graph,
        base,
        demand_sources=table2.ilm_demand_sources(network.graph, pairs),
        weighted=network.weighted,
    )


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

    def _setup(self):
        network = cached_suite(scale="tiny", seed=1)[0]
        base = shared_unique_base(network.graph)
        pairs = sample_pairs(network.graph, network.sample_pairs, seed=1)
        scenarios = table2.ilm_scenarios(base, pairs, "link", 200)
        return network, base, pairs, scenarios

    def test_shuffled_chunk_merge_matches_sequential(self):
        network, base, pairs, scenarios = self._setup()
        assert len(scenarios) > 4

        sequential = _ilm_accountant(network, base, pairs)
        sequential.process_scenarios(scenarios)

        states = []
        for start, end in chunk_bounds(len(scenarios), 4):
            chunk = _ilm_accountant(network, base, pairs)
            chunk.process_scenarios(scenarios[start:end])
            states.append(chunk.export_state())
        random.Random(7).shuffle(states)  # merge must be order-free

        merged = _ilm_accountant(network, base, pairs)
        for state in states:
            merged.merge_state(state)

        assert _ilm_summary(merged) == _ilm_summary(sequential)

    def test_ilm_work_counter_parity_weighted_chunks_vs_sequential(self):
        """Pinned parity: the cost-weighted partition performs exactly
        the sequential run's repair work — same repairs, same re-settled
        vertices, same fallbacks — just distributed."""
        network, base, pairs, scenarios = self._setup()

        sequential = _ilm_accountant(network, base, pairs)
        before = COUNTERS.snapshot()
        sequential.process_scenarios(scenarios)
        seq = COUNTERS.delta(before)

        costs = _ilm_accountant(network, base, pairs).plan_scenarios(scenarios)
        chunks = weighted_chunks(costs, jobs=4)
        covered = sorted(i for indices, _cost in chunks for i in indices)
        assert covered == list(range(len(scenarios)))

        before = COUNTERS.snapshot()
        merged = _ilm_accountant(network, base, pairs)
        for indices, _cost in chunks:
            worker = _ilm_accountant(network, base, pairs)
            worker.process_scenarios([scenarios[i] for i in indices])
            merged.merge_state(worker.export_state())
        par = COUNTERS.delta(before)

        for name in ("spt_repairs", "spt_nodes_resettled", "spt_fallbacks"):
            assert getattr(par, name) == getattr(seq, name), name
        assert merged.stretch_factors() == sequential.stretch_factors()
        assert merged.table_sizes() == sequential.table_sizes()


class TestIlmJobsIdentity:
    """End-to-end: per-link rows identical at jobs=1 and jobs=4."""

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

    def test_jobs4_matches_jobs1(self):
        """Workers forked from cold caches build the rows the parent
        builds after the fork themselves, and the rows still match."""
        sequential = self._rows(jobs=1)
        clear_cache()
        before = COUNTERS.snapshot()
        parallel = self._rows(jobs=4)
        delta = COUNTERS.delta(before)
        assert parallel == sequential
        assert delta.ilm_scenario_chunks > 0
        assert delta.worker_warm_row_builds > 0


#: A jobs-2 tiny per-link Table 2 whose workers SIGKILL themselves in
#: their first ILM scenario; prints what the parent saw as JSON.
WORKER_DEATH_SCRIPT = r"""
import json, os, signal, time
from concurrent.futures.process import BrokenProcessPool
from repro.experiments import table2
from repro.experiments.ilm_accounting import IlmAccountant

parent = os.getpid()

def die_in_worker(self, scenario):
    assert os.getpid() != parent, "the parent never accounts scenarios"
    os.kill(os.getpid(), signal.SIGKILL)

IlmAccountant.process_scenario = die_in_worker
submitted = []
run_weighted = table2.run_weighted

def recording(executor, worker, common_args, chunks, jobs, total):
    submitted.append(len(chunks))
    return run_weighted(executor, worker, common_args, chunks, jobs, total)

table2.run_weighted = recording
t0 = time.perf_counter()
try:
    table2.run(scale="tiny", modes=("link",), ilm_accounting="per-link", jobs=2)
except BrokenProcessPool as exc:
    print(json.dumps({
        "message": str(exc),
        "chained": isinstance(exc.__cause__, BrokenProcessPool),
        "chunks": submitted,
        "elapsed_s": time.perf_counter() - t0,
    }))
"""


class TestWorkerDeath:
    def test_killed_worker_names_its_fanout_and_lost_chunks(self):
        src = FilePath(table2.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_LEDGER="0")
        proc = subprocess.run(
            [sys.executable, "-c", WORKER_DEATH_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        [n_chunks] = report["chunks"]  # the first fan-out breaks the run
        lost = [[q, q + 1] for q in range(n_chunks)]  # every chunk died
        assert report["chained"]
        assert report["message"].startswith("fan-out ilm_scenario_chunk#")
        assert report["message"].endswith(f"chunks not completed: {lost}")
        assert report["elapsed_s"] < 60


class TestAcceptanceRowIdentity:
    """Optimized pipeline == pre-optimization pipeline, row for row."""

    def test_evaluate_network_matches_reference_pipeline(self):
        network = cached_suite(scale="tiny", seed=1)[0]
        graph = network.graph

        optimized = table2.evaluate_network(network, seed=1)

        # The reference pipeline: fresh (uncached) base set, per-target
        # multiplicity counting, Path-allocating decomposition, and a
        # from-scratch canonical search per backup (no repair).
        base = UniqueShortestPathsBase(graph)
        reference_csr = CsrGraph(graph)
        pairs = sample_pairs(graph, network.sample_pairs, seed=1)
        primaries = {pair: base.path_for(*pair) for pair in pairs}
        max_multiplicity = 0
        for source, _ in pairs:
            dag = ShortestPathDag.compute(graph, source)
            for target in dag.dist:
                if target != source:
                    max_multiplicity = max(
                        max_multiplicity, dag.count_paths_to(target)
                    )
        for mode in FAILURE_MODES:
            results = []
            for pair in pairs:
                for case in cases_for_pair(pair, primaries[pair], mode):
                    view = case.scenario.apply(graph)
                    primary_cost = case.primary_path.cost(graph)
                    try:
                        backup = reference_canonical_backup(
                            reference_csr,
                            view,
                            case.source,
                            case.destination,
                            network.weighted,
                        )
                    except NoPath:
                        results.append(
                            CaseResult(
                                source=case.source,
                                destination=case.destination,
                                scenario=case.scenario,
                                primary=case.primary_path,
                                primary_cost=primary_cost,
                                backup=None,
                                backup_cost=None,
                                decomposition=None,
                            )
                        )
                        continue
                    results.append(
                        CaseResult(
                            source=case.source,
                            destination=case.destination,
                            scenario=case.scenario,
                            primary=case.primary_path,
                            primary_cost=primary_cost,
                            backup=backup,
                            backup_cost=backup.cost(graph),
                            decomposition=min_pieces_decompose_reference(
                                backup, base, allow_edges=True
                            ),
                        )
                    )
            reference_row = build_row(
                network.name,
                mode,
                results,
                max_multiplicity=max_multiplicity if mode == "link" else None,
            )
            assert optimized[mode] == reference_row, mode
