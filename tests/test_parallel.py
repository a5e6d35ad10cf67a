"""Determinism of the parallel experiment fan-out.

The contract: ``--jobs N`` is a wall-clock knob only.  Rows, rendered
tables and per-case results must be byte-identical to the sequential
run — chunk reassembly and deterministic case ordering are what make
that true, and these tests pin it.  The acceptance test additionally
re-implements the pre-optimization sequential pipeline (fresh base
set, reference decomposer, per-target multiplicity counting) and
checks the optimized ``evaluate_network`` reproduces its rows exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

from repro.core.base_paths import UniqueShortestPathsBase
from repro.core.decomposition import min_pieces_decompose_reference
from repro.exceptions import NoPath
from repro.experiments import table2
from repro.experiments.metrics import CaseResult, build_row
from repro.experiments.networks import cached_suite
from repro.experiments.parallel import chunk_bounds, resolve_jobs
from repro.failures.sampler import FAILURE_MODES, cases_for_pair, sample_pairs
from repro.graph.csr import (
    INF,
    CsrGraph,
    bfs_csr,
    dijkstra_csr_canonical,
    mask_from_view,
)
from repro.graph.paths import Path
from repro.graph.spt import ShortestPathDag


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


#: A jobs-2 tiny per-link Table 2 whose workers SIGKILL themselves in
#: their first ILM scenario; prints what the parent saw as JSON.
WORKER_DEATH_SCRIPT = r"""
import json, os, signal, time
from concurrent.futures.process import BrokenProcessPool
from repro.experiments import table2
from repro.experiments.ilm_accounting import IlmAccountant
from repro.graph.shm import residual_segments

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
        "residual": residual_segments(),
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
        assert report["residual"] == []
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
