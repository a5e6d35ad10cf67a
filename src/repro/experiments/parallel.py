"""Parallel experiment fan-out — chunked failure cases over processes.

The experiments are embarrassingly parallel across demand pairs (and,
for Table 3, across links): each unit rebuilds nothing and mutates
nothing, so the only engineering is in keeping the output *bit-identical*
to the sequential run:

* **Work references, not work payloads.**  A worker receives
  ``(scale, seed, network index, mode, chunk bounds)`` — never a graph.
  It takes the deterministic topology from
  :func:`~repro.experiments.networks.cached_suite` and its base set
  from the shared cache (:mod:`repro.core.cache`), both inherited from
  the parent (below), so oracle rows amortize across its chunks.
* **Deterministic ordering.**  Chunks are keyed by their start index;
  the parent reassembles results in index order, so the concatenated
  case list is exactly the sequential one and every downstream
  aggregate (metrics averages, histogram buckets) is byte-identical.
* **Counter fan-in.**  Each chunk returns the deltas of the global
  :data:`~repro.perf.COUNTERS` *and* of the metrics registry
  (:data:`repro.obs.METRICS`) it accumulated; the parent merges both,
  so ``BENCH_*.json`` totals include work done in workers and
  histograms are jobs-invariant.
* **Inherited state, not N rebuilds.**  :func:`make_executor` forks
  its workers wherever the platform offers ``fork``, and
  :func:`publish_suite` builds, in the parent and before the first
  submit, what they all need: each network's CSR snapshot, its base
  set and padded snapshot, and for Table 2 the demand-pair sources'
  SPT and oracle rows.  Workers inherit all of it copy-on-write, so
  their SPT caches and oracles sit on the very snapshots
  :func:`~repro.graph.csr.shared_csr` returns.  Without ``fork``
  workers build the same state themselves on first use; the canonical
  ``(dist, index)`` tie contract makes rows byte-identical no matter
  which process computes them.
* **Warm rows, not N warm-ups.**  Rows the parent builds *after* the
  pool started — the per-link ILM stage's planning pass — cannot be
  inherited: :meth:`IlmAccountant.publish_warm_rows` ships them as
  ``RROW`` segments (:func:`repro.graph.shm.publish_rows`) and
  workers adopt zero-copy read-only row views
  (:meth:`SptCache.adopt_rows` / :meth:`LazyDistanceOracle.adopt_rows`)
  instead of re-running the parent's warm-up searches.  Adopted views
  are read-only buffers, so ``repair_batch`` copy-on-repair mutations
  stay worker-local by construction.  Publication degrades gracefully
  (``REPRO_SHM=0`` or no shared memory: workers warm up themselves,
  ``COUNTERS.shm_fallbacks`` records it) and the creator unlinks every
  segment in a ``finally``.  ``COUNTERS.worker_warm_row_builds`` —
  injected into each chunk's counter delta by
  :func:`_chunk_with_heartbeat` — records any warm-up Dijkstra a
  worker still had to run itself.
* **Cost-weighted scheduling.**  Count-based :func:`chunk_bounds`
  balances *items*; :func:`weighted_chunks` balances *work*.  The
  parent estimates per-scenario cost from pre-failure SPT subtree
  sizes (:meth:`IlmAccountant.plan_scenarios`), LPT-packs scenarios
  into ``4 x jobs`` bins, and submits the bins in descending-load
  order — the executor's FIFO queue becomes a deterministic shared
  work queue workers pull from, so the expensive hub-failure scenarios
  start first and the tail stays flat.  Order-free
  ``export_state``/``merge_state`` makes results
  placement-independent; :func:`run_weighted` still reassembles chunk
  payloads in queue order so the output is byte-identical to the
  sequential run.  Each chunk's predicted cost rides the heartbeat
  stream (``chunk-start``/``chunk-end`` ``cost`` field) so
  ``repro.obs report``/``watch --cost-model`` can score the estimator
  against actual wall time.

``--jobs 1`` (the default everywhere) bypasses this module entirely and
runs the plain sequential loops; ``--jobs 0`` means "auto" —
``min(cpu_count, 8)``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Optional, Sequence

from ..obs import heartbeat
from ..obs.metrics import METRICS
from ..perf import COUNTERS

#: Per-fan-out row-segment name pair ``(SPT rows, oracle rows)``: the
#: ILM scenario fan-out ships the demand-universe rows its planning
#: pass warmed after the workers started.
RowRef = Optional[tuple[Optional[str], Optional[str]]]


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: 0 means auto, otherwise as given."""
    if jobs < 0:
        raise ValueError(f"--jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return min(os.cpu_count() or 1, 8)
    return jobs


def make_executor(jobs: int) -> Optional[ProcessPoolExecutor]:
    """A process pool for *jobs* workers, or None when sequential.

    Workers are forked wherever the platform offers ``fork``, whatever
    the interpreter's default start method, so they inherit what
    :func:`publish_suite` built; elsewhere they build it themselves.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return None
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


def chunk_bounds(n_items: int, jobs: int) -> Iterator[tuple[int, int]]:
    """Deterministic ``(start, end)`` chunking of ``range(n_items)``.

    Four chunks per worker balances straggler smoothing against
    per-chunk dispatch overhead.
    """
    if n_items <= 0:
        return
    per_chunk = max(1, -(-n_items // (max(1, jobs) * 4)))
    for start in range(0, n_items, per_chunk):
        yield start, min(start + per_chunk, n_items)


#: Parent-side fan-out counter: every fan-out gets a unique
#: ``worker#N`` heartbeat label, so repeated fan-outs of the same
#: worker (one per network x mode in Table 2) stay separate groups in
#: ``repro.obs watch``.  The counter follows the parent's deterministic
#: call order, so labels are stable across runs and worker-pool widths.
_fanout_seq = 0


def _chunk_with_heartbeat(
    label: str,
    worker: Callable[..., tuple[list, dict, dict]],
    common_args: tuple,
    chunk: list[int],
    tail: tuple,
    items: int,
    cost: Optional[int] = None,
) -> tuple[list, dict, dict]:
    """Run ``worker(*common_args, *tail)`` between worker-side
    ``chunk-start``/``chunk-end`` heartbeats.

    Both events name the chunk by *chunk*: its ``[start, end)`` bounds
    for a count chunk, ``[qpos, qpos + 1]`` (its queue position) for a
    cost chunk, whose members are scattered indices.  ``chunk-end``
    adds *items* and the wall time; a cost chunk's events both carry
    *items* and the cost model's prediction *cost*, the
    predicted-vs-actual pair ``repro.obs report`` scores.  Always
    submitted (it is what makes per-chunk wall times land in the
    telemetry channel); with no ``REPRO_HEARTBEAT_DIR`` set the two
    :func:`~repro.obs.heartbeat.emit` calls are env lookups.  The
    result payload is untouched — telemetry is out-of-band by
    construction.
    """
    import tracemalloc

    if tracemalloc.is_tracing():
        # ``--mem`` traces the *parent's* heap; fork-started workers
        # inherit the tracing flag and would pay its multiple-x
        # allocation overhead for a peak nobody ever collects.
        tracemalloc.stop()
    fields = {} if cost is None else {"items": items, "cost": cost}
    heartbeat.emit("chunk-start", label=label, chunk=chunk, **fields)
    heartbeat.set_current_label(label)
    t0 = time.perf_counter()
    try:
        result, delta, metrics_delta = worker(*common_args, *tail)
    finally:
        heartbeat.set_current_label(None)
    fields["items"] = items
    heartbeat.emit(
        "chunk-end",
        label=label,
        chunk=chunk,
        wall_s=round(time.perf_counter() - t0, 6),
        **fields,
    )
    return result, _tag_worker_builds(delta), metrics_delta


def _tag_worker_builds(delta: dict) -> dict:
    """Mirror a chunk's ``warm_row_builds`` into the worker-side counter.

    Runs inside the worker, on the counter delta it is about to ship:
    every warm-up row build the chunk performed is by definition a
    *worker-side* build, so the parent's merged
    ``worker_warm_row_builds`` totals exactly the warm-up duplication
    the fan-out failed to eliminate (zero when row publication covered
    everything).
    """
    delta = dict(delta)
    delta["worker_warm_row_builds"] = delta.get("warm_row_builds", 0)
    return delta


def _gather(
    label: str, executor: Executor, calls: dict[tuple[int, int], tuple]
) -> dict[tuple[int, int], list]:
    """Submit each chunk's call in order; each chunk's items by its
    heartbeat bounds, with every delta merged into the parent.

    A worker that dies mid-chunk breaks the whole pool — seen by a
    later submit or by a result — and the :class:`BrokenProcessPool`
    is re-raised, chained, naming the fan-out *label* and the chunks
    that did not complete.
    """
    futures: dict[Future, tuple[int, int]] = {}
    by_chunk: dict[tuple[int, int], list] = {}
    try:
        for chunk, call in calls.items():
            futures[executor.submit(*call)] = chunk
        for future, chunk in futures.items():
            items, delta, metrics_delta = future.result()
            by_chunk[chunk] = items
            COUNTERS.merge(delta)
            METRICS.merge(metrics_delta)
    except BrokenProcessPool as exc:
        completed = {
            chunk for future, chunk in futures.items()
            if future.done() and not future.cancelled()
            and future.exception() is None
        }
        lost = [list(chunk) for chunk in calls if chunk not in completed]
        raise BrokenProcessPool(
            f"fan-out {label}: a worker died; chunks not completed: {lost}"
        ) from exc
    return by_chunk


def _fan_out(
    executor: Executor,
    worker: Callable[..., tuple[list, dict, dict]],
    common_args: tuple,
    chunks: list[tuple[tuple[int, int], tuple, int, Optional[int]]],
    jobs: int,
    total: int,
) -> list:
    """Submit ``(chunk id, tail, items, cost)`` *chunks* through
    :func:`_chunk_with_heartbeat`; the item lists concatenated in
    chunk-id order, every delta merged into the parent.

    With a heartbeat channel configured (``--heartbeat-dir`` /
    :mod:`repro.obs.heartbeat`), the parent brackets the fan-out with
    ``fanout-start``/``fanout-end`` events.
    """
    global _fanout_seq
    label = f"{worker.__name__}#{_fanout_seq}"
    _fanout_seq += 1
    heartbeat.emit(
        "fanout-start", label=label, total=total, chunks=len(chunks),
        jobs=jobs,
    )
    t0 = time.perf_counter()
    by_chunk = _gather(label, executor, {
        chunk: (
            _chunk_with_heartbeat, label, worker, common_args, list(chunk),
            tail, items, cost,
        )
        for chunk, tail, items, cost in chunks
    })
    ordered: list = []
    for chunk in sorted(by_chunk):
        ordered.extend(by_chunk[chunk])
    heartbeat.emit(
        "fanout-end", label=label, total=total, chunks=len(chunks),
        jobs=jobs, wall_s=round(time.perf_counter() - t0, 6),
    )
    return ordered


def run_chunked(
    executor: Executor,
    worker: Callable[..., tuple[list, dict, dict]],
    common_args: tuple,
    n_items: int,
    jobs: int,
) -> list:
    """Fan ``worker(*common_args, start, end)`` out over chunks.

    The worker returns ``(items, counter_delta, metrics_delta)``; this
    reassembles the item lists in chunk order (sequential-identical)
    and merges every delta into the parent's :data:`COUNTERS` and
    :data:`METRICS`.  Every worker chunk reports its own bounds and
    wall time on the heartbeat channel for ``python -m repro.obs
    watch``.  A worker dying mid-chunk raises
    :class:`BrokenProcessPool` naming this fan-out's label and the
    chunks that did not complete (:func:`_gather`).
    """
    return _fan_out(executor, worker, common_args, [
        ((start, end), (start, end), end - start, None)
        for start, end in chunk_bounds(n_items, jobs)
    ], jobs, n_items)


# -- cost-weighted scheduling -------------------------------------------------


def weighted_chunks(
    costs: Sequence[int], jobs: int
) -> list[tuple[tuple[int, ...], int]]:
    """LPT-pack item indices into cost-balanced chunks.

    Deterministic longest-processing-time-first: items sorted by
    ``(-cost, index)`` go one by one into the least-loaded of
    ``min(n, 4 x jobs)`` bins (ties to the lowest bin id; zero-cost
    items still count 1 so no bin starves).  Returns non-empty
    ``(member indices, estimated load)`` chunks sorted by descending
    load — submission in that order makes the executor's FIFO queue a
    shared work queue where the heaviest chunks start first and the
    light ones backfill the stragglers' shadow.  A pure function of
    ``(costs, jobs)``: chunk membership never depends on pool timing.
    """
    n = len(costs)
    if n == 0:
        return []
    bins = min(n, max(1, jobs) * 4)
    loads = [0] * bins
    members: list[list[int]] = [[] for _ in range(bins)]
    for i in sorted(range(n), key=lambda i: (-costs[i], i)):
        b = min(range(bins), key=lambda j: (loads[j], j))
        members[b].append(i)
        loads[b] += max(1, costs[i])
    chunks = [
        (tuple(m), load) for m, load in zip(members, loads) if m
    ]
    chunks.sort(key=lambda chunk: (-chunk[1], chunk[0]))
    return chunks


def run_weighted(
    executor: Executor,
    worker: Callable[..., tuple[list, dict, dict]],
    common_args: tuple,
    chunks: list[tuple[tuple[int, ...], int]],
    jobs: int,
    total: int,
) -> list:
    """Fan ``worker(*common_args, qpos, indices)`` out over cost chunks.

    The :func:`run_chunked` twin for :func:`weighted_chunks` output:
    chunks are submitted in the given (descending-load) order, chunk
    payloads are reassembled by queue position, and every counter /
    metrics delta merges into the parent.  Byte-identical output does
    not depend on the reassembly order for mergeable state (the ILM
    accountant's ``merge_state`` is order-free) but keeping it
    deterministic makes the payload list stable anyway.
    """
    return _fan_out(executor, worker, common_args, [
        ((qpos, qpos + 1), (qpos, indices), len(indices), cost)
        for qpos, (indices, cost) in enumerate(chunks)
    ], jobs, total)


# -- state the workers inherit ------------------------------------------------


def publish_suite(
    networks: Sequence,
    with_base: bool = True,
    with_rows: bool = False,
    seed: int = 1,
) -> None:
    """Build, in the parent, the state every fan-out worker inherits.

    Call it before the pool's first submit: forked workers start from
    the parent's memory, so each network's CSR snapshot
    (:func:`~repro.graph.csr.shared_csr`) is theirs without a
    rebuild.  *with_base* adds the network's shared unique
    base set and the padded snapshot its distance oracle runs on
    (experiments that never touch a base set, e.g. Table 3's bypass
    sweep, skip it).  *with_rows* also warms the demand-pair sources'
    rows (*seed* reproduces the pair sample) of the network's shared
    ``SptCache`` and base oracle, so case-evaluating workers start
    warm instead of re-settling each source per process.  Nothing is
    copied into shared memory: one snapshot of each graph exists per
    process, the one every cache in it holds.
    """
    from ..core.cache import shared_spt_cache, shared_unique_base
    from ..failures.sampler import sample_pairs
    from ..graph.csr import shared_csr

    for network in networks:
        csr = shared_csr(network.graph)
        base = shared_unique_base(network.graph) if with_base else None
        if base is not None:
            shared_csr(base.padded)
        if with_rows:
            pairs = sample_pairs(
                network.graph, network.sample_pairs, seed=seed
            )
            sources = sorted({csr.index[pair[0]] for pair in pairs})
            shared_spt_cache(
                network.graph, weighted=network.weighted
            ).ensure_rows(sources)
            if base is not None:
                base.oracle.ensure_rows(csr.nodes[si] for si in sources)


# -- worker entry points ------------------------------------------------------
#
# Top-level functions (picklable under spawn), importing experiment
# modules lazily to dodge the circular import (experiments import this
# module for their --jobs plumbing).


def _network(scale: str, seed: int, index: int):
    from .networks import cached_suite

    return cached_suite(scale=scale, seed=seed)[index]


def _adopt_row_slot(ref: RowRef, slot: int, adopter) -> None:
    """Worker side: attach row segment *slot* of *ref* and adopt it.

    Best-effort — a missing or mismatching segment bumps
    ``COUNTERS.shm_fallbacks`` and leaves the consumer on its local
    warm-up path, never breaking the run.
    """
    name = ref[slot] if ref else None
    if not name:
        return
    from ..graph import shm

    try:
        adopter(shm.attach_rows_cached(name))
    except Exception:
        COUNTERS.shm_fallbacks += 1


#: Worker-process memo of (accountant, scenario list) per ILM fan-out
#: configuration — the demand universe and the oracle row table are
#: chunk-invariant, so a worker pays for them once per network/mode.
_ILM_ACCOUNTANTS: dict = {}


def table2_case_chunk(
    scale: str, seed: int, index: int, mode: str, policy: str,
    failure_model: str, start: int, end: int,
) -> tuple[list, dict, dict]:
    """Evaluate the failure cases of demand pairs ``[start:end)``.

    *policy* and *failure_model* are registry names — the worker
    rebuilds both from its own deterministic state (policies and
    models are pure functions of ``(graph, seed)``), so the fan-out
    ships strings, never pickled policy objects, and survives both
    ``fork`` and ``spawn`` start methods.
    """
    from ..core.cache import shared_unique_base
    from ..failures.sampler import sample_pairs
    from ..policies import make_failure_model, make_policy

    before = COUNTERS.snapshot()
    m_before = METRICS.snapshot()
    network = _network(scale, seed, index)
    graph = network.graph
    base = shared_unique_base(graph)
    active = make_policy(policy, graph, base=base, weighted=network.weighted)
    model = make_failure_model(failure_model, graph, seed=seed)
    pairs = sample_pairs(graph, network.sample_pairs, seed=seed)
    results = []
    for pair in pairs[start:end]:
        primary = base.path_for(*pair)
        for case in model.cases_for_pair(pair, primary, mode):
            results.append(active.evaluate_case(case))
    return results, COUNTERS.delta(before).as_dict(), METRICS.delta(m_before)


def table3_bypass_chunk(
    scale: str, seed: int, index: int, failure_model: str,
    start: int, end: int,
) -> tuple[list, dict, dict]:
    """Bypass hop counts (None for bridges) of links ``[start:end)``."""
    from ..policies import make_failure_model
    from .table3 import link_bypass_hops

    before = COUNTERS.snapshot()
    m_before = METRICS.snapshot()
    network = _network(scale, seed, index)
    graph = network.graph
    model = make_failure_model(failure_model, graph, seed=seed)
    edges = list(graph.edges())[start:end]
    hops = [
        link_bypass_hops(graph, u, v, network.weighted, model)
        for u, v in edges
    ]
    return hops, COUNTERS.delta(before).as_dict(), METRICS.delta(m_before)


def figure10_stretch_chunk(
    scale: str, seed: int, failure_model: str, start: int, end: int,
) -> tuple[list, dict, dict]:
    """Per-pair stretch sample tuples for demand pairs ``[start:end)``.

    Each item is ``(strategy name, cost stretch or None, hop stretch or
    None)`` in the exact order the sequential ``collect`` loop appends.
    """
    from ..core.cache import shared_unique_base
    from ..failures.sampler import sample_pairs
    from ..policies import make_failure_model
    from .figure10 import collect_pair_samples

    before = COUNTERS.snapshot()
    m_before = METRICS.snapshot()
    network = _network(scale, seed, 0)  # Figure 10 runs on the weighted ISP
    base = shared_unique_base(network.graph)
    model = make_failure_model(failure_model, network.graph, seed=seed)
    pairs = sample_pairs(network.graph, network.sample_pairs, seed=seed)
    items: list[tuple[str, Optional[float], Optional[float]]] = []
    for pair in pairs[start:end]:
        items.extend(
            collect_pair_samples(
                network.graph, network.weighted, base, pair, model=model
            )
        )
    return items, COUNTERS.delta(before).as_dict(), METRICS.delta(m_before)


def ilm_scenario_chunk(
    scale: str, seed: int, index: int, mode: str, ilm_max_scenarios: int,
    row_ref: RowRef, failure_model: str,
    qpos: int, indices: tuple[int, ...],
) -> tuple[list, dict, dict]:
    """ILM-account the scenarios at *indices* of one network/mode.

    Rebuilds the deterministic scenario list (sampled pairs -> failure
    cases -> deduplicated, thinned scenarios — exactly the sequential
    construction in :func:`~repro.experiments.table2.ilm_scenarios`),
    adopts the fan-out's warm demand-universe rows (*row_ref*: SPT and
    oracle ``RROW`` segment names published by
    :func:`~repro.experiments.table2.evaluate_network` from the cost
    model's planning pass), accounts its scattered scenario subset, and
    ships the accountant's mergeable state; the parent folds the chunk
    states together
    (:meth:`~repro.experiments.ilm_accounting.IlmAccountant.merge_state`)
    for results byte-identical to the sequential loop regardless of
    how scenarios were packed into chunks.

    The accountant (and its scenario list) is memoized per
    network/mode within the worker process: the demand universe (each
    source's primary tree in preorder) and the oracle row table the
    tree DP reads are chunk-invariant pure caches, so a
    worker pulling many small cost-weighted chunks from the shared
    queue pays for them once, with :meth:`reset_accounting` zeroing
    the mergeable tallies between chunks.  Nothing the accounting
    computes is memoized across scenarios, so the chunk's counters
    (``probe_calls`` included) do not depend on which chunks this
    worker saw before.
    """
    from ..core.cache import shared_spt_cache, shared_unique_base
    from ..failures.sampler import sample_pairs
    from ..policies import make_failure_model
    from .ilm_accounting import IlmAccountant
    from .table2 import ilm_demand_sources, ilm_scenarios

    before = COUNTERS.snapshot()
    m_before = METRICS.snapshot()
    network = _network(scale, seed, index)
    graph = network.graph
    base = shared_unique_base(graph)
    _adopt_row_slot(
        row_ref, 0,
        lambda table: shared_spt_cache(
            graph, weighted=network.weighted
        ).adopt_rows(table),
    )
    _adopt_row_slot(row_ref, 1, base.oracle.adopt_rows)
    key = (scale, seed, index, mode, ilm_max_scenarios, failure_model)
    cached = _ILM_ACCOUNTANTS.get(key)
    if cached is None:
        model = make_failure_model(failure_model, graph, seed=seed)
        pairs = sample_pairs(graph, network.sample_pairs, seed=seed)
        scenarios = ilm_scenarios(
            base, pairs, mode, ilm_max_scenarios, model=model
        )
        accountant = IlmAccountant(
            graph,
            base,
            demand_sources=ilm_demand_sources(graph, pairs),
            weighted=network.weighted,
        )
        _ILM_ACCOUNTANTS[key] = (accountant, scenarios)
    else:
        accountant, scenarios = cached
        accountant.reset_accounting()
    accountant.process_scenarios(
        [scenarios[i] for i in indices], progress_chunk=(qpos, qpos + 1)
    )
    state = accountant.export_state()
    return [state], COUNTERS.delta(before).as_dict(), METRICS.delta(m_before)
