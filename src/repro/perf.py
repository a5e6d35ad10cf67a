"""Lightweight global performance counters for the restoration pipeline.

The north star is "as fast as the hardware allows", which is impossible
to steer without numbers: this module is the single place every hot
path reports to.  Counters are plain integer attributes on a module
singleton (:data:`COUNTERS`) so incrementing them costs one attribute
add — cheap enough to leave on permanently, including inside Dijkstra's
relaxation loop (which accumulates into a local first and flushes once
per run).

The counters feed three consumers:

* the ``BENCH_<name>.json`` files emitted by the experiment CLIs and
  the benchmark harness (the perf trajectory across PRs);
* the parallel experiment runner, which snapshots worker-side counters
  and merges them into the parent process so fan-out does not hide
  work;
* tests asserting optimization claims (e.g. "the decomposition kernel
  answers probes without running new Dijkstras once rows are warm").

Counter meanings:

``dijkstra_runs`` / ``dijkstra_settled`` / ``dijkstra_relaxations``
    Weighted searches: invocations, nodes settled, edges scanned.
``bfs_runs`` / ``bfs_settled``
    Unweighted searches: invocations and nodes labelled.
``backup_searches``
    Post-failure restoration-path searches (one per failure case).
``oracle_rows_full`` / ``oracle_rows_truncated`` / ``oracle_promotions``
    Distance-oracle rows computed eagerly to completion, rows computed
    with target-set truncation, and truncated rows later recomputed in
    full because a query outran their settled frontier.
``probe_calls`` / ``o1_probes`` / ``path_probes``
    Decomposition membership probes: total, answered by O(1)
    prefix-sum arithmetic, answered by the Path-allocating fallback.
``csr_builds`` / ``csr_relaxations`` / ``csr_settled``
    Flat-array (CSR) kernel work (:mod:`repro.graph.csr`): snapshots
    interned, edges scanned, nodes settled.  Kept separate from the
    ``dijkstra_*`` / ``bfs_*`` families on purpose: the dict-based
    counters keep measuring exactly the dict-based algorithms, so a
    ``repro.obs diff`` shows *where* the work went, not just that it
    moved.
``spt_repairs`` / ``spt_nodes_resettled`` / ``spt_fallbacks``
    Decremental shortest-path-tree repair
    (:mod:`repro.graph.incremental`): repairs performed, vertices
    re-settled across them (the affected subtrees — the honest
    per-failure work), and repairs abandoned for a full recompute
    because the affected region exceeded the threshold.
``shm_segments`` / ``shm_attach`` / ``shm_fallbacks``
    Shared-memory warm-row substrate (:mod:`repro.graph.shm` ``RROW``
    segments): row tables published by a creator process, read-only
    attaches performed by workers, and publish/attach attempts that
    fell back to per-process warm-up (shared memory unavailable,
    disabled via ``REPRO_SHM=0``, over the size cap, or a header
    mismatch).  The obs-gate asserts the attach path stays hot: a
    fan-out that silently warms up per worker shows up as
    ``shm_fallbacks`` growth.
``ilm_scenario_chunks``
    Per-link ILM accounting fan-out: deterministic scenario chunks
    dispatched to ``--jobs`` workers (0 in a sequential run).
``warm_rows_published`` / ``warm_rows_adopted``
    Individual pre-failure ``dist``/``pred`` rows shipped through a row
    segment and rows installed into a worker-side
    ``SptCache``/``LazyDistanceOracle`` from an attached segment.
    Adoption is bookkeeping, never search work: it must not move
    ``csr_settled``/``csr_relaxations``.
``warm_row_builds`` / ``worker_warm_row_builds``
    Full pre-failure row constructions during *warm-up* (the batch
    universe/planning Dijkstra/BFS runs that warm-row publication
    exists to eliminate), and the subset of those performed inside
    ``--jobs`` workers.  ``SptCache`` canonical rows always count;
    oracle rows count only inside a :func:`warm_up_phase` block (the
    demand-universe and planning warms) — demand-driven oracle work
    (truncated-row promotions, targeted probes, decomposition row
    fetches) is query cost, not duplicated warm-up, and is tracked by
    the search counters instead.  With publication on,
    ``worker_warm_row_builds`` dropping to zero is the proof that
    workers inherit or attach their rows instead of re-settling
    sources.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace


@dataclass
class PerfCounters:
    """A bag of monotonically increasing work counters."""

    dijkstra_runs: int = 0
    dijkstra_settled: int = 0
    dijkstra_relaxations: int = 0
    bfs_runs: int = 0
    bfs_settled: int = 0
    backup_searches: int = 0
    oracle_rows_full: int = 0
    oracle_rows_truncated: int = 0
    oracle_promotions: int = 0
    probe_calls: int = 0
    o1_probes: int = 0
    path_probes: int = 0
    csr_builds: int = 0
    csr_relaxations: int = 0
    csr_settled: int = 0
    spt_repairs: int = 0
    spt_nodes_resettled: int = 0
    spt_fallbacks: int = 0
    shm_segments: int = 0
    shm_attach: int = 0
    shm_fallbacks: int = 0
    ilm_scenario_chunks: int = 0
    warm_rows_published: int = 0
    warm_rows_adopted: int = 0
    warm_row_builds: int = 0
    worker_warm_row_builds: int = 0

    def snapshot(self) -> "PerfCounters":
        """An immutable copy of the current values."""
        return replace(self)

    def delta(self, since: "PerfCounters") -> "PerfCounters":
        """Counter increments accumulated after *since* was snapshotted."""
        return PerfCounters(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "PerfCounters | dict") -> None:
        """Add *other*'s counts into this instance (worker fan-in)."""
        if isinstance(other, PerfCounters):
            other = asdict(other)
        for name, value in other.items():
            setattr(self, name, getattr(self, name) + int(value))

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for JSON serialization."""
        return asdict(self)


#: The process-wide counter singleton every hot path reports to.
COUNTERS = PerfCounters()

_warm_up_depth = 0


@contextmanager
def warm_up_phase():
    """Mark the dynamic extent of a batch warm-up.

    Oracle full-row builds bump ``warm_row_builds`` only inside this
    context (universe warming, publication planning): those are the
    rows a parent can ship through an ``RROW`` segment, so a worker
    rebuilding one is duplicated warm-up.  Demand-driven oracle builds
    outside the context are query work and stay out of the counter.
    Re-entrant; cheap enough for per-fan-out use, not per-row.
    """
    global _warm_up_depth
    _warm_up_depth += 1
    try:
        yield
    finally:
        _warm_up_depth -= 1


def in_warm_up() -> bool:
    """Is a :func:`warm_up_phase` block active on this thread?"""
    return _warm_up_depth > 0
