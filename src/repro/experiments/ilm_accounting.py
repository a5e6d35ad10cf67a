"""Faithful ILM stretch accounting — Table 2's first two columns.

The naive alternative the paper measures against is Section 4's
per-failure pre-provisioning: *"for each link pre-compute all the
paths that would be affected by its failure, and for each affected
path establish a backup LSP"*.  The comparison is therefore scoped per
*failure scenario* over a whole *demand universe*, not per sampled
demand:

* **denominator** (naive): for every scenario, every affected demand
  of the universe gets its own dedicated backup LSP — an ILM entry at
  each router of its backup path, never shared (each backup is bound
  to its trigger), plus the primary LSPs themselves;
* **numerator** (RBPC): the union of base LSPs (decomposition pieces
  plus primaries) that restoration *uses*, deduplicated globally —
  sharing across demands and scenarios is the whole point.

The stretch factor at a router is numerator/denominator; Table 2
reports the minimum and mean over routers the naive scheme touches.

:class:`IlmAccountant` batches the computation per scenario: all
touched sources go through one
:meth:`~repro.graph.incremental.SptCache.repair_batch_idx` call — the
scenario's dead edges are decoded once, each source's cached
pre-failure row is repaired (not recomputed), and every affected
demand of that source reads its backup off the repaired predecessor
array.  That is what makes all-pairs demand universes tractable on the
ISP and sampled-source universes tractable on the large graphs.

**Flat-array bookkeeping.**  All per-scenario mutation state lives in
CSR index space (``shared_csr(graph).nodes`` positions): primaries are
integer chains read straight off the base oracle's flat predecessor
rows, the reverse link/router indices are keyed by ``(min, max)``
index pairs, per-router naive counts accumulate into one
``array('l')``, and repeated backup chains skip the decomposition DP
through a chain-keyed memo.  Node/:class:`~repro.graph.paths.Path`
objects are materialized only on a decomposition-memo miss.

**Parallel fan-out.**  The accumulated state is a pure function of the
*set* of processed scenarios — counts are additive, primaries/pieces
dedup by set union, and the derived counters (:meth:`stretch_factors`,
:meth:`table_sizes`, :meth:`base_lsp_count`) are finalized from that
state in node-index order.  Workers therefore process disjoint
scenario chunks and ship :meth:`export_state`; the parent
:meth:`merge_state`-s them and gets results byte-identical to the
sequential run, independent of chunking or merge order.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from ..core.base_paths import BaseSet
from ..core.cache import shared_spt_cache
from ..core.decomposition import min_pieces_decompose
from ..exceptions import DecompositionError
from ..failures.models import FailureScenario
from ..graph.csr import INF, shared_csr
from ..graph.graph import Graph, Node
from ..graph.paths import Path
from ..kernels import kernel_backend
from ..obs import heartbeat
from ..perf import COUNTERS, warm_up_phase

#: A path in CSR index space: the node-index sequence, source first.
Chain = tuple[int, ...]


class IlmAccountant:
    """Per-scenario, demand-universe-wide ILM stretch computation."""

    def __init__(
        self,
        graph: Graph,
        base: BaseSet,
        demand_sources: Optional[list[Node]] = None,
        weighted: bool = True,
    ) -> None:
        self.graph = graph
        self.base = base
        self.weighted = weighted
        self.csr = shared_csr(graph)
        if demand_sources is None:
            demand_sources = sorted(graph.nodes, key=repr)
        self.demand_sources = list(demand_sources)
        index = self.csr.index
        self._source_idx = [index[source] for source in self.demand_sources]
        self._oracle = self._aligned_oracle()
        # source idx -> {target idx: primary chain}, built lazily per
        # source (the parent of a parallel run only ever materializes
        # chains for demands its workers actually touched).
        self._chains: dict[int, dict[int, Chain]] = {}
        # Reverse indices over the demand universe: which demands a
        # failed link / router disturbs.  Built on first use; makes
        # process_scenario O(affected) instead of O(universe).
        self._by_edge: Optional[dict[tuple[int, int], list]] = None
        self._by_router: Optional[dict[int, list]] = None
        # Mergeable accounting state (see the module docstring).
        self._probe_weights: Optional[dict[tuple[int, int], float]] = None
        self._backup_naive = array("l", bytes(array("l").itemsize * self.csr.n))
        self._primaries_touched: set[tuple[int, int]] = set()
        self._pieces: set[Chain] = set()
        self._decomp_memo: dict[Chain, Optional[tuple[Chain, ...]]] = {}
        self._final: Optional[tuple[list[int], list[int], int]] = None
        self.scenarios_processed = 0
        self.demands_restored = 0
        self.demands_unrestorable = 0

    def reset_accounting(self) -> None:
        """Zero the mergeable accounting state, keep the caches.

        A worker process reuses one accountant per network/mode across
        every chunk it pulls from the shared work queue: the demand
        universe (chain indices, reverse edge/router maps, probe
        weights) and the decomposition memo are pure functions of the
        network and stay warm, while the per-chunk tallies exported by
        :meth:`export_state` start from zero so the parent's merge sees
        each chunk exactly once.
        """
        self._backup_naive = array(
            "l", bytes(array("l").itemsize * self.csr.n)
        )
        self._primaries_touched = set()
        self._pieces = set()
        self._final = None
        self.scenarios_processed = 0
        self.demands_restored = 0
        self.demands_unrestorable = 0

    # -- demand universe ------------------------------------------------------

    def _aligned_oracle(self):
        """The base set's oracle, iff its flat rows share our index space."""
        oracle = getattr(self.base, "oracle", None)
        if oracle is None or getattr(oracle, "break_ties_by_hops", False):
            return None
        try:
            aligned = oracle.csr().nodes == self.csr.nodes
        except Exception:
            return None
        return oracle if aligned else None

    def _chains_for(self, si: int) -> dict[int, Chain]:
        """Primary chains from source *si* to every reachable target.

        Fast path: one flat oracle row; every node's chain is built
        exactly once by extending its predecessor's chain (total work
        proportional to the sum of chain lengths, no Path objects).
        Fallback (explicit or index-misaligned base sets): one
        ``path_for`` per covered pair.
        """
        chains = self._chains.get(si)
        if chains is not None:
            return chains
        nodes, index = self.csr.nodes, self.csr.index
        if self._oracle is not None:
            dist, pred = self._oracle.row_arrays(nodes[si])
            built: dict[int, Chain] = {si: (si,)}
            for ti, d in enumerate(dist):
                if d == INF or ti in built:
                    continue
                stack = []
                x = ti
                while x not in built:
                    stack.append(x)
                    x = pred[x]
                prefix = built[x]
                for x in reversed(stack):
                    prefix = prefix + (x,)
                    built[x] = prefix
            del built[si]
            chains = built
        else:
            chains = {}
            source = nodes[si]
            for ti, target in enumerate(nodes):
                if ti != si and self.base.has_pair(source, target):
                    chains[ti] = tuple(
                        index[node]
                        for node in self.base.path_for(source, target).nodes
                    )
        self._chains[si] = chains
        return chains

    # -- accounting -----------------------------------------------------------

    def _ensure_indices(self) -> None:
        if self._by_edge is not None:
            return
        by_edge: dict[tuple[int, int], list] = {}
        by_router: dict[int, list] = {}
        # Universe warm-up: the oracle rows every demand chain reads
        # are batch-warmed (and lazily swept by _chains_for) here —
        # exactly the set a parent publishes, so builds inside this
        # phase count as warm_row_builds.
        with warm_up_phase():
            if self._oracle is not None:
                nodes = self.csr.nodes
                self._oracle.warm_many(
                    nodes[si]
                    for si in self._source_idx
                    if si not in self._chains
                )
            for si in self._source_idx:
                self._chains_for(si)
        for si in self._source_idx:
            for ti, chain in self._chains_for(si).items():
                demand = (si, ti)
                prev = chain[0]
                for x in chain[1:]:
                    key = (prev, x) if prev < x else (x, prev)
                    by_edge.setdefault(key, []).append(demand)
                    prev = x
                for x in chain:
                    by_router.setdefault(x, []).append(demand)
        self._by_edge = by_edge
        self._by_router = by_router

    def _affected_by(self, scenario: FailureScenario) -> dict[int, list[int]]:
        """``source idx -> [target idxs]`` of disturbed demands."""
        self._ensure_indices()
        assert self._by_edge is not None and self._by_router is not None
        index = self.csr.index
        hit: set[tuple[int, int]] = set()
        for u, v in scenario.links:
            iu, iv = index.get(u), index.get(v)
            if iu is None or iv is None:
                continue
            hit.update(self._by_edge.get((iu, iv) if iu < iv else (iv, iu), ()))
        dead_routers: set[int] = set()
        for router in scenario.routers:
            ri = index.get(router)
            if ri is None:
                continue
            dead_routers.add(ri)
            hit.update(self._by_router.get(ri, ()))
        grouped: dict[int, list[int]] = {}
        for si, ti in hit:
            if si in dead_routers:
                # Source down: no flow to restore.  (A dead *target* is
                # kept and lands in unrestorable — nothing to reach.)
                continue
            grouped.setdefault(si, []).append(ti)
        return grouped

    def plan_scenarios(
        self, scenarios: list[FailureScenario]
    ) -> tuple[list[int], list[int]]:
        """Cost-model pass over *scenarios* (the fan-out scheduler input).

        Returns ``(costs, touched)``: a per-scenario work estimate and
        the sorted CSR indices of every source any scenario repairs.
        The estimate is the summed
        :meth:`~repro.graph.incremental.SptCache.repair_cost_estimate`
        over the scenario's touched sources — pre-failure subtree sizes
        below the dead links/routers, the dominant ``repair_spt`` term
        — plus the affected-demand count (backup walks and
        decomposition probes scale with it).  As a side effect this
        warms the exact SPT row set a parallel run wants to publish,
        which is the same row set a sequential run builds one scenario
        at a time.  Deterministic: pure arithmetic over cached rows.
        """
        index = self.csr.index
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        grouped_list = [self._affected_by(s) for s in scenarios]
        touched = sorted({si for g in grouped_list for si in g})
        cache.ensure_rows(touched)
        costs: list[int] = []
        for scenario, grouped in zip(scenarios, grouped_list):
            dead_pairs: list[tuple[int, int]] = []
            for u, v in scenario.links:
                iu, iv = index.get(u), index.get(v)
                if iu is not None and iv is not None:
                    dead_pairs.append((iu, iv))
            dead_nodes = [
                index[r] for r in scenario.routers if r in index
            ]
            cost = 0
            for si, targets in grouped.items():
                cost += cache.repair_cost_estimate(
                    si, dead_pairs, dead_nodes
                ) + len(targets)
            costs.append(cost)
        return costs, touched

    def publish_warm_rows(self):
        """Publish this accountant's warm rows for a scenario fan-out.

        Ships every cached SPT row of the shared cache and every
        complete oracle row (the sets :meth:`plan_scenarios` just
        warmed, plus whatever earlier stages left behind) as two
        ``RROW`` segments.  Returns ``(row_ref, segments)`` where
        *row_ref* is the ``(spt name, oracle name)`` pair for
        :func:`~repro.experiments.parallel.ilm_scenario_chunk` — or
        ``None`` when nothing published — and *segments* are the
        creator handles the caller must unlink after the fan-out.
        """
        from ..graph import shm

        if not shm.shm_enabled():
            return None, []
        segments: list = []
        spt_name = oracle_name = None
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        seg = shm.publish_rows(
            "spt", self.csr.n, self.weighted, self.csr.source_version,
            cache.export_rows(),
        )
        if seg is not None:
            segments.append(seg)
            spt_name = seg.name
        if self._oracle is not None:
            ocsr = self._oracle.csr()
            seg = shm.publish_rows(
                "oracle", ocsr.n, True, ocsr.source_version,
                self._oracle.export_rows(),
            )
            if seg is not None:
                segments.append(seg)
                oracle_name = seg.name
        if spt_name is None and oracle_name is None:
            return None, segments
        return (spt_name, oracle_name), segments

    def _decompose(self, chain: Chain) -> Optional[tuple[Chain, ...]]:
        """Min-pieces decomposition of a backup chain (memoized); None
        when the backup admits no base-path decomposition."""
        memo = self._decomp_memo
        try:
            return memo[chain]
        except KeyError:
            pass
        if self._oracle is not None and getattr(
            self.base, "include_all_edges", False
        ):
            result = self._decompose_flat(chain)
        else:
            result = self._decompose_path(chain)
        memo[chain] = result
        return result

    def _probe_weight_map(self) -> dict[tuple[int, int], float]:
        """Directed ``(u idx, v idx) -> weight`` over the probe graph.

        The probe graph is whatever the base oracle's snapshot covers —
        the padded graph for the unique base set, the original for the
        all-shortest-paths one — so prefix sums land in the same cost
        space as the oracle's distances.
        """
        weights = self._probe_weights
        if weights is None:
            pcsr = self._oracle.csr()
            indptr, indices, warr = pcsr.indptr, pcsr.indices, pcsr.weights
            weights = {}
            for u in range(pcsr.n):
                for k in range(indptr[u], indptr[u + 1]):
                    weights[(u, indices[k])] = warr[k]
            self._probe_weights = weights
        return weights

    def _decompose_flat(self, chain: Chain) -> tuple[Chain, ...]:
        """All-array :func:`min_pieces_decompose` for index-aligned
        implicit base sets with every edge admitted.

        Mirrors the DP cell-for-cell — same lexicographic objective,
        same first-minimal-``j`` tie-break, same probe arithmetic as
        :class:`~repro.core.decomp_kernel.PrefixSumProbe` — so the
        returned pieces are identical to the Path-based kernel's; only
        the Path/dict materialization is gone.  Every 1-hop piece is a
        base path here (``include_all_edges``), so a decomposition
        always exists and ``extra_edges`` stays 0.

        The DP itself runs on the active kernel backend's
        ``decompose_flat`` — the entry per-pair decomposition uses too.
        Every chain prefix with a longer-than-one-hop suffix needs its
        oracle row (one-hop pieces always extend the DP, so every prefix
        is reachable): the rows of positions ``0 .. L-3`` are
        batch-warmed up front and fetched in ascending order — the
        order the DP first reads them — so the oracle counters are
        those of the lazy fetch, under any backend.
        """
        weight = self._probe_weight_map()
        cum = [0.0]
        total = 0.0
        for u, v in zip(chain, chain[1:]):
            total += weight[(u, v)]
            cum.append(total)
        nodes = self.csr.nodes
        oracle = self._oracle
        oracle.warm_many(nodes[c] for c in chain[:-2])
        rows = [oracle.row_arrays(nodes[c])[0] for c in chain[:-2]]
        _best, choice, probes = kernel_backend().decompose_flat(
            chain, cum, rows
        )
        COUNTERS.probe_calls += probes
        COUNTERS.o1_probes += probes
        pieces: list[Chain] = []
        i = len(chain) - 1
        while i > 0:
            j = choice[i]
            pieces.append(chain[j : i + 1])
            i = j
        pieces.reverse()
        return tuple(pieces)

    def _decompose_path(self, chain: Chain) -> Optional[tuple[Chain, ...]]:
        """Path-based decomposition fallback (explicit/unaligned bases)."""
        nodes, index = self.csr.nodes, self.csr.index
        backup = Path(nodes[i] for i in chain)
        try:
            decomposition = min_pieces_decompose(
                backup, self.base, allow_edges=True
            )
        except DecompositionError:
            return None
        return tuple(
            tuple(index[node] for node in piece.nodes)
            for piece in decomposition.pieces
        )

    def process_scenario(self, scenario: FailureScenario) -> int:
        """Account one failure scenario; returns affected-demand count."""
        grouped = self._affected_by(scenario)
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        # Multi-source batched repair: one scenario decode, every
        # touched source re-settled via its cached pre-failure row.
        rows = cache.repair_batch_idx(grouped, scenario)
        backup_naive = self._backup_naive
        affected_total = 0
        for si, targets in grouped.items():
            row = rows.get(si)
            dist, pred = row if row is not None else (None, None)
            affected_total += len(targets)
            for ti in targets:
                self._primaries_touched.add((si, ti))
                if dist is None or dist[ti] == INF:
                    self.demands_unrestorable += 1
                    continue
                chain = [ti]
                x = ti
                while x != si:
                    x = pred[x]
                    chain.append(x)
                chain.reverse()
                backup = tuple(chain)
                for x in backup:
                    backup_naive[x] += 1
                pieces = self._decompose(backup)
                if pieces is None:
                    self.demands_unrestorable += 1
                    continue
                self.demands_restored += 1
                self._pieces.update(pieces)
        self.scenarios_processed += 1
        self._final = None
        return affected_total

    def process_scenarios(
        self,
        scenarios: Iterable[FailureScenario],
        progress_chunk: Optional[tuple[int, int]] = None,
    ) -> None:
        """Account every scenario in the iterable.

        With a heartbeat channel configured (see
        :mod:`repro.obs.heartbeat`), emits ``scenario-progress`` ticks
        — roughly eight per chunk — so ``python -m repro.obs watch``
        can show intra-chunk progress on the long per-link fan-outs;
        *progress_chunk* labels the ticks with the caller's
        ``[start, end)`` scenario bounds.  Without a channel the loop
        is untouched (one boolean check up front).
        """
        if not heartbeat.enabled():
            for scenario in scenarios:
                self.process_scenario(scenario)
            return
        scenarios = list(scenarios)
        total = len(scenarios)
        chunk = (
            list(progress_chunk) if progress_chunk is not None
            else [0, total]
        )
        tick = max(1, total // 8)
        # Inside a fan-out chunk the ticks adopt its label so watch
        # attributes them to the right group; "ilm" covers sequential
        # callers.
        label = heartbeat.current_label() or "ilm"
        for done, scenario in enumerate(scenarios, start=1):
            self.process_scenario(scenario)
            if done % tick == 0 or done == total:
                heartbeat.emit(
                    "scenario-progress", label=label, chunk=chunk,
                    done=done, total=total,
                )

    # -- parallel fan-out -----------------------------------------------------

    def export_state(self) -> dict:
        """Mergeable accounting state (picklable; see :meth:`merge_state`).

        Sets are exported sorted so the payload bytes are deterministic
        for a given scenario chunk regardless of processing order.
        """
        return {
            "policy": "concatenation",
            "backup_naive": self._backup_naive.tobytes(),
            "primaries": sorted(self._primaries_touched),
            "pieces": sorted(self._pieces),
            "scenarios": self.scenarios_processed,
            "restored": self.demands_restored,
            "unrestorable": self.demands_unrestorable,
        }

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`export_state` into this accountant.

        Counts add, primaries/pieces union; since the derived results
        are a pure function of that state, merging per-chunk exports in
        any order reproduces the sequential run byte-for-byte.
        """
        policy = state.get("policy", "concatenation")
        if policy != "concatenation":
            # The piece-sharing model below is the concatenation
            # scheme's; silently folding another policy's tallies would
            # corrupt the ILM columns.
            raise ValueError(
                f"cannot merge ILM state computed under policy {policy!r}"
            )
        incoming = array("l")
        incoming.frombytes(state["backup_naive"])
        backup_naive = self._backup_naive
        for i, count in enumerate(incoming):
            if count:
                backup_naive[i] += count
        self._primaries_touched.update(
            tuple(demand) for demand in state["primaries"]
        )
        self._pieces.update(tuple(chain) for chain in state["pieces"])
        self.scenarios_processed += state["scenarios"]
        self.demands_restored += state["restored"]
        self.demands_unrestorable += state["unrestorable"]
        self._final = None

    # -- results --------------------------------------------------------------

    def _finalize(self) -> tuple[list[int], list[int], int]:
        """``(base counts, naive counts, base LSP count)`` per node index.

        Primaries enter both sides here rather than in the scenario
        loop: each touched primary is counted once globally (never per
        scenario), which is also what makes worker exports mergeable.
        """
        final = self._final
        if final is not None:
            return final
        naive = list(self._backup_naive)
        base_paths: set[Chain] = set(self._pieces)
        for si, ti in self._primaries_touched:
            chain = self._chains_for(si)[ti]
            for x in chain:
                naive[x] += 1
            base_paths.add(chain)
        base_counter = [0] * self.csr.n
        for chain in base_paths:
            for x in chain:
                base_counter[x] += 1
        self._final = (base_counter, naive, len(base_paths))
        return self._final

    def stretch_factors(self) -> tuple[float, float]:
        """``(min %, avg %)`` over routers the naive scheme touches."""
        base_counter, naive, _ = self._finalize()
        ratios = [
            100.0 * base_counter[i] / count
            for i, count in enumerate(naive)
            if count > 0
        ]
        if not ratios:
            return float("nan"), float("nan")
        return min(ratios), sum(ratios) / len(ratios)

    def table_sizes(self) -> tuple[int, int]:
        """Total ILM entries: ``(RBPC base set, naive pre-provisioning)``."""
        base_counter, naive, _ = self._finalize()
        return sum(base_counter), sum(naive)

    def base_lsp_count(self) -> int:
        """Distinct base LSPs the restorations used."""
        return self._finalize()[2]


def scenarios_from_cases(cases) -> list[FailureScenario]:
    """Deduplicated scenarios from a stream of sampler FailureCases."""
    seen: set[FailureScenario] = set()
    ordered: list[FailureScenario] = []
    for case in cases:
        if case.scenario not in seen:
            seen.add(case.scenario)
            ordered.append(case.scenario)
    return ordered
