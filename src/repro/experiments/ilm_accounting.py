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

**Primary trees in preorder.**  All per-scenario mutation state lives
in CSR index space (``shared_csr(graph).nodes`` positions).  The
primaries of one source are the paths of one tree, the base oracle's
``pred`` row (the padded tie rule of the base set, which decides which
primaries a failure touches), kept in preorder with each node's
position and subtree end (the kernel backend's ``preorder``).  The
demands a dead tree edge or router disturbs are the targets of one
subtree, so a scenario's affected demands are a few preorder ranges
per source, touched primaries are one flag per preorder position, and
each node's primary tally is a prefix-sum difference over those flags.
Per-router naive counts accumulate into one ``array('l')``.

**One kernel pass per (scenario, source).**  Every affected demand of
one source reads its backup off the same repaired tree, and a
min-pieces DP cell at chain position ``i`` depends only on the chain's
first ``i + 1`` nodes — a tree path.  The kernel backend's
``ilm_account`` therefore adds each restored chain to the naive
counts and decomposes all of them in one DP over the union of their
tree paths, with the same cells, tie rule and pieces as one
``decompose_flat`` per chain.  Nothing is memoized across calls, so
the accounted state and the probe counters depend only on the
scenarios processed.

**Parallel fan-out.**  The accumulated state is a pure function of the
*set* of processed scenarios — counts are additive, primary flags
merge by OR, pieces dedup by set union, and the derived counters
(:meth:`stretch_factors`, :meth:`table_sizes`, :meth:`base_lsp_count`)
are finalized from that state in node-index order.  Workers therefore
process disjoint scenario chunks and ship :meth:`export_state`; the
parent :meth:`merge_state`-s them and gets results byte-identical to
the sequential run, independent of chunking or merge order.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import eq
from typing import Iterable, Optional

from ..core.base_paths import BaseSet
from ..core.cache import shared_spt_cache

# Not called here; perfbench/tracing.py wraps this module attribute by
# name, so the name must resolve.
from ..core.decomposition import min_pieces_decompose  # noqa: F401
from ..failures.models import FailureScenario
from ..graph.csr import shared_csr
from ..graph.graph import Graph, Node
from ..kernels import kernel_backend
from ..obs import heartbeat
from ..perf import COUNTERS, warm_up_phase

#: A path in CSR index space: the node-index sequence, source first.
Chain = tuple[int, ...]
#: A source's primary tree, ``(order, pos, end, pred)`` (``_tree``).
Tree = tuple[array, array, array, array]


class IlmAccountant:
    """Per-scenario, demand-universe-wide ILM stretch computation.

    *base* must be an implicit shortest-path base set that admits every
    edge and whose oracle rows share the graph's CSR index space — what
    :func:`~repro.core.cache.shared_unique_base` returns; any other
    base set is a ``ValueError``.
    """

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
        self._probe = self._oracle.csr()
        # source idx -> (order, pos, end, pred): its primary tree in
        # preorder, built lazily per source (the parent of a parallel
        # run that did not plan only builds the trees of sources its
        # workers touched).
        self._trees: dict[int, Tree] = {}
        # (source idx, tree) of every universe source, the per-scenario
        # scan; built on first use (the universe warm-up).
        self._universe: Optional[list[tuple[int, Tree]]] = None
        # Mergeable accounting state (see the module docstring).
        self._backup_naive = array("l", bytes(array("l").itemsize * self.csr.n))
        # source idx -> one byte per preorder position of its tree, 1
        # where that target's primary was touched.
        self._touched: dict[int, bytearray] = {}
        self._pieces: set[Chain] = set()
        self._final: Optional[tuple[list[int], list[int], int]] = None
        self.scenarios_processed = 0
        self.demands_restored = 0
        self.demands_unrestorable = 0

    def reset_accounting(self) -> None:
        """Zero the mergeable accounting state, keep the caches.

        A worker process reuses one accountant per network/mode across
        every chunk it pulls from the shared work queue: the primary
        trees of the demand universe and the oracle row table are pure
        functions of the network and stay warm, while the per-chunk
        tallies exported by :meth:`export_state` start from zero so the
        parent's merge sees each chunk exactly once.
        """
        self._backup_naive = array(
            "l", bytes(array("l").itemsize * self.csr.n)
        )
        self._touched = {}
        self._pieces = set()
        self._final = None
        self.scenarios_processed = 0
        self.demands_restored = 0
        self.demands_unrestorable = 0

    # -- demand universe ------------------------------------------------------

    def _aligned_oracle(self):
        """The base set's oracle; ``ValueError`` unless the tree DP can
        read it (flat rows in our index space, every edge admitted)."""
        oracle = self.base.oracle
        if (
            oracle is None
            or not self.base.include_all_edges
            or oracle.csr().nodes != self.csr.nodes
        ):
            raise ValueError(
                "IlmAccountant needs an implicit shortest-path base set "
                "that admits every edge and whose oracle rows share the "
                "graph's index space (shared_unique_base)"
            )
        return oracle

    def _tree(self, si: int) -> Tree:
        """Source *si*'s primary tree: ``(order, pos, end, pred)``.

        The primary of demand ``(si, t)`` is the path ``si -> t`` in
        the oracle's ``pred`` row; ``order[pos[x]:end[x]]`` are the
        targets whose primaries run through ``x``.
        """
        tree = self._trees.get(si)
        if tree is None:
            pred = self._oracle.row_arrays(self.csr.nodes[si])[1]
            order, pos, end = kernel_backend().preorder(pred, si)
            tree = self._trees[si] = (order, pos, end, pred)
        return tree

    def _universe_trees(self) -> list[tuple[int, Tree]]:
        """``(si, tree)`` of every universe source."""
        universe = self._universe
        if universe is None:
            # Universe warm-up: the oracle rows of every primary tree
            # are batch-warmed here, so builds inside this phase count
            # as warm_row_builds (in a worker, worker_warm_row_builds).
            with warm_up_phase():
                nodes = self.csr.nodes
                self._oracle.warm_many(
                    nodes[si] for si in self._source_idx
                    if si not in self._trees
                )
                universe = self._universe = [
                    (si, self._tree(si))
                    for si in dict.fromkeys(self._source_idx)
                ]
        return universe

    # -- accounting -----------------------------------------------------------

    def _affected(
        self, scenario: FailureScenario
    ) -> dict[int, list[tuple[int, int]]]:
        """``source idx -> [(lo, hi)]``: the disturbed demands of each
        source as ascending, disjoint preorder ranges of its tree.

        A primary is disturbed when it crosses a dead link (the
        subtree below a dead tree edge) or router (the router's
        subtree).  A dead source has no flow to restore and is left
        out; a dead target is kept and lands in unrestorable.
        """
        index = self.csr.index
        links = [
            (index[u], index[v]) for u, v in scenario.links
            if u in index and v in index
        ]
        dead = {index[r] for r in scenario.routers if r in index}
        grouped: dict[int, list[tuple[int, int]]] = {}
        for si, (_order, pos, end, pred) in self._universe_trees():
            ranges = []
            for a, b in links:
                if pred[b] == a:
                    ranges.append((pos[b], end[b]))
                elif pred[a] == b:
                    ranges.append((pos[a], end[a]))
            for r in dead:
                if pos[r] > 0:  # reached, and not the source
                    ranges.append((pos[r], end[r]))
            if not ranges or si in dead:
                continue
            grouped[si] = _outermost(ranges) if len(ranges) > 1 else ranges
        return grouped

    def plan_scenarios(self, scenarios: list[FailureScenario]) -> list[int]:
        """Cost-model pass over *scenarios* (the fan-out scheduler input).

        Returns a per-scenario work estimate: the summed
        :meth:`~repro.graph.incremental.SptCache.repair_cost_estimate`
        over the scenario's touched sources — pre-failure subtree sizes
        below the dead links/routers, the dominant term of the repair
        — plus the affected-demand count (backup walks and
        decomposition probes scale with it).  The estimate reads the
        pre-failure SPT rows of every touched source, so this builds
        the rows a sequential run builds one scenario at a time.
        Deterministic: pure arithmetic over cached rows.
        """
        index = self.csr.index
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        grouped_list = [self._affected(s) for s in scenarios]
        cache.ensure_rows(sorted({si for g in grouped_list for si in g}))
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
            for si, ranges in grouped.items():
                cost += cache.repair_cost_estimate(
                    si, dead_pairs, dead_nodes
                ) + sum(hi - lo for lo, hi in ranges)
            costs.append(cost)
        return costs

    # Not called; perfbench/tracing.py wraps this attribute by name, so
    # the name must resolve.
    def publish_warm_rows(self) -> None:
        """Does nothing: worker chunks build the rows they need."""

    def process_scenario(self, scenario: FailureScenario) -> int:
        """Account one failure scenario; returns affected-demand count.

        One multi-source batched repair (one scenario decode, every
        touched source re-settled from its cached pre-failure row),
        then one ``ilm_account`` kernel call per touched source.
        """
        grouped = self._affected(scenario)
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        rows = cache.repair_batch_idx(grouped, scenario)
        account = kernel_backend().ilm_account
        probe, naive = self._probe, self._backup_naive
        table = self._oracle.row_table()
        touched, pieces = self._touched, self._pieces
        affected_total = restored = unrestorable = probes = 0
        for si, ranges in grouped.items():
            order = self._trees[si][0]
            flags = touched.get(si)
            if flags is None:
                flags = touched[si] = bytearray(len(order))
            targets = array("q")
            for lo, hi in ranges:
                flags[lo:hi] = b"\x01" * (hi - lo)
                targets += order[lo:hi]
            row = rows.get(si)
            dist, pred = row if row is not None else (None, None)
            affected_total += len(targets)
            got, r, u, p = account(probe, si, targets, dist, pred, table, naive)
            pieces.update(got)
            restored += r
            unrestorable += u
            probes += p
        COUNTERS.probe_calls += probes
        COUNTERS.o1_probes += probes
        self.demands_restored += restored
        self.demands_unrestorable += unrestorable
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

        Primary flags go out as ``(source idx, bytes)`` sorted by source
        and pieces sorted, so the payload bytes are deterministic for a
        given scenario chunk regardless of processing order.
        """
        return {
            "policy": "concatenation",
            "backup_naive": self._backup_naive.tobytes(),
            "primaries": [
                (si, bytes(flags)) for si, flags in sorted(self._touched.items())
            ],
            "pieces": sorted(self._pieces),
            "scenarios": self.scenarios_processed,
            "restored": self.demands_restored,
            "unrestorable": self.demands_unrestorable,
        }

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`export_state` into this accountant.

        Counts add, primary flags OR, pieces union; since the derived
        results are a pure function of that state, merging per-chunk
        exports in any order reproduces the sequential run
        byte-for-byte.
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
        touched = self._touched
        for si, flags in state["primaries"]:
            mine = touched.get(si)
            if mine is None:
                touched[si] = bytearray(flags)
                continue
            if len(flags) != len(mine):
                raise ValueError(
                    f"primary flags of source {si}: {len(flags)} "
                    f"positions, {len(mine)} merged so far"
                )
            merged = int.from_bytes(mine, "little") | int.from_bytes(
                flags, "little"
            )
            touched[si] = bytearray(merged.to_bytes(len(mine), "little"))
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
        A node's primaries from source ``s`` are the touched targets of
        its subtree, a prefix-sum difference over ``s``'s flags.  A
        piece that is a touched primary (the tree path to a flagged
        target) is the same base LSP and counts once.
        """
        final = self._final
        if final is not None:
            return final
        naive = list(self._backup_naive)
        base_counter = [0] * self.csr.n
        lsps = 0
        for si, flags in self._touched.items():
            order, _pos, end, _pred = self._tree(si)
            prefix = list(accumulate(flags, initial=0))
            lsps += prefix[-1]
            ends = map(prefix.__getitem__, map(end.__getitem__, order))
            for x, lo, hi in zip(order, prefix, ends):
                naive[x] += hi - lo
                base_counter[x] += hi - lo
        touched, trees = self._touched, self._trees
        for piece in self._pieces:
            flags = touched.get(piece[0])
            if flags is not None:
                _order, pos, _end, pred = trees[piece[0]]
                at = pos[piece[-1]]
                if at > 0 and flags[at] and all(
                    map(eq, map(pred.__getitem__, piece[1:]), piece)
                ):
                    continue
            lsps += 1
            for x in piece:
                base_counter[x] += 1
        self._final = (base_counter, naive, lsps)
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


def _outermost(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Subtree ranges nest or are disjoint: the outermost, ascending."""
    kept: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if not kept or lo >= kept[-1][1]:
            kept.append((lo, hi))
    return kept


def scenarios_from_cases(cases) -> list[FailureScenario]:
    """Deduplicated scenarios from a stream of sampler FailureCases."""
    seen: set[FailureScenario] = set()
    ordered: list[FailureScenario] = []
    for case in cases:
        if case.scenario not in seen:
            seen.add(case.scenario)
            ordered.append(case.scenario)
    return ordered
