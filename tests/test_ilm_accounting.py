"""Tests for the per-link ILM stretch accounting (Table 2, faithful mode)."""

from __future__ import annotations

import pytest

from repro.core.base_paths import ExplicitBaseSet, UniqueShortestPathsBase
from repro.experiments.ilm_accounting import IlmAccountant, scenarios_from_cases
from repro.failures.models import FailureScenario
from repro.failures.sampler import FailureCase, link_failure_cases, sample_pairs
from repro.graph.graph import Graph
from repro.graph.paths import Path
from repro.topology.isp import generate_isp_topology


@pytest.fixture(scope="module")
def world():
    graph = generate_isp_topology(n=40, seed=3)
    base = UniqueShortestPathsBase(graph)
    return graph, base


class TestAccountant:
    def test_empty_run_is_nan(self, world):
        graph, base = world
        accountant = IlmAccountant(graph, base)
        min_sf, avg_sf = accountant.stretch_factors()
        assert min_sf != min_sf and avg_sf != avg_sf  # NaN

    def test_single_scenario_counts_affected_demands(self, world):
        graph, base = world
        accountant = IlmAccountant(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        primary = base.path_for(nodes[0], nodes[-1])
        failed = next(iter(primary.edge_keys()))
        affected = accountant.process_scenario(
            FailureScenario.link_set([failed])
        )
        # At minimum the demand we derived the link from is affected.
        assert affected >= 1
        assert accountant.scenarios_processed == 1
        assert accountant.demands_restored + accountant.demands_unrestorable == affected

    def test_stretch_below_100_percent(self, world):
        """Sharing must make the base table smaller than naive backups."""
        graph, base = world
        accountant = IlmAccountant(graph, base)
        pairs = sample_pairs(graph, 10, seed=2)
        cases = []
        for pair in pairs:
            cases.extend(link_failure_cases(pair, base.path_for(*pair), k=1))
        accountant.process_scenarios(scenarios_from_cases(cases))
        min_sf, avg_sf = accountant.stretch_factors()
        assert 0 < min_sf <= avg_sf
        assert avg_sf < 100.0

    def test_table_sizes_consistent(self, world):
        graph, base = world
        accountant = IlmAccountant(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        primary = base.path_for(nodes[0], nodes[-1])
        accountant.process_scenario(
            FailureScenario.link_set([next(iter(primary.edge_keys()))])
        )
        base_entries, naive_entries = accountant.table_sizes()
        assert 0 < base_entries
        assert base_entries <= naive_entries + base_entries  # sanity
        assert accountant.base_lsp_count() >= 1

    def test_restricted_demand_sources(self, world):
        graph, base = world
        nodes = sorted(graph.nodes, key=repr)
        accountant = IlmAccountant(graph, base, demand_sources=nodes[:3])
        primary = base.path_for(nodes[0], nodes[-1])
        affected = accountant.process_scenario(
            FailureScenario.link_set([next(iter(primary.edge_keys()))])
        )
        full = IlmAccountant(graph, base)
        affected_full = full.process_scenario(
            FailureScenario.link_set([next(iter(primary.edge_keys()))])
        )
        assert affected <= affected_full

    def test_bridge_demand_counted_unrestorable(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        base = UniqueShortestPathsBase(g)
        accountant = IlmAccountant(g, base)
        accountant.process_scenario(FailureScenario.single_link(3, 4))
        assert accountant.demands_unrestorable > 0

    def test_more_scenarios_never_raise_stretch(self, world):
        """Adding scenarios adds naive backups faster than shared pieces."""
        graph, base = world
        pairs = sample_pairs(graph, 12, seed=5)
        cases = []
        for pair in pairs:
            cases.extend(link_failure_cases(pair, base.path_for(*pair), k=1))
        scenarios = scenarios_from_cases(cases)
        few = IlmAccountant(graph, base)
        few.process_scenarios(scenarios[:3])
        many = IlmAccountant(graph, base)
        many.process_scenarios(scenarios)
        assert many.stretch_factors()[1] <= few.stretch_factors()[1] + 10.0


class TestBaseSetContract:
    def test_rejects_base_sets_the_tree_dp_cannot_read(self, world):
        """The kernel DP reads flat oracle rows and admits every edge as
        a piece; any other base set is refused up front."""
        graph, base = world
        explicit = ExplicitBaseSet(
            graph, [base.path_for(*sorted(graph.nodes, key=repr)[:2])],
            include_all_edges=True,
        )
        for other in (
            explicit,
            UniqueShortestPathsBase(graph, include_all_edges=False),
        ):
            with pytest.raises(ValueError, match="shared_unique_base"):
                IlmAccountant(graph, other)


class TestProbeCounters:
    def test_probe_calls_do_not_depend_on_jobs(self):
        """One probe per ancestor of each DP node, with no memo: jobs 1
        and jobs 2 (any chunking) count the same probes and rows."""
        from repro.experiments import table2
        from repro.experiments.networks import cached_suite
        from repro.experiments.parallel import make_executor
        from repro.perf import COUNTERS

        network = cached_suite(scale="tiny", seed=1)[0]
        results = []
        for jobs in (1, 2):
            executor = make_executor(jobs) if jobs > 1 else None
            before = COUNTERS.snapshot()
            try:
                rows = table2.evaluate_network(
                    network, modes=("link",), seed=1,
                    with_multiplicity=False, ilm_accounting="per-link",
                    jobs=jobs, suite_ref=("tiny", 1, 0), executor=executor,
                )
            finally:
                if executor is not None:
                    executor.shutdown()
            delta = COUNTERS.delta(before)
            results.append((rows, delta.probe_calls, delta.o1_probes))
        assert results[0] == results[1]
        assert results[0][1] > 0


class TestScenariosFromCases:
    def test_dedup_preserves_order(self):
        primary = Path([1, 2, 3])
        sc1 = FailureScenario.single_link(1, 2)
        sc2 = FailureScenario.single_link(2, 3)
        cases = [
            FailureCase(1, 3, primary, sc1),
            FailureCase(1, 3, primary, sc2),
            FailureCase(4, 5, primary, sc1),  # duplicate scenario
        ]
        assert scenarios_from_cases(cases) == [sc1, sc2]
