"""Tests for failure scenarios and the Section 5 sampling methodology."""

from __future__ import annotations

import random

import pytest

from repro.failures.generators import (
    IndependentLinkFailures,
    RegionalFailures,
    RouterLinkFailures,
    SrlgFailures,
)
from repro.failures.models import FailureScenario
from repro.failures.sampler import (
    FAILURE_MODES,
    cases_for_pair,
    link_failure_cases,
    random_link_scenarios,
    router_failure_cases,
    sample_pairs,
)
from repro.graph.graph import DiGraph, Graph
from repro.graph.paths import Path
from repro.graph.shortest_paths import reachable_from
from repro.topology import generate_isp_topology


class TestScenario:
    def test_single_link(self):
        s = FailureScenario.single_link(2, 1)
        assert s.links == frozenset({(1, 2)})
        assert s.k_links == 1 and s.k_routers == 0

    def test_apply_removes_failures(self, diamond):
        s = FailureScenario.link_set([(1, 2)]).merge(
            FailureScenario.single_router(3)
        )
        view = s.apply(diamond)
        assert not view.has_edge(1, 2)
        assert not view.has_node(3)

    def test_effective_k_counts_router_edges(self, diamond):
        s = FailureScenario.single_router(2)
        assert s.effective_k_edges(diamond) == 3  # deg(2) = 3

    def test_effective_k_deduplicates(self, diamond):
        s = FailureScenario.link_set([(1, 2)]).merge(FailureScenario.single_router(2))
        # Edge (1,2) counted once even though it is failed and incident.
        assert s.effective_k_edges(diamond) == 3

    def test_disturbs_edge_and_router(self):
        p = Path([1, 2, 3])
        assert FailureScenario.single_link(2, 1).disturbs(p)
        assert FailureScenario.single_router(2).disturbs(p)
        assert not FailureScenario.single_link(3, 4).disturbs(p)
        assert not FailureScenario.single_router(9).disturbs(p)

    def test_empty(self):
        assert FailureScenario().is_empty


class TestScenarioEdgeCases:
    def test_link_set_deduplicates_both_orientations(self):
        s = FailureScenario.link_set([(1, 2), (2, 1), (1, 2)])
        assert s.links == frozenset({(1, 2)})
        assert s.k_links == 1

    def test_router_set(self):
        s = FailureScenario.router_set([3, 2, 3])
        assert s.routers == frozenset({2, 3})
        assert s.k_routers == 2 and s.k_links == 0

    def test_merge_unions_both_kinds(self):
        a = FailureScenario.link_set([(1, 2)]).merge(
            FailureScenario.single_router(3)
        )
        b = FailureScenario.link_set([(2, 1), (2, 3)]).merge(
            FailureScenario.router_set([3, 4])
        )
        merged = a.merge(b)
        assert merged.links == frozenset({(1, 2), (2, 3)})
        assert merged.routers == frozenset({3, 4})

    def test_merge_with_empty_is_identity(self):
        s = FailureScenario.link_set([(1, 2)]).merge(
            FailureScenario.single_router(4)
        )
        assert s.merge(FailureScenario()) == s
        assert FailureScenario().merge(s) == s

    def test_empty_scenario_disturbs_nothing(self, diamond):
        empty = FailureScenario()
        assert not empty.disturbs(Path([1, 2, 4]))
        assert empty.effective_k_edges(diamond) == 0
        view = empty.apply(diamond)
        assert view.has_edge(1, 2) and view.has_node(3)

    def test_effective_k_multi_link_router_combo(self, diamond):
        # Links (1,2) and (3,4) plus router 2 (incident to 1,3,4):
        # (1,2) is both failed and incident — counted once.
        s = FailureScenario.link_set([(1, 2), (3, 4)]).merge(
            FailureScenario.single_router(2)
        )
        assert s.effective_k_edges(diamond) == 4

    def test_effective_k_ignores_absent_routers(self, diamond):
        s = FailureScenario.single_router(99)
        assert s.effective_k_edges(diamond) == 0

    def test_disturbs_multi_link_router_combo(self):
        s = FailureScenario.link_set([(2, 3)]).merge(
            FailureScenario.single_router(5)
        )
        assert s.disturbs(Path([1, 2, 3, 4]))  # via the failed link
        assert s.disturbs(Path([4, 5, 6]))  # via the failed router
        assert not s.disturbs(Path([1, 6, 7]))
        assert s.disturbs(Path([5]))  # endpoint router counts too


class TestSamplePairs:
    def test_count_and_determinism(self, small_isp):
        a = sample_pairs(small_isp, 20, seed=5)
        b = sample_pairs(small_isp, 20, seed=5)
        assert a == b
        assert len(a) == 20
        assert all(s != t for s, t in a)

    def test_distinct_pairs(self, small_isp):
        pairs = sample_pairs(small_isp, 30, seed=1)
        assert len(set(pairs)) == 30

    def test_connected_requirement(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        pairs = sample_pairs(g, 2, seed=1)
        components = ({1, 2}, {3, 4})
        for s, t in pairs:
            assert any(s in c and t in c for c in components)

    def test_impossible_count_raises(self):
        g = Graph.from_edges([(1, 2)])
        with pytest.raises(ValueError):
            sample_pairs(g, 50, seed=1)

    def test_too_few_nodes_raises(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(ValueError):
            sample_pairs(g, 1)


def _per_source_dfs_pairs(graph, count, seed, max_attempts_factor=200):
    """The sampler as it was before component labels: one reachability
    DFS per sampled source (the oracle for the labelled version)."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=repr)
    pairs, seen, reachable = [], set(), {}
    attempts = 0
    while len(pairs) < count and attempts < max_attempts_factor * count:
        attempts += 1
        s, t = rng.sample(nodes, 2)
        if (s, t) in seen:
            continue
        seen.add((s, t))
        if s not in reachable:
            reachable[s] = reachable_from(graph, s)
        if t in reachable[s]:
            pairs.append((s, t))
    return pairs


def _islands(seed):
    """Three ISP islands of different sizes plus isolated nodes."""
    g = Graph()
    for k, n in enumerate((30, 12, 5)):
        island = generate_isp_topology(n=max(n, 10), seed=seed + k)
        for u, v, w in island.weighted_edges():
            g.add_edge((k, u), (k, v), weight=w)
    for i in range(4):
        g.add_node(("lone", i))
    return g


def _random_digraph(seed, n=25, arcs=45):
    rng = random.Random(seed)
    g = DiGraph()
    for v in range(n):
        g.add_node(v)
    for _ in range(arcs):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    return g


class TestSamplePairsMatchesPerSourceDfs:
    """Component labels pick exactly the pairs the per-source DFS did."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_multi_component_graphs(self, seed):
        g = _islands(seed)
        for count in (5, 40, 150):
            want = _per_source_dfs_pairs(g, count, seed)
            assert len(want) == count
            assert sample_pairs(g, count, seed=seed) == want

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_digraph_keeps_directed_reachability(self, seed):
        g = _random_digraph(seed)
        for count in (5, 30):
            want = _per_source_dfs_pairs(g, count, seed)
            if len(want) < count:
                with pytest.raises(ValueError):
                    sample_pairs(g, count, seed=seed)
            else:
                assert sample_pairs(g, count, seed=seed) == want

    def test_digraph_pairs_are_one_way_when_the_arcs_are(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        pairs = sample_pairs(g, 3, seed=1)
        assert sorted(pairs) == [(1, 2), (1, 3), (2, 3)]


class TestCaseGeneration:
    def test_single_link_cases_cover_path_edges(self):
        primary = Path([1, 2, 3, 4])
        cases = list(link_failure_cases((1, 4), primary, k=1))
        assert len(cases) == 3
        assert {next(iter(c.scenario.links)) for c in cases} == {
            (1, 2),
            (2, 3),
            (3, 4),
        }

    def test_two_link_cases_are_pairs(self):
        primary = Path([1, 2, 3, 4])
        cases = list(link_failure_cases((1, 4), primary, k=2))
        assert len(cases) == 3  # C(3, 2)
        assert all(c.scenario.k_links == 2 for c in cases)

    def test_short_path_has_no_two_link_cases(self):
        primary = Path([1, 2])
        assert list(link_failure_cases((1, 2), primary, k=2)) == []

    def test_router_cases_exclude_endpoints(self):
        primary = Path([1, 2, 3, 4])
        cases = list(router_failure_cases((1, 4), primary, k=1))
        assert {next(iter(c.scenario.routers)) for c in cases} == {2, 3}

    def test_two_router_cases(self):
        primary = Path([1, 2, 3, 4, 5])
        cases = list(router_failure_cases((1, 5), primary, k=2))
        assert len(cases) == 3  # C(3, 2)

    def test_dispatch_modes(self):
        primary = Path([1, 2, 3, 4])
        for mode in FAILURE_MODES:
            assert list(cases_for_pair((1, 4), primary, mode)) is not None
        with pytest.raises(ValueError):
            list(cases_for_pair((1, 4), primary, "meteor-strike"))


class TestRandomScenarios:
    def test_counts_and_k(self, small_isp):
        scenarios = random_link_scenarios(small_isp, 10, k=2, seed=3)
        assert len(scenarios) == 10
        assert all(s.k_links == 2 for s in scenarios)

    def test_deterministic(self, small_isp):
        a = random_link_scenarios(small_isp, 5, k=1, seed=3)
        b = random_link_scenarios(small_isp, 5, k=1, seed=3)
        assert a == b

    def test_too_few_edges_raises(self):
        g = Graph.from_edges([(1, 2)])
        with pytest.raises(ValueError):
            random_link_scenarios(g, 1, k=2)


class TestFailureModels:
    def test_default_model_yields_sampler_cases_unchanged(self, small_isp):
        from repro.core.cache import shared_unique_base

        model = IndependentLinkFailures(small_isp)
        pair = sample_pairs(small_isp, 4, seed=2)[0]
        primary = shared_unique_base(small_isp).path_for(*pair)
        assert list(model.cases_for_pair(pair, primary, "link")) == list(
            cases_for_pair(pair, primary, "link")
        )

    def test_identity_expand_returns_same_object(self, small_isp):
        model = IndependentLinkFailures(small_isp)
        s = FailureScenario.link_set([(1, 2)])
        assert model.expand(s) is s

    def test_srlg_partition_is_deterministic_and_total(self, small_isp):
        a = SrlgFailures(small_isp, seed=3)
        b = SrlgFailures(small_isp, seed=3)
        for u, v in small_isp.edges():
            group = a.group_of((u, v))
            assert group == b.group_of((u, v))
            assert (min(u, v), max(u, v)) in group or any(
                e in group for e in [(u, v), (v, u)]
            )
            assert 1 <= len(group) <= 2

    def test_srlg_expand_drags_the_whole_group(self, small_isp):
        model = SrlgFailures(small_isp, seed=1)
        edge = next(iter(small_isp.edges()))
        scenario = model.scenario_for_link(edge)
        assert scenario.links == model.group_of(edge)
        assert scenario.k_links == len(model.group_of(edge))

    def test_srlg_expand_is_idempotent_and_preserves_identity(self, small_isp):
        model = SrlgFailures(small_isp, seed=1)
        edge = next(iter(small_isp.edges()))
        expanded = model.scenario_for_link(edge)
        # Already group-closed: expand must hand back the same object
        # (the cases_for_pair fast path depends on it).
        assert model.expand(expanded) is expanded

    def test_srlg_group_size_validated(self, small_isp):
        with pytest.raises(ValueError):
            SrlgFailures(small_isp, group_size=0)

    def test_regional_cut_takes_incident_links(self, diamond):
        model = RegionalFailures(diamond)
        scenario = model.scenario_for_link((1, 2))
        # Everything incident to 1 or 2 goes down.
        assert scenario.links == frozenset(
            {(1, 2), (1, 3), (2, 3), (2, 4)}
        )

    def test_router_links_model_converts_routers(self, diamond):
        model = RouterLinkFailures(diamond)
        scenario = model.expand(FailureScenario.single_router(2))
        assert scenario.routers == frozenset()
        assert scenario.links == frozenset({(1, 2), (2, 3), (2, 4)})

    def test_router_links_passthrough_for_pure_links(self, diamond):
        model = RouterLinkFailures(diamond)
        s = FailureScenario.link_set([(1, 2)])
        assert model.expand(s) is s

    def test_expanded_cases_keep_the_sampled_pair(self, small_isp):
        from repro.core.cache import shared_unique_base

        model = SrlgFailures(small_isp, seed=1)
        pair = sample_pairs(small_isp, 1, seed=9)[0]
        primary = shared_unique_base(small_isp).path_for(*pair)
        raw = list(cases_for_pair(pair, primary, "link"))
        expanded = list(model.cases_for_pair(pair, primary, "link"))
        assert len(raw) == len(expanded)
        for before, after in zip(raw, expanded):
            assert after.source == before.source
            assert after.destination == before.destination
            assert after.primary_path == before.primary_path
            assert before.scenario.links <= after.scenario.links
