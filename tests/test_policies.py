"""Tests for the pluggable restoration-policy layer (repro.policies).

Covers the registry semantics (strict idempotent registration, unknown
names listing what exists, the pre-fork env export), the ABC's shared
failover/score/ILM machinery, the built-in schemes (concatenation
byte-identity with the historical pipeline, MRC, drop), and the
Bodwin–Wang (arXiv:2309.07964) concatenation bounds for the k >= 2
failure regime.
"""

from __future__ import annotations

import argparse
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import shared_spt_cache
from repro.core.decomposition import min_pieces_decompose
from repro.exceptions import NoPath
from repro.experiments.table2 import run_case
from repro.failures.models import FailureScenario
from repro.failures.sampler import FailureCase, link_failure_cases, sample_pairs
from repro.graph.graph import Graph, edge_key
from repro.graph.paths import Path
from repro.graph.shortest_paths import costs_equal, shortest_path
from repro.policies import (
    DEFAULT_FAILURE_MODEL,
    DEFAULT_POLICY,
    RestorationOutcome,
    RestorationPolicy,
    active_failure_model_name,
    active_policy_name,
    failure_model_names,
    make_failure_model,
    make_policy,
    policy_names,
    set_failure_model,
    set_policy,
)
from repro.policies.bounds import (
    bw_pieces_bound,
    fault_tolerant_pieces,
    piece_is_valid,
)
from repro.policies.registry import FAILURE_MODEL_ENV, POLICY_ENV, Registry
from repro.policies.schemes import (
    ConcatenationPolicy,
    DoNotRestorePolicy,
    MrcPolicy,
)
from repro.runconfig import RunConfig, add_arguments

POLICY_FIELDS = ("policy", "failure_model")


def parse_policy_flags(argv):
    """The shared experiment parser, reduced to the policy fields."""
    parser = argparse.ArgumentParser()
    add_arguments(parser, POLICY_FIELDS)
    return RunConfig.from_args(parser.parse_args(argv), POLICY_FIELDS)


class TestRegistry:
    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError) as exc:
            make_policy("meteor-strike", Graph.from_edges([(1, 2)]))
        message = str(exc.value)
        assert "unknown policy 'meteor-strike'" in message
        assert "available:" in message
        assert "concatenation" in message

    def test_unknown_failure_model_lists_available(self):
        with pytest.raises(ValueError) as exc:
            make_failure_model("meteor-strike", Graph.from_edges([(1, 2)]))
        message = str(exc.value)
        assert "unknown failure model" in message
        assert "independent" in message

    def test_registration_is_idempotent_for_same_factory(self):
        registry = Registry("widget")

        def factory():
            return None

        registry.register("x", factory)
        registry.register("x", factory)  # no-op, not an error
        assert registry.names() == ["x"]
        assert "x" in registry

    def test_conflicting_rebind_raises(self):
        registry = Registry("widget")
        registry.register("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: 2)

    def test_builtin_names_present(self):
        assert {"concatenation", "disjoint", "ksp", "maxflow", "mrc",
                "drop"} <= set(policy_names())
        assert {"independent", "srlg", "regional",
                "router-links"} <= set(failure_model_names())

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(POLICY_ENV, raising=False)
        monkeypatch.delenv(FAILURE_MODEL_ENV, raising=False)
        assert active_policy_name() == DEFAULT_POLICY == "concatenation"
        assert active_failure_model_name() == DEFAULT_FAILURE_MODEL == "independent"

    def test_set_policy_exports_env_for_workers(self, monkeypatch):
        # Seed the env var so monkeypatch restores it even though
        # set_policy writes os.environ directly (the pre-fork export
        # contract workers rely on — same pattern as REPRO_KERNEL).
        monkeypatch.setenv(POLICY_ENV, DEFAULT_POLICY)
        previous = set_policy("mrc")
        assert previous == DEFAULT_POLICY
        assert os.environ[POLICY_ENV] == "mrc"
        assert active_policy_name() == "mrc"

    def test_set_failure_model_exports_env(self, monkeypatch):
        monkeypatch.setenv(FAILURE_MODEL_ENV, DEFAULT_FAILURE_MODEL)
        previous = set_failure_model("srlg")
        assert previous == DEFAULT_FAILURE_MODEL
        assert os.environ[FAILURE_MODEL_ENV] == "srlg"
        assert active_failure_model_name() == "srlg"

    def test_set_unknown_name_raises_without_side_effect(self, monkeypatch):
        monkeypatch.setenv(POLICY_ENV, DEFAULT_POLICY)
        with pytest.raises(ValueError):
            set_policy("meteor-strike")
        assert active_policy_name() == DEFAULT_POLICY

    def test_unknown_env_value_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(POLICY_ENV, "meteor-strike")
        with pytest.raises(ValueError, match="meteor-strike"):
            active_policy_name()

    def test_shared_parser_reads_policy_flags(self, monkeypatch):
        monkeypatch.setenv(POLICY_ENV, DEFAULT_POLICY)
        monkeypatch.setenv(FAILURE_MODEL_ENV, DEFAULT_FAILURE_MODEL)
        config = parse_policy_flags(["--policy", "drop", "--failure-model", "srlg"])
        assert (config.policy, config.failure_model) == ("drop", "srlg")
        # The names travel in the config, not through the environment.
        assert os.environ[POLICY_ENV] == DEFAULT_POLICY
        assert os.environ[FAILURE_MODEL_ENV] == DEFAULT_FAILURE_MODEL

    def test_shared_parser_defaults_to_active_selection(self, monkeypatch):
        monkeypatch.setenv(POLICY_ENV, "mrc")
        monkeypatch.setenv(FAILURE_MODEL_ENV, "srlg")
        config = parse_policy_flags([])
        assert (config.policy, config.failure_model) == ("mrc", "srlg")
        monkeypatch.delenv(POLICY_ENV)
        monkeypatch.delenv(FAILURE_MODEL_ENV)
        assert parse_policy_flags([]) == RunConfig()

    def test_cli_knobs_validate_choices(self):
        assert parse_policy_flags(
            ["--policy", "mrc", "--failure-model", "srlg"]
        ) == RunConfig(policy="mrc", failure_model="srlg")
        with pytest.raises(SystemExit):
            parse_policy_flags(["--policy", "meteor-strike"])


class TestDefaultPolicyByteIdentity:
    """The default policy routes through the historical pipeline code."""

    def _cases(self, graph, n_pairs=6):
        cases = []
        policy = ConcatenationPolicy(graph)
        for pair in sample_pairs(graph, n_pairs, seed=3):
            primary = policy.base.path_for(*pair)
            cases.extend(link_failure_cases(pair, primary, k=1))
        return policy, cases

    def test_run_case_matches_policy_evaluate_case(self, small_isp):
        policy, cases = self._cases(small_isp)
        for case in cases:
            old = run_case(small_isp, policy.base, case, weighted=True)
            new = ConcatenationPolicy(
                small_isp, policy.base, weighted=True
            ).evaluate_case(case)
            assert old == new

    def test_backup_is_post_failure_optimal(self, small_isp):
        policy, cases = self._cases(small_isp)
        restorable = 0
        for case in cases:
            result = policy.evaluate_case(case)
            if not result.restorable:
                continue
            restorable += 1
            view = case.scenario.apply(small_isp)
            optimal = shortest_path(
                view, case.source, case.destination, weighted=True
            )
            assert costs_equal(result.backup_cost, optimal.cost(small_isp))
            assert result.decomposition is not None
        assert restorable > 0

    def test_restore_decomposes_into_base_pieces(self, small_isp):
        policy, cases = self._cases(small_isp, n_pairs=3)
        case = next(c for c in cases)
        outcome = policy.restore(case.source, case.destination, case.scenario)
        assert outcome.restored
        assert outcome.stretch == 1.0
        expected = min_pieces_decompose(
            shared_spt_cache(small_isp, True).backup_path(
                case.source, case.destination, case.scenario
            ),
            policy.base,
            allow_edges=True,
        )
        assert outcome.pieces == tuple(expected.pieces)

    def test_disconnecting_failure_is_unrestorable(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        policy = ConcatenationPolicy(g, weighted=False)
        outcome = policy.restore(1, 3, FailureScenario.single_link(1, 2))
        assert outcome == RestorationOutcome(
            restored=False, route=None, stretch=None
        )


class _TwoRoutePolicy(RestorationPolicy):
    """Minimal concrete policy: a fixed primary + one fixed backup."""

    name = "test-two-route"
    title = "two fixed routes"

    def provision(self, source, target):
        plan = (Path([1, 2, 4]), Path([1, 3, 4]))
        self._plans[(source, target)] = plan
        return plan


class TestFailoverAbc:
    def test_first_surviving_route_wins(self, diamond):
        policy = _TwoRoutePolicy(diamond, weighted=False)
        outcome = policy.restore(1, 4, FailureScenario())
        assert outcome.restored and outcome.route == Path([1, 2, 4])
        assert outcome.stretch == 1.0

    def test_failover_to_second_route(self, diamond):
        policy = _TwoRoutePolicy(diamond, weighted=False)
        outcome = policy.restore(1, 4, FailureScenario.single_link(1, 2))
        assert outcome.restored and outcome.route == Path([1, 3, 4])
        assert outcome.stretch == 1.0  # 2 hops vs the 2-hop optimum

    def test_all_routes_dead_is_unrestored(self, diamond):
        scenario = FailureScenario.link_set([(1, 2), (1, 3)])
        outcome = _TwoRoutePolicy(diamond, weighted=False).restore(1, 4, scenario)
        assert not outcome.restored
        assert outcome.route is None and outcome.stretch is None

    def test_score_against_disconnected_optimum(self, diamond):
        # Failing router 4's other links leaves only the provisioned
        # route: restoration succeeded where recomputation could not.
        policy = _TwoRoutePolicy(diamond, weighted=False)
        outcome = policy.score(
            Path([1, 2, 4]), 1, 4, FailureScenario.single_link(3, 4)
        )
        assert outcome.restored and outcome.stretch == 1.0

    def test_score_stretch_ratio(self, weighted_diamond):
        policy = _TwoRoutePolicy(weighted_diamond, weighted=True)
        # Optimal post-failure route 1-3-4 costs 4; so does the backup.
        outcome = policy.restore(1, 4, FailureScenario.single_link(1, 2))
        assert outcome.restored
        assert outcome.stretch == pytest.approx(1.0)

    def test_ilm_entries_counts_provisioned_routers(self, diamond):
        policy = _TwoRoutePolicy(diamond, weighted=False)
        assert policy.ilm_entries() == 0
        policy.provision(1, 4)
        assert policy.ilm_entries() == 6  # two 3-node routes

    def test_generic_evaluate_case_has_no_decomposition(self, diamond):
        policy = _TwoRoutePolicy(diamond, weighted=False)
        case = FailureCase(
            source=1,
            destination=4,
            primary_path=Path([1, 2, 4]),
            scenario=FailureScenario.single_link(1, 2),
        )
        result = policy.evaluate_case(case)
        assert result.restorable
        assert result.decomposition is None
        assert result.pc_length == 1  # a single switched-to route

    def test_pc_length_raises_when_unrestorable(self, diamond):
        policy = _TwoRoutePolicy(diamond, weighted=False)
        case = FailureCase(
            source=1,
            destination=4,
            primary_path=Path([1, 2, 4]),
            scenario=FailureScenario.link_set([(1, 2), (1, 3)]),
        )
        result = policy.evaluate_case(case)
        assert not result.restorable
        with pytest.raises(ValueError):
            result.pc_length


class TestDropPolicy:
    def test_sim_hooks_disabled(self):
        assert not DoNotRestorePolicy.uses_local_patch
        assert not DoNotRestorePolicy.uses_source_restore

    def test_disturbed_primary_is_dropped(self, diamond):
        policy = DoNotRestorePolicy(diamond, weighted=False)
        primary = policy.provision(1, 4)[0]
        first_hop = next(iter(primary.edge_keys()))
        outcome = policy.restore(1, 4, FailureScenario.link_set([first_hop]))
        assert not outcome.restored

    def test_surviving_primary_rides_on(self, diamond):
        policy = DoNotRestorePolicy(diamond, weighted=False)
        outcome = policy.restore(1, 4, FailureScenario.single_link(2, 3))
        assert outcome.restored and outcome.stretch == 1.0


class TestMrcPolicy:
    def test_requires_at_least_one_configuration(self, diamond):
        with pytest.raises(ValueError):
            MrcPolicy(diamond, configurations=0)

    def test_deterministic_across_instances(self, small_isp):
        a = MrcPolicy(small_isp, configurations=4, seed=1)
        b = MrcPolicy(small_isp, configurations=4, seed=1)
        for pair in sample_pairs(small_isp, 5, seed=2):
            assert a.provision(*pair) == b.provision(*pair)

    def test_every_element_assigned_one_configuration(self, small_isp):
        policy = MrcPolicy(small_isp, configurations=4, seed=1)
        edges = {edge_key(u, v) for u, v in small_isp.edges()}
        assert set(policy._edge_config) == edges
        assert set(policy._node_config) == set(small_isp.nodes)
        assert set(policy._edge_config.values()) <= set(range(4))

    def test_restored_route_survives_and_stretches(self, small_isp):
        policy = MrcPolicy(small_isp, configurations=4, seed=1)
        restored = 0
        for pair in sample_pairs(small_isp, 8, seed=4):
            primary = policy.base.path_for(*pair)
            for case in link_failure_cases(pair, primary, k=1):
                outcome = policy.restore(*pair, case.scenario)
                if not outcome.restored:
                    continue
                restored += 1
                assert not case.scenario.disturbs(outcome.route)
                assert outcome.stretch >= 1.0 - 1e-9
        # MRC must restore a healthy share of single-link failures on a
        # well-connected topology (every link is isolated somewhere).
        assert restored > 0

    def test_multi_failure_spanning_configs_is_unrestorable(self, small_isp):
        policy = MrcPolicy(small_isp, configurations=4, seed=1)
        for pair in sample_pairs(small_isp, 8, seed=6):
            primary = policy.base.path_for(*pair)
            for case in link_failure_cases(pair, primary, k=2):
                if list(policy._covering_configs(case.scenario)):
                    continue  # some config isolates both — restorable
                outcome = policy.restore(*pair, case.scenario)
                # The primary is disturbed (both failed links lie on
                # it) and no configuration covers the pair: the
                # documented MRC limitation.
                assert not outcome.restored
                return
        pytest.skip("every sampled 2-link scenario had a covering config")


def _random_connected_graph(seed: int, n: int = 16, extra: int = 10) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    for i in range(1, n):
        g.add_edge(rng.randrange(i), i)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


class TestBodwinWangBounds:
    def test_bound_values(self):
        assert bw_pieces_bound(3, 0) == 4  # the classic lemma: k + 1
        assert bw_pieces_bound(3, 1) == 3
        assert bw_pieces_bound(3, 3) == 1
        assert bw_pieces_bound(0, 0) == 1

    def test_bound_validates_tolerance(self):
        with pytest.raises(ValueError):
            bw_pieces_bound(2, 3)
        with pytest.raises(ValueError):
            bw_pieces_bound(2, -1)

    def test_trivial_piece_is_always_valid(self, diamond):
        assert piece_is_valid(diamond, Path([1]), [], 0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 3),
        pair_seed=st.integers(0, 10_000),
    )
    def test_pieces_within_bound_at_every_tolerance(self, seed, k, pair_seed):
        g = _random_connected_graph(seed)
        rng = random.Random(pair_seed)
        edges = sorted(g.edges())
        faults = rng.sample(edges, min(k, len(edges)))
        kk = len(faults)
        s, t = rng.sample(sorted(g.nodes), 2)
        view = g.without(edges=frozenset(edge_key(u, v) for u, v in faults))
        try:
            route = shortest_path(view, s, t, weighted=False)
        except NoPath:
            return  # disconnected: nothing to restore
        counts = [
            len(fault_tolerant_pieces(g, route, faults, f, weighted=False))
            for f in range(kk + 1)
        ]
        # The Bodwin–Wang trade-off: pieces(f) <= k - f + 1 ...
        for f, count in enumerate(counts):
            assert count <= bw_pieces_bound(kk, f), (
                f"{count} pieces at tolerance {f} with k={kk}"
            )
        # ... interpolating the classic lemma (f=0: k+1 pieces) down to
        # the restored path itself being one fault-avoiding piece.
        assert counts == sorted(counts, reverse=True)
        assert counts[kk] == 1

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), pair_seed=st.integers(0, 10_000))
    def test_pieces_concatenate_to_the_route(self, seed, pair_seed):
        g = _random_connected_graph(seed)
        rng = random.Random(pair_seed)
        faults = rng.sample(sorted(g.edges()), 2)
        s, t = rng.sample(sorted(g.nodes), 2)
        view = g.without(edges=frozenset(edge_key(u, v) for u, v in faults))
        try:
            route = shortest_path(view, s, t, weighted=False)
        except NoPath:
            return
        pieces = fault_tolerant_pieces(g, route, faults, 1, weighted=False)
        nodes = list(pieces[0].nodes)
        for piece in pieces[1:]:
            assert piece.nodes[0] == nodes[-1]
            nodes.extend(piece.nodes[1:])
        assert nodes == list(route.nodes)
