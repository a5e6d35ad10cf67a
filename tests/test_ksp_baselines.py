"""Tests for Yen's k-shortest paths, Suurballe, and the baseline schemes."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

import repro
from repro.core.base_paths import UniqueShortestPathsBase
from repro.core.baselines import (
    BaselineOutcome,
    DisjointBackupScheme,
    KShortestPathsScheme,
)
from repro.exceptions import NoPath
from repro.failures.models import FailureScenario
from repro.graph.graph import Graph
from repro.graph.ksp import (
    edge_disjoint_backup,
    suurballe_disjoint_pair,
    yen_k_shortest_paths,
)
from repro.graph.paths import Path
from repro.graph.shortest_paths import costs_equal, shortest_path
from repro.topology.isp import generate_isp_topology


def random_graph(seed: int, n: int = 12, extra: int = 10) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    for i in range(1, n):
        g.add_edge(rng.randrange(i), i, weight=rng.choice([1, 2, 3, 5]))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, weight=rng.choice([1, 2, 3, 5]))
    return g


def to_networkx(g: Graph) -> nx.Graph:
    gx = nx.Graph()
    for u, v, w in g.weighted_edges():
        gx.add_edge(u, v, weight=w)
    return gx


class TestYen:
    def test_first_is_shortest(self, diamond):
        paths = yen_k_shortest_paths(diamond, 1, 4, 1)
        assert len(paths) == 1
        assert paths[0].cost(diamond) == 2.0

    def test_finds_all_simple_paths_of_diamond(self, diamond):
        paths = yen_k_shortest_paths(diamond, 1, 4, 10)
        # 1-2-4, 1-3-4, 1-2-3-4, 1-3-2-4: all four simple routes.
        assert len(paths) == 4
        assert all(p.is_simple() for p in paths)

    def test_costs_nondecreasing(self, weighted_diamond):
        paths = yen_k_shortest_paths(weighted_diamond, 1, 4, 5)
        costs = [p.cost(weighted_diamond) for p in paths]
        assert costs == sorted(costs)

    def test_paths_distinct(self):
        g = random_graph(3)
        paths = yen_k_shortest_paths(g, 0, 11, 6)
        assert len(set(paths)) == len(paths)

    def test_matches_networkx(self):
        for seed in range(6):
            g = random_graph(seed)
            gx = to_networkx(g)
            ours = yen_k_shortest_paths(g, 0, 11, 5)
            theirs = list(
                itertools.islice(
                    nx.shortest_simple_paths(gx, 0, 11, weight="weight"), 5
                )
            )
            assert len(ours) == len(theirs)
            for our_path, their_nodes in zip(ours, theirs):
                their_cost = sum(
                    gx[u][v]["weight"] for u, v in zip(their_nodes, their_nodes[1:])
                )
                assert costs_equal(our_path.cost(g), their_cost)

    def test_no_path_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        with pytest.raises(NoPath):
            yen_k_shortest_paths(g, 1, 3, 2)

    def test_k_validation(self, diamond):
        with pytest.raises(ValueError):
            yen_k_shortest_paths(diamond, 1, 4, 0)


class TestSuurballe:
    def test_pair_is_edge_disjoint(self, diamond):
        p1, p2 = suurballe_disjoint_pair(diamond, 1, 4)
        assert not (set(p1.edge_keys()) & set(p2.edge_keys()))
        assert p1.source == p2.source == 1
        assert p1.target == p2.target == 4

    def test_pair_cost_is_minimal_on_random_graphs(self):
        """Cross-check total cost against brute force over path pairs."""
        for seed in range(8):
            g = random_graph(seed, n=8, extra=6)
            gx = to_networkx(g)
            try:
                p1, p2 = suurballe_disjoint_pair(g, 0, 7)
            except NoPath:
                continue
            total = p1.cost(g) + p2.cost(g)
            best = float("inf")
            all_paths = list(nx.all_simple_paths(gx, 0, 7))
            for a in all_paths:
                ea = {tuple(sorted(e)) for e in zip(a, a[1:])}
                cost_a = sum(gx[u][v]["weight"] for u, v in zip(a, a[1:]))
                for b in all_paths:
                    eb = {tuple(sorted(e)) for e in zip(b, b[1:])}
                    if ea & eb:
                        continue
                    cost_b = sum(gx[u][v]["weight"] for u, v in zip(b, b[1:]))
                    best = min(best, cost_a + cost_b)
            assert best < float("inf")
            assert costs_equal(total, best), f"seed {seed}: {total} != {best}"

    def test_bridge_raises(self, line5):
        with pytest.raises(NoPath):
            suurballe_disjoint_pair(line5, 0, 4)

    def test_same_endpoints_rejected(self, diamond):
        with pytest.raises(ValueError):
            suurballe_disjoint_pair(diamond, 1, 1)

    def test_ordering(self, weighted_diamond):
        p1, p2 = suurballe_disjoint_pair(weighted_diamond, 1, 4)
        assert p1.cost(weighted_diamond) <= p2.cost(weighted_diamond)

    def test_pair_does_not_depend_on_the_hash_seed(self):
        """The union of the two walks splits in insertion order, so the
        pair over string-labelled nodes is the same in every process."""
        script = (
            "from repro.exceptions import NoPath\n"
            "from repro.graph.ksp import suurballe_disjoint_pair\n"
            "from repro.topology.isp import generate_isp_topology\n"
            "g = generate_isp_topology(n=30, seed=1)\n"
            "nodes = list(g.nodes)\n"
            "for s in nodes[:10]:\n"
            "    for t in nodes:\n"
            "        if s != t:\n"
            "            try:\n"
            "                print(s, t, *suurballe_disjoint_pair(g, s, t))\n"
            "            except NoPath:\n"
            "                print(s, t, '-')\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0], "the script printed no pairs"
        assert outputs[0] == outputs[1]


class TestEdgeDisjointBackup:
    def test_avoids_primary_edges(self, diamond):
        primary = Path([1, 2, 4])
        backup = edge_disjoint_backup(diamond, primary)
        assert backup is not None
        assert not (set(backup.edge_keys()) & set(primary.edge_keys()))

    def test_none_when_cut(self, line5):
        assert edge_disjoint_backup(line5, Path([0, 1, 2])) is None


class TestDisjointBackupScheme:
    @pytest.fixture(scope="class")
    def world(self):
        graph = generate_isp_topology(n=50, seed=17)
        base = UniqueShortestPathsBase(graph)
        return graph, base

    def test_restores_single_link_failures(self, world):
        graph, base = world
        scheme = DisjointBackupScheme(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        primary, backup = scheme.provision(s, t)
        assert backup is not None
        for failed in primary.edge_keys():
            outcome = scheme.restore(s, t, FailureScenario.link_set([failed]))
            assert outcome.restored
            assert outcome.stretch >= 1.0 - 1e-9

    def test_unrestored_when_both_paths_hit(self, world):
        graph, base = world
        scheme = DisjointBackupScheme(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        primary, backup = scheme.provision(s, t)
        scenario = FailureScenario.link_set(
            [next(iter(primary.edge_keys())), next(iter(backup.edge_keys()))]
        )
        outcome = scheme.restore(s, t, scenario)
        assert not outcome.restored

    def test_primary_preserving_mode(self, world):
        graph, base = world
        scheme = DisjointBackupScheme(graph, base, suurballe=False)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        primary, backup = scheme.provision(s, t)
        assert primary == base.path_for(s, t)
        if backup is not None:
            assert not (set(primary.edge_keys()) & set(backup.edge_keys()))

    def test_ilm_entries_counts_both_paths(self, world):
        graph, base = world
        scheme = DisjointBackupScheme(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        primary, backup = scheme.provision(nodes[0], nodes[-1])
        expected = len(primary.nodes) + (len(backup.nodes) if backup else 0)
        assert scheme.ilm_entries() == expected

    def test_undisturbed_primary_is_kept(self, world):
        graph, base = world
        scheme = DisjointBackupScheme(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        primary, _ = scheme.provision(s, t)
        elsewhere = next(
            e for e in graph.edges()
            if not primary.uses_edge(*e)
        )
        outcome = scheme.restore(s, t, FailureScenario.link_set([elsewhere]))
        assert outcome.restored
        assert outcome.route == primary


class TestKShortestPathsScheme:
    def test_first_surviving_path_wins(self, diamond):
        scheme = KShortestPathsScheme(diamond, k=4, weighted=False)
        plan = scheme.provision(1, 4)
        assert len(plan) == 4
        failed = next(iter(plan[0].edge_keys()))
        outcome = scheme.restore(1, 4, FailureScenario.link_set([failed]))
        assert outcome.restored
        assert not outcome.route.uses_edge(*failed)

    def test_exhausted_plan_fails(self, line5):
        scheme = KShortestPathsScheme(line5, k=2, weighted=False)
        outcome = scheme.restore(0, 4, FailureScenario.single_link(1, 2))
        assert not outcome.restored

    def test_k_validation(self, diamond):
        with pytest.raises(ValueError):
            KShortestPathsScheme(diamond, k=0)

    def test_coverage_improves_with_k(self):
        graph = generate_isp_topology(n=40, seed=23)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        base = UniqueShortestPathsBase(graph)
        primary = base.path_for(s, t)
        scenarios = [
            FailureScenario.link_set([e]) for e in primary.edge_keys()
        ]

        def coverage(k: int) -> int:
            scheme = KShortestPathsScheme(graph, k=k)
            return sum(scheme.restore(s, t, sc).restored for sc in scenarios)

        assert coverage(1) <= coverage(3) <= coverage(6)


class TestNodeDisjointBackup:
    def test_avoids_interior_routers(self):
        from repro.graph.ksp import node_disjoint_backup

        graph = generate_isp_topology(n=50, seed=17)
        base = UniqueShortestPathsBase(graph)
        nodes = sorted(graph.nodes, key=repr)
        primary = base.path_for(nodes[0], nodes[-1])
        backup = node_disjoint_backup(graph, primary)
        if backup is None:
            pytest.skip("no node-disjoint alternative in this sample")
        assert not (set(backup.interior_nodes()) & set(primary.interior_nodes()))

    def test_none_on_cut_vertex(self):
        from repro.graph.ksp import node_disjoint_backup

        g = Graph.from_edges([(1, 2), (2, 3), (1, 4), (4, 2)])
        # Every 1->3 path goes through router 2.
        primary = Path([1, 2, 3])
        assert node_disjoint_backup(g, primary) is None

    def test_scheme_survives_router_failure(self):
        graph = generate_isp_topology(n=50, seed=17)
        base = UniqueShortestPathsBase(graph)
        scheme = DisjointBackupScheme(
            graph, base, suurballe=False, disjointness="node"
        )
        nodes = sorted(graph.nodes, key=repr)
        tested = 0
        for s, t in [(nodes[0], nodes[-1]), (nodes[2], nodes[-4])]:
            primary, backup = scheme.provision(s, t)
            if backup is None:
                continue
            for victim in primary.interior_nodes():
                outcome = scheme.restore(
                    s, t, FailureScenario.single_router(victim)
                )
                assert outcome.restored
                tested += 1
        assert tested >= 2

    def test_edge_disjoint_scheme_can_die_on_router(self):
        """The weaker edge-disjoint baseline fails some router failures
        that the node-disjoint one survives — the reason Table 2 has
        separate router rows."""
        graph = generate_isp_topology(n=50, seed=17)
        base = UniqueShortestPathsBase(graph)
        edge_scheme = DisjointBackupScheme(graph, base, suurballe=True)
        node_scheme = DisjointBackupScheme(
            graph, base, suurballe=False, disjointness="node"
        )
        nodes = sorted(graph.nodes, key=repr)
        weaker_somewhere = False
        for s in nodes[:8]:
            for t in nodes[-8:]:
                if s == t:
                    continue
                primary, backup = edge_scheme.provision(s, t)
                if backup is None:
                    continue
                shared = set(primary.interior_nodes()) & set(backup.interior_nodes())
                for victim in shared:
                    edge_out = edge_scheme.restore(
                        s, t, FailureScenario.single_router(victim)
                    )
                    node_out = node_scheme.restore(
                        s, t, FailureScenario.single_router(victim)
                    )
                    if not edge_out.restored and node_out.restored:
                        weaker_somewhere = True
        assert weaker_somewhere

    def test_invalid_disjointness_rejected(self):
        graph = generate_isp_topology(n=20, seed=1)
        base = UniqueShortestPathsBase(graph)
        with pytest.raises(ValueError):
            DisjointBackupScheme(graph, base, disjointness="quantum")


class TestMaxFlowScheme:
    def test_survives_every_single_link_failure(self):
        from repro.core.baselines import MaxFlowScheme

        graph = generate_isp_topology(n=50, seed=17)
        scheme = MaxFlowScheme(graph)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        plan = scheme.provision(s, t)
        assert len(plan) >= 2  # dual-homed: at least two disjoint routes
        # Menger: some pre-established path survives ANY single link cut.
        for u, v in graph.edges():
            outcome = scheme.restore(s, t, FailureScenario.single_link(u, v))
            assert outcome.restored

    def test_plan_is_cost_sorted_and_disjoint(self):
        from repro.core.baselines import MaxFlowScheme

        graph = generate_isp_topology(n=50, seed=17)
        scheme = MaxFlowScheme(graph)
        nodes = sorted(graph.nodes, key=repr)
        plan = scheme.provision(nodes[2], nodes[-2])
        costs = [p.cost(graph) for p in plan]
        assert costs == sorted(costs)
        used = set()
        for path in plan:
            for key in path.edge_keys():
                assert key not in used
                used.add(key)

    def test_footprint_exceeds_single_backup(self):
        from repro.core.baselines import MaxFlowScheme

        graph = generate_isp_topology(n=50, seed=17)
        base = UniqueShortestPathsBase(graph)
        nodes = sorted(graph.nodes, key=repr)
        s, t = nodes[0], nodes[-1]
        maxflow_scheme = MaxFlowScheme(graph)
        maxflow_scheme.provision(s, t)
        disjoint = DisjointBackupScheme(graph, base)
        disjoint.provision(s, t)
        assert maxflow_scheme.ilm_entries() >= disjoint.ilm_entries() * 0.9
