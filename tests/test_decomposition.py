"""Tests for greedy / optimal / Dijkstra-over-base-paths decomposition."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.base_paths import (
    AllShortestPathsBase,
    ExplicitBaseSet,
    UniqueShortestPathsBase,
    unique_shortest_path_base,
)
from repro.core.decomposition import (
    Decomposition,
    concatenation_shortest_path,
    greedy_decompose,
    min_pieces_decompose,
)
from repro.exceptions import DecompositionError, NoPath
from repro.graph.graph import Graph
from repro.graph.paths import Path, concat_all
from repro.graph.shortest_paths import shortest_path
from repro.topology.classic import comb_graph, weighted_comb_graph
from repro.topology.isp import generate_isp_topology


class TestDecompositionObject:
    def test_counts(self):
        d = Decomposition(
            pieces=(Path([1, 2]), Path([2, 3])), base_flags=(True, False)
        )
        assert d.num_pieces == 2
        assert d.num_base_paths == 1
        assert d.num_extra_edges == 1
        assert d.path == Path([1, 2, 3])

    def test_misaligned_flags_rejected(self):
        with pytest.raises(ValueError):
            Decomposition(pieces=(Path([1, 2]),), base_flags=())


class TestGreedy:
    def test_whole_path_is_one_piece(self, diamond):
        base = AllShortestPathsBase(diamond)
        d = greedy_decompose(Path([1, 2, 4]), base)
        assert d.num_pieces == 1

    def test_trivial_path(self, diamond):
        base = AllShortestPathsBase(diamond)
        assert greedy_decompose(Path([1]), base).num_pieces == 0

    def test_comb_greedy_achieves_bound(self):
        for k in (1, 2, 4):
            g, failed, s, t = comb_graph(k)
            view = g.without(edges=failed)
            backup = shortest_path(view, s, t, weighted=False)
            base = AllShortestPathsBase(g, include_all_edges=False)
            d = greedy_decompose(backup, base)
            assert d.num_pieces == k + 1
            assert concat_all(list(d.pieces)) == backup

    def test_binary_and_linear_agree_on_all_sp_base(self, small_isp):
        base = AllShortestPathsBase(small_isp)
        rng = random.Random(1)
        nodes = sorted(small_isp.nodes, key=repr)
        for _ in range(10):
            s, t = rng.sample(nodes, 2)
            u, v = None, None
            primary = base.path_for(s, t)
            if primary.hops < 2:
                continue
            u, v = list(primary.edges())[primary.hops // 2]
            view = small_isp.without(edges=[(u, v)])
            try:
                backup = shortest_path(view, s, t)
            except NoPath:
                continue
            d_bin = greedy_decompose(backup, base, prefix_probe="binary")
            d_lin = greedy_decompose(backup, base, prefix_probe="linear")
            assert d_bin.pieces == d_lin.pieces

    def test_unknown_probe_rejected(self, diamond):
        base = AllShortestPathsBase(diamond)
        with pytest.raises(ValueError):
            greedy_decompose(Path([1, 2, 4]), base, prefix_probe="quantum")

    def test_stuck_raises(self):
        # Explicit empty base set, no edges allowed: nothing covers the path.
        g = Graph.from_edges([(1, 2)])
        base = ExplicitBaseSet(g)
        with pytest.raises(DecompositionError):
            greedy_decompose(Path([1, 2]), base, allow_edges=False)

    def test_bare_edge_fallback(self, weighted_diamond):
        # Force the non-shortest edge (2,3) as the only route.
        base = AllShortestPathsBase(weighted_diamond, include_all_edges=False)
        d = greedy_decompose(Path([1, 2, 3]), base, allow_edges=True)
        assert d.num_extra_edges >= 1
        assert d.path == Path([1, 2, 3])


class TestMinPieces:
    def test_optimal_beats_or_matches_greedy(self, small_isp):
        base = AllShortestPathsBase(small_isp)
        rng = random.Random(7)
        nodes = sorted(small_isp.nodes, key=repr)
        checked = 0
        while checked < 8:
            s, t = rng.sample(nodes, 2)
            primary = base.path_for(s, t)
            if primary.hops < 2:
                continue
            failed = list(primary.edges())[0]
            view = small_isp.without(edges=[failed])
            try:
                backup = shortest_path(view, s, t)
            except NoPath:
                continue
            checked += 1
            optimal = min_pieces_decompose(backup, base)
            greedy = greedy_decompose(backup, base)
            assert optimal.num_pieces <= greedy.num_pieces
            assert optimal.path == backup

    def test_exact_on_comb(self):
        g, failed, s, t = comb_graph(3)
        view = g.without(edges=failed)
        backup = shortest_path(view, s, t, weighted=False)
        base = AllShortestPathsBase(g, include_all_edges=False)
        assert min_pieces_decompose(backup, base).num_pieces == 4

    def test_weighted_comb_needs_edges(self):
        g, failed, s, t = weighted_comb_graph(2)
        view = g.without(edges=failed)
        backup = shortest_path(view, s, t)
        base = AllShortestPathsBase(g, include_all_edges=False)
        d = min_pieces_decompose(backup, base, allow_edges=True)
        assert d.num_base_paths == 3
        assert d.num_extra_edges == 2

    def test_uncoverable_raises(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        base = ExplicitBaseSet(g, [Path([1, 2])])
        with pytest.raises(DecompositionError):
            min_pieces_decompose(Path([1, 2, 3]), base, allow_edges=False)

    def test_trivial(self, diamond):
        base = AllShortestPathsBase(diamond)
        assert min_pieces_decompose(Path([3]), base).num_pieces == 0

    def test_prefers_fewer_bare_edges_on_tie(self, weighted_diamond):
        # Path 1-2-3: [1-2][2-3] where 2-3 is a bare edge, vs any other split.
        base = AllShortestPathsBase(weighted_diamond, include_all_edges=False)
        d = min_pieces_decompose(Path([1, 2, 3]), base, allow_edges=True)
        total_bare = d.num_extra_edges
        assert total_bare == 1  # only (2,3) must be bare


class TestConcatenationShortestPath:
    def test_covers_when_greedy_cannot(self, diamond):
        # Base set holds only the 'other' diamond branch pieces: the
        # chosen SP of G' may not decompose, but a concatenation exists.
        base = unique_shortest_path_base(diamond, seed=1)
        view = diamond.without(edges=[(1, 2)])
        d = concatenation_shortest_path(view, base, 1, 4)
        assert d.path.source == 1 and d.path.target == 4
        assert d.path.is_valid_in(view)

    def test_min_cost_first(self, weighted_diamond):
        base = unique_shortest_path_base(weighted_diamond, seed=1)
        view = weighted_diamond.without(edges=[(1, 2)])
        d = concatenation_shortest_path(view, base, 1, 4)
        assert d.path.cost(weighted_diamond) == 4.0  # 1-3-4

    def test_unreachable_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        base = unique_shortest_path_base(g, seed=1)
        with pytest.raises(NoPath):
            concatenation_shortest_path(g.without(), base, 1, 3)

    def test_pieces_are_surviving(self, small_isp):
        base = unique_shortest_path_base(
            small_isp, seed=1, sources=sorted(small_isp.nodes, key=repr)[:10]
        )
        nodes = sorted(small_isp.nodes, key=repr)
        s, t = nodes[0], nodes[5]
        primary = base.path_for(s, t)
        failed = list(primary.edges())[0]
        view = small_isp.without(edges=[failed])
        d = concatenation_shortest_path(view, base, s, t)
        for piece in d.pieces:
            assert piece.is_valid_in(view)

    def test_route_does_not_depend_on_the_hash_seed(self):
        """Equal-cost, equal-piece routes tie-break in the base set's
        insertion order, so every process returns the same pieces."""
        script = (
            "from repro.core.base_paths import unique_shortest_path_base\n"
            "from repro.core.decomposition import concatenation_shortest_path\n"
            "from repro.exceptions import NoPath\n"
            "from repro.topology.isp import generate_isp_topology\n"
            "g = generate_isp_topology(n=30, seed=1)\n"
            "base = unique_shortest_path_base(g, seed=1)\n"
            "nodes = list(g.nodes)[:6]\n"
            "for u, v in list(g.edges())[:20]:\n"
            "    view = g.without(edges=[(u, v)])\n"
            "    for s in nodes:\n"
            "        for t in nodes:\n"
            "            if s != t:\n"
            "                try:\n"
            "                    d = concatenation_shortest_path(view, base, s, t)\n"
            "                    print(s, t, *d.pieces)\n"
            "                except NoPath:\n"
            "                    print(s, t, '-')\n"
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
        assert outputs[0], "the script printed no routes"
        assert outputs[0] == outputs[1]


# -- property tests ------------------------------------------------------------


@st.composite
def isp_failure_instances(draw):
    seed = draw(st.integers(0, 30))
    graph = generate_isp_topology(n=40, seed=seed)
    nodes = sorted(graph.nodes, key=repr)
    s = nodes[draw(st.integers(0, len(nodes) - 1))]
    t = nodes[draw(st.integers(0, len(nodes) - 1))]
    return graph, s, t, draw(st.integers(0, 5))


@settings(max_examples=25, deadline=None)
@given(isp_failure_instances())
def test_decomposition_reassembles_exactly(instance):
    """Any decomposition's pieces concatenate back to the decomposed path."""
    graph, s, t, edge_index = instance
    if s == t:
        return
    base = AllShortestPathsBase(graph)
    primary = base.path_for(s, t)
    if primary.hops == 0:
        return
    failed = list(primary.edges())[edge_index % primary.hops]
    view = graph.without(edges=[failed])
    try:
        backup = shortest_path(view, s, t)
    except NoPath:
        return
    for d in (
        greedy_decompose(backup, base),
        min_pieces_decompose(backup, base),
    ):
        assert d.path == backup
        assert all(
            piece.is_valid_in(view) for piece in d.pieces
        ), "pieces must survive the failure"


@settings(max_examples=25, deadline=None)
@given(isp_failure_instances())
def test_binary_probe_monotonicity_premise(instance):
    """Base-path-ness of prefixes is downward closed along any path the
    greedy sees — the premise that licenses binary search (§4.1)."""
    graph, s, t, edge_index = instance
    if s == t:
        return
    base = AllShortestPathsBase(graph)
    primary = base.path_for(s, t)
    if primary.hops == 0:
        return
    failed = list(primary.edges())[edge_index % primary.hops]
    view = graph.without(edges=[failed])
    try:
        backup = shortest_path(view, s, t)
    except NoPath:
        return
    flags = [
        base.is_base_path(backup.prefix(length))
        for length in range(1, backup.hops + 1)
    ]
    # Once False, never True again at longer lengths... except that
    # 1-hop prefixes are trivially base; downward closure is the claim:
    for i, flag in enumerate(flags):
        if flag:
            assert all(flags[: i + 1]), "a base prefix had a non-base prefix"
