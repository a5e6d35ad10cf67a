"""Tests for the per-link ILM stretch accounting (Table 2, faithful mode)."""

from __future__ import annotations

import random

import pytest

from repro.core.base_paths import ExplicitBaseSet, UniqueShortestPathsBase
from repro.core.cache import shared_unique_base
from repro.experiments.ilm_accounting import IlmAccountant, scenarios_from_cases
from repro.experiments.networks import cached_suite
from repro.failures.models import FailureScenario
from repro.failures.sampler import FailureCase, link_failure_cases, sample_pairs
from repro.graph.csr import INF
from repro.graph.graph import Graph
from repro.graph.paths import Path
from repro.topology import grid_graph
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


# -- oracles: per-demand primary chains and the reverse maps over them -------


def _primary_chains(oracle, nodes, si):
    """``{target idx: primary chain}`` of source *si*: each chain built by
    extending its predecessor's in the base oracle's flat rows."""
    dist, pred = oracle.row_arrays(nodes[si])
    built = {si: (si,)}
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
    return built


class ReverseMaps:
    """Which demands a failure disturbs, from reverse link and router
    maps over every demand's primary chain, and the accountant's
    tallies from a walk over those chains."""

    def __init__(self, accountant):
        csr = accountant.csr
        self.index = csr.index
        self.n = csr.n
        oracle = accountant.base.oracle
        self.chains = {
            si: _primary_chains(oracle, csr.nodes, si)
            for si in (csr.index[s] for s in accountant.demand_sources)
        }
        self.by_edge: dict = {}
        self.by_router: dict = {}
        for si, chains in self.chains.items():
            for ti, chain in chains.items():
                for a, b in zip(chain, chain[1:]):
                    key = (a, b) if a < b else (b, a)
                    self.by_edge.setdefault(key, []).append((si, ti))
                for x in chain:
                    self.by_router.setdefault(x, []).append((si, ti))

    def affected(self, scenario) -> set:
        """The disturbed ``(source idx, target idx)`` demands; a dead
        source's demands are dropped, a dead target's kept."""
        index = self.index
        hit = set()
        for u, v in scenario.links:
            iu, iv = index.get(u), index.get(v)
            if iu is not None and iv is not None:
                key = (iu, iv) if iu < iv else (iv, iu)
                hit.update(self.by_edge.get(key, ()))
        dead = set()
        for router in scenario.routers:
            ri = index.get(router)
            if ri is not None:
                dead.add(ri)
                hit.update(self.by_router.get(ri, ()))
        return {(si, ti) for si, ti in hit if si not in dead}

    def tallies(self, accountant, touched) -> tuple:
        """``(base counts, naive counts, base LSP count)``: every touched
        primary's chain joins the naive counts and, deduplicated with
        the pieces as a set, the base set."""
        naive = list(accountant._backup_naive)
        base_paths = set(accountant._pieces)
        for si, ti in touched:
            chain = self.chains[si][ti]
            for x in chain:
                naive[x] += 1
            base_paths.add(chain)
        base = [0] * self.n
        for chain in base_paths:
            for x in chain:
                base[x] += 1
        return base, naive, len(base_paths)

    def piece_kinds(self, pieces, touched) -> tuple[set, set]:
        """The pieces that are a touched primary's chain, and the
        bare-edge pieces between a touched demand's endpoints that are
        not its primary."""
        primary = set()
        bare = set()
        for piece in pieces:
            demand = (piece[0], piece[-1])
            if demand not in touched:
                continue
            if self.chains[piece[0]][piece[-1]] == piece:
                primary.add(piece)
            elif len(piece) == 2:
                bare.add(piece)
        return primary, bare


def _affected_demands(accountant, scenario) -> set:
    """The accountant's disturbed demands for *scenario*, expanded from
    its preorder ranges (which must be disjoint)."""
    demands = set()
    count = 0
    for si, ranges in accountant._affected(scenario).items():
        order = accountant._tree(si)[0]
        for lo, hi in ranges:
            count += hi - lo
            demands.update((si, ti) for ti in order[lo:hi])
    assert count == len(demands)
    return demands


def _tie_heavy_grid():
    return grid_graph(4, 5)


def _suite_network(i):
    def build():
        network = cached_suite(scale="tiny", seed=1)[i]
        return network.graph
    return build


NETWORKS = [
    ("isp-weighted", _suite_network(0)),
    ("isp-unweighted", _suite_network(1)),
    ("internet", _suite_network(2)),
    ("as-graph", _suite_network(3)),
    ("unit-grid", _tie_heavy_grid),
]

NETWORK_PARAMS = pytest.mark.parametrize(
    "build", [b for _, b in NETWORKS], ids=[name for name, _ in NETWORKS]
)


def _scenario_mix(graph, rng) -> list:
    """1-3 dead links, dead routers (``nodes[0]`` a demand source in
    every universe below, ``nodes[1]`` only a target in the restricted
    one), a non-edge, an unknown node and a link plus a router."""
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges(), key=repr)
    singles = edges if len(edges) <= 30 else rng.sample(edges, 30)
    scenarios = [FailureScenario.link_set([e]) for e in singles]
    for k in (2, 3):
        scenarios += [
            FailureScenario.link_set(rng.sample(edges, k)) for _ in range(10)
        ]
    scenarios += [
        FailureScenario.single_router(v)
        for v in nodes[:2] + rng.sample(nodes[2:], 2)
    ]
    u = nodes[0]
    far = next(v for v in nodes[1:] if not graph.has_edge(u, v))
    scenarios.append(FailureScenario.link_set([(u, far)]))  # not an edge
    scenarios.append(FailureScenario.link_set([(u, "no-such-node")]))
    scenarios.append(FailureScenario(
        links=frozenset(singles[:1]), routers=frozenset(nodes[-1:])
    ))
    return scenarios


def _accounted(build, universe):
    """An accountant that processed :func:`_scenario_mix`, its oracle,
    the scenarios and the demands they touched."""
    graph = build()
    base = shared_unique_base(graph)
    nodes = sorted(graph.nodes, key=repr)
    sources = None if universe == "all" else nodes[::5]
    accountant = IlmAccountant(graph, base, demand_sources=sources)
    oracle = ReverseMaps(accountant)
    scenarios = _scenario_mix(graph, random.Random(3))
    touched: set = set()
    for scenario in scenarios:
        expected = oracle.affected(scenario)
        assert _affected_demands(accountant, scenario) == expected
        assert accountant.process_scenario(scenario) == len(expected)
        touched |= expected
    return accountant, oracle, scenarios, touched


class TestPrimaryTreesMatchTheChainOracle:
    """The preorder ranges under dead tree edges and routers are exactly
    the demands whose primary chain crosses the failure, and prefix
    sums over the touched flags give the chain walk's tallies, with a
    piece that is a touched primary counted once."""

    @NETWORK_PARAMS
    @pytest.mark.parametrize("universe", ["all", "restricted"])
    def test_affected_demands_and_tallies(self, build, universe):
        accountant, oracle, scenarios, touched = _accounted(build, universe)
        dead = [
            accountant.csr.index[r] for s in scenarios for r in s.routers
        ]
        assert any(ri in oracle.chains for ri in dead)  # a dead source
        assert any(ti in dead for _si, ti in touched)  # a dead target
        assert accountant._finalize() == oracle.tallies(accountant, touched)

    def test_the_fixture_has_both_kinds_of_piece(self):
        """A piece that is a touched primary must count once; a bare
        edge between a touched demand's endpoints that is not its
        primary is a base LSP of its own."""
        accountant, oracle, _scenarios, touched = _accounted(
            _suite_network(0), "all"
        )
        primary, bare = oracle.piece_kinds(accountant._pieces, touched)
        assert primary and bare
        base, naive, lsps = accountant._finalize()
        assert (base, naive, lsps) == oracle.tallies(accountant, touched)
        assert lsps == len(accountant._pieces) + len(touched) - len(primary)

    def test_shuffled_chunks_touching_the_same_demands(self):
        accountant, oracle, scenarios, touched = _accounted(
            _suite_network(0), "all"
        )
        graph = accountant.graph
        chunks = [scenarios[i::4] for i in range(4)]
        seen: dict = {}
        for k, chunk in enumerate(chunks):
            for demand in set().union(*(oracle.affected(s) for s in chunk)):
                seen.setdefault(demand, set()).add(k)
        assert any(len(ks) > 1 for ks in seen.values())
        states = []
        for chunk in chunks:
            worker = IlmAccountant(graph, accountant.base)
            worker.process_scenarios(chunk)
            states.append(worker.export_state())
        random.Random(9).shuffle(states)
        merged = IlmAccountant(graph, accountant.base)
        for state in states:
            merged.merge_state(state)
        assert merged._finalize() == accountant._finalize()
        assert merged._finalize() == oracle.tallies(merged, touched)
        assert merged.stretch_factors() == accountant.stretch_factors()
        assert merged.table_sizes() == accountant.table_sizes()
