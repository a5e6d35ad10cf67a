"""Tests for the experiment machinery: metrics, drivers, reporting."""

from __future__ import annotations

import math

import pytest

from repro.core.base_paths import UniqueShortestPathsBase
from repro.core.decomposition import Decomposition
from repro.experiments import metrics
from repro.experiments.figure10 import STRETCH_EDGES, collect
from repro.experiments.networks import scales, suite
from repro.experiments.reporting import format_histogram, format_table, percent_histogram
from repro.experiments.table1 import PAPER_TABLE1, collect as collect_table1, render as render_table1
from repro.experiments.table2 import evaluate_network, run_case
from repro.experiments.table3 import bypass_distribution, link_bypass_hops
from repro.experiments.theory_figures import figure2, figure3, figure4, figure5, run as run_theory
from repro.failures.models import FailureScenario
from repro.failures.sampler import FailureCase, link_failure_cases
from repro.graph.graph import Graph
from repro.graph.paths import Path


def make_result(
    primary_nodes,
    backup_nodes=None,
    primary_cost=None,
    backup_cost=None,
    pieces=None,
):
    primary = Path(primary_nodes)
    backup = Path(backup_nodes) if backup_nodes else None
    decomposition = None
    if backup is not None:
        if pieces is None:
            pieces = [backup]
        decomposition = Decomposition(
            pieces=tuple(pieces), base_flags=tuple(True for _ in pieces)
        )
    return metrics.CaseResult(
        source=primary.source,
        destination=primary.target,
        scenario=FailureScenario.single_link(*list(primary.edges())[0]),
        primary=primary,
        primary_cost=primary_cost if primary_cost is not None else float(primary.hops),
        backup=backup,
        backup_cost=backup_cost,
        decomposition=decomposition,
    )


class TestMetrics:
    def test_average_pc_length(self):
        results = [
            make_result([1, 2, 3], [1, 4, 3], backup_cost=2.0,
                        pieces=[Path([1, 4]), Path([4, 3])]),
            make_result([1, 2, 3], [1, 5, 3], backup_cost=2.0),
        ]
        assert metrics.average_pc_length(results) == 1.5

    def test_average_pc_length_empty_is_nan(self):
        assert math.isnan(metrics.average_pc_length([]))

    def test_unrestorable_excluded(self):
        results = [
            make_result([1, 2, 3], None),
            make_result([1, 2, 3], [1, 4, 3], backup_cost=2.0),
        ]
        assert metrics.average_pc_length(results) == 1.0

    def test_length_stretch(self):
        results = [
            make_result([1, 2, 3], [1, 4, 5, 3], backup_cost=3.0),  # 2 -> 3 hops
        ]
        assert metrics.length_stretch_factor(results) == pytest.approx(1.5)

    def test_redundancy(self):
        results = [
            make_result([1, 2, 3], [1, 4, 3], primary_cost=2.0, backup_cost=2.0),
            make_result([1, 2, 3], [1, 4, 5, 3], primary_cost=2.0, backup_cost=3.0),
        ]
        assert metrics.redundancy_percent(results) == 50.0

    def test_ilm_stretch_sharing_lowers_ratio(self):
        # Two demands restored by the SAME piece: base entries shared,
        # naive backups not.
        shared = [Path([1, 9]), Path([9, 3])]
        r1 = make_result([1, 2, 3], [1, 9, 3], backup_cost=2.0, pieces=shared)
        r2 = make_result([1, 2, 3], [1, 9, 3], backup_cost=2.0, pieces=shared)
        lone = [make_result([1, 2, 3], [1, 9, 3], backup_cost=2.0, pieces=shared)]
        min_two, avg_two = metrics.ilm_stretch_factors([r1, r2])
        min_one, avg_one = metrics.ilm_stretch_factors(lone)
        assert avg_two < avg_one

    def test_ilm_stretch_bounds(self):
        results = [make_result([1, 2, 3], [1, 9, 3], backup_cost=2.0)]
        min_sf, avg_sf = metrics.ilm_stretch_factors(results)
        assert 0 < min_sf <= avg_sf

    def test_build_row(self):
        results = [make_result([1, 2, 3], [1, 9, 3], primary_cost=2.0, backup_cost=2.0)]
        row = metrics.build_row("Net", "link", results, max_multiplicity=3)
        assert row.cases == 1 and row.restorable_cases == 1
        assert row.redundancy == 100.0
        assert row.max_multiplicity == 3
        assert "Net" in row.formatted()


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out and "3.25" in out

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_percent_histogram_buckets(self):
        buckets = percent_histogram([1.0, 1.05, 1.5, 2.5], [1.0, 1.1, 2.0])
        shares = dict(buckets)
        assert shares["[1.00,1.10)"] == 50.0
        assert shares["[1.10,2.00)"] == 25.0
        assert shares[">= 2.00"] == 25.0

    def test_percent_histogram_needs_two_edges(self):
        with pytest.raises(ValueError):
            percent_histogram([1.0], [1.0])

    def test_format_histogram_renders_bars(self):
        out = format_histogram([("a", 50.0), ("b", 100.0)], title="H", width=10)
        assert "##########" in out
        assert out.splitlines()[0] == "H"

    def test_format_histogram_empty(self):
        assert format_histogram([], title="E") == "E"


class TestSuite:
    def test_scales_listed(self):
        assert set(scales()) == {"tiny", "small", "paper"}

    def test_tiny_suite_shapes(self):
        networks = suite(scale="tiny")
        names = [n.name for n in networks]
        assert names == ["ISP, Weighted", "ISP, Unweighted", "Internet", "AS Graph"]
        isp_w, isp_u = networks[0], networks[1]
        assert sorted(isp_w.graph.edges()) == sorted(isp_u.graph.edges())
        assert isp_w.weighted and not isp_u.weighted

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            suite(scale="galactic")


class TestTable1:
    def test_collect_skips_duplicate_isp(self):
        stats = collect_table1(suite(scale="tiny"))
        names = [s.name for s in stats]
        assert names == ["ISP", "Internet", "AS Graph"]

    def test_render_includes_paper_values(self):
        out = render_table1(collect_table1(suite(scale="tiny")))
        assert "40,377" in out  # paper's Internet size
        assert "ISP" in out

    def test_paper_reference_table(self):
        assert PAPER_TABLE1["AS Graph"] == (4746, 9878, 4.16)


class TestTable2Driver:
    def test_run_case_restorable(self, diamond):
        base = UniqueShortestPathsBase(diamond)
        primary = base.path_for(1, 4)
        case = next(iter(link_failure_cases((1, 4), primary, k=1)))
        result = run_case(diamond, base, case, weighted=False)
        assert result.restorable
        assert result.backup is not None
        assert result.decomposition is not None

    def test_run_case_disconnected(self, line5):
        base = UniqueShortestPathsBase(line5)
        primary = base.path_for(0, 4)
        case = FailureCase(0, 4, primary, FailureScenario.single_link(1, 2))
        result = run_case(line5, base, case, weighted=False)
        assert not result.restorable

    def test_evaluate_network_rows(self):
        network = suite(scale="tiny")[0]
        rows = evaluate_network(network, modes=("link",), seed=1)
        row = rows["link"]
        assert row.cases > 0
        assert 1.0 <= row.avg_pc_length <= 3.0
        assert row.max_multiplicity is not None


class TestTable3Driver:
    def test_distribution_sums_to_100(self, small_isp):
        percents, bridge = bypass_distribution(small_isp, weighted=True)
        assert sum(percents.values()) + bridge == pytest.approx(100.0)

    def test_bridges_counted(self, line5):
        percents, bridge = bypass_distribution(line5, weighted=False)
        assert bridge == 100.0
        assert percents == {}

    def test_max_links_cap(self, small_isp):
        percents, bridge = bypass_distribution(small_isp, weighted=True, max_links=5)
        total = round((sum(percents.values()) + bridge))
        assert total == 100

    @staticmethod
    def _unweighted_tiny_networks():
        from repro.experiments.networks import cached_suite

        networks = [n for n in cached_suite(scale="tiny", seed=1) if not n.weighted]
        assert len(networks) == 3
        return networks

    def test_unweighted_hops_equal_the_bypass_path_hops(self, line5):
        """The hop-distance kernel gives ``bypass_path``'s hop count on
        every link of every unweighted tiny network; None on bridges."""
        from repro.core.local_restoration import bypass_path
        from repro.exceptions import NoRestorationPath

        graphs = [n.graph for n in self._unweighted_tiny_networks()] + [line5]
        bridges = 0
        for graph in graphs:
            for u, v in graph.edges():
                try:
                    want = bypass_path(graph, u, v, weighted=False).hops
                except NoRestorationPath:
                    want = None
                    bridges += 1
                assert link_bypass_hops(graph, u, v, False) == want, (u, v)
        assert bridges >= 4

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_one_backend_call_per_link(self, backend, monkeypatch):
        """Under the default model (no model, or the independent one) an
        unweighted link costs exactly one kernel call: ``bypass_hops``
        over the snapshot's unmasked view, with no failure scenario and
        no scenario view built."""
        from repro.graph.csr import CsrGraph, shared_csr
        from repro.kernels import (
            available_backends, backend_name, kernel_backend, set_backend,
        )
        from repro.policies import make_failure_model

        if backend not in available_backends():
            pytest.skip("no C toolchain for the native backend")
        monkeypatch.setenv("REPRO_KERNEL", backend_name())
        previous = set_backend(backend)
        try:
            module = kernel_backend()
            calls = []
            for name in (
                "dijkstra_canonical", "bfs", "bypass_hops", "rows_many",
                "children_index", "preorder", "repair_resettle",
                "decompose_flat", "ilm_account", "count_paths",
            ):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls.append((_name, args[0]))
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)

            def refuse(*args, **kwargs):
                raise AssertionError("built a failure scenario or its view")

            monkeypatch.setattr(FailureScenario, "__init__", refuse)
            monkeypatch.setattr(CsrGraph, "with_edges_removed", refuse)
            for network in self._unweighted_tiny_networks():
                graph = network.graph
                unmasked = shared_csr(graph).unmasked
                links = list(graph.edges())
                for model in (None, make_failure_model("independent", graph)):
                    calls.clear()
                    for u, v in links:
                        link_bypass_hops(graph, u, v, False, model)
                    assert [name for name, _ in calls] == ["bypass_hops"] * len(links)
                    assert all(view is unmasked for _, view in calls)
        finally:
            set_backend(previous)

    @pytest.mark.parametrize("model_name", ["srlg", "regional", "router-links"])
    def test_correlated_unweighted_hops_equal_the_dict_search(self, model_name):
        """Under a correlated model the kernel gives the dict search's hop
        count over the model's filtered view; None where it finds no path."""
        from repro.exceptions import NoPath
        from repro.graph.shortest_paths import shortest_path
        from repro.policies import make_failure_model

        for network in self._unweighted_tiny_networks():
            graph = network.graph
            model = make_failure_model(model_name, graph, seed=1)
            for u, v in graph.edges():
                view = model.scenario_for_link((u, v)).apply(graph)
                try:
                    want = shortest_path(view, u, v, weighted=False).hops
                except NoPath:
                    want = None
                got = link_bypass_hops(graph, u, v, False, model)
                assert got == want, (network.name, u, v)


class TestFigure10Driver:
    def test_collect_shapes(self, small_isp):
        samples = collect(small_isp, weighted=True, n_pairs=10, seed=1)
        assert set(samples) == {"edge-bypass", "end-route"}
        for data in samples.values():
            assert len(data.cost) == len(data.hopcount)
            assert all(v >= 1.0 - 1e-9 for v in data.cost)

    def test_stretch_edges_monotone(self):
        assert STRETCH_EDGES == sorted(STRETCH_EDGES)


class TestTheoryFigures:
    def test_all_checks_pass(self):
        results = run_theory(comb_ks=(1, 3), star_sizes=(12,), directed_sizes=(12,))
        assert all(r.matches for r in results)

    def test_individual_figures(self):
        assert figure2(2).pieces == 3
        f3 = figure3(2)
        assert (f3.base_paths, f3.extra_edges) == (3, 2)
        assert figure4(16).pieces >= 3
        assert figure5(16).pieces >= 4


class TestPcLengthHistogram:
    def test_percentages(self):
        from repro.experiments.metrics import pc_length_histogram

        results = [
            make_result([1, 2, 3], [1, 9, 3], backup_cost=2.0),
            make_result(
                [1, 2, 3], [1, 9, 3], backup_cost=2.0,
                pieces=[Path([1, 9]), Path([9, 3])],
            ),
            make_result([1, 2, 3], None),
        ]
        histogram = pc_length_histogram(results)
        assert histogram == {1: 50.0, 2: 50.0}

    def test_empty(self):
        from repro.experiments.metrics import pc_length_histogram

        assert pc_length_histogram([]) == {}
        assert pc_length_histogram([make_result([1, 2, 3], None)]) == {}

    def test_vast_majority_at_two_on_isp(self, small_isp):
        """The §4 claim measured on a live sample."""
        from repro.core.base_paths import UniqueShortestPathsBase
        from repro.experiments.metrics import pc_length_histogram
        from repro.experiments.table2 import run_case
        from repro.failures.sampler import link_failure_cases, sample_pairs

        base = UniqueShortestPathsBase(small_isp)
        results = []
        for pair in sample_pairs(small_isp, 15, seed=3):
            primary = base.path_for(*pair)
            for case in link_failure_cases(pair, primary, k=1):
                results.append(run_case(small_isp, base, case, weighted=True))
        histogram = pc_length_histogram(results)
        at_most_two = histogram.get(1, 0.0) + histogram.get(2, 0.0)
        assert at_most_two > 70.0
