"""Tests for ``python -m repro.obs`` — tree/timeline/summary/diff."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.cli import main
from repro.obs.events import EventLog
from repro.obs.trace import Tracer


def write_bench(path, **overrides):
    payload = {
        "name": "table2",
        "scale": "tiny",
        "seed": 1,
        "cases": 229,
        "wall_clock_s": 1.0,
        "stages": {"cases": 0.8, "render": 0.2},
        "counters": {"dijkstra_runs": 100, "probe_calls": 1000},
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestDiff:
    def test_identical_files_pass(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(tmp_path / "new.json")
        assert main(["diff", str(old), str(new)]) == 0
        assert "OK: no hard regressions" in capsys.readouterr().out

    def test_counter_growth_within_threshold_passes(self, tmp_path):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(
            tmp_path / "new.json",
            counters={"dijkstra_runs": 105, "probe_calls": 1000},
        )
        assert main(["diff", str(old), str(new)]) == 0

    def test_counter_growth_beyond_threshold_fails(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(
            tmp_path / "new.json",
            counters={"dijkstra_runs": 150, "probe_calls": 1000},
        )
        assert main(["diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "dijkstra_runs" in out

    def test_threshold_is_configurable(self, tmp_path):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(
            tmp_path / "new.json",
            counters={"dijkstra_runs": 150, "probe_calls": 1000},
        )
        assert main(
            ["diff", str(old), str(new), "--max-counter-growth", "0.60"]
        ) == 0

    def test_new_nonzero_counter_is_a_regression(self, tmp_path):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(
            tmp_path / "new.json",
            counters={"dijkstra_runs": 100, "probe_calls": 1000, "path_probes": 5},
        )
        assert main(["diff", str(old), str(new)]) == 1

    def test_counter_shrink_passes(self, tmp_path):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(
            tmp_path / "new.json",
            counters={"dijkstra_runs": 10, "probe_calls": 1000},
        )
        assert main(["diff", str(old), str(new)]) == 0

    def test_incomparable_files_exit_2(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(tmp_path / "new.json", scale="small")
        assert main(["diff", str(old), str(new)]) == 2
        assert "NOT COMPARABLE" in capsys.readouterr().out

    def test_case_count_drift_exit_2(self, tmp_path):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(tmp_path / "new.json", cases=230)
        assert main(["diff", str(old), str(new)]) == 2

    def test_wall_clock_growth_soft_warns(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(tmp_path / "new.json", wall_clock_s=2.0)
        assert main(["diff", str(old), str(new)]) == 0
        assert "WARN" in capsys.readouterr().out

    def test_wall_clock_gate_opt_in(self, tmp_path, capsys):
        old = write_bench(tmp_path / "old.json")
        new = write_bench(tmp_path / "new.json", wall_clock_s=2.0)
        assert main(["diff", str(old), str(new), "--fail-on-wall"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_policy_header_mismatch_exit_2(self, tmp_path, capsys):
        for key, old_value, new_value in (
            ("shm_enabled", True, False),
            ("jobs", 1, 4),
        ):
            old = write_bench(tmp_path / "old.json", **{key: old_value})
            new = write_bench(tmp_path / "new.json", **{key: new_value})
            assert main(["diff", str(old), str(new)]) == 2
            assert "NOT COMPARABLE" in capsys.readouterr().out

    @pytest.mark.parametrize("baseline,key,value", [
        pytest.param("table2-tiny-link", "ilm_accounting", "per-link",
                     id="ilm_accounting-per-link"),
        pytest.param("table2-tiny-link", "ilm_max_scenarios", 50,
                     id="ilm_max_scenarios-50"),
        pytest.param("table2-tiny-link", "modes", ["link", "router"],
                     id="modes-value2"),
        # A full table3 sweep vs. a --max-links 5 one (null = every link).
        pytest.param("table3-tiny", "max_links", 5, id="max_links-5"),
        # ablation --size 40 vs. --size 46: same case count, other work.
        pytest.param(None, "size", 46, id="size-46"),
    ])
    def test_per_pair_vs_per_link_baseline_exit_2(
        self, tmp_path, capsys, baseline, key, value
    ):
        # Regression: the diff gate used to lack modes / ilm_accounting
        # (and ilm_max_scenarios, max_links, size), so two copies of a
        # committed baseline differing only there diffed with exit 0.
        if baseline is None:
            payload = json.loads(write_bench(
                tmp_path / "ablation.json", name="ablation", size=40,
                pairs=6, cases=20,
            ).read_text())
        else:
            path = (
                Path(__file__).resolve().parents[1]
                / "benchmarks" / "baselines" / f"{baseline}.json"
            )
            # A baseline predating the field ran at its default
            # (max_links null: every link).
            payload = json.loads(path.read_text())
            payload.setdefault(key, None)
        assert payload[key] != value
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        new = tmp_path / "new.json"
        new.write_text(json.dumps(dict(payload, **{key: value})))
        assert main(["diff", str(old), str(old)]) == 0
        capsys.readouterr()
        assert main(["diff", str(old), str(new)]) == 2
        assert f"NOT COMPARABLE: {key} differs" in capsys.readouterr().out

    def test_policy_header_absent_in_old_still_compares(self, tmp_path):
        # Files predating the shm_enabled/jobs header fields diff as
        # before; the comparability check needs the key on both sides.
        old = write_bench(tmp_path / "old.json")
        new = write_bench(tmp_path / "new.json", shm_enabled=True, jobs=2)
        assert main(["diff", str(old), str(new)]) == 0


class TestLegacyRootPathsDropped:
    """Pre-``results/`` bench layouts are rejected, not resolved."""

    def test_missing_file_errors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="does not exist"):
            main(["summary", "BENCH_table2.json"])

    def test_root_path_with_moved_file_points_to_results(
        self, tmp_path, monkeypatch
    ):
        # The old root-level layout is NOT silently resolved anymore:
        # the error names the results/ file so the caller updates.
        monkeypatch.chdir(tmp_path)
        results = tmp_path / "results"
        results.mkdir()
        write_bench(results / "BENCH_table2.json")
        with pytest.raises(SystemExit, match="did you mean"):
            main(["summary", "BENCH_table2.json"])

    def test_results_path_still_reads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        results = tmp_path / "results"
        results.mkdir()
        write_bench(results / "BENCH_table2.json")
        assert main(["summary", "results/BENCH_table2.json"]) == 0
        assert "counter" in capsys.readouterr().out


class TestRenderers:
    def test_tree_renders_nested_spans(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        with tracer.span("table2", scale="tiny"):
            with tracer.span("table2.cases"):
                pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        assert main(["tree", str(path)]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "  table2.cases" in out

    def test_tree_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["tree", str(path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_timeline_filters_by_kind(self, tmp_path, capsys):
        log = EventLog()
        log.emit(1.0, "r1", "link-down", text="x")
        log.emit(1.01, "r2", "detected", up=False)
        log.emit(1.02, "r2", "local-patch", lsp_id=7)
        path = log.write_jsonl(tmp_path / "events.jsonl")
        assert main(["timeline", str(path), "--kind", "detected"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "local-patch" not in out.splitlines()[0]
        assert "3 events" in out  # footer counts the whole log

    def test_summary_renders_metrics_and_rates(self, tmp_path, capsys):
        payload = {
            "counters": {"probe_calls": 10, "o1_probes": 10},
            "metrics": {
                "counters": {"sim.delivery.delivered": 4},
                "gauges": {"sim.flood_convergence_s": 0.2},
                "histograms": {
                    "lat": {
                        "edges": [0.01, 0.1],
                        "counts": [2, 1, 0],
                        "count": 3,
                        "sum": 0.05,
                        "min": 0.001,
                        "max": 0.09,
                    }
                },
            },
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "counter sim.delivery.delivered: 4" in out
        assert "gauge sim.flood_convergence_s: 0.2" in out
        assert "histogram lat" in out
        assert "o1_probe_rate: 1" in out

    def test_summary_without_metrics(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["summary", str(path)]) == 0
        assert "no metrics" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
