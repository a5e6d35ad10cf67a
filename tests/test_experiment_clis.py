"""Smoke tests for the experiment command-line entry points.

Each table/figure module is a deliverable CLI; these tests invoke the
``main`` functions at tiny scale and assert the reports carry the
paper-shaped content, that each BENCH header holds exactly the
``RunConfig`` fields the CLI declares plus the common stamps, and that
flags a CLI does not read are usage errors.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ablation, figure10, runner, table1, table2, table3, theory_figures
from repro.runconfig import COMPARABILITY_KEYS, ENVIRONMENT_KEYS


def test_table1_main(capsys, tmp_path):
    bench = tmp_path / "BENCH_table1.json"
    report = table1.main(["--scale", "tiny", "--bench-json", str(bench)])
    assert "Table 1" in report
    assert "ISP" in report and "AS Graph" in report
    assert capsys.readouterr().out.strip()
    payload = json.loads(bench.read_text())
    assert payload["name"] == "table1"
    assert set(payload["stages"]) == {"topologies", "stats", "render"}
    assert "counters" in payload and "rates" in payload


def test_table2_main_single_mode():
    report = table2.main(["--scale", "tiny", "--modes", "link"])
    assert "After one link failure" in report
    assert "ISP, Weighted" in report
    assert "paper" in report  # side-by-side column


def test_table2_rejects_bad_ilm_mode():
    with pytest.raises(SystemExit):
        table2.main(["--ilm", "per-galaxy"])


def test_table2_evaluate_rejects_bad_accounting():
    from repro.experiments.networks import suite

    with pytest.raises(ValueError):
        table2.evaluate_network(
            suite(scale="tiny")[0], ilm_accounting="per-galaxy"
        )


def test_table3_main():
    report = table3.main(["--scale", "tiny"])
    assert "Table 3" in report
    assert "Bypass hops" in report


def test_figure10_main():
    report = figure10.main(["--scale", "tiny"])
    assert "edge-bypass" in report and "end-route" in report
    assert "= 1.00" in report


def test_theory_figures_main():
    report = theory_figures.main([])
    assert "MISMATCH" not in report
    assert report.count("OK") >= 16


def test_runner_writes_output(tmp_path):
    out = tmp_path / "report.txt"
    bench = tmp_path / "BENCH_runner.json"
    report = runner.main(
        ["--scale", "tiny", "--out", str(out), "--bench-json", str(bench)]
    )
    assert out.exists()
    for section in ("Table 1", "Table 2", "Table 3", "Figure 10", "Figures 2-5"):
        assert section in report
    payload = json.loads(bench.read_text())
    assert payload["name"] == "runner"
    assert set(payload["sections"]) == {
        "table1", "table2", "table3", "figure10", "theory_figures",
    }
    assert payload["wall_clock_s"] >= sum(payload["sections"].values()) * 0.99


def test_table2_obs_records_trace_and_metrics(tmp_path):
    bench = tmp_path / "BENCH_table2.json"
    trace = tmp_path / "trace.jsonl"
    table2.main(
        [
            "--scale", "tiny", "--modes", "link",
            "--bench-json", str(bench),
            "--obs", "--trace-jsonl", str(trace),
        ]
    )
    payload = json.loads(bench.read_text())
    metrics = payload["metrics"]
    assert metrics["histograms"]["table2.path_stretch"]["count"] == payload["cases"]
    assert metrics["histograms"]["table2.pc_length"]["count"] > 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records[0]["name"] == "table2" and records[0]["parent"] is None
    names = {r["name"] for r in records}
    assert {"table2.cases", "table2.render"} <= names


def test_obs_flags_default_off(tmp_path):
    bench = tmp_path / "BENCH_table3.json"
    table3.main(["--scale", "tiny", "--max-links", "5", "--bench-json", str(bench)])
    payload = json.loads(bench.read_text())
    assert "metrics" not in payload  # nothing recorded without --obs
    assert "rates" in payload  # derived rates are always published


def test_ablation_main():
    report = ablation.main(["--size", "40", "--pairs", "6"])
    assert "Decomposition" in report
    assert "RBPC" in report
    assert "Suurballe" in report


# -- one RunConfig: declared fields, stamps, rejections -----------------------

#: Stamped on every payload besides the declared fields.
PROVENANCE = {"git_sha", "repro_version"}
TIMINGS_AND_COUNTERS = {"wall_clock_s", "stages", "counters", "rates", "memory"}

#: CLI -> (argv, declared RunConfig fields, result fields).
CLI_HEADERS = {
    "table1": (
        ["--scale", "tiny"],
        {"scale", "seed", "kernel_backend"},
        {"networks"},
    ),
    "table2": (
        ["--scale", "tiny", "--modes", "link"],
        {"scale", "seed", "modes", "ilm_accounting", "jobs", "policy",
         "failure_model", "kernel_backend"},
        {"ilm_max_scenarios", "cases", "rows"},
    ),
    "table3": (
        ["--scale", "tiny", "--max-links", "5"],
        {"scale", "seed", "max_links", "jobs", "failure_model", "kernel_backend"},
        {"rows"},
    ),
    "figure10": (
        ["--scale", "tiny"],
        {"scale", "seed", "jobs", "failure_model", "kernel_backend"},
        {"samples"},
    ),
    "ablation": (
        ["--size", "40", "--pairs", "6"],
        {"size", "pairs", "seed", "failure_model", "kernel_backend"},
        {"cases"},
    ),
    "theory_figures": ([], {"kernel_backend"}, {"cases", "figures", "matches"}),
    "runner": (
        ["--scale", "tiny"],
        {"scale", "seed", "ilm_accounting", "jobs", "policy", "failure_model",
         "kernel_backend"},
        {"ilm_max_scenarios", "sections"},
    ),
}

CLIS = {
    "table1": table1, "table2": table2, "table3": table3, "figure10": figure10,
    "ablation": ablation, "theory_figures": theory_figures, "runner": runner,
}


@pytest.mark.parametrize("name", sorted(CLI_HEADERS))
def test_header_keys_are_declared_fields_plus_stamps(name, tmp_path):
    argv, declared, results = CLI_HEADERS[name]
    module = CLIS[name]
    assert set(module.CONFIG_FIELDS) == declared
    assert declared <= set(COMPARABILITY_KEYS)
    bench = tmp_path / "bench.json"
    module.main(argv + ["--bench-json", str(bench)])
    payload = json.loads(bench.read_text())
    assert set(payload) == (
        {"name"} | declared | set(ENVIRONMENT_KEYS) | PROVENANCE
        | TIMINGS_AND_COUNTERS | results
    )
    assert payload["name"] == name
    assert payload["kernel_backend"] in ("python", "native")  # never "auto"


@pytest.mark.parametrize("name,flag", [
    ("table1", "--policy"), ("table1", "--failure-model"),
    ("theory_figures", "--policy"), ("theory_figures", "--failure-model"),
    ("table3", "--policy"), ("figure10", "--policy"), ("ablation", "--policy"),
])
def test_unread_setting_is_rejected(name, flag, capsys):
    value = "mrc" if flag == "--policy" else "srlg"
    with pytest.raises(SystemExit) as exc:
        CLIS[name].main([flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["table2", "table3", "figure10", "runner"])
def test_negative_jobs_is_a_usage_error(name, capsys):
    with pytest.raises(SystemExit) as exc:
        CLIS[name].main(["--scale", "tiny", "--jobs", "-2"])
    assert exc.value.code == 2
    assert "--jobs: must be >= 0, got -2" in capsys.readouterr().err


def test_runner_passes_policy_and_failure_model_to_its_sections(monkeypatch):
    seen = {}

    def recording(module):
        real = module.run

        def run(**kwargs):
            seen[module.__name__.rsplit(".", 1)[1]] = kwargs
            return real(**kwargs)

        monkeypatch.setattr(module, "run", run)

    for module in (table2, table3, figure10):
        recording(module)
    runner.main([
        "--scale", "tiny", "--policy", "drop", "--failure-model", "srlg",
        "--bench-json", "-",
    ])
    assert seen["table2"]["policy"] == "drop"
    for name in ("table2", "table3", "figure10"):
        assert seen[name]["failure_model"] == "srlg"
