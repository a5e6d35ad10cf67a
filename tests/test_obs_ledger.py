"""Tests for the run ledger — schema pin, append/round-trip, comparability."""

from __future__ import annotations

import json

import pytest

from repro import __version__

from repro.experiments.bench import write_bench_json
from repro.obs.ledger import (
    COMPARABILITY_KEYS,
    LEDGER_SCHEMA,
    append_entry,
    comparable_history,
    config_mismatch,
    git_sha,
    ledger_enabled,
    ledger_path_for,
    make_entry,
    read_entries,
    record_run,
)

PAYLOAD = {
    "scale": "tiny",
    "seed": 7,
    "cases": 240,
    "modes": ["link"],
    "tie_order": "canonical",
    "kernel_backend": "python",
    "jobs": 1,
    "wall_clock_s": 0.21,
    "stages": {"cases": 0.12},
    "counters": {"probe_calls": 100},
    "memory": {"max_rss_kb": 26000, "tracemalloc_peak_kb": None},
    "git_sha": "abc123def456",
    "repro_version": "1.0.0",
}


class TestSchema:
    """The envelope contract downstream readers rely on."""

    def test_schema_tag(self):
        assert LEDGER_SCHEMA == "repro.obs.ledger/1"

    def test_entry_envelope_keys_pinned(self):
        entry = make_entry("table2", PAYLOAD, "results/BENCH_table2.json")
        assert set(entry) == {
            "schema", "ts", "git_sha", "repro_version", "name", "config",
            "wall_clock_s", "stages", "counters", "memory", "bench_path",
        }
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["name"] == "table2"
        assert entry["git_sha"] == "abc123def456"
        assert entry["repro_version"] == "1.0.0"
        assert entry["bench_path"] == "results/BENCH_table2.json"

    def test_config_carries_comparability_fields_only(self):
        entry = make_entry("table2", PAYLOAD)
        assert entry["config"] == {
            "scale": "tiny", "seed": 7, "cases": 240, "modes": ["link"],
            "tie_order": "canonical", "kernel_backend": "python",
            "jobs": 1,
        }
        # Measurements never leak into the comparability config.
        assert "wall_clock_s" not in entry["config"]
        assert "counters" not in entry["config"]

    def test_make_entry_does_not_mutate_payload(self):
        payload = dict(PAYLOAD)
        make_entry("table2", payload)
        assert payload == PAYLOAD

    def test_foreign_schema_rejected(self):
        line = json.dumps({"schema": "repro.obs.ledger/999"})
        with pytest.raises(ValueError, match="unsupported ledger schema"):
            read_entries([line])


class TestAppendRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = tmp_path / "history" / "ledger.jsonl"
        first = make_entry("table2", PAYLOAD)
        second = make_entry("table2", dict(PAYLOAD, seed=8))
        append_entry(first, path)
        append_entry(second, path)
        entries = read_entries(path)
        assert entries == [first, second]

    def test_record_run_appends(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        bench = tmp_path / "results" / "BENCH_x.json"
        out = record_run("x", PAYLOAD, bench)
        assert out == tmp_path / "results" / "history" / "ledger.jsonl"
        [entry] = read_entries(out)
        assert entry["name"] == "x"

    def test_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert not ledger_enabled()
        assert record_run("x", PAYLOAD, tmp_path / "BENCH_x.json") is None
        assert not (tmp_path / "history").exists()

    def test_path_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(override))
        assert ledger_path_for("results/BENCH_x.json") == override

    def test_default_path_next_to_bench(self):
        assert ledger_path_for("results/BENCH_x.json") == (
            ledger_path_for("results/BENCH_y.json")
        )
        assert str(ledger_path_for("results/BENCH_x.json")).endswith(
            "results/history/ledger.jsonl"
        )

    def test_record_run_is_best_effort(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        # Point the ledger at an unwritable location: a path *under* an
        # existing file cannot be created.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(blocker / "ledger.jsonl"))
        assert record_run("x", PAYLOAD) is None  # swallowed, not raised


class TestComparability:
    def test_same_config_is_comparable(self):
        a = make_entry("table2", PAYLOAD)
        b = make_entry("table2", dict(PAYLOAD, wall_clock_s=99.0))
        assert config_mismatch(a["config"], b["config"]) is None
        assert comparable_history([a, b], b) == [a]

    @pytest.mark.parametrize("field,value", [
        ("scale", "small"), ("seed", 8), ("cases", 9),
        ("modes", ["link", "router"]), ("kernel_backend", "numpy"),
        ("jobs", 4), ("tie_order", "hops"),
        ("ilm_accounting", "per-link"), ("ilm_max_scenarios", 50),
    ])
    def test_policy_change_breaks_comparability(self, field, value):
        a = make_entry("table2", dict(PAYLOAD, ilm_accounting="per-pair",
                                      ilm_max_scenarios=200))
        b = make_entry("table2", dict(a["config"], **{field: value}))
        assert config_mismatch(a["config"], b["config"]) == field
        assert comparable_history([a, b], b) == []

    def test_different_name_not_comparable(self):
        a = make_entry("table2", PAYLOAD)
        b = make_entry("table3", PAYLOAD)
        assert comparable_history([a, b], b) == []

    def test_keys_are_computed_from_run_config(self):
        from dataclasses import fields

        from repro.runconfig import RunConfig

        # Today's names, plus the table3/ablation workload fields.
        assert set(COMPARABILITY_KEYS) == {
            "name", "scale", "seed", "cases", "modes", "policy",
            "failure_model", "ilm_accounting", "ilm_max_scenarios",
            "tie_order", "repair_fallback", "kernel_backend", "jobs",
            "max_links", "size", "pairs",
        }
        assert {f.name for f in fields(RunConfig)} <= set(COMPARABILITY_KEYS)
        assert len(set(COMPARABILITY_KEYS)) == len(COMPARABILITY_KEYS)

    def test_absent_fields_compare_as_none(self):
        # Entries predating a comparability field stay comparable, with
        # each other and with entries that carry it.
        a = make_entry("x", {"scale": "tiny"})
        b = make_entry("x", {"scale": "tiny"})
        c = make_entry("x", {"scale": "tiny", "ilm_max_scenarios": 200})
        assert comparable_history([a, b, c], c) == [a, b]
        assert "ilm_max_scenarios" in COMPARABILITY_KEYS


class TestProvenanceStamps:
    """Satellite: git sha + version in every BENCH header."""

    def test_bench_header_carries_sha_and_version(self, tmp_path):
        out = write_bench_json(
            "x", {"name": "x"}, path=str(tmp_path / "BENCH_x.json")
        )
        header = json.loads(out.read_text())
        assert header["repro_version"] == __version__
        assert "git_sha" in header  # None outside a repo, a str inside

    def test_git_sha_in_repo(self):
        sha = git_sha()
        if sha is not None:  # running inside the repo checkout
            assert len(sha) == 12
            assert all(c in "0123456789abcdef" for c in sha)

    def test_write_bench_json_stamps_and_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        out = write_bench_json(
            "x",
            {"name": "x", "scale": "tiny", "counters": {}},
            path=str(tmp_path / "results" / "BENCH_x.json"),
        )
        payload = json.loads(out.read_text())
        assert payload["memory"]["max_rss_kb"] > 0
        [entry] = read_entries(tmp_path / "results" / "history" / "ledger.jsonl")
        assert entry["name"] == "x"
        assert entry["config"]["scale"] == "tiny"

    def test_write_bench_json_respects_kill_switch(self, tmp_path):
        # conftest sets REPRO_LEDGER=0 for every test by default.
        write_bench_json(
            "x", {"name": "x"}, path=str(tmp_path / "BENCH_x.json")
        )
        assert not (tmp_path / "history").exists()


class TestDiffShaWarning:
    """Satellite: ``repro.obs diff`` warns (never fails) on sha mismatch."""

    def _write(self, path, sha):
        payload = {
            "name": "x", "scale": "tiny", "seed": 1, "cases": 4,
            "counters": {"probe_calls": 10}, "wall_clock_s": 0.1,
            "git_sha": sha,
        }
        path.write_text(json.dumps(payload))
        return path

    def test_sha_mismatch_warns_but_compares(self, tmp_path, capsys):
        from repro.obs.cli import main

        old = self._write(tmp_path / "old.json", "aaaaaaaaaaaa")
        new = self._write(tmp_path / "new.json", "bbbbbbbbbbbb")
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "note: comparing across commits" in out
        assert "OK: no hard regressions" in out

    def test_same_sha_no_note(self, tmp_path, capsys):
        from repro.obs.cli import main

        old = self._write(tmp_path / "old.json", "aaaaaaaaaaaa")
        new = self._write(tmp_path / "new.json", "aaaaaaaaaaaa")
        assert main(["diff", str(old), str(new)]) == 0
        assert "comparing across commits" not in capsys.readouterr().out
