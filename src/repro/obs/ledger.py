"""Run ledger — append-only history of every bench-emitting run.

``BENCH_<name>.json`` is a *snapshot*: one file per experiment, freely
overwritten, great for "what did the last run do" and useless for "is
this faster than every run before it".  The ledger is the *history*:
every call to :func:`~repro.experiments.bench.write_bench_json`
appends one manifest line to ``results/history/ledger.jsonl`` — git
sha, package version, the run's config (its
:class:`~repro.runconfig.RunConfig` fields plus the environment
stamps), per-stage wall times, the merged work counters, and the
run's memory gauges.  ``BENCH_*.json`` thereby becomes a view over the ledger
rather than the only record, and ``python -m repro.obs trend`` can
exit-code a regression against *all* comparable history, not just one
hand-picked baseline file.

Format
------

One JSON object per line (JSONL), schema-tagged
``"repro.obs.ledger/1"``.  The envelope keys are pinned by
``tests/test_obs_ledger.py``::

    {"schema", "ts", "git_sha", "repro_version", "name", "config",
     "wall_clock_s", "stages", "counters", "memory", "bench_path"}

``config`` carries the comparability fields
(:data:`~repro.runconfig.COMPARABILITY_KEYS`, computed from
:class:`~repro.runconfig.RunConfig`); runs whose config differs do
different work and are never trended against each other.
:func:`config_mismatch` is the one comparability rule —
``repro.obs diff``, ``trend`` and ``report`` all apply it.  The
versioning policy mirrors :mod:`repro.obs.events`: additive keys are
free, envelope changes bump the schema suffix.

Where it writes
---------------

The default ledger lives next to the bench output —
``<bench dir>/history/ledger.jsonl`` — so a run writing
``results/BENCH_table2.json`` appends to
``results/history/ledger.jsonl`` while a test writing into a tmp dir
keeps its history there too.  ``REPRO_LEDGER_PATH`` overrides the path
outright; ``REPRO_LEDGER=0`` disables appending (the test suite's
default, so invoking experiment CLIs never dirties the committed
history).  Appending is strictly best-effort: a ledger failure never
breaks the run that produced the result.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from ..runconfig import COMPARABILITY_KEYS

#: Schema tag on (and required of) every ledger line.
LEDGER_SCHEMA = "repro.obs.ledger/1"

_GIT_SHA_CACHE: Optional[tuple[Optional[str]]] = None


def git_sha() -> Optional[str]:
    """The working tree's short commit sha, or None outside a repo.

    Cached per process — one subprocess spawn per run, not per bench
    emission.
    """
    global _GIT_SHA_CACHE
    if _GIT_SHA_CACHE is None:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
            ).stdout.strip()
            _GIT_SHA_CACHE = (sha or None,)
        except Exception:
            _GIT_SHA_CACHE = (None,)
    return _GIT_SHA_CACHE[0]


def ledger_enabled() -> bool:
    """False iff ``REPRO_LEDGER=0`` (the kill switch tests default to)."""
    return os.environ.get("REPRO_LEDGER", "1") != "0"


def ledger_path_for(bench_path: Optional[Union[str, Path]] = None) -> Path:
    """Where the ledger for a bench output at *bench_path* lives.

    ``REPRO_LEDGER_PATH`` wins; otherwise ``history/ledger.jsonl`` next
    to the bench file (or under ``results/`` in the cwd when no bench
    path is known).
    """
    override = os.environ.get("REPRO_LEDGER_PATH")
    if override:
        return Path(override)
    if bench_path is not None:
        return Path(bench_path).parent / "history" / "ledger.jsonl"
    return Path.cwd() / "results" / "history" / "ledger.jsonl"


def make_entry(
    name: str,
    payload: dict[str, Any],
    bench_path: Optional[Union[str, Path]] = None,
) -> dict[str, Any]:
    """Build one ledger manifest from a ``BENCH_*.json`` payload.

    Pure function of its inputs except for the timestamp and sha stamp;
    never mutates *payload*.
    """
    config = {
        key: payload[key]
        for key in COMPARABILITY_KEYS
        if key != "name" and key in payload
    }
    return {
        "schema": LEDGER_SCHEMA,
        "ts": round(time.time(), 3),
        "git_sha": payload.get("git_sha", git_sha()),
        "repro_version": payload.get("repro_version"),
        "name": name,
        "config": config,
        "wall_clock_s": payload.get("wall_clock_s"),
        "stages": payload.get("stages", {}),
        "counters": payload.get("counters", {}),
        "memory": payload.get("memory", {}),
        "bench_path": str(bench_path) if bench_path is not None else None,
    }


def append_entry(
    entry: dict[str, Any], path: Union[str, Path]
) -> Path:
    """Append one manifest line to the ledger at *path* (created on
    demand, parents included); returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    with out.open("a") as fh:
        fh.write(line + "\n")
    return out


def record_run(
    name: str,
    payload: dict[str, Any],
    bench_path: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """The :func:`~repro.experiments.bench.write_bench_json` hook.

    Appends a manifest for *payload* to the run's ledger unless
    disabled; best-effort — any failure is swallowed (the ledger is
    observability, never a reason to lose a result).
    """
    if not ledger_enabled():
        return None
    try:
        path = ledger_path_for(bench_path)
        return append_entry(make_entry(name, payload, bench_path), path)
    except Exception:
        return None


def read_entries(
    source: Union[str, Path, Iterable[str]]
) -> list[dict[str, Any]]:
    """Parse ledger manifests from a path or an iterable of lines.

    Raises :class:`ValueError` on a foreign schema tag so a future
    format fails loudly instead of trending garbage.
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source
    entries = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        schema = entry.get("schema")
        if schema != LEDGER_SCHEMA:
            raise ValueError(
                f"unsupported ledger schema {schema!r} "
                f"(expected {LEDGER_SCHEMA!r})"
            )
        entries.append(entry)
    return entries


def config_mismatch(old: dict[str, Any], new: dict[str, Any]) -> Optional[str]:
    """The first :data:`COMPARABILITY_KEYS` field both sides carry with
    different values, or ``None`` when the two runs are comparable.

    A field absent from either side does not constrain: files and
    ledger entries predating a field stay comparable with newer ones.
    Lists and tuples compare alike (JSON round-trips tuples as lists).
    """
    for key in COMPARABILITY_KEYS:
        if key not in old or key not in new:
            continue
        a, b = old[key], new[key]
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            a, b = list(a), list(b)
        if a != b:
            return key
    return None


def _entry_config(entry: dict[str, Any]) -> dict[str, Any]:
    return {"name": entry.get("name"), **entry.get("config", {})}


def comparable_history(
    entries: list[dict[str, Any]], latest: dict[str, Any]
) -> list[dict[str, Any]]:
    """Entries (excluding *latest* itself) comparable with *latest*
    (:func:`config_mismatch`), in ledger (append) order."""
    config = _entry_config(latest)
    return [
        e for e in entries
        if e is not latest and config_mismatch(_entry_config(e), config) is None
    ]
