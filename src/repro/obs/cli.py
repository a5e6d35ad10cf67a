"""``python -m repro.obs`` — render traces, timelines, and bench diffs.

Subcommands:

``tree TRACE.jsonl``
    Render a span trace (written by ``--trace-jsonl``) as an indented
    tree with durations and share-of-parent percentages.

``timeline EVENTS.jsonl [MORE.jsonl ...]``
    Render one or more structured event logs (:mod:`repro.obs.events`)
    as a single time-ordered table; globs are expanded, files are
    merged by time.  ``--kind`` filters.

``summary BENCH.json [MORE.json ...]``
    Summarize the ``metrics`` section of bench payloads (or bare
    metrics dicts): counters, gauges, histograms with ASCII bars,
    memory gauges, and the derived oracle/kernel hit rates.  Globs are
    expanded; several files render one after another with headers.

``diff OLD.json NEW.json``
    Compare two ``BENCH_*.json`` files.  Work-counter growth beyond
    ``--max-counter-growth`` (default 10%) is a **hard** regression —
    exit code 1 — because counters are deterministic; wall-clock growth
    is a soft warning unless ``--fail-on-wall`` is given (clocks are
    noisy on shared CI runners).  Exit code 2 means the two files are
    not comparable (a :data:`~repro.runconfig.COMPARABILITY_KEYS` field
    differs: experiment, a run setting, case count, environment).  A
    ``git_sha`` mismatch only *warns* — comparing commits is the point.

``trend [--ledger PATH]``
    Gate the latest ledger entry against all comparable history
    (:mod:`repro.obs.ledger`).  Exit 0 = within thresholds, 1 = hard
    counter regression (or wall/memory with their ``--fail-on-*``
    flags), 2 = no comparable history to trend against.

``report [--ledger PATH] [--heartbeat-dir DIR] --out report.html``
    Render a static HTML run report (:mod:`repro.obs.report`): stages,
    counter deltas, memory, comparable history, straggler table.

``watch DIR``
    Render the live progress of a ``--heartbeat-dir DIR`` run: chunks
    done, items/sec, ETA, straggler chunks.  One-shot by default;
    ``--follow`` refreshes until the fan-out completes.

``ledger [--ledger PATH]``
    List the ledger's entries, newest last.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

from . import heartbeat as hb
from .events import EventLog
from .ledger import comparable_history, config_mismatch, read_entries
from .metrics import rates_from_counters
from .report import (
    MISPREDICT_FACTOR,
    STRAGGLER_FACTOR,
    render_report,
    straggler_rows,
)
from .trace import read_jsonl as read_trace_jsonl


def _load_json(path: str) -> dict[str, Any]:
    """Read a JSON payload; legacy root ``BENCH_*.json`` paths are gone.

    Bench outputs moved from the working directory into ``results/``
    (PR 4); the one-release resolution shim for root-level paths has
    been dropped.  A missing file whose basename exists under
    ``results/`` raises with a pointer there instead of silently
    resolving the old layout.
    """
    p = Path(path)
    if not p.exists():
        moved = p.parent / "results" / p.name
        if moved.exists():
            raise SystemExit(
                f"error: {path} does not exist; bench outputs live under "
                f"results/ — did you mean {moved}?"
            )
        raise SystemExit(f"error: {path} does not exist")
    return json.loads(p.read_text())


def _expand_paths(patterns: list[str]) -> list[str]:
    """Expand globs (sorted per pattern); non-glob paths pass through.

    A glob pattern matching nothing is an error — silently summarizing
    zero files reads as success.  Duplicates (a file named directly and
    matched by a glob) collapse to their first occurrence.
    """
    out: list[str] = []
    for pattern in patterns:
        if any(ch in pattern for ch in "*?["):
            matches = sorted(_glob.glob(pattern))
            if not matches:
                raise SystemExit(f"error: no files match {pattern!r}")
            out.extend(matches)
        else:
            out.append(pattern)
    seen: set[str] = set()
    unique = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.2f}ms"


# -- tree ---------------------------------------------------------------------


def cmd_tree(args: argparse.Namespace) -> int:
    records = read_trace_jsonl(args.trace)
    if not records:
        print("(empty trace)")
        return 0
    by_id = {r["id"]: r for r in records}
    for r in records:
        t1 = r["t1"] if r["t1"] is not None else r["t0"]
        duration = t1 - r["t0"]
        if duration * 1000 < args.min_ms:
            continue
        parent = by_id.get(r["parent"]) if r["parent"] is not None else None
        share = ""
        if parent is not None and parent["t1"] is not None:
            parent_duration = parent["t1"] - parent["t0"]
            if parent_duration > 0:
                share = f"  ({100.0 * duration / parent_duration:.1f}% of {parent['name']})"
        indent = "  " * r["depth"]
        meta = f"  {r['meta']}" if "meta" in r else ""
        print(f"{indent}{r['name']}  {_fmt_seconds(duration)}{share}{meta}")
    return 0


# -- timeline -----------------------------------------------------------------


def cmd_timeline(args: argparse.Namespace) -> int:
    paths = _expand_paths(args.events)
    merged: list[tuple[float, int, int, Any]] = []
    kinds: dict[str, int] = {}
    total = 0
    for order, path in enumerate(paths):
        log = EventLog.read_jsonl(path)
        total += len(log)
        for e in (log.filter(*args.kind) if args.kind else list(log)):
            # (time, file order, seq): stable for identical timestamps
            # across files, preserves emission order within one.
            merged.append((e.time, order, e.seq, e))
        for kind, n in log.kinds().items():
            kinds[kind] = kinds.get(kind, 0) + n
    merged.sort(key=lambda item: item[:3])
    events = [item[3] for item in merged]
    if args.limit is not None:
        events = events[: args.limit]
    for e in events:
        detail = " ".join(f"{k}={e.detail[k]!r}" for k in sorted(e.detail))
        print(f"t={e.time:<12.6f} {str(e.actor):<16} {e.kind:<22} {detail}")
    counts = ", ".join(f"{k}:{n}" for k, n in sorted(kinds.items()))
    suffix = f" from {len(paths)} files" if len(paths) > 1 else ""
    print(f"-- {total} events ({counts}){suffix}")
    return 0


# -- summary ------------------------------------------------------------------

_BAR_WIDTH = 40


def _render_histogram(name: str, hist: dict[str, Any]) -> None:
    print(f"histogram {name}: count={hist['count']} sum={hist['sum']:.6g} "
          f"min={hist['min']} max={hist['max']}")
    total = sum(hist["counts"])
    if not total:
        return
    edges = hist["edges"]
    labels = [f"<= {e:g}" for e in edges] + [f"> {edges[-1]:g}"]
    width = max(len(label) for label in labels)
    for label, count in zip(labels, hist["counts"]):
        bar = "#" * round(_BAR_WIDTH * count / total)
        print(f"  {label:<{width}}  {count:>8}  {bar}")


def _summarize_one(payload: dict[str, Any]) -> bool:
    metrics = payload.get("metrics", payload)
    shown = False
    for name, value in sorted(metrics.get("counters", {}).items()):
        print(f"counter {name}: {value}")
        shown = True
    for name, value in sorted(metrics.get("gauges", {}).items()):
        print(f"gauge {name}: {value}")
        shown = True
    for name, hist in sorted(metrics.get("histograms", {}).items()):
        _render_histogram(name, hist)
        shown = True
    memory = payload.get("memory")
    if isinstance(memory, dict) and memory:
        print("memory:")
        for name in sorted(memory):
            print(f"  {name}: {memory[name]}")
        shown = True
    perf = payload.get("counters")
    if isinstance(perf, dict):
        print("derived rates (from perf counters):")
        for name, value in rates_from_counters(perf).items():
            rendered = "n/a" if value is None else f"{value:.4g}"
            print(f"  {name}: {rendered}")
        shown = True
    return shown


def cmd_summary(args: argparse.Namespace) -> int:
    paths = _expand_paths(args.bench)
    for path in paths:
        if len(paths) > 1:
            print(f"== {path} ==")
        if not _summarize_one(_load_json(path)):
            print("(no metrics found)")
    return 0


# -- diff ---------------------------------------------------------------------


def _growth(old: float, new: float) -> Optional[float]:
    """Relative growth; None when the old value is zero and new is too."""
    if old == 0:
        return None if new == 0 else float("inf")
    return (new - old) / old


def cmd_diff(args: argparse.Namespace) -> int:
    old = _load_json(args.old)
    new = _load_json(args.new)

    # Provenance, not policy: different commits are exactly what a
    # diff compares, so a sha mismatch is a note, never an exit code.
    old_sha, new_sha = old.get("git_sha"), new.get("git_sha")
    if old_sha and new_sha and old_sha != new_sha:
        print(f"note: comparing across commits ({old_sha} vs {new_sha})")

    # The ledger's comparability rule: runs that differ in a RunConfig
    # field, a workload pin or an environment stamp
    # (repro.runconfig.COMPARABILITY_KEYS) do different work or time
    # it differently, so their numbers must not be diffed (fields
    # absent from either file do not constrain).
    key = config_mismatch(old, new)
    if key is not None:
        print(
            f"NOT COMPARABLE: {key} differs "
            f"({old[key]!r} vs {new[key]!r})"
        )
        return 2

    exit_code = 0

    # Work counters: deterministic, hence a hard gate.
    old_counters = old.get("counters", {})
    new_counters = new.get("counters", {})
    regressions = []
    for name in sorted(set(old_counters) | set(new_counters)):
        o, n = old_counters.get(name, 0), new_counters.get(name, 0)
        growth = _growth(o, n)
        if growth is None or o == n:
            continue
        marker = ""
        if growth > args.max_counter_growth:
            marker = "  REGRESSION"
            regressions.append(name)
        pct = f"{growth * 100:+.1f}%" if growth != float("inf") else "+inf"
        print(f"counter {name}: {o} -> {n} ({pct}){marker}")
    if regressions:
        print(
            f"FAIL: {len(regressions)} counter(s) grew more than "
            f"{args.max_counter_growth * 100:.0f}%: {', '.join(regressions)}"
        )
        exit_code = 1

    # Wall clock: noisy, soft by default.
    old_wall, new_wall = old.get("wall_clock_s"), new.get("wall_clock_s")
    if old_wall and new_wall is not None:
        growth = _growth(old_wall, new_wall) or 0.0
        print(f"wall_clock_s: {old_wall} -> {new_wall} ({growth * 100:+.1f}%)")
        if growth > args.max_wall_growth:
            if args.fail_on_wall:
                print(
                    f"FAIL: wall clock grew more than "
                    f"{args.max_wall_growth * 100:.0f}%"
                )
                exit_code = max(exit_code, 1)
            else:
                print(
                    f"WARN: wall clock grew more than "
                    f"{args.max_wall_growth * 100:.0f}% (soft; "
                    f"pass --fail-on-wall to gate on it)"
                )
    for name in sorted(set(old.get("stages", {})) | set(new.get("stages", {}))):
        o = old.get("stages", {}).get(name, 0.0)
        n = new.get("stages", {}).get(name, 0.0)
        growth = _growth(o, n)
        pct = "" if growth in (None, float("inf")) else f" ({growth * 100:+.1f}%)"
        print(f"stage {name}: {o} -> {n}{pct}")

    if exit_code == 0:
        print("OK: no hard regressions")
    return exit_code


# -- trend --------------------------------------------------------------------

#: Default ledger the history commands read (relative to the cwd).
DEFAULT_LEDGER = "results/history/ledger.jsonl"


def _load_ledger(args: argparse.Namespace) -> list[dict[str, Any]]:
    path = Path(args.ledger)
    if not path.exists():
        raise SystemExit(f"error: ledger {path} does not exist")
    entries = read_entries(path)
    name = getattr(args, "name", None)
    if name:
        entries = [e for e in entries if e.get("name") == name]
    return entries


def cmd_trend(args: argparse.Namespace) -> int:
    entries = _load_ledger(args)
    if not entries:
        print("NO HISTORY: ledger has no entries"
              + (f" named {args.name!r}" if args.name else ""))
        return 2
    latest = entries[-1]
    history = comparable_history(entries, latest)
    sha = latest.get("git_sha") or "?"
    print(f"latest: {latest.get('name')} @ {sha} "
          f"(ts {latest.get('ts')}, {len(history)} comparable prior runs)")
    if not history:
        print("NO HISTORY: no prior comparable entry "
              "(config or workload changed)")
        return 2

    exit_code = 0

    # Counters: deterministic per config, so trend against the
    # *minimum* over history — the best the same work has ever cost.
    regressions = []
    latest_counters = latest.get("counters", {}) or {}
    for name in sorted(latest_counters):
        past = [
            e["counters"][name] for e in history
            if name in (e.get("counters") or {})
        ]
        if not past:
            continue
        best, now = min(past), latest_counters[name]
        growth = _growth(best, now)
        if growth is None or best == now:
            continue
        marker = ""
        if growth > args.max_counter_growth:
            marker = "  REGRESSION"
            regressions.append(name)
        pct = f"{growth * 100:+.1f}%" if growth != float("inf") else "+inf"
        print(f"counter {name}: best {best} -> {now} ({pct}){marker}")
    if regressions:
        print(
            f"FAIL: {len(regressions)} counter(s) grew more than "
            f"{args.max_counter_growth * 100:.0f}% over the best comparable "
            f"run: {', '.join(regressions)}"
        )
        exit_code = 1

    # Wall clock and memory: noisy measurements, trended against the
    # *median* over history, soft unless their --fail-on-* flag is set.
    def _soft_gate(label: str, now: Optional[float],
                   past: list[float], max_growth: float,
                   hard: bool) -> None:
        nonlocal exit_code
        if now is None or not past:
            return
        baseline = statistics.median(past)
        growth = _growth(baseline, now)
        if growth is None:
            return
        print(f"{label}: median {baseline:g} -> {now:g} "
              f"({growth * 100:+.1f}%)")
        if growth > max_growth:
            if hard:
                print(f"FAIL: {label} grew more than {max_growth * 100:.0f}%")
                exit_code = max(exit_code, 1)
            else:
                print(f"WARN: {label} grew more than "
                      f"{max_growth * 100:.0f}% (soft; pass "
                      f"--fail-on-{'wall' if 'wall' in label else 'memory'} "
                      f"to gate on it)")

    _soft_gate(
        "wall_clock_s", latest.get("wall_clock_s"),
        [e["wall_clock_s"] for e in history
         if e.get("wall_clock_s") is not None],
        args.max_wall_growth, args.fail_on_wall,
    )
    _soft_gate(
        "max_rss_kb", (latest.get("memory") or {}).get("max_rss_kb"),
        [e["memory"]["max_rss_kb"] for e in history
         if (e.get("memory") or {}).get("max_rss_kb") is not None],
        args.max_memory_growth, args.fail_on_memory,
    )

    if exit_code == 0:
        print("OK: latest run within thresholds of comparable history")
    return exit_code


# -- report -------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    entries = _load_ledger(args)
    heartbeats = None
    if args.heartbeat_dir:
        heartbeats = hb.merge_heartbeats(hb.read_heartbeats(args.heartbeat_dir))
    html_text = render_report(entries, heartbeats)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html_text)
    print(f"wrote {out} ({len(entries)} ledger entries"
          + (f", {len(heartbeats)} heartbeats" if heartbeats else "") + ")")
    return 0


# -- watch --------------------------------------------------------------------


def _render_watch(records: list[dict[str, Any]],
                  straggler_factor: float,
                  cost_model: bool = False) -> bool:
    """Print one progress snapshot; True when every fan-out completed."""
    if not records:
        print("(no heartbeats yet)")
        return False
    merged = hb.merge_heartbeats(records)
    labels: dict[str, dict[str, Any]] = {}
    for r in merged:
        state = labels.setdefault(r.get("label", "?"), {
            "total": None, "chunks": None, "jobs": None,
            "done_items": 0, "chunks_done": 0, "started": None,
            "ended": None, "progress": {},
        })
        kind = r["kind"]
        if kind == "fanout-start":
            state["total"] = r.get("total")
            state["chunks"] = r.get("chunks")
            state["jobs"] = r.get("jobs")
            state["started"] = r.get("ts")
        elif kind == "chunk-end":
            state["chunks_done"] += 1
            state["done_items"] += r.get("items", 0) or 0
        elif kind == "scenario-progress" and r.get("chunk"):
            # Latest in-chunk tick; superseded by the chunk-end count.
            state["progress"][tuple(r["chunk"])] = r.get("done", 0)
        elif kind == "fanout-end":
            state["ended"] = r.get("ts")

    all_done = True
    now = time.time()
    for label, state in labels.items():
        done = state["done_items"]
        total = state["total"]
        finished = state["ended"] is not None
        if not finished:
            all_done = False
        eta = ""
        if not finished and state["started"] and done and total:
            elapsed = max(now - state["started"], 1e-9)
            rate = done / elapsed
            if rate > 0:
                eta = f"  ETA {max(total - done, 0) / rate:.0f}s"
        chunks = (f"{state['chunks_done']}/{state['chunks']}"
                  if state["chunks"] is not None else str(state["chunks_done"]))
        pct = f" ({100.0 * done / total:.0f}%)" if total else ""
        status = "done" if finished else "running"
        print(f"{label}: {status}  chunks {chunks}  "
              f"items {done}/{total if total is not None else '?'}{pct}{eta}")

    rows, median = straggler_rows(records, straggler_factor)
    flagged = [r for r in rows if r["straggler"]]
    if flagged:
        print(f"stragglers (> {straggler_factor:g}x median {median:.4f}s):")
        for r in sorted(flagged, key=lambda r: -r["wall_s"]):
            chunk = r.get("chunk") or ["?", "?"]
            print(f"  {r.get('label', '?')} chunk [{chunk[0]}, {chunk[1]}) "
                  f"items={r.get('items', '?')} wall={r['wall_s']:.4f}s")
    if cost_model:
        scored = [r for r in rows if r.get("predicted_s") is not None]
        if scored:
            print("cost model (predicted vs actual chunk wall; "
                  f"> {MISPREDICT_FACTOR:g}x off flagged MISPREDICT):")
            for r in sorted(scored, key=lambda r: -r["wall_s"]):
                chunk = r.get("chunk") or ["?", "?"]
                ratio = r.get("cost_ratio")
                ratio_s = f"{ratio:.2f}x" if ratio is not None else "?"
                off = ratio is not None and (
                    ratio > MISPREDICT_FACTOR
                    or ratio < 1 / MISPREDICT_FACTOR
                )
                print(f"  {r.get('label', '?')} chunk "
                      f"[{chunk[0]}, {chunk[1]}) cost={r.get('cost', '?')} "
                      f"predicted={r['predicted_s']:.4f}s "
                      f"actual={r['wall_s']:.4f}s ratio={ratio_s}"
                      + ("  MISPREDICT" if off else ""))
        else:
            print("cost model: (no cost-weighted chunks yet)")
    return all_done


def cmd_watch(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.exists():
        raise SystemExit(f"error: heartbeat dir {directory} does not exist")
    while True:
        records = hb.read_heartbeats(directory)
        done = _render_watch(records, args.straggler_factor,
                             cost_model=getattr(args, "cost_model", False))
        if done or not args.follow:
            return 0
        time.sleep(args.interval)
        print(f"-- refresh ({time.strftime('%H:%M:%S')}) --")


# -- ledger -------------------------------------------------------------------


def cmd_ledger(args: argparse.Namespace) -> int:
    entries = _load_ledger(args)
    if not entries:
        print("(empty ledger)")
        return 0
    for e in entries:
        when = time.strftime("%Y-%m-%d %H:%M:%S",
                             time.gmtime(e.get("ts", 0)))
        config = e.get("config", {})
        bits = " ".join(
            f"{k}={config[k]}" for k in ("scale", "jobs", "kernel_backend")
            if k in config
        )
        wall = e.get("wall_clock_s")
        wall_s = f"{wall:g}s" if wall is not None else "?"
        print(f"{when}Z  {e.get('name'):<16} sha={e.get('git_sha') or '?'} "
              f"wall={wall_s}  {bits}")
    print(f"-- {len(entries)} entries")
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="render a span trace JSONL as a tree")
    tree.add_argument("trace", help="path to a --trace-jsonl file")
    tree.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide spans shorter than this many milliseconds",
    )
    tree.set_defaults(func=cmd_tree)

    timeline = sub.add_parser(
        "timeline", help="render structured event logs as one timeline"
    )
    timeline.add_argument(
        "events", nargs="+",
        help="events JSONL file(s) or glob(s); merged by time",
    )
    timeline.add_argument(
        "--kind", action="append", default=None,
        help="only show events of this kind (repeatable)",
    )
    timeline.add_argument("--limit", type=int, default=None)
    timeline.set_defaults(func=cmd_timeline)

    summary = sub.add_parser(
        "summary", help="summarize the metrics of BENCH_*.json files"
    )
    summary.add_argument(
        "bench", nargs="+",
        help="BENCH_*.json / metrics JSON file(s) or glob(s)",
    )
    summary.set_defaults(func=cmd_summary)

    diff = sub.add_parser("diff", help="compare two BENCH_*.json files")
    diff.add_argument("old", help="baseline BENCH_*.json")
    diff.add_argument("new", help="fresh BENCH_*.json")
    diff.add_argument(
        "--max-counter-growth", type=float, default=0.10,
        help="hard-fail when a work counter grows more than this fraction "
             "(default 0.10)",
    )
    diff.add_argument(
        "--max-wall-growth", type=float, default=0.50,
        help="wall-clock growth fraction that triggers the warning/failure "
             "(default 0.50)",
    )
    diff.add_argument(
        "--fail-on-wall", action="store_true",
        help="treat wall-clock growth beyond --max-wall-growth as a failure",
    )
    diff.set_defaults(func=cmd_diff)

    def _ledger_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger", default=DEFAULT_LEDGER, metavar="PATH",
            help=f"ledger JSONL to read (default {DEFAULT_LEDGER})",
        )
        p.add_argument(
            "--name", default=None,
            help="only consider entries for this experiment name",
        )

    trend = sub.add_parser(
        "trend", help="gate the latest ledger entry against its history"
    )
    _ledger_args(trend)
    trend.add_argument(
        "--max-counter-growth", type=float, default=0.10,
        help="hard-fail when a work counter grows more than this fraction "
             "over the best comparable run (default 0.10)",
    )
    trend.add_argument(
        "--max-wall-growth", type=float, default=0.50,
        help="wall-clock growth over the comparable median that triggers "
             "the warning/failure (default 0.50)",
    )
    trend.add_argument(
        "--max-memory-growth", type=float, default=0.50,
        help="peak-RSS growth over the comparable median that triggers "
             "the warning/failure (default 0.50)",
    )
    trend.add_argument(
        "--fail-on-wall", action="store_true",
        help="treat wall-clock growth beyond the threshold as a failure",
    )
    trend.add_argument(
        "--fail-on-memory", action="store_true",
        help="treat peak-RSS growth beyond the threshold as a failure",
    )
    trend.set_defaults(func=cmd_trend)

    report = sub.add_parser(
        "report", help="render a static HTML report from the ledger"
    )
    _ledger_args(report)
    report.add_argument(
        "--heartbeat-dir", default=None, metavar="DIR",
        help="include the straggler table from this heartbeat channel",
    )
    report.add_argument(
        "--out", default="report.html", metavar="PATH",
        help="where to write the HTML (default report.html)",
    )
    report.set_defaults(func=cmd_report)

    watch = sub.add_parser(
        "watch", help="render live progress from a --heartbeat-dir channel"
    )
    watch.add_argument("dir", help="heartbeat directory to watch")
    watch.add_argument(
        "--follow", action="store_true",
        help="refresh until every fan-out reports completion",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes with --follow (default 1.0)",
    )
    watch.add_argument(
        "--straggler-factor", type=float, default=STRAGGLER_FACTOR,
        help="flag chunks slower than this multiple of their label's "
             f"median chunk wall time (default {STRAGGLER_FACTOR})",
    )
    watch.add_argument(
        "--cost-model", action="store_true",
        help="show predicted vs actual wall per cost-weighted chunk and "
             f"flag predictions off by more than {MISPREDICT_FACTOR:g}x",
    )
    watch.set_defaults(func=cmd_watch)

    ledger = sub.add_parser("ledger", help="list the run ledger's entries")
    _ledger_args(ledger)
    ledger.set_defaults(func=cmd_ledger)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run a subcommand; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
