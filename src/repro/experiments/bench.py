"""Machine-readable perf output — ``BENCH_<name>.json`` emission.

Every experiment CLI and benchmark writes one JSON document per run so
the performance trajectory of the pipeline is tracked from PR to PR:
wall-clock, per-stage timings, case counts, and the global work
counters (:mod:`repro.perf`).  The driver convention is a file named
``BENCH_<name>.json`` under ``results/`` in the current working
directory (created on demand; the repo root in CI), overridable per
CLI via ``--bench-json``.  Historic runs wrote to the working
directory itself; that layout's deprecation window is over — readers
(``python -m repro.obs diff``, the CI obs-gate) now reject root-level
paths with a pointer to ``results/``.

Every experiment CLI goes through :class:`ExperimentRun`: its header
holds exactly the :class:`~repro.runconfig.RunConfig` fields the CLI
declares, and :func:`write_bench_json` adds what the process decides
(``tie_order`` — the canonical path contract; ``repair_fallback`` —
the constant :data:`~repro.graph.incremental.REPAIR_FALLBACK_FRACTION`;
``kernel_backend``; ``jobs``, ``1`` unless declared) plus provenance.
Runs that differ in any of these do different work, so ``python -m
repro.obs diff`` — the threshold/exit-code comparator — refuses to
diff across them (:data:`~repro.runconfig.COMPARABILITY_KEYS`).
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from .. import __version__
from ..graph.incremental import REPAIR_FALLBACK_FRACTION
from ..kernels import backend_name
from ..obs import activate_from_args, add_obs_arguments, bench_observability
from ..obs.ledger import git_sha, record_run
from ..obs.profile import PROFILER, memory_report
from ..obs.trace import TRACER, Tracer
from ..perf import COUNTERS
from ..runconfig import RunConfig, add_arguments


class StageTimer:
    """Accumulating named wall-clock stages.

    A thin flat facade over the span tracer (:mod:`repro.obs.trace`):
    each ``stage`` block also opens a span on *tracer* (the global
    :data:`~repro.obs.trace.TRACER` by default, free when disabled), so
    the same instrumentation yields both the flat ``BENCH_*.json``
    stage sums and the hierarchical ``--trace-jsonl`` tree.  *prefix*
    namespaces the span names (``table2.cases``) without polluting the
    flat stage keys.

    Edge-case contract (pinned by ``tests/test_obs_trace.py``):

    * repeated stages accumulate;
    * **re-entrant** stages (``a`` nested inside ``a``) count the
      outermost occurrence only — no double-counting;
    * a stage that **raises** still accumulates the partial timing.

    >>> timer = StageTimer()
    >>> with timer.stage("warmup"):
    ...     pass
    >>> "warmup" in timer.stages
    True
    """

    def __init__(
        self, tracer: Optional[Tracer] = None, prefix: str = ""
    ) -> None:
        self.stages: dict[str, float] = {}
        self.prefix = prefix
        self._tracer = TRACER if tracer is None else tracer
        self._depth: dict[str, int] = {}
        self._start = time.perf_counter()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block; repeated stages accumulate, nested ones don't double."""
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        span_name = f"{self.prefix}.{name}" if self.prefix else name
        t0 = time.perf_counter()
        try:
            with self._tracer.span(span_name):
                with PROFILER.record(span_name):
                    yield
        finally:
            elapsed = time.perf_counter() - t0
            self._depth[name] = depth
            if depth == 0:
                self.stages[name] = self.stages.get(name, 0.0) + elapsed

    def total(self) -> float:
        """Seconds since this timer was created."""
        return time.perf_counter() - self._start

    def as_dict(self, digits: int = 4) -> dict[str, float]:
        """Rounded stage timings, insertion-ordered."""
        return {name: round(secs, digits) for name, secs in self.stages.items()}


#: Tie-order mode every production kernel runs under (see the path
#: contract in DESIGN.md); recorded in each BENCH header so the
#: obs-gate never diffs rows produced under different tie rules.
TIE_ORDER = "canonical"


def write_bench_json(
    name: str, payload: dict[str, Any], path: Optional[str] = None
) -> Path:
    """Write ``results/BENCH_<name>.json`` (or *path*); returns the path.

    The environment stamps (:data:`~repro.runconfig.ENVIRONMENT_KEYS`),
    the provenance (``git_sha``, ``repro_version``) and the memory
    gauges (:func:`~repro.obs.profile.memory_report`, one syscall) are
    merged into *payload* unless the caller already set those keys, and
    a run manifest is appended to the ledger
    (:func:`~repro.obs.ledger.record_run`; best-effort, disabled by
    ``REPRO_LEDGER=0``) so the run joins the cross-run history that
    ``python -m repro.obs trend`` gates on.
    """
    if path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
    else:
        results = Path.cwd() / "results"
        results.mkdir(exist_ok=True)
        out = results / f"BENCH_{name}.json"
    stamps = {
        "tie_order": TIE_ORDER,
        "repair_fallback": REPAIR_FALLBACK_FRACTION,
        "kernel_backend": backend_name(),
        "jobs": 1,
        "git_sha": git_sha(),
        "repro_version": __version__,
        "memory": memory_report(),
    }
    for key, value in stamps.items():
        payload.setdefault(key, value)
    out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    record_run(name, payload, out)
    return out


class ExperimentRun:
    """One experiment CLI invocation, from flags to BENCH payload.

    Builds the parser from the :class:`~repro.runconfig.RunConfig`
    field *names* the CLI declares plus ``--bench-json`` and the obs
    flags (*options* may add CLI-only flags), applies the config
    (``--kernel`` before any worker fork), switches the obs instruments
    per the flags, and starts the run's :class:`StageTimer` and counter
    snapshot.  :meth:`write_bench` stamps exactly the declared fields
    into the payload.
    """

    def __init__(
        self,
        name: str,
        description: Optional[str],
        names: tuple[str, ...],
        argv: Optional[list[str]] = None,
        options: Optional[Callable[[argparse.ArgumentParser], Any]] = None,
    ) -> None:
        parser = argparse.ArgumentParser(description=description)
        add_arguments(parser, names)
        parser.add_argument(
            "--bench-json", type=str, default=None, metavar="PATH",
            help=f"path for the BENCH JSON (default "
                 f"results/BENCH_{name}.json; '-' disables)",
        )
        add_obs_arguments(parser)
        if options is not None:
            options(parser)
        self.args = parser.parse_args(argv)
        self.config = RunConfig.from_args(self.args, names)
        activate_from_args(self.args)
        self.name = name
        self.names = names
        self.timer = StageTimer(prefix=name)
        self._before = COUNTERS.snapshot()

    def counters(self) -> dict[str, int]:
        """The work counters accumulated since the run started."""
        return COUNTERS.delta(self._before).as_dict()

    def write_bench(self, results: dict[str, Any]) -> Optional[Path]:
        """Write the BENCH payload — name, declared fields, timings,
        *results*, counters, obs extras — or only the obs files when
        ``--bench-json -``; returns the path written, if any."""
        if self.args.bench_json == "-":
            bench_observability(self.args)
            return None
        counters = self.counters()
        payload = {
            "name": self.name,
            **{name: getattr(self.config, name) for name in self.names},
            "wall_clock_s": round(self.timer.total(), 4),
            "stages": self.timer.as_dict(),
            **results,
            "counters": counters,
        }
        payload.update(bench_observability(self.args, counters))
        return write_bench_json(self.name, payload, path=self.args.bench_json)
