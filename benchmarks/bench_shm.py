"""Shared-memory warm-row benchmark: adopt vs. per-worker re-settle.

Measures what warm-row publication (:mod:`repro.graph.shm`) buys the
``--jobs`` fan-out for rows the parent builds after its workers
started (state built before the pool starts reaches the forked workers
by inheritance and needs no publication):

* in-process: publish / attach / adopt times for an ``RROW`` segment
  of warm :class:`~repro.graph.incremental.SptCache` rows vs. the
  re-settle (fresh Dijkstra per source) it displaces;
* per-worker: setup time and post-setup memory (VmRSS, plus PSS when
  ``/proc/self/smaps_rollup`` exists) for a worker that *adopts* the
  published rows vs. one that *re-settles* them, each in its own
  single-worker pool, with counter deltas pinning that adoption does
  zero search work (``warm_row_builds`` stays 0).

Emits ``results/BENCH_shm.json`` in the established BENCH schema.
``--smoke`` shrinks the graph and repeat count to a CI-friendly run
that still asserts the adopted rows, zero adopt-side warm-up and zero
residual segments.
"""

from __future__ import annotations

import argparse
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

from repro.graph.incremental import SptCache
from repro.graph.shm import attach_rows, publish_rows, residual_segments
from repro.perf import COUNTERS
from repro.topology.isp import generate_isp_topology


def _timed(fn, *args, repeat: int = 5):
    """Median wall seconds over *repeat* calls (first call warms caches)."""
    fn(*args)
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _memory_kb() -> dict:
    """Resident (and, when available, proportional) set size in kB."""
    out: dict = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    out["rss_kb"] = int(line.split()[1])
                    break
    except OSError:
        pass
    try:
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    out["pss_kb"] = int(line.split()[1])
                    break
    except OSError:
        pass
    return out


def _rows_attach_then_close(name: str) -> None:
    table, seg = attach_rows(name)
    try:
        assert table.sources
    finally:
        seg.close()


def _worker_adopt_rows(name: str, n: int, seed: int) -> dict:
    """Worker body: warm a cache by adopting the published row table."""
    from repro.graph.shm import attach_rows_cached

    graph = generate_isp_topology(n=n, seed=seed)
    before = COUNTERS.snapshot()
    t0 = time.perf_counter()
    cache = SptCache(graph, weighted=True)
    adopted = cache.adopt_rows(attach_rows_cached(name))
    setup_s = time.perf_counter() - t0
    delta = COUNTERS.delta(before)
    return {
        "setup_s": setup_s,
        "rows": adopted,
        "warm_row_builds": delta.warm_row_builds,
        "dijkstra_relaxations": (
            delta.dijkstra_relaxations + delta.csr_relaxations
        ),
        **_memory_kb(),
    }


def _worker_resettle_rows(sources: list[int], n: int, seed: int) -> dict:
    """Worker body: the displaced path — re-settle every row locally."""
    graph = generate_isp_topology(n=n, seed=seed)
    before = COUNTERS.snapshot()
    t0 = time.perf_counter()
    cache = SptCache(graph, weighted=True)
    cache.ensure_rows(sources)
    setup_s = time.perf_counter() - t0
    delta = COUNTERS.delta(before)
    return {
        "setup_s": setup_s,
        "rows": len(sources),
        "warm_row_builds": delta.warm_row_builds,
        "dijkstra_relaxations": (
            delta.dijkstra_relaxations + delta.csr_relaxations
        ),
        **_memory_kb(),
    }


def _one_worker(fn, *args) -> dict:
    """Run *fn* once in a fresh single-worker pool and return its report."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def main(argv=None) -> None:
    from repro.experiments.bench import write_bench_json
    from repro.runconfig import RunConfig, add_arguments

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200, help="ISP size")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: tiny graph, fewer repeats; the adoption "
             "assertions and the leak check still run",
    )
    parser.add_argument(
        "--bench-json", type=str, default=None,
        help="path for the BENCH JSON (default results/BENCH_shm.json; "
             "'-' disables)",
    )
    add_arguments(parser, ("kernel_backend",))
    args = parser.parse_args(argv)
    RunConfig.from_args(args, ("kernel_backend",))  # installs --kernel
    if args.smoke:
        args.n = min(args.n, 60)
        args.repeat = min(args.repeat, 2)

    graph = generate_isp_topology(n=args.n, seed=args.seed)
    before = COUNTERS.snapshot()
    wall_start = time.perf_counter()

    sources = list(range(min(args.n, 64)))
    cache = SptCache(graph, weighted=True)
    cache.ensure_rows(sources)
    rows = cache.export_rows()
    results: dict[str, float] = {
        "rows_settle_s": _timed(
            lambda: SptCache(graph, weighted=True).ensure_rows(sources),
            repeat=args.repeat,
        ),
    }
    row_seg = publish_rows(
        "spt", cache.csr.n, True, cache.csr.source_version, rows
    )
    if row_seg is None:
        raise SystemExit(
            "shared memory unavailable (or REPRO_SHM=0); nothing to measure"
        )
    try:
        results["rows_publish_s"] = _timed(
            lambda: publish_rows(
                "spt", cache.csr.n, True, cache.csr.source_version, rows
            ).__exit__(None, None, None),
            repeat=args.repeat,
        )
        results["rows_attach_s"] = _timed(
            _rows_attach_then_close, row_seg.name, repeat=args.repeat
        )

        def _adopt_once():
            table, handle = attach_rows(row_seg.name)
            try:
                assert SptCache(graph, weighted=True).adopt_rows(table) \
                    == len(sources)
            finally:
                handle.close()

        results["rows_adopt_s"] = _timed(_adopt_once, repeat=args.repeat)

        row_workers = {
            "adopt": _one_worker(
                _worker_adopt_rows, row_seg.name, args.n, args.seed
            ),
            "resettle": _one_worker(
                _worker_resettle_rows, sources, args.n, args.seed
            ),
        }
        assert row_workers["adopt"]["warm_row_builds"] == 0, row_workers
        assert row_workers["adopt"]["rows"] == len(sources)
        assert row_workers["resettle"]["warm_row_builds"] > 0
    finally:
        row_seg.close()
        row_seg.unlink()
    assert residual_segments() == [], residual_segments()

    payload = {
        "name": "shm",
        "n": args.n,
        "seed": args.seed,
        "repeat": args.repeat,
        "smoke": bool(args.smoke),
        "wall_clock_s": round(time.perf_counter() - wall_start, 4),
        "warm_rows": len(sources),
        "results": {k: round(v, 6) for k, v in results.items()},
        "row_workers": row_workers,
        "speedups": {
            "rows_adopt_vs_resettle_inproc": round(
                results["rows_settle_s"]
                / max(results["rows_adopt_s"], 1e-12),
                2,
            ),
            "row_worker_adopt_vs_resettle": round(
                row_workers["resettle"]["setup_s"]
                / max(row_workers["adopt"]["setup_s"], 1e-12),
                2,
            ),
        },
        "counters": COUNTERS.delta(before).as_dict(),
    }
    if args.bench_json != "-":
        out = write_bench_json("shm", payload, path=args.bench_json)
        print(f"[bench] wrote {out}")
    print(
        "rows ({rows}): adopt {adopt:.6f}s vs re-settle {settle:.6f}s "
        "in-process; worker adopt {wa:.4f}s vs re-settle {wr:.4f}s "
        "(adopt warm_row_builds={builds})".format(
            rows=len(sources),
            adopt=results["rows_adopt_s"],
            settle=results["rows_settle_s"],
            wa=row_workers["adopt"]["setup_s"],
            wr=row_workers["resettle"]["setup_s"],
            builds=row_workers["adopt"]["warm_row_builds"],
        )
    )


if __name__ == "__main__":
    main()
