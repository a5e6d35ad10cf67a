"""CSR substrate benchmarks: snapshot cost, kernels, and SPT repair.

Times the pieces the fast restoration pipeline is built from:

* one-off CSR snapshot construction (the cost ``shared_csr`` amortizes),
* full array Dijkstra/BFS vs. the dict kernels they displaced,
* decremental SPT repair after k = 1..3 link failures (a warmed
  ``SptCache.repair_batch_idx``, the entry the per-link ILM stage
  calls) vs. recomputing the row from scratch — the trade the
  experiment hot loops make per failure case.

Also runnable directly — ``python benchmarks/bench_csr.py`` — to emit
``results/BENCH_csr.json`` in the established BENCH schema (timings +
the work-counter delta) without the pytest-benchmark harness.
``--smoke`` shrinks the graph and repeat count to a CI-friendly
seconds-long run that still asserts repair == from-scratch rows.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.graph.csr import (
    CsrGraph,
    CsrView,
    as_view,
    bfs_csr,
    dijkstra_csr_canonical,
)
from repro.graph.incremental import SptCache
from repro.graph.shortest_paths import bfs_shortest_paths, dijkstra
from repro.perf import COUNTERS


def _failures(graph, k: int, seed: int, source):
    """k random failed links not incident to *source* (deterministic)."""
    rng = random.Random(seed)
    edges = [e for e in sorted(graph.edges(), key=repr) if source not in e]
    return rng.sample(edges, k)


def bench_csr_build(benchmark, isp200):
    csr = benchmark(CsrGraph, isp200)
    assert csr.n == isp200.number_of_nodes()


def bench_dijkstra_csr_full(benchmark, as500):
    csr = CsrGraph(as500)
    src = csr.index[sorted(as500.nodes, key=repr)[0]]
    dist, _, _ = benchmark(dijkstra_csr_canonical, as_view(csr), src)
    assert sum(d != float("inf") for d in dist) == as500.number_of_nodes()


def bench_dijkstra_dict_full(benchmark, as500):
    """The displaced dict kernel, for the speedup ratio."""
    src = sorted(as500.nodes, key=repr)[0]
    dist, _ = benchmark(dijkstra, as500, src)
    assert len(dist) == as500.number_of_nodes()


def bench_bfs_csr_full(benchmark, as500):
    csr = CsrGraph(as500)
    src = csr.index[sorted(as500.nodes, key=repr)[0]]
    dist, _ = benchmark(bfs_csr, as_view(csr), src)
    assert sum(d != float("inf") for d in dist) == as500.number_of_nodes()


def bench_spt_repair_k2(benchmark, isp200):
    """Repair a cached canonical row after 2 link failures (the common
    case)."""
    cache = SptCache(isp200)
    source = sorted(isp200.nodes, key=repr)[0]
    src = cache.csr.index[source]
    cache.ensure_rows([src])
    view = cache.csr.with_edges_removed(
        _failures(isp200, 2, seed=5, source=source)
    )
    rows = benchmark(cache.repair_batch_idx, (src,), view)
    want, _, _ = dijkstra_csr_canonical(view, src)
    assert rows[src][0] == want


def bench_scratch_row_k2(benchmark, isp200):
    """The from-scratch alternative repair competes against."""
    csr = CsrGraph(isp200)
    source = sorted(isp200.nodes, key=repr)[0]
    src = csr.index[source]
    view = csr.with_edges_removed(_failures(isp200, 2, seed=5, source=source))
    dist, _, _ = benchmark(dijkstra_csr_canonical, view, src)
    assert dist[src] == 0.0


# -- standalone BENCH_csr.json emitter --------------------------------------


def _timed(fn, *args, repeat: int = 5):
    """Median wall seconds over *repeat* calls (first call warms caches)."""
    fn(*args)
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None) -> None:
    import argparse

    from repro.experiments.bench import write_bench_json
    from repro.runconfig import RunConfig, add_arguments
    from repro.topology.isp import generate_isp_topology

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=200, help="ISP size")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: tiny graph, fewer repeats; the repair == "
             "from-scratch equivalence assertions still run",
    )
    parser.add_argument(
        "--bench-json", type=str, default=None,
        help="path for the BENCH JSON (default results/BENCH_csr.json; "
             "'-' disables)",
    )
    add_arguments(parser, ("kernel_backend",))
    args = parser.parse_args(argv)
    RunConfig.from_args(args, ("kernel_backend",))  # installs --kernel
    if args.smoke:
        args.n = min(args.n, 60)
        args.repeat = min(args.repeat, 2)

    graph = generate_isp_topology(n=args.n, seed=args.seed)
    source = sorted(graph.nodes, key=repr)[0]
    before = COUNTERS.snapshot()
    wall_start = time.perf_counter()

    results: dict[str, float] = {
        "csr_build_s": _timed(CsrGraph, graph, repeat=args.repeat),
    }
    cache = SptCache(graph)
    csr = cache.csr
    src = csr.index[source]
    base = CsrView(csr)
    results["dijkstra_dict_full_s"] = _timed(
        dijkstra, graph, source, repeat=args.repeat
    )
    results["dijkstra_csr_full_s"] = _timed(
        dijkstra_csr_canonical, base, src, repeat=args.repeat
    )
    results["bfs_dict_full_s"] = _timed(
        bfs_shortest_paths, graph, source, repeat=args.repeat
    )
    results["bfs_csr_full_s"] = _timed(bfs_csr, base, src, repeat=args.repeat)

    cache.ensure_rows([src])
    for k in (1, 2, 3):
        view = csr.with_edges_removed(
            _failures(graph, k, seed=5 + k, source=source)
        )
        results[f"scratch_row_k{k}_s"] = _timed(
            dijkstra_csr_canonical, view, src, repeat=args.repeat
        )
        results[f"spt_repair_k{k}_s"] = _timed(
            cache.repair_batch_idx, (src,), view, repeat=args.repeat
        )
        repaired = cache.repair_batch_idx((src,), view)[src]
        want = dijkstra_csr_canonical(view, src)[:2]
        assert repaired == want, f"repair mismatch at k={k}"

    payload = {
        "name": "csr",
        "n": args.n,
        "seed": args.seed,
        "repeat": args.repeat,
        "smoke": bool(args.smoke),
        "wall_clock_s": round(time.perf_counter() - wall_start, 4),
        "results": {k: round(v, 6) for k, v in results.items()},
        "speedups": {
            "dijkstra_csr_vs_dict": round(
                results["dijkstra_dict_full_s"]
                / max(results["dijkstra_csr_full_s"], 1e-12),
                2,
            ),
            **{
                f"repair_vs_scratch_k{k}": round(
                    results[f"scratch_row_k{k}_s"]
                    / max(results[f"spt_repair_k{k}_s"], 1e-12),
                    2,
                )
                for k in (1, 2, 3)
            },
        },
        "counters": COUNTERS.delta(before).as_dict(),
    }
    if args.bench_json != "-":
        write_bench_json("csr", payload, path=args.bench_json)


if __name__ == "__main__":
    main()
