"""Kernel backend benchmarks: native vs. the reference loops.

Times the dispatch points of :mod:`repro.kernels` head to head on the
experiment suite's own topology generators, asserting bit-identical
outputs while it measures:

* **batched row building** — ``rows_many`` over a block of sources vs.
  the per-source reference kernels (heap Dijkstra on weighted graphs,
  frontier BFS on unit graphs), on the ISP, Internet, and AS families;
* **single-source full rows** — one exhaustive ``dijkstra_canonical``
  call at a time, the shape ``SptCache`` misses and oracle promotions
  pay for;
* **targeted early-exit searches** — ``dijkstra_canonical`` with a
  small target set, the ``fast_shortest_path`` probe shape;
* **SPT repair** — the fused ``repair_resettle`` (subtree discovery,
  fallback threshold, Ramalingam–Reps re-settle) vs. the reference,
  on hub failures with large affected subtrees;
* **decomposition DP** — ``decompose_flat`` over an index chain and an
  oracle row table holding every row it reads (hop weights summed in
  the kernel) vs. the forward reference DP on long concatenation
  chains;
* **per-call overhead** — what one restoration case pays around the
  C work at n=4000: a search toward an adjacent target and the repair
  of a small leaf subtree, in microseconds per call;
* **shortest-path counts** — ``count_paths`` over each source's
  canonical row (Table 2's multiplicity column) vs. the dict-walk DAG
  it replaced (tight parents gathered per node from the adjacency, then
  a DP in distance order), on the Internet graph.

Emits ``results/BENCH_kernels.json`` in the established BENCH schema
(per-section timings, native-vs-python speedup ratios, the
work-counter delta).  ``--smoke`` shrinks sizes and repeats to a
CI-friendly run that still asserts every equivalence.  Without a C
toolchain the native sections are skipped with a note in the payload
(``backends_skipped``) — a fresh clone without a compiler must pass
every CLI.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.graph.csr import as_view, shared_csr
from repro.graph.shortest_paths import EPSILON, costs_equal
from repro.kernels import OracleRows, available_backends
from repro.kernels import python_backend as pyk
from repro.perf import COUNTERS
from repro.topology import (
    generate_as_graph,
    generate_internet_graph,
    generate_isp_topology,
)

#: Why the native backend was skipped, if it was.
SKIPPED: dict[str, str] = {}

try:
    from repro.kernels import native_backend as natk
except ImportError as exc:  # pragma: no cover - exercised without a toolchain
    natk = None
    SKIPPED["native"] = str(exc).splitlines()[0][:200]


def _timed(fn, repeat: int):
    """Median wall seconds over *repeat* calls (first call warms caches)."""
    fn()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _reference_rows(view, sources, unit):
    rows = {}
    for s in sources:
        if unit:
            rows[s] = pyk.bfs(view, s)
        else:
            dist, pred, _ = pyk.dijkstra_canonical(view, s)
            rows[s] = (dist, pred)
    return rows


def _row_section(results, label, graph, unit, n_sources, repeat):
    view = as_view(shared_csr(graph))
    sources = list(range(min(n_sources, view.csr.n)))
    expected = _reference_rows(view, sources, unit)
    results[f"{label}_python_s"] = _timed(
        lambda: _reference_rows(view, sources, unit), repeat
    )
    if natk is not None:
        assert natk.rows_many(view, sources, unit) == expected, (
            f"{label}: native disagrees"
        )
        results[f"{label}_native_s"] = _timed(
            lambda: natk.rows_many(view, sources, unit), repeat
        )


def _single_source_section(results, label, graph, n_sources, repeat):
    """One exhaustive canonical Dijkstra per call — no batching to hide in."""
    view = as_view(shared_csr(graph))
    sources = list(range(min(n_sources, view.csr.n)))
    expected = [pyk.dijkstra_canonical(view, s) for s in sources]

    def run(mod):
        return [mod.dijkstra_canonical(view, s) for s in sources]

    results[f"{label}_python_s"] = _timed(lambda: run(pyk), repeat)
    if natk is not None:
        assert run(natk) == expected, f"{label}: native disagrees"
        results[f"{label}_native_s"] = _timed(lambda: run(natk), repeat)


def _targeted_section(results, label, graph, n_queries, repeat):
    """Early-exit probes with a single target — the oracle's query shape."""
    view = as_view(shared_csr(graph))
    n = view.csr.n
    rng = random.Random(3)
    queries = [
        (rng.randrange(n), [rng.randrange(n)]) for _ in range(n_queries)
    ]
    expected = [
        pyk.dijkstra_canonical(view, s, targets) for s, targets in queries
    ]

    def run(mod):
        return [
            mod.dijkstra_canonical(view, s, targets) for s, targets in queries
        ]

    results[f"{label}_python_s"] = _timed(lambda: run(pyk), repeat)
    if natk is not None:
        assert run(natk) == expected, f"{label}: native disagrees"
        results[f"{label}_native_s"] = _timed(lambda: run(natk), repeat)


def _subtree_walker(children):
    """``subtree(root)``: the node set below *root* in a children index."""
    offsets, kids = children

    def subtree(root):
        out, stack = set(), [root]
        while stack:
            x = stack.pop()
            if x not in out:
                out.add(x)
                stack.extend(kids[offsets[x]:offsets[x + 1]])
        return out

    return subtree


def _repair_section(results, graph, repeat):
    """Hub failure: cut the tree edge above the largest subtree."""
    csr = shared_csr(graph)
    base = as_view(csr)
    nodes = csr.nodes
    dist, pred, _ = pyk.dijkstra_canonical(base, 0)
    children = pyk.children_index(pred)
    subtree = _subtree_walker(children)
    victim = max(
        (v for v in range(csr.n) if pred[v] >= 0), key=lambda v: len(subtree(v))
    )
    view = base.without(edges=[(nodes[pred[victim]], nodes[victim])])
    results["repair_affected_nodes"] = len(subtree(victim))
    threshold = 2.0 * csr.n  # measure the repair, never the fallback

    def run(mod):
        return mod.repair_resettle(
            view, 0, dist, pred, children, threshold, False
        )

    ref = run(pyk)
    results["repair_python_s"] = _timed(lambda: run(pyk), repeat)
    if natk is not None:
        assert run(natk) == ref, "repair: native disagrees"
        results["repair_native_s"] = _timed(lambda: run(natk), repeat)


def _overhead_section(results, graph, calls, repeat):
    """Per-call cost of the two smallest operations a case performs:
    an early-exit search that stops at the nearest neighbor, and the
    repair of a subtree of at most four nodes (seconds per call)."""
    csr = shared_csr(graph)
    base = as_view(csr)
    nodes, n = csr.nodes, csr.n
    rng = random.Random(5)
    searches = []
    for s in rng.sample(range(n), min(calls, n)):
        lo, hi = csr.indptr[s], csr.indptr[s + 1]
        if hi > lo:  # the lightest edge's head: settled right after s
            slot = min(range(lo, hi), key=csr.weights.__getitem__)
            searches.append((s, [csr.indices[slot]]))
    dist, pred, _ = pyk.dijkstra_canonical(base, 0)
    children = pyk.children_index(pred)
    subtree = _subtree_walker(children)
    small = [v for v in range(n) if pred[v] >= 0 and len(subtree(v)) <= 4]
    cuts = [
        base.without(edges=[(nodes[pred[v]], nodes[v])])
        for v in rng.sample(small, min(calls, len(small)))
    ]
    threshold = 0.5 * n
    results["overhead_n"] = n

    def search(mod, keep=None):
        for s, t in searches:
            row = mod.dijkstra_canonical(base, s, t)
            if keep is not None:
                keep.append(row)

    def repair(mod, keep=None):
        for view in cuts:
            row = mod.repair_resettle(
                view, 0, dist, pred, children, threshold, False
            )
            if keep is not None:
                keep.append(row)

    def outputs(mod):
        keep: list = []
        search(mod, keep)
        repair(mod, keep)
        return keep

    # Timed calls drop each result as the restoration loop does, so
    # the allocator recycles the row buffers instead of faulting in
    # fresh pages for hundreds of retained n-sized rows.
    expected = outputs(pyk)
    results["overhead_search_python_s"] = (
        _timed(lambda: search(pyk), repeat) / len(searches)
    )
    results["overhead_repair_python_s"] = (
        _timed(lambda: repair(pyk), repeat) / len(cuts)
    )
    if natk is not None:
        assert outputs(natk) == expected, "overhead: native disagrees"
        results["overhead_search_native_s"] = (
            _timed(lambda: search(natk), repeat) / len(searches)
        )
        results["overhead_repair_native_s"] = (
            _timed(lambda: repair(natk), repeat) / len(cuts)
        )


def _decompose_section(results, graph, anchors, repeat):
    """A concatenation of shortest paths — the chain shape per-link ILM
    accounting actually decomposes (few pieces, long spans)."""
    csr = shared_csr(graph)
    view = as_view(csr)
    rng = random.Random(7)
    preds = {}
    waypoints = [rng.randrange(csr.n) for _ in range(anchors)]
    chain = [waypoints[0]]
    for a, b in zip(waypoints, waypoints[1:]):
        if a not in preds:
            preds[a] = pyk.dijkstra_canonical(view, a)[1]
        seg, t = [], b
        while t != -1:
            seg.append(t)
            t = preds[a][t]
        chain.extend(reversed(seg[:-1]))

    chain = tuple(chain)
    table = OracleRows(csr.n, None)  # every row stored: nothing to warm
    for c in dict.fromkeys(chain[:-2]):
        table.store(c, pyk.dijkstra_canonical(view, c)[0])
    results["decompose_chain_len"] = len(chain)
    ref = pyk.decompose_flat(csr, chain, table)
    assert ref is not None, "decompose: the chain left the graph"
    results["decompose_python_s"] = _timed(
        lambda: pyk.decompose_flat(csr, chain, table), repeat
    )
    if natk is not None:
        assert natk.decompose_flat(csr, chain, table) == ref, (
            "decompose: native disagrees"
        )
        results["decompose_native_s"] = _timed(
            lambda: natk.decompose_flat(csr, chain, table), repeat
        )


def _dict_dag_counts(graph, csr, source, row):
    """Shortest-path counts the dict-walk way ``ShortestPathDag`` used
    before ``count_paths``: dict labels from the row, every node's tight
    parents from its adjacency, then a DP in distance order."""
    inf = float("inf")
    dist = {csr.nodes[i]: d for i, d in enumerate(row) if d != inf}
    src = csr.nodes[source]
    parents = {v: [] for v in dist}
    for v in dist:
        if v == src:
            continue
        for u, w in graph.adjacency(v):
            if u in dist and costs_equal(dist[u] + w, dist[v]):
                parents[v].append(u)
    memo = {src: 1}
    for v in sorted(dist, key=dist.__getitem__):
        if v != src:
            memo[v] = sum(memo[u] for u in parents[v])
    return memo


def _count_section(results, graph, n_sources, repeat):
    """Shortest-path counts from *n_sources* sources, rows precomputed."""
    csr = shared_csr(graph)
    view = as_view(csr)
    sources = list(range(min(n_sources, csr.n)))
    rows = {s: pyk.dijkstra_canonical(view, s)[0] for s in sources}

    def run(mod):
        return [mod.count_paths(csr, s, rows[s], EPSILON) for s in sources]

    def run_dict_dag():
        return [_dict_dag_counts(graph, csr, s, rows[s]) for s in sources]

    expected = run(pyk)
    assert [
        {csr.nodes[i]: c for i, c in enumerate(counts) if c}
        for counts in expected
    ] == run_dict_dag(), "counts: python disagrees with the dict-walk DAG"
    results["spt_counts_sources"] = len(sources)
    results["spt_counts_dict_dag_s"] = _timed(run_dict_dag, repeat)
    results["spt_counts_python_s"] = _timed(lambda: run(pyk), repeat)
    if natk is not None:
        assert run(natk) == expected, "counts: native disagrees"
        results["spt_counts_native_s"] = _timed(lambda: run(natk), repeat)


def main(argv=None) -> None:
    from repro.experiments.bench import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--sources", type=int, default=200,
                        help="row-building batch size per network")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: tiny graphs, fewer repeats; every "
             "native-vs-python equivalence assertion still runs",
    )
    parser.add_argument(
        "--bench-json", type=str, default=None,
        help="path for the BENCH JSON (default results/BENCH_kernels.json; "
             "'-' disables)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sizes = {"isp": 120, "internet": 300, "as": 300,
                 "repair_isp": 400, "anchors": 6,
                 "single_sources": 8, "targeted_queries": 20,
                 "overhead_isp": 300, "overhead_calls": 40,
                 "count_sources": 10}
        args.repeat = min(args.repeat, 2)
        args.sources = min(args.sources, 60)
    else:
        sizes = {"isp": 200, "internet": 4000, "as": 2000,
                 "repair_isp": 2000, "anchors": 16,
                 "single_sources": 24, "targeted_queries": 120,
                 "overhead_isp": 4000, "overhead_calls": 400,
                 "count_sources": 40}

    before = COUNTERS.snapshot()
    wall_start = time.perf_counter()
    results: dict[str, float] = {}

    isp_w = generate_isp_topology(n=sizes["isp"], seed=args.seed)
    isp_u = generate_isp_topology(n=sizes["isp"], seed=args.seed, weighted=False)
    _row_section(results, "rows_isp_weighted", isp_w, False,
                 args.sources, args.repeat)
    _row_section(results, "rows_isp_unit", isp_u, True,
                 args.sources, args.repeat)
    internet = generate_internet_graph(n=sizes["internet"], seed=args.seed)
    _row_section(results, "rows_internet", internet, True,
                 args.sources, args.repeat)
    _row_section(results, "rows_as_graph", generate_as_graph(
        n=sizes["as"], seed=args.seed), True, args.sources, args.repeat)
    repair_graph = generate_isp_topology(n=sizes["repair_isp"], seed=args.seed)
    _single_source_section(results, "single_source", repair_graph,
                           sizes["single_sources"], args.repeat)
    _targeted_section(results, "targeted", repair_graph,
                      sizes["targeted_queries"], args.repeat)
    _repair_section(results, repair_graph, args.repeat)
    _decompose_section(results, repair_graph, sizes["anchors"], args.repeat)
    _overhead_section(results, generate_isp_topology(
        n=sizes["overhead_isp"], seed=args.seed), sizes["overhead_calls"],
        args.repeat)
    _count_section(results, internet, sizes["count_sources"], args.repeat)

    speedups: dict[str, dict[str, float]] = {}
    if natk is not None:
        stems = [
            key[: -len("_native_s")] for key in sorted(results)
            if key.endswith("_native_s")
        ]
        speedups["native"] = {
            stem: round(
                results[f"{stem}_python_s"]
                / max(results[f"{stem}_native_s"], 1e-12), 2
            )
            for stem in stems
        }
        speedups["native"]["spt_counts_vs_dict_dag"] = round(
            results["spt_counts_dict_dag_s"]
            / max(results["spt_counts_native_s"], 1e-12), 2
        )

    payload = {
        "name": "kernels",
        "seed": args.seed,
        "repeat": args.repeat,
        "sources": args.sources,
        "sizes": sizes,
        "smoke": bool(args.smoke),
        "backends_measured": available_backends(),
        "backends_skipped": SKIPPED,
        "wall_clock_s": round(time.perf_counter() - wall_start, 4),
        "results": {
            k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in results.items()
        },
        "speedups": speedups,
        "counters": COUNTERS.delta(before).as_dict(),
    }
    if args.bench_json != "-":
        out = write_bench_json("kernels", payload, path=args.bench_json)
        print(f"wrote {out}")
    for name, ratios in speedups.items():
        for stem, ratio in ratios.items():
            print(f"{stem} [{name}]: {ratio}x")
    for key in sorted(results):
        if key.startswith("overhead_") and key.endswith("_s"):
            print(f"{key[:-2]} at n={results['overhead_n']}: "
                  f"{results[key] * 1e6:.1f} us/call")


if __name__ == "__main__":
    main()
