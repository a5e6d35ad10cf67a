"""Table 3 — hop-count distribution of min-cost edge bypasses.

For every link of every network: the length (in hops) of the min-cost
path between the link's endpoints once the link itself is removed —
the path edge-bypass local RBPC rides.  The paper reports the percent
of links with bypass hop count 2, 3, ... 9.

Run with ``python -m repro.experiments.table3 [--scale small]``.
"""

from __future__ import annotations

from typing import Optional

from ..core.local_restoration import bypass_path
from ..exceptions import NoPath, NoRestorationPath
from ..graph.csr import shared_csr
from ..graph.graph import Graph
from ..graph.shortest_paths import shortest_path
from ..kernels import kernel_backend
from ..obs import TRACER
from ..obs.metrics import DEPTH_EDGES, METRICS
from ..policies import (
    DEFAULT_FAILURE_MODEL,
    active_failure_model_name,
    make_failure_model,
)
from .bench import ExperimentRun
from .networks import cached_suite
from .parallel import (
    make_executor,
    publish_suite,
    resolve_jobs,
    run_chunked,
    table3_bypass_chunk,
)
from .reporting import format_table

#: Published Table 3 (percent of links per bypass hop count).
PAPER_TABLE3 = {
    "ISP, Weighted": {2: 89.05, 3: 2.95, 4: 1.18, 5: 4.14, 6: 0.88, 7: 1.77},
    "ISP, Unweighted": {2: 90.11, 3: 2.99, 4: 1.79, 5: 5.08},
    "AS Graph": {2: 61.27, 3: 30.88, 4: 6.22, 5: 1.29, 6: 0.32},
    "Internet": {2: 54.96, 3: 37.68, 4: 2.37, 5: 1.72, 6: 2.05, 7: 0.64, 8: 0.95, 9: 0.23},
}

MAX_REPORTED_HOPS = 9


def link_bypass_hops(
    graph: Graph, u, v, weighted: bool, model=None
) -> Optional[int]:
    """Hop count of the min-cost bypass of link ``(u, v)``; None for bridges.

    The failure is *model*'s scenario for the link (the link alone
    without a model or under the default independent model); a
    correlated model expands it into its full fault set first (e.g.
    the whole SRLG group), so the bypass must survive every correlated
    casualty, not just the link itself.

    On an unweighted network the answer is one ``bypass_hops`` kernel
    call: the hop distance between the endpoints with the link cut,
    over the snapshot's unmasked view under the default model (no
    scenario, no view, no slot search in Python) and over the
    scenario's view under a correlated one.  It equals
    ``bypass_path(graph, u, v, weighted=False).hops`` (and the dict
    ``shortest_path(..., weighted=False).hops``) on every link, since a
    hop distance has no tie rule.  A weighted network takes the
    canonical min-cost chain of
    :func:`~repro.core.local_restoration.bypass_path` under the default
    model, and the dict ``shortest_path`` under a correlated one: the
    hop count of an equal-cost bypass depends on which one a search's
    tie rule picks.
    """
    default = model is None or model.name == DEFAULT_FAILURE_MODEL
    if weighted:
        if default:
            try:
                return bypass_path(graph, u, v, weighted=True).hops
            except NoRestorationPath:
                return None
        view = model.scenario_for_link((u, v)).apply(graph)
        try:
            return shortest_path(view, u, v, weighted=True).hops
        except NoPath:
            return None
    csr = shared_csr(graph)
    if default:
        view = csr.unmasked
    else:
        scenario = model.scenario_for_link((u, v))
        view = csr.with_edges_removed(scenario.links, scenario.routers)
    index = csr.index
    hops = kernel_backend().bypass_hops(view, index[u], index[v])
    return None if hops < 0 else hops


def bypass_distribution(
    graph: Graph, weighted: bool, max_links: int | None = None, model=None
) -> tuple[dict[int, float], float]:
    """``(percent per hop count, percent of bridge links)`` over all links.

    Bridges have no bypass at all; the paper's topologies are nearly
    bridge-free, ours report the fraction explicitly.
    """
    hops_list: list[Optional[int]] = []
    for u, v in graph.edges():
        if max_links is not None and len(hops_list) >= max_links:
            break
        hops_list.append(link_bypass_hops(graph, u, v, weighted, model))
    return _aggregate(hops_list)


def _aggregate(
    hops_list: list[Optional[int]],
) -> tuple[dict[int, float], float]:
    """Fold per-link bypass hop counts (None = bridge) into percentages."""
    total = len(hops_list)
    if total == 0:
        return {}, 0.0
    counts: dict[int, int] = {}
    bridges = 0
    record = METRICS.enabled
    for hops in hops_list:
        if hops is None:
            bridges += 1
            if record:
                METRICS.counter("table3.bridges").inc()
        else:
            counts[hops] = counts.get(hops, 0) + 1
            if record:
                METRICS.histogram("table3.bypass_hops", DEPTH_EDGES).observe(hops)
    percents = {hops: 100.0 * n / total for hops, n in sorted(counts.items())}
    return percents, 100.0 * bridges / total


def run(
    scale: str = "small",
    seed: int = 1,
    max_links: int | None = None,
    jobs: int = 1,
    failure_model: Optional[str] = None,
) -> dict[str, tuple[dict[int, float], float]]:
    """Distribution per network name.

    With ``jobs > 1`` the links of each network are fanned out over
    worker processes; reassembly in link order keeps the distribution
    byte-identical to the sequential run.  *failure_model* defaults to
    the active registry selection.
    """
    jobs = resolve_jobs(jobs)
    model_name = (
        failure_model if failure_model is not None else active_failure_model_name()
    )
    executor = make_executor(jobs)
    results: dict[str, tuple[dict[int, float], float]] = {}
    networks = cached_suite(scale=scale, seed=seed)
    if executor is None:
        for network in networks:
            results[network.name] = bypass_distribution(
                network.graph,
                network.weighted,
                max_links=max_links,
                model=make_failure_model(model_name, network.graph, seed=seed),
            )
        return results
    # Bypass sweeps never touch a base set: workers inherit the graph
    # CSRs only.
    publish_suite(networks, with_base=False)
    with executor:
        for index, network in enumerate(networks):
            n_links = network.graph.number_of_edges()
            if max_links is not None:
                n_links = min(n_links, max_links)
            hops_list = run_chunked(
                executor,
                table3_bypass_chunk,
                (scale, seed, index, model_name),
                n_links,
                jobs,
            )
            results[network.name] = _aggregate(hops_list)
    return results


def render(results: dict[str, tuple[dict[int, float], float]]) -> str:
    """Render the computed results as a paper-style text report."""
    names = list(results)
    max_hops = MAX_REPORTED_HOPS
    for percents, _ in results.values():
        if percents:
            max_hops = max(max_hops, max(percents))
    rows = []
    for hops in range(2, max_hops + 1):
        row: list[object] = [hops]
        for name in names:
            percents, _ = results[name]
            row.append(f"{percents.get(hops, 0.0):.2f}%")
            paper = PAPER_TABLE3.get(name, {}).get(hops)
            row.append(f"({paper:.2f}%)" if paper is not None else "")
        rows.append(row)
    bridge_row: list[object] = ["bridge"]
    for name in names:
        _, bridge_pct = results[name]
        bridge_row.append(f"{bridge_pct:.2f}%")
        bridge_row.append("")
    rows.append(bridge_row)
    headers = ["Bypass hops"]
    for name in names:
        headers.extend([name, "paper"])
    return format_table(
        headers, rows, title="Table 3: length of the bypass of an edge"
    )


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = (
    "scale", "seed", "max_links", "jobs", "failure_model", "kernel_backend",
)


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("table3", __doc__, CONFIG_FIELDS, argv)
    config = cli.config
    with TRACER.span("table3", scale=config.scale, seed=config.seed):
        with cli.timer.stage("bypasses"):
            results = run(
                scale=config.scale,
                seed=config.seed,
                max_links=config.max_links,
                jobs=config.jobs,
                failure_model=config.failure_model,
            )
        with cli.timer.stage("render"):
            report = render(results)
    print(report)
    cli.write_bench(
        {
            "rows": {
                name: {
                    "percents": {str(h): pct for h, pct in percents.items()},
                    "bridges": bridges,
                }
                for name, (percents, bridges) in results.items()
            }
        }
    )
    return report


if __name__ == "__main__":
    main()
