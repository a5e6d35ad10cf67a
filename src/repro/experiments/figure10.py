"""Figure 10 — stretch of local RBPC vs. source-routed restoration.

On the weighted ISP topology: for every sampled single-link failure,
compare the route produced by *edge-bypass* and by *end-route* local
RBPC against the min-cost source-routed restoration path, both by cost
and by hop count.  The paper shows four histograms of the resulting
stretch factors; the headline is that the vast majority of local
restorations land at (or very near) stretch 1.

Run with ``python -m repro.experiments.figure10 [--scale small]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.base_paths import BaseSet
from ..core.cache import shared_unique_base
from ..core.local_restoration import edge_bypass_route, end_route_route
from ..exceptions import NoPath, NoRestorationPath
from ..failures.sampler import link_failure_cases, sample_pairs
from ..graph.graph import Graph, Node
from ..graph.incremental import fast_shortest_path
from ..obs import TRACER
from ..policies import active_failure_model_name, make_failure_model
from .bench import ExperimentRun
from .networks import cached_suite
from .parallel import (
    figure10_stretch_chunk,
    make_executor,
    publish_suite,
    resolve_jobs,
    run_chunked,
)
from .reporting import format_histogram, percent_histogram

#: Histogram bucket edges for stretch factors above 1 (overflow at the end).
STRETCH_EDGES = [1.0 + 1e-9, 1.2, 1.4, 1.6, 1.8, 2.0]

#: Cost stretch below this counts as "exactly the optimum".
EXACT = 1.0 + 1e-9


def stretch_buckets(values: list[float]) -> list[tuple[str, float]]:
    """Histogram buckets with an explicit ``= 1.00`` (optimal) bucket.

    Hop-count stretch can dip below 1 (the paper notes this: the
    min-cost path may have more hops), so a ``< 1.00`` bucket leads.
    """
    total = len(values)
    if total == 0:
        return []
    below = 100.0 * sum(1 for v in values if v < 1.0 - 1e-9) / total
    exact = 100.0 * sum(1 for v in values if 1.0 - 1e-9 <= v <= EXACT) / total
    rest = percent_histogram([v for v in values if v > EXACT], STRETCH_EDGES)
    scale = (100.0 - below - exact) / 100.0
    rescaled = [(label, share * scale) for label, share in rest]
    buckets = [("< 1.00", below), ("= 1.00", exact)]
    return buckets + rescaled


@dataclass
class StretchSamples:
    """Raw stretch factors for one local strategy."""

    cost: list[float]
    hopcount: list[float]

    def share_at_most(self, threshold: float) -> float:
        """Percent of cases with cost stretch <= threshold."""
        if not self.cost:
            return float("nan")
        return 100.0 * sum(1 for v in self.cost if v <= threshold) / len(self.cost)


def collect_pair_samples(
    graph: Graph,
    weighted: bool,
    base: BaseSet,
    pair: tuple[Node, Node],
    model=None,
) -> list[tuple[str, Optional[float], Optional[float]]]:
    """Stretch samples for one demand pair's sampled 1-link failures.

    Returns ``(strategy, cost stretch or None, hop stretch or None)``
    tuples in deterministic case order — the unit the parallel runner
    fans out and reassembles.  A non-default failure *model* expands
    each sampled link into its correlated fault set: the optimum is
    recomputed on the surviving subgraph and a local route disturbed by
    a correlated casualty counts as a failed restoration (no sample) —
    both checks are no-ops under the default model, whose expansion
    returns the sampled scenario itself.
    """
    items: list[tuple[str, Optional[float], Optional[float]]] = []
    primary = base.path_for(*pair)
    for case in link_failure_cases(pair, primary, k=1):
        failed = next(iter(case.scenario.links))
        scenario = (
            model.expand(case.scenario) if model is not None else case.scenario
        )
        view = scenario.apply(graph)
        try:
            # Dispatches to the shared SPT cache: the pair's pre-failure
            # row is computed once and repaired per failure case, like
            # table2 — not one full search per case.
            optimal = fast_shortest_path(
                view, case.source, case.destination, weighted=weighted
            )
        except NoPath:
            continue  # disconnected: no scheme can restore
        optimal_cost = optimal.cost(graph)
        optimal_hops = optimal.hops
        for name, route_fn in (
            ("edge-bypass", edge_bypass_route),
            ("end-route", end_route_route),
        ):
            try:
                route = route_fn(graph, primary, failed, weighted=weighted)
            except NoRestorationPath:
                continue
            if scenario is not case.scenario and scenario.disturbs(route):
                continue
            cost = route.cost(graph) / optimal_cost if optimal_cost > 0 else None
            hops = route.hops / optimal_hops if optimal_hops > 0 else None
            items.append((name, cost, hops))
    return items


def _assemble(
    items: list[tuple[str, Optional[float], Optional[float]]],
) -> dict[str, StretchSamples]:
    samples = {
        "edge-bypass": StretchSamples([], []),
        "end-route": StretchSamples([], []),
    }
    for name, cost, hops in items:
        if cost is not None:
            samples[name].cost.append(cost)
        if hops is not None:
            samples[name].hopcount.append(hops)
    return samples


def collect(
    graph: Graph, weighted: bool, n_pairs: int, seed: int = 1, model=None
) -> dict[str, StretchSamples]:
    """Stretch samples for both strategies over sampled 1-link failures."""
    base = shared_unique_base(graph)
    pairs = sample_pairs(graph, n_pairs, seed=seed)
    items: list[tuple[str, Optional[float], Optional[float]]] = []
    for pair in pairs:
        items.extend(
            collect_pair_samples(graph, weighted, base, pair, model=model)
        )
    return _assemble(items)


def render(samples: dict[str, StretchSamples]) -> str:
    """Render the computed results as a paper-style text report."""
    blocks = []
    for name, data in samples.items():
        blocks.append(
            format_histogram(
                stretch_buckets(data.cost),
                title=f"Figure 10: {name} local RBPC — cost stretch "
                f"(n={len(data.cost)}, optimal: {data.share_at_most(EXACT):.1f}%)",
            )
        )
        blocks.append(
            format_histogram(
                stretch_buckets(data.hopcount),
                title=f"Figure 10: {name} local RBPC — hopcount stretch "
                f"(n={len(data.hopcount)})",
            )
        )
    return "\n\n".join(blocks)


def run(
    scale: str = "small",
    seed: int = 1,
    jobs: int = 1,
    failure_model: Optional[str] = None,
) -> dict[str, StretchSamples]:
    """Figure 10 runs on the weighted ISP network (as in the paper).

    With ``jobs > 1`` the demand pairs are fanned out over worker
    processes; chunk reassembly keeps the sample order — and hence
    every histogram — byte-identical to the sequential run.
    *failure_model* defaults to the active registry selection.
    """
    isp = cached_suite(scale=scale, seed=seed)[0]
    jobs = resolve_jobs(jobs)
    model_name = (
        failure_model if failure_model is not None else active_failure_model_name()
    )
    executor = make_executor(jobs)
    if executor is None:
        model = make_failure_model(model_name, isp.graph, seed=seed)
        return collect(
            isp.graph, isp.weighted, isp.sample_pairs, seed=seed, model=model
        )
    pairs = sample_pairs(isp.graph, isp.sample_pairs, seed=seed)
    publish_suite([isp], with_base=True)
    with executor:
        items = run_chunked(
            executor,
            figure10_stretch_chunk,
            (scale, seed, model_name),
            len(pairs),
            jobs,
        )
    return _assemble(items)


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = ("scale", "seed", "jobs", "failure_model", "kernel_backend")


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("figure10", __doc__, CONFIG_FIELDS, argv)
    config = cli.config
    with TRACER.span("figure10", scale=config.scale, seed=config.seed):
        with cli.timer.stage("collect"):
            samples = run(
                scale=config.scale,
                seed=config.seed,
                jobs=config.jobs,
                failure_model=config.failure_model,
            )
        with cli.timer.stage("render"):
            report = render(samples)
    print(report)
    cli.write_bench(
        {"samples": {name: len(data.cost) for name, data in samples.items()}}
    )
    return report


if __name__ == "__main__":
    main()
