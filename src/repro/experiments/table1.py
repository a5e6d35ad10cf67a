"""Table 1 — "Networks used in this article": nodes, links, avg degree.

Run with ``python -m repro.experiments.table1 [--scale small]``.
"""

from __future__ import annotations

from ..obs import TRACER
from ..topology.stats import TopologyStats, summarize
from .bench import ExperimentRun
from .networks import ExperimentNetwork, suite
from .reporting import format_table

#: The published Table 1 values, for side-by-side comparison.
PAPER_TABLE1 = {
    "ISP": (200, 400, 3.56),
    "Internet": (40377, 101659, 5.035),
    "AS Graph": (4746, 9878, 4.16),
}


def collect(networks: list[ExperimentNetwork]) -> list[TopologyStats]:
    """Summarize each distinct topology (ISP appears once, as in the paper)."""
    stats: list[TopologyStats] = []
    seen: set[int] = set()
    for network in networks:
        key = id(network.graph)
        if key in seen:
            continue
        seen.add(key)
        name = "ISP" if network.name.startswith("ISP, Weighted") else network.name
        if network.name.startswith("ISP, Unweighted"):
            continue  # same topology as the weighted ISP
        stats.append(summarize(network.graph, name))
    return stats


def render(stats: list[TopologyStats]) -> str:
    """Render the computed results as a paper-style text report."""
    rows = []
    for s in stats:
        paper = PAPER_TABLE1.get(s.name)
        rows.append(
            [
                s.name,
                s.nodes,
                s.links,
                f"{s.average_degree:.3f}",
                f"{paper[0]:,}" if paper else "-",
                f"{paper[1]:,}" if paper else "-",
                f"{paper[2]:.3f}" if paper else "-",
            ]
        )
    return format_table(
        ["name", "nodes", "links", "avg.deg.", "paper nodes", "paper links", "paper deg."],
        rows,
        title="Table 1: networks used (measured vs. paper)",
    )


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = ("scale", "seed", "kernel_backend")


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("table1", __doc__, CONFIG_FIELDS, argv)
    config = cli.config
    with TRACER.span("table1", scale=config.scale, seed=config.seed):
        with cli.timer.stage("topologies"):
            networks = suite(scale=config.scale, seed=config.seed)
        with cli.timer.stage("stats"):
            stats = collect(networks)
        with cli.timer.stage("render"):
            report = render(stats)
    print(report)
    cli.write_bench({"networks": [s.name for s in stats]})
    return report


if __name__ == "__main__":
    main()
