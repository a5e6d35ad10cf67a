"""Figures 2-5 — the paper's extremal constructions, executed.

* Figure 2: ``comb_graph(k)`` — Theorem 1 is tight: the restoration
  path needs exactly ``k + 1`` original shortest paths.
* Figure 3: ``weighted_comb_graph(k)`` — Theorem 2 is tight:
  ``k + 1`` base paths interleaved with ``k`` non-base edges.
* Figure 4: ``two_level_star(n)`` — a single *router* failure can
  force :math:`\\Theta(n)` concatenations.
* Figure 5: ``directed_counterexample(n)`` — in a directed graph one
  edge failure forces ``~(n-2)/3`` pieces, so Theorem 1 has no
  directed analogue.

Run with ``python -m repro.experiments.theory_figures``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.base_paths import AllShortestPathsBase
from ..core.decomposition import min_pieces_decompose
from ..failures.models import FailureScenario
from ..graph.shortest_paths import shortest_path
from ..topology.classic import (
    comb_graph,
    directed_counterexample,
    two_level_star,
    weighted_comb_graph,
)
from .bench import ExperimentRun
from .reporting import format_table


@dataclass(frozen=True)
class TightnessResult:
    """Observed vs. claimed extremal behaviour of one construction."""

    figure: str
    parameter: int
    k_failures: int
    pieces: int
    base_paths: int
    extra_edges: int
    claimed: str
    matches: bool


def _decompose(graph, failed_edges=(), failed_nodes=(), s=None, t=None, weighted=True):
    scenario = FailureScenario.link_set(failed_edges).merge(
        FailureScenario.router_set(failed_nodes)
    )
    view = scenario.apply(graph)
    backup = shortest_path(view, s, t, weighted=weighted)
    base = AllShortestPathsBase(graph, include_all_edges=False)
    return min_pieces_decompose(backup, base, allow_edges=True)


def figure2(k: int) -> TightnessResult:
    """Execute the Figure 2 comb construction for parameter *k*."""
    graph, failed, s, t = comb_graph(k)
    decomposition = _decompose(graph, failed_edges=failed, s=s, t=t, weighted=False)
    return TightnessResult(
        figure="Fig 2 comb",
        parameter=k,
        k_failures=k,
        pieces=decomposition.num_pieces,
        base_paths=decomposition.num_base_paths,
        extra_edges=decomposition.num_extra_edges,
        claimed=f"exactly k+1 = {k + 1} shortest paths",
        matches=decomposition.num_pieces == k + 1
        and decomposition.num_extra_edges == 0,
    )


def figure3(k: int) -> TightnessResult:
    """Execute the Figure 3 weighted comb construction for *k*."""
    graph, failed, s, t = weighted_comb_graph(k)
    decomposition = _decompose(graph, failed_edges=failed, s=s, t=t, weighted=True)
    return TightnessResult(
        figure="Fig 3 weighted comb",
        parameter=k,
        k_failures=k,
        pieces=decomposition.num_pieces,
        base_paths=decomposition.num_base_paths,
        extra_edges=decomposition.num_extra_edges,
        claimed=f"k+1 = {k + 1} base paths + k = {k} edges",
        matches=decomposition.num_base_paths == k + 1
        and decomposition.num_extra_edges == k,
    )


def figure4(n: int) -> TightnessResult:
    """Execute the Figure 4 hub-and-ring construction for size *n*."""
    graph, hub, s, t = two_level_star(n)
    decomposition = _decompose(graph, failed_nodes=[hub], s=s, t=t, weighted=False)
    lower_bound = (n - 1) // 4
    return TightnessResult(
        figure="Fig 4 hub+ring",
        parameter=n,
        k_failures=1,  # one router
        pieces=decomposition.num_pieces,
        base_paths=decomposition.num_base_paths,
        extra_edges=decomposition.num_extra_edges,
        claimed=f">= (n-1)/4 = {lower_bound} pieces for ONE router failure",
        matches=decomposition.num_pieces >= lower_bound,
    )


def figure5(n: int) -> TightnessResult:
    """Execute the Figure 5 directed counterexample for size *n*."""
    graph, failed, s, t = directed_counterexample(n)
    decomposition = _decompose(graph, failed_edges=[failed], s=s, t=t, weighted=False)
    lower_bound = (n - 3) // 3
    return TightnessResult(
        figure="Fig 5 directed",
        parameter=n,
        k_failures=1,
        pieces=decomposition.num_pieces,
        base_paths=decomposition.num_base_paths,
        extra_edges=decomposition.num_extra_edges,
        claimed=f">= ~(n-2)/3 = {lower_bound} pieces for ONE edge failure",
        matches=decomposition.num_pieces >= lower_bound,
    )


def run(
    comb_ks: tuple[int, ...] = (1, 2, 3, 5, 8),
    star_sizes: tuple[int, ...] = (12, 24, 48),
    directed_sizes: tuple[int, ...] = (12, 24, 48),
) -> list[TightnessResult]:
    """Compute the experiment's results at the given parameters."""
    results = [figure2(k) for k in comb_ks]
    results += [figure3(k) for k in comb_ks]
    results += [figure4(n) for n in star_sizes]
    results += [figure5(n) for n in directed_sizes]
    return results


def render(results: list[TightnessResult]) -> str:
    """Render the computed results as a paper-style text report."""
    rows = [
        [
            r.figure,
            r.parameter,
            r.k_failures,
            r.pieces,
            r.base_paths,
            r.extra_edges,
            r.claimed,
            "OK" if r.matches else "MISMATCH",
        ]
        for r in results
    ]
    return format_table(
        ["figure", "param", "k", "pieces", "base", "edges", "claim", "check"],
        rows,
        title="Figures 2-5: extremal constructions, executed",
    )


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = ("kernel_backend",)


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("theory_figures", __doc__, CONFIG_FIELDS, argv)
    with cli.timer.stage("constructions"):
        results = run()
    with cli.timer.stage("render"):
        report = render(results)
    print(report)
    cli.write_bench(
        {
            "cases": len(results),
            "figures": sorted({r.figure for r in results}),
            "matches": sum(1 for r in results if r.matches),
        }
    )
    return report


if __name__ == "__main__":
    main()
