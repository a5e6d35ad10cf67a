"""Printable ablation report: the design-choice comparisons, as a CLI.

Mirrors ``benchmarks/bench_ablation.py`` / ``bench_baselines.py`` /
``bench_merging.py`` in report form, so the trade-offs can be read
without pytest:

* decomposition algorithms (greedy vs. optimal; probe strategies);
* base-set flavors (PC length vs. set size);
* restoration cost ledger (RBPC vs. teardown + re-signal);
* provisioning modes (per-pair LSPs vs. merged label trees);
* schemes vs. baselines (coverage and stretch).

Run with ``python -m repro.experiments.ablation [--size 80] [--seed 1]``.
"""

from __future__ import annotations

import time

from ..core.base_paths import (
    AllShortestPathsBase,
    UniqueShortestPathsBase,
    expanded_base_set,
    provision_base_set,
)
from ..core.decomposition import greedy_decompose, min_pieces_decompose
from ..core.restoration import SourceRouterRbpc, plan_restoration
from ..exceptions import NoPath, NoRestorationPath
from ..failures.models import FailureScenario
from ..failures.sampler import sample_pairs
from ..graph.shortest_paths import shortest_path
from ..mpls.merging import provision_all_trees, provision_edge_lsps
from ..mpls.network import MplsNetwork
from ..policies import (
    DEFAULT_POLICY,
    make_failure_model,
    make_policy,
    policy_names,
)
from ..topology.isp import generate_isp_topology
from .bench import ExperimentRun
from .reporting import format_table


def _workload(graph, base, pairs, model=None):
    """(backup path, scenario, demand) per on-path single-link failure.

    A non-default failure *model* expands each failed link into its
    correlated fault set before the backup search; the default model's
    expansion is the single link itself.
    """
    cases = []
    for s, t in pairs:
        primary = base.path_for(s, t)
        for failed in primary.edge_keys():
            if model is not None:
                scenario = model.scenario_for_link(failed)
            else:
                scenario = FailureScenario.link_set([failed])
            try:
                backup = shortest_path(scenario.apply(graph), s, t)
            except NoPath:
                continue
            cases.append((backup, scenario, (s, t)))
    return cases


def pc_distribution_report(graph, base, cases) -> str:
    """§4's sentence, as numbers: how many pieces restorations need."""
    from collections import Counter

    counts: Counter = Counter()
    for backup, _, _ in cases:
        counts[min_pieces_decompose(backup, base).num_pieces] += 1
    total = sum(counts.values())
    rows = [
        [pieces, count, f"{100.0 * count / total:.1f}%"]
        for pieces, count in sorted(counts.items())
    ]
    return format_table(
        ["PC length", "restorations", "share"],
        rows,
        title="PC length distribution (single-link failures)",
    )


def decomposition_report(graph, base, cases) -> str:
    """Compare decomposition algorithms on the workload."""
    rows = []
    for name, fn in (
        ("greedy/binary", lambda b: greedy_decompose(b, base, prefix_probe="binary")),
        ("greedy/linear", lambda b: greedy_decompose(b, base, prefix_probe="linear")),
        ("optimal DP", lambda b: min_pieces_decompose(b, base)),
    ):
        start = time.perf_counter()
        decompositions = [fn(backup) for backup, _, _ in cases]
        elapsed = (time.perf_counter() - start) * 1000
        avg = sum(d.num_pieces for d in decompositions) / len(decompositions)
        rows.append([name, f"{avg:.3f}", f"{elapsed:.1f} ms"])
    return format_table(
        ["algorithm", "avg pieces", "total time"],
        rows,
        title=f"Decomposition over {len(cases)} restoration paths",
    )


def base_set_report(graph, pairs) -> str:
    """Compare base-set flavors on PC length and size."""
    cases_base = UniqueShortestPathsBase(graph)
    rows = []
    for name, base, size in (
        ("all shortest paths", AllShortestPathsBase(graph), "implicit"),
        ("unique per pair", cases_base, "n(n-1) implicit"),
        (
            "Corollary 4 expanded",
            expanded_base_set(graph, seed=1),
            str(len(expanded_base_set(graph, seed=1))),
        ),
    ):
        cases = _workload(graph, cases_base, pairs)
        lengths = []
        for backup, _, _ in cases:
            lengths.append(min_pieces_decompose(backup, base).num_pieces)
        rows.append([name, f"{sum(lengths) / len(lengths):.3f}", size])
    return format_table(
        ["base set", "avg PC length", "stored paths"],
        rows,
        title="Base-set flavors (single-link failures)",
    )


def signaling_report(graph, base, pairs) -> str:
    """Compare RBPC's ledger against teardown + re-signal."""
    net = MplsNetwork(graph)
    # Provision the full all-pairs base set plus all single-edge paths:
    # under the unique (sub-path-closed) base every decomposition piece
    # is then already an LSP, and restoration needs zero signaling.
    registry = provision_base_set(net, base, include_edges=True)
    scheme = SourceRouterRbpc(net, base, registry)
    rbpc_messages = rebuild_messages = restorations = 0
    for s, t in pairs:
        primary = base.path_for(s, t)
        net.set_fec(s, t, [registry[primary]])
        failed = next(iter(primary.edge_keys()))
        net.fail_link(*failed)
        before = net.ledger.total_messages
        try:
            action = scheme.restore(s, t)
        except NoRestorationPath:
            net.restore_link(*failed)
            continue
        rbpc_messages += net.ledger.total_messages - before
        rebuild_messages += primary.hops + 2 * action.decomposition.path.hops
        restorations += 1
        net.restore_link(*failed)
        scheme.recover(s, t)
    rows = [
        ["RBPC (FEC rewrite)", restorations, rbpc_messages],
        ["teardown + re-signal", restorations, rebuild_messages],
    ]
    return format_table(
        ["scheme", "restorations", "signaling messages"],
        rows,
        title="Restoration signaling cost",
    )


def provisioning_report(graph, base) -> str:
    """Compare per-pair LSPs against merged label trees."""
    net_pairs = MplsNetwork(graph)
    provision_base_set(net_pairs, base)
    net_merged = MplsNetwork(graph)
    provision_all_trees(net_merged, base)
    provision_edge_lsps(net_merged)
    rows = [
        ["per-pair LSPs", net_pairs.total_ilm_size(), net_pairs.max_ilm_size()],
        ["merged trees + edge LSPs", net_merged.total_ilm_size(), net_merged.max_ilm_size()],
    ]
    return format_table(
        ["provisioning", "total ILM entries", "max per router"],
        rows,
        title="All-pairs base-set provisioning cost",
    )


def baseline_report(graph, base, pairs, model=None) -> str:
    """Score RBPC against every other registered restoration policy.

    Registry-driven: any policy registered under
    :data:`repro.policies.POLICIES` (baselines, MRC, the do-not-restore
    floor, future additions) lands in the comparison automatically,
    labeled by its ``title``.  RBPC itself is scored through
    :func:`~repro.core.restoration.plan_restoration`, the full
    provisioning-aware pipeline the other reports exercise.
    """
    cases = _workload(graph, base, pairs, model=model)
    rows = []

    restored = 0
    for backup, scenario, (s, t) in cases:
        try:
            plan_restoration(scenario.apply(graph), base, s, t)
            restored += 1
        except NoRestorationPath:
            pass
    rows.append(["RBPC", f"{100.0 * restored / len(cases):.1f}%", "1.000"])

    for name in policy_names():
        if name == DEFAULT_POLICY:
            continue
        scheme = make_policy(name, graph, base=base, weighted=True)
        outcomes = [scheme.restore(s, t, sc) for _, sc, (s, t) in cases]
        covered = [o for o in outcomes if o.restored]
        stretches = [o.stretch for o in covered if o.stretch is not None]
        rows.append(
            [
                scheme.title,
                f"{100.0 * len(covered) / len(outcomes):.1f}%",
                f"{sum(stretches) / len(stretches):.3f}" if stretches else "-",
            ]
        )
    return format_table(
        ["scheme", "coverage", "avg cost stretch"],
        rows,
        title="RBPC vs. related-work baselines (single-link failures)",
    )


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = ("size", "pairs", "seed", "failure_model", "kernel_backend")


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("ablation", __doc__, CONFIG_FIELDS, argv)
    config = cli.config
    with cli.timer.stage("workload"):
        graph = generate_isp_topology(n=config.size, seed=config.seed)
        base = UniqueShortestPathsBase(graph)
        model = make_failure_model(config.failure_model, graph, seed=config.seed)
        pairs = sample_pairs(graph, config.pairs, seed=config.seed)
        cases = _workload(graph, base, pairs, model=model)

    sections = []
    for stage, build in (
        ("pc_distribution", lambda: pc_distribution_report(graph, base, cases)),
        ("decomposition", lambda: decomposition_report(graph, base, cases)),
        ("base_set", lambda: base_set_report(graph, pairs)),
        ("signaling", lambda: signaling_report(graph, base, pairs)),
        ("provisioning", lambda: provisioning_report(graph, base)),
        ("baselines", lambda: baseline_report(graph, base, pairs, model=model)),
    ):
        with cli.timer.stage(stage):
            sections.append(build())
    report = "\n\n".join(sections)
    print(report)
    cli.write_bench({"cases": len(cases)})
    return report


if __name__ == "__main__":
    main()
