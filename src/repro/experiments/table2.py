"""Table 2 — source-router RBPC under 1/2 link and 1/2 router failures.

For every network and failure mode, reproduces the paper's columns:
min/avg ILM stretch factor, average PC length, length stretch factor,
and redundancy (with the max shortest-path multiplicity annotation for
the single-link rows).

Run with ``python -m repro.experiments.table2 [--scale small]``.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import asdict, replace
from typing import Optional

from ..core.base_paths import UniqueShortestPathsBase
from ..core.cache import shared_unique_base
from ..failures.sampler import FAILURE_MODES, FailureCase, sample_pairs
from ..graph.graph import Graph
from ..graph.spt import max_shortest_path_multiplicity
from ..obs import TRACER
from ..policies import (
    DEFAULT_POLICY,
    active_failure_model_name,
    active_policy_name,
    make_failure_model,
    make_policy,
)
from ..perf import COUNTERS
from .bench import ExperimentRun, StageTimer
from .ilm_accounting import IlmAccountant, scenarios_from_cases
from .metrics import CaseResult, TableTwoRow, build_row
from .networks import ExperimentNetwork, cached_suite
from .parallel import (
    ilm_scenario_chunk,
    make_executor,
    publish_suite,
    resolve_jobs,
    run_chunked,
    run_weighted,
    table2_case_chunk,
    weighted_chunks,
)
from .reporting import format_table

#: Published Table 2, for EXPERIMENTS.md comparison:
#: (network, mode) -> (min ILM %, avg ILM %, avg PC, length s.f., redundancy %)
PAPER_TABLE2 = {
    ("ISP, Weighted", "link"): (12.5, 25.6, 2.05, 1.15, 16.5),
    ("ISP, Unweighted", "link"): (20.0, 32.3, 2.00, 1.14, 24.0),
    ("Internet", "link"): (16.7, 22.8, 2.00, 1.08, 58.6),
    ("AS Graph", "link"): (25.0, 32.7, 2.00, 1.19, 47.2),
    ("ISP, Weighted", "two-links"): (2.3, 6.1, 2.38, 1.77, 8.45),
    ("ISP, Unweighted", "two-links"): (3.6, 8.5, 2.20, 1.34, 10.0),
    ("Internet", "two-links"): (3.0, 4.7, 2.06, 1.15, 21.0),
    ("AS Graph", "two-links"): (7.1, 16.4, 2.09, 1.32, 13.0),
    ("ISP, Weighted", "router"): (25.0, 43.7, 2.10, 1.38, 23.0),
    ("ISP, Unweighted", "router"): (20.0, 36.8, 2.03, 1.18, 26.0),
    ("Internet", "router"): (12.5, 21.1, 2.02, 1.08, 55.3),
    ("AS Graph", "router"): (25.0, 38.5, 2.03, 1.26, 17.0),
    ("ISP, Weighted", "two-routers"): (5.26, 11.1, 2.43, 1.57, 8.1),
    ("ISP, Unweighted", "two-routers"): (6.67, 13.3, 2.21, 1.44, 9.1),
    ("Internet", "two-routers"): (2.50, 4.1, 2.23, 1.17, 11.5),
    ("AS Graph", "two-routers"): (8.33, 18.5, 2.17, 1.31, 12.8),
}

MODE_TITLES = {
    "link": "After one link failure",
    "two-links": "After two link failures",
    "router": "After one router failure",
    "two-routers": "After two router failures",
}


def run_case(
    graph: Graph,
    base: UniqueShortestPathsBase,
    case: FailureCase,
    weighted: bool,
) -> CaseResult:
    """Evaluate one (demand, scenario) unit: backup path + decomposition.

    The historical entry point, kept as a thin delegator to the
    default policy: the backup search runs on the shared SPT cache
    under the canonical tie contract and the decomposition DP covers
    the result with the fewest base LSPs.  The pipeline body lives in
    :meth:`~repro.policies.schemes.ConcatenationPolicy.evaluate_case`,
    which runs it in CSR index space, so this function and the policy
    layer are byte-identical by construction.
    """
    from ..policies.schemes import ConcatenationPolicy

    return ConcatenationPolicy(graph, base, weighted).evaluate_case(case)


#: Demand universes above this node count use sampled sources only in
#: the per-link ILM accounting (all-pairs universes stop being tractable).
ALL_PAIRS_ILM_LIMIT = 400

#: Default scenario cap per network/mode in per-link ILM accounting
#: (recorded in the BENCH payload as an ILM-chunking parameter).
ILM_MAX_SCENARIOS = 200


def ilm_demand_sources(graph: Graph, pairs) -> Optional[list]:
    """The per-link accounting's demand universe for *graph*.

    ``None`` selects the all-pairs universe (small graphs); above
    :data:`ALL_PAIRS_ILM_LIMIT` nodes only the sampled sources are
    charged.  Shared by the sequential branch and the worker chunks so
    both build the identical universe.
    """
    if graph.number_of_nodes() <= ALL_PAIRS_ILM_LIMIT:
        return None
    return sorted({s for s, _ in pairs}, key=repr)


def ilm_scenarios(base, pairs, mode: str, max_scenarios: int, model=None):
    """The deterministic scenario list for one network/mode.

    Sampled pairs -> per-pair failure cases (expanded by the active
    failure *model*) -> deduplicated scenarios, thinned to
    *max_scenarios* by an evenly spaced subsample (keeps the
    accounting tractable on the quadratic two-failure modes without
    biasing toward any demand).  Workers rebuild this list from the
    same inputs, so chunk bounds index the identical sequence.
    """
    if model is None:
        model = make_failure_model(active_failure_model_name(), base.graph)
    cases: list[FailureCase] = []
    for pair in pairs:
        cases.extend(model.cases_for_pair(pair, base.path_for(*pair), mode))
    scenarios = scenarios_from_cases(cases)
    if len(scenarios) > max_scenarios:
        step = len(scenarios) / max_scenarios
        scenarios = [scenarios[int(i * step)] for i in range(max_scenarios)]
    return scenarios


def evaluate_network(
    network: ExperimentNetwork,
    modes: tuple[str, ...] = FAILURE_MODES,
    seed: int = 1,
    with_multiplicity: bool = True,
    ilm_accounting: str = "per-pair",
    ilm_max_scenarios: int = ILM_MAX_SCENARIOS,
    jobs: int = 1,
    suite_ref: Optional[tuple[str, int, int]] = None,
    executor: Optional[Executor] = None,
    timer: Optional[StageTimer] = None,
    stats: Optional[dict] = None,
    policy: Optional[str] = None,
    failure_model: Optional[str] = None,
) -> dict[str, TableTwoRow]:
    """All Table 2 rows for one network.

    *ilm_accounting* selects how the ILM stretch columns are computed:

    * ``"per-pair"`` (fast, default) — numerator and denominator scoped
      to the sampled demands only;
    * ``"per-link"`` (faithful to Section 4's pre-provisioning
      description) — every sampled failure scenario is charged for
      backing up *every* affected demand of the universe (all pairs on
      ISP-sized graphs, all demands from the sampled sources on the
      large ones); see :mod:`repro.experiments.ilm_accounting`.

    With *executor* and *suite_ref* ``(scale, seed, network index)``
    given and ``jobs > 1``, the failure cases — and, in per-link mode,
    the accounting's failure scenarios — are fanned out over worker
    processes per mode; chunk reassembly (and the order-free
    accountant-state merge) keeps every row byte-identical to the
    sequential loop; workers inherit the state
    :func:`~repro.experiments.parallel.publish_suite` built.
    *timer*/*stats*, when given, receive per-stage wall-clock and case
    counts for the BENCH output.

    *policy*/*failure_model* select the restoration policy and the
    failure model by registry name (``None`` reads the active
    selection, i.e. the ``--policy``/``--failure-model`` flags or the
    ``REPRO_POLICY``/``REPRO_FAILURE_MODEL`` environment).  The
    defaults route every case through the exact pre-policy pipeline.
    """
    if ilm_accounting not in ("per-pair", "per-link"):
        raise ValueError(f"unknown ilm_accounting {ilm_accounting!r}")
    policy_name = policy if policy is not None else active_policy_name()
    model_name = (
        failure_model if failure_model is not None else active_failure_model_name()
    )
    if ilm_accounting == "per-link" and policy_name != DEFAULT_POLICY:
        raise ValueError(
            "per-link ILM accounting is defined for the concatenation "
            f"policy only (got policy {policy_name!r}); use the default "
            "per-pair accounting to compare policies"
        )
    timer = timer if timer is not None else StageTimer()
    stats = stats if stats is not None else {}
    graph = network.graph
    base = shared_unique_base(graph)
    active = make_policy(policy_name, graph, base=base, weighted=network.weighted)
    model = make_failure_model(model_name, graph, seed=seed)
    pairs = sample_pairs(graph, network.sample_pairs, seed=seed)
    with timer.stage("primaries"):
        primaries = {pair: base.path_for(*pair) for pair in pairs}

    max_multiplicity: Optional[int] = None
    if with_multiplicity:
        with timer.stage("multiplicity"):
            # One kernel counting pass per distinct source (sources
            # repeat across sampled pairs).
            max_multiplicity = max_shortest_path_multiplicity(
                graph, list(dict.fromkeys(s for s, _ in pairs))
            )

    rows: dict[str, TableTwoRow] = {}
    for mode in modes:
        results: list[CaseResult] = []
        with timer.stage("cases"):
            if executor is not None and suite_ref is not None and jobs > 1:
                scale, suite_seed, index = suite_ref
                results = run_chunked(
                    executor,
                    table2_case_chunk,
                    (scale, suite_seed, index, mode, policy_name,
                     model_name),
                    len(pairs),
                    jobs,
                )
            else:
                for pair in pairs:
                    for case in model.cases_for_pair(pair, primaries[pair], mode):
                        results.append(active.evaluate_case(case))
        stats["cases"] = stats.get("cases", 0) + len(results)
        row = build_row(
            network.name,
            mode,
            results,
            max_multiplicity=max_multiplicity if mode == "link" else None,
        )
        if ilm_accounting == "per-link":
            with timer.stage("ilm-per-link"):
                accountant = IlmAccountant(
                    graph,
                    base,
                    demand_sources=ilm_demand_sources(graph, pairs),
                    weighted=network.weighted,
                )
                scenarios = ilm_scenarios(
                    base, pairs, mode, ilm_max_scenarios, model=model
                )
                if executor is not None and suite_ref is not None and jobs > 1:
                    scale, suite_seed, index = suite_ref
                    # Cost-model pass: estimate each scenario's repair
                    # work from pre-failure subtree sizes, then
                    # LPT-pack scenarios into cost-balanced chunks
                    # submitted heaviest-first.
                    costs = accountant.plan_scenarios(scenarios)
                    chunk_exports = run_weighted(
                        executor,
                        ilm_scenario_chunk,
                        (scale, suite_seed, index, mode,
                         ilm_max_scenarios, model_name),
                        weighted_chunks(costs, jobs),
                        jobs,
                        len(scenarios),
                    )
                    COUNTERS.ilm_scenario_chunks += len(chunk_exports)
                    for state in chunk_exports:
                        accountant.merge_state(state)
                else:
                    accountant.process_scenarios(scenarios)
                min_sf, avg_sf = accountant.stretch_factors()
                row = replace(row, min_ilm_stretch=min_sf, avg_ilm_stretch=avg_sf)
        rows[mode] = row
    return rows


def render(all_rows: dict[str, list[TableTwoRow]]) -> str:
    """Paper-layout rendering: one block per failure mode."""
    blocks = []
    headers = [
        "Network",
        "min ILM s.f.",
        "avg ILM s.f.",
        "avg PC len",
        "Length s.f.",
        "Redundancy",
        "(max)",
        "paper: PC/len/red",
    ]
    for mode, rows in all_rows.items():
        table_rows = []
        for row in rows:
            paper = PAPER_TABLE2.get((row.network, mode))
            paper_txt = (
                f"{paper[2]:.2f}/{paper[3]:.2f}/{paper[4]:.1f}%" if paper else "-"
            )
            table_rows.append(
                [
                    row.network,
                    f"{row.min_ilm_stretch:.1f}%",
                    f"{row.avg_ilm_stretch:.1f}%",
                    f"{row.avg_pc_length:.2f}",
                    f"{row.length_stretch:.2f}",
                    f"{row.redundancy:.1f}%",
                    row.max_multiplicity if row.max_multiplicity is not None else "",
                    paper_txt,
                ]
            )
        blocks.append(
            format_table(headers, table_rows, title=f"{MODE_TITLES[mode]}.")
        )
    return "\n\n".join(blocks)


def run(
    scale: str = "small",
    seed: int = 1,
    modes: tuple[str, ...] = FAILURE_MODES,
    ilm_accounting: str = "per-pair",
    jobs: int = 1,
    timer: Optional[StageTimer] = None,
    stats: Optional[dict] = None,
    policy: Optional[str] = None,
    failure_model: Optional[str] = None,
) -> dict[str, list[TableTwoRow]]:
    """Full Table 2: mode -> rows across the four networks.

    ``jobs > 1`` fans the failure cases out over worker processes
    (``0`` = auto); the rows are byte-identical regardless of *jobs*.
    *policy*/*failure_model* default to the active registry selection.
    """
    jobs = resolve_jobs(jobs)
    with timer.stage("topologies") if timer else _null():
        networks = cached_suite(scale=scale, seed=seed)
    executor = make_executor(jobs)
    try:
        if executor is not None:
            # Build every network's CSR, base set and warm pair-source
            # rows before the first submit: forked workers inherit
            # them instead of rebuilding their own.  (The stage name
            # predates fork inheritance; perfbench counts it as set-up.)
            with timer.stage("shm-publish") if timer else _null():
                publish_suite(
                    networks, with_base=True, with_rows=True, seed=seed
                )
        per_network = [
            evaluate_network(
                n,
                modes=modes,
                seed=seed,
                ilm_accounting=ilm_accounting,
                jobs=jobs,
                suite_ref=(scale, seed, index),
                executor=executor,
                timer=timer,
                stats=stats,
                policy=policy,
                failure_model=failure_model,
            )
            for index, n in enumerate(networks)
        ]
    finally:
        if executor is not None:
            executor.shutdown()
    return {
        mode: [rows[mode] for rows in per_network] for mode in modes
    }


def _null():
    """A no-op context manager (placeholder when no timer is passed)."""
    from contextlib import nullcontext

    return nullcontext()


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = (
    "scale", "seed", "modes", "ilm_accounting", "jobs", "policy",
    "failure_model", "kernel_backend",
)


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("table2", __doc__, CONFIG_FIELDS, argv)
    config = cli.config
    stats: dict = {}
    with TRACER.span("table2", scale=config.scale, seed=config.seed):
        all_rows = run(
            scale=config.scale,
            seed=config.seed,
            modes=config.modes,
            ilm_accounting=config.ilm_accounting,
            jobs=config.jobs,
            timer=cli.timer,
            stats=stats,
            policy=config.policy,
            failure_model=config.failure_model,
        )
        with cli.timer.stage("render"):
            report = render(all_rows)
    print(report)
    out = cli.write_bench(
        {
            "ilm_max_scenarios": ILM_MAX_SCENARIOS,
            "cases": stats.get("cases", 0),
            "rows": {
                mode: [asdict(row) for row in rows]
                for mode, rows in all_rows.items()
            },
        }
    )
    if out is not None:
        print(f"[bench] wrote {out}")
    return report


if __name__ == "__main__":
    main()
