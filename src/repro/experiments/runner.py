"""Run the complete evaluation: every table and figure, in paper order.

``python -m repro.experiments.runner [--scale small] [--out results.txt]``
"""

from __future__ import annotations

import argparse
from pathlib import Path as FilePath

from ..obs import TRACER
from . import figure10, table1, table2, table3, theory_figures
from .bench import ExperimentRun, StageTimer
from .networks import cached_suite


def run_all(
    scale: str = "small",
    seed: int = 1,
    ilm: str = "per-pair",
    jobs: int = 1,
    timer: StageTimer | None = None,
    policy: str | None = None,
    failure_model: str | None = None,
) -> str:
    """Run every table and figure in paper order; returns the report.

    With *timer* given, each section's wall-clock lands in a stage of
    its own — the consolidated ``BENCH_runner.json`` is built from it.
    *policy* and *failure_model* reach Table 2, and *failure_model*
    also Table 3 and Figure 10; ``None`` reads the active selection.
    """
    if timer is None:
        timer = StageTimer(prefix="runner")
    sections = []
    for name, stage, runner in (
        ("Table 1", "table1", lambda: table1.render(table1.collect(cached_suite(scale=scale, seed=seed)))),
        ("Table 2", "table2", lambda: table2.render(table2.run(
            scale=scale, seed=seed, ilm_accounting=ilm, jobs=jobs,
            policy=policy, failure_model=failure_model,
        ))),
        ("Table 3", "table3", lambda: table3.render(table3.run(
            scale=scale, seed=seed, jobs=jobs, failure_model=failure_model,
        ))),
        ("Figure 10", "figure10", lambda: figure10.render(figure10.run(
            scale=scale, seed=seed, jobs=jobs, failure_model=failure_model,
        ))),
        ("Figures 2-5", "theory_figures", lambda: theory_figures.render(theory_figures.run())),
    ):
        with timer.stage(stage):
            body = runner()
        sections.append(f"==== {name} ({timer.as_dict()[stage]:.1f}s) ====\n{body}")
    return "\n\n".join(sections)


#: The RunConfig fields this CLI reads (and stamps).
CONFIG_FIELDS = (
    "scale", "seed", "ilm_accounting", "jobs", "policy", "failure_model",
    "kernel_backend",
)


def _out_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="also write the report to PATH",
    )


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; prints and returns the report."""
    cli = ExperimentRun("runner", __doc__, CONFIG_FIELDS, argv, _out_option)
    config = cli.config
    with TRACER.span("runner", scale=config.scale, seed=config.seed):
        report = run_all(
            scale=config.scale,
            seed=config.seed,
            ilm=config.ilm_accounting,
            jobs=config.jobs,
            timer=cli.timer,
            policy=config.policy,
            failure_model=config.failure_model,
        )
    print(report)
    if cli.args.out:
        FilePath(cli.args.out).write_text(report + "\n")
    cli.write_bench(
        {
            "ilm_max_scenarios": table2.ILM_MAX_SCENARIOS,
            "sections": cli.timer.as_dict(),
        }
    )
    return report


if __name__ == "__main__":
    main()
