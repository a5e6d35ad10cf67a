"""One definition of what an experiment run measured: :class:`RunConfig`.

Every setting that selects the work an experiment CLI does is one
field here, with its flag, default and help text.  Each CLI declares
the fields its run reads; :func:`add_arguments` builds those flags,
:meth:`RunConfig.from_args` applies them (``--kernel`` is installed
before any worker fork), and the BENCH writer
(:class:`~repro.experiments.bench.ExperimentRun`) stamps exactly the
declared fields into the ``BENCH_*.json`` header.  Two runs are
comparable only when they agree on :data:`COMPARABILITY_KEYS`, which
is computed from this class: ``python -m repro.obs diff``, ``trend``,
``report`` and the run ledger all read that one key set.

Adding a setting means adding a field.  This module imports neither
:mod:`repro.obs` nor :mod:`repro.experiments` at import time (the
``--scale`` choices are read when a parser is built), so the ledger
can depend on it without a cycle.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields
from typing import Any, Optional, Sequence

from .failures.sampler import FAILURE_MODES
from .kernels import KERNEL_CHOICES, backend_name, set_backend
from .policies.registry import (
    DEFAULT_FAILURE_MODEL,
    DEFAULT_POLICY,
    active_failure_model_name,
    active_policy_name,
    failure_model_names,
    policy_names,
)


def _scales() -> list[str]:
    from .experiments.networks import scales

    return scales()


def non_negative_int(text: str) -> int:
    """An argparse ``type``: an int >= 0, else a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _option(flag: str, default: Any, **argparse_kwargs: Any) -> Any:
    """A field whose command-line spelling is *flag*; a callable
    ``choices`` is resolved when the parser is built."""
    return field(default=default, metadata={"flag": flag, **argparse_kwargs})


@dataclass(frozen=True)
class RunConfig:
    """Every setting that selects the work an experiment run does.

    Fields a CLI does not declare keep these defaults and are neither
    parsed nor stamped.  ``policy``, ``failure_model`` and
    ``kernel_backend`` left unset on the command line resolve from the
    process (``REPRO_POLICY``, ``REPRO_FAILURE_MODEL``, the active
    kernel backend), so a parsed config records what actually ran.
    """

    scale: str = _option("--scale", "small", choices=_scales)
    seed: int = _option("--seed", 1, type=int)
    jobs: int = _option(
        "--jobs", 1, type=non_negative_int,
        help="worker processes for the fan-out (0 = auto)",
    )
    modes: tuple[str, ...] = _option(
        "--modes", FAILURE_MODES, nargs="+", choices=FAILURE_MODES,
    )
    ilm_accounting: str = _option(
        "--ilm", "per-pair", choices=("per-pair", "per-link"),
        help="ILM stretch accounting (per-link is the faithful Section 4 "
             "comparison; slower)",
    )
    max_links: Optional[int] = _option(
        "--max-links", None, type=int,
        help="cap on links sampled per network (every link by default)",
    )
    size: int = _option("--size", 80, type=int, help="ISP size (nodes)")
    pairs: int = _option("--pairs", 20, type=int, help="sampled demand pairs")
    policy: str = _option(
        "--policy", DEFAULT_POLICY, choices=policy_names,
        help=f"restoration policy (default: env REPRO_POLICY or "
             f"{DEFAULT_POLICY!r}, the paper's scheme)",
    )
    failure_model: str = _option(
        "--failure-model", DEFAULT_FAILURE_MODEL, choices=failure_model_names,
        help=f"failure generation model (default: env REPRO_FAILURE_MODEL "
             f"or {DEFAULT_FAILURE_MODEL!r}, the paper's independent "
             f"on-path sampling)",
    )
    kernel_backend: str = _option(
        "--kernel", "auto", choices=KERNEL_CHOICES,
        help="kernel backend (default: env REPRO_KERNEL or 'auto': native "
             "when a C toolchain is present, else the pure-python "
             "reference; outputs are bit-identical either way)",
    )

    @classmethod
    def from_args(
        cls, args: argparse.Namespace, names: Sequence[str]
    ) -> "RunConfig":
        """The config the parsed flags of the declared *names* select.

        Installs an explicit ``--kernel`` process-wide first (call
        before any worker fork) and records the backend that resolved,
        never ``auto``; an unset policy or failure model is the active
        one.
        """
        values = {name: getattr(args, name) for name in names}
        if "kernel_backend" in values:
            if values["kernel_backend"] is not None:
                set_backend(values["kernel_backend"])
            values["kernel_backend"] = backend_name()
        for name, active in (
            ("policy", active_policy_name),
            ("failure_model", active_failure_model_name),
        ):
            if name in values and values[name] is None:
                values[name] = active()
        if "modes" in values:
            values["modes"] = tuple(values["modes"])
        return cls(**values)


def add_arguments(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    """Attach the flags of the declared :class:`RunConfig` field *names*.

    The process-resolved fields default to ``None`` on the command line
    (:meth:`RunConfig.from_args` fills them in).
    """
    by_name = {f.name: f for f in fields(RunConfig)}
    for name in names:
        spec = dict(by_name[name].metadata)
        flag = spec.pop("flag")
        if callable(spec.get("choices")):
            spec["choices"] = spec["choices"]()
        default = by_name[name].default
        if name in ("policy", "failure_model", "kernel_backend"):
            default = None
        parser.add_argument(flag, dest=name, default=default, **spec)


#: Header fields every ``BENCH_*.json`` carries from the process rather
#: than from a flag: the tie rule, the SPT-repair fallback threshold,
#: shared-memory availability, the kernel backend, and ``jobs`` (1
#: unless the CLI declares the field).
ENVIRONMENT_KEYS = (
    "tie_order", "repair_fallback", "shm_enabled", "kernel_backend", "jobs",
)

#: Result fields that pin the workload inside one config: the case
#: count, and the scenario cap of per-link ILM accounting.
WORKLOAD_KEYS = ("cases", "ilm_max_scenarios")

#: Fields two runs must share before their numbers may be diffed or
#: trended against each other: the experiment name, every
#: :class:`RunConfig` field, the workload pins and the environment.
COMPARABILITY_KEYS = tuple(dict.fromkeys((
    "name",
    *(f.name for f in fields(RunConfig)),
    *WORKLOAD_KEYS,
    *ENVIRONMENT_KEYS,
)))
