"""Pluggable restoration policies and failure models.

* :mod:`repro.policies.base` — the :class:`RestorationPolicy` contract
  (``provision`` / ``restore`` / ``ilm_entries`` / ``name``) and the
  uniform :class:`RestorationOutcome` result shape.
* :mod:`repro.policies.registry` — string-keyed registries, the
  ``REPRO_POLICY`` / ``REPRO_FAILURE_MODEL`` selection (with the
  pre-fork env export the kernel backends use).
* :mod:`repro.policies.schemes` — the built-ins: the paper's
  concatenation scheme, the related-work baselines, MRC
  (arXiv:1212.0311), and the do-not-restore floor.
* :mod:`repro.policies.bounds` — Bodwin–Wang (arXiv:2309.07964)
  concatenation-bound checking for the k >= 2 regime.

Failure models live with the sampling machinery in
:mod:`repro.failures.generators` and register here.  See
``docs/policies.md`` for the contract and how to add either kind.

The scheme implementations import core/experiment modules that
themselves import :mod:`repro.policies.base`, so this package imports
them lazily: the registries populate on first use
(:func:`~repro.policies.registry.ensure_registered`).
"""

from .base import RestorationOutcome, RestorationPolicy
from .registry import (
    DEFAULT_FAILURE_MODEL,
    DEFAULT_POLICY,
    FAILURE_MODELS,
    POLICIES,
    active_failure_model_name,
    active_policy_name,
    ensure_registered,
    failure_model_names,
    make_failure_model,
    make_policy,
    policy_names,
    set_failure_model,
    set_policy,
)

__all__ = [
    "DEFAULT_FAILURE_MODEL",
    "DEFAULT_POLICY",
    "FAILURE_MODELS",
    "POLICIES",
    "RestorationOutcome",
    "RestorationPolicy",
    "active_failure_model_name",
    "active_policy_name",
    "ensure_registered",
    "failure_model_names",
    "make_failure_model",
    "make_policy",
    "policy_names",
    "set_failure_model",
    "set_policy",
]
