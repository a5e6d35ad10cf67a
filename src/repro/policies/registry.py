"""String-keyed registries for policies and failure models.

Mirrors the :mod:`repro.kernels` selection pattern: a process-wide
active name resolved from an environment variable (``REPRO_POLICY`` /
``REPRO_FAILURE_MODEL``), a ``set_*`` that *exports* the resolved name
back into the environment so forked or spawned workers inherit a
deterministic choice.  The ``--policy`` / ``--failure-model`` flags are
:class:`~repro.runconfig.RunConfig` fields: a CLI that declares them
passes the names to its run explicitly, and worker chunks receive them
as strings.

Registration is idempotent for the same factory and refuses a
conflicting re-bind; unknown names raise with the sorted list of
available names (both pinned by ``tests/test_policies.py``).
"""

from __future__ import annotations

import os
from typing import Any, Callable

#: Environment variables the active selections live in.
POLICY_ENV = "REPRO_POLICY"
FAILURE_MODEL_ENV = "REPRO_FAILURE_MODEL"

#: The paper's scheme / the paper's sampling: today's hard-wired
#: behavior, byte-identical by construction.
DEFAULT_POLICY = "concatenation"
DEFAULT_FAILURE_MODEL = "independent"


class Registry:
    """A named factory table with strict, idempotent registration."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}

    def register(self, name: str, factory: Callable[..., Any]) -> None:
        """Bind *name* to *factory*.

        Re-registering the identical factory is a no-op (module reloads
        and repeated bootstraps are safe); binding a *different*
        factory to a taken name raises — silent shadowing would make
        ``--policy`` runs irreproducible.
        """
        existing = self._factories.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(
                f"{self.kind} {name!r} is already registered "
                f"to a different factory"
            )
        self._factories[name] = factory

    def get(self, name: str) -> Callable[..., Any]:
        """The factory for *name*; unknown names list what exists."""
        try:
            return self._factories[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """Sorted registered names."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


#: The two registries of this package.  Populated by
#: :func:`ensure_registered` (policies from
#: :mod:`repro.policies.schemes`, failure models from
#: :mod:`repro.failures.generators`) — lazily, because the scheme
#: implementations import core/experiment modules that themselves
#: import :mod:`repro.policies.base`.
POLICIES = Registry("policy")
FAILURE_MODELS = Registry("failure model")

_BOOTSTRAPPED = False


def ensure_registered() -> None:
    """Import the built-in policies and failure models (idempotent)."""
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True
    from . import schemes  # noqa: F401  (registers POLICIES)
    from ..failures import generators  # noqa: F401  (registers FAILURE_MODELS)


def _active_name(env: str, default: str, registry: Registry) -> str:
    ensure_registered()
    name = os.environ.get(env, default).strip() or default
    registry.get(name)  # unknown names fail loudly, with the list
    return name


def active_policy_name() -> str:
    """The process-wide policy name (env ``REPRO_POLICY`` or default)."""
    return _active_name(POLICY_ENV, DEFAULT_POLICY, POLICIES)


def active_failure_model_name() -> str:
    """The process-wide failure-model name (env or default)."""
    return _active_name(FAILURE_MODEL_ENV, DEFAULT_FAILURE_MODEL, FAILURE_MODELS)


def set_policy(name: str) -> str:
    """Select a policy process-wide; returns the previously active name.

    Exports the name into ``REPRO_POLICY`` so worker processes — forked
    or spawned — inherit the same resolved choice (the ``REPRO_KERNEL``
    pre-fork export pattern).
    """
    ensure_registered()
    POLICIES.get(name)
    old = active_policy_name()
    os.environ[POLICY_ENV] = name
    return old


def set_failure_model(name: str) -> str:
    """Select a failure model process-wide; returns the previous name."""
    ensure_registered()
    FAILURE_MODELS.get(name)
    old = active_failure_model_name()
    os.environ[FAILURE_MODEL_ENV] = name
    return old


def make_policy(name: str, graph, base=None, weighted: bool = True):
    """Instantiate the policy *name* for one (graph, base, weighted)."""
    ensure_registered()
    return POLICIES.get(name)(graph, base=base, weighted=weighted)


def make_failure_model(name: str, graph, seed: int = 1):
    """Instantiate the failure model *name* for one (graph, seed)."""
    ensure_registered()
    return FAILURE_MODELS.get(name)(graph, seed=seed)


def policy_names() -> list[str]:
    """Registered policy names (sorted)."""
    ensure_registered()
    return POLICIES.names()


def failure_model_names() -> list[str]:
    """Registered failure-model names (sorted)."""
    ensure_registered()
    return FAILURE_MODELS.names()
