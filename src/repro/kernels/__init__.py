"""Runtime-selectable kernel backends for the canonical path engine.

Every hot loop of the reproduction — canonical Dijkstra/BFS row
building (:mod:`repro.graph.csr`), decremental SPT re-settling
(:mod:`repro.graph.incremental`), the flat decomposition DP
(:mod:`repro.core.decomposition`), per-link ILM accounting of one
(scenario, source) pair over its repaired tree (``ilm_account``,
behind :mod:`repro.experiments.ilm_accounting`), and shortest-path
counting over a canonical row's tight-edge DAG (``count_paths``,
behind :mod:`repro.graph.spt` and Table 2's multiplicity column) —
dispatches through the backend selected here.  Two backends ship:

``python``
    The reference implementation: the original pure-Python loops over
    flat buffers, unchanged in behaviour and counter accounting.  Zero
    dependencies — a fresh clone runs on it out of the box.

``native``
    The reference loops compiled: C kernels built at first use with the
    system ``cc`` (cached shared object, zero Python dependencies)
    and driven through ``ctypes`` over the same CSR buffers and masks.
    Runs the *same algorithm* as the reference backend instruction for
    instruction, so outputs and counters stay bit-identical at every
    input size; the equivalence is pinned by ``tests/test_kernels.py``.

Rows cross every layer as flat buffers: each backend returns ``dist``
as ``array('d')`` and ``pred`` as ``array('q')``, and the caches
(:class:`~repro.graph.incremental.SptCache`,
:class:`~repro.graph.all_pairs.LazyDistanceOracle`, shared-memory
publication) hold and index them as they are.  A restoration case
stays inside the kernels end to end: ``repair_resettle`` finds the cut
subtree, applies the fallback threshold and re-settles in one call,
``decompose_flat`` reads the warmed oracle rows in place, and
``ilm_account`` decomposes every affected demand of a source in one
DP over the repaired tree, reading oracle rows from a
:class:`RowTable`.

Selection: the ``REPRO_KERNEL`` environment variable (``python``,
``native``, or ``auto`` — the default), or ``--kernel`` on every
experiment CLI (the ``kernel_backend`` field of
:class:`~repro.runconfig.RunConfig`, installed via :func:`set_backend`).
``auto`` prefers native when a C toolchain is present and silently
falls back to the reference backend otherwise — the compiled backend
stays optional, never a dependency.  The active backend name is
stamped into every ``BENCH_*.json`` header as ``kernel_backend`` and
treated as an obs-diff comparability key.
"""

from __future__ import annotations

import os

#: Recognized values for REPRO_KERNEL / --kernel.
KERNEL_CHOICES = ("auto", "python", "native")

#: ``repair_resettle`` outcomes (the same codes ``_native.c`` returns):
#: the row was repaired; no deletion cut the tree, so the cached row
#: stands; more nodes were cut off than the fallback threshold allows;
#: the source itself failed.
REPAIRED, UNTOUCHED, OVER_THRESHOLD, SOURCE_CUT = range(4)


class RowTable:
    """Oracle distance rows by node index, filled on demand: the row
    source of every backend's ``ilm_account``.

    ``rows[a]`` is node ``a``'s distance row (``array('d')`` or a
    read-only ``'d'`` memoryview) or ``None``.  When a call needs rows
    the table lacks, the backend passes their indices, in one list, to
    *fill*, which must set them.  A row, once set, stays, and stays
    readable (a shared-memory row's segment attached) while the table
    is in use: backends keep per-table state in ``state``, keyed by
    backend name, and the native backend caches row addresses there.
    """

    __slots__ = ("rows", "fill", "state")

    def __init__(self, n: int, fill=None) -> None:
        self.rows: list = [None] * n
        self.fill = fill
        self.state: dict = {}


_BACKEND = None  # resolved backend module, cached per process


def _resolve(name: str):
    """Import and return the backend module for *name*.

    An explicit ``native`` without a toolchain raises ``ImportError``;
    ``auto`` takes native when it imports and the reference otherwise.
    """
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {KERNEL_CHOICES}"
        )
    if name != "python":
        try:
            from . import native_backend

            return native_backend
        except ImportError:
            if name == "native":
                raise
    from . import python_backend

    return python_backend


def _requested() -> str:
    """The ``REPRO_KERNEL`` request (default ``auto``), not yet resolved."""
    return os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"


def kernel_backend():
    """The active backend module (resolved once per process).

    First call reads ``REPRO_KERNEL`` (default ``auto``); later calls
    return the cached resolution.  ``REPRO_KERNEL=native`` without a C
    toolchain raises ``ImportError`` — an explicit request must not
    silently degrade; only ``auto`` falls back.
    """
    global _BACKEND
    if _BACKEND is None:
        _BACKEND = _resolve(_requested())
    return _BACKEND


def backend_name() -> str:
    """Name of the active backend (``python``/``native``)."""
    return kernel_backend().NAME


def set_backend(name: str) -> str:
    """Select a backend process-wide; returns the previous selection.

    Accepts any of :data:`KERNEL_CHOICES`.  The requested backend is
    resolved first, so an explicit choice wins over a ``REPRO_KERNEL``
    value that cannot load; the returned previous selection is the
    active backend's name, or — when no kernel has been resolved yet —
    the raw ``REPRO_KERNEL`` request, which is never loaded here.  Also
    exports the *resolved* name into ``REPRO_KERNEL`` so worker
    processes — forked or spawned — inherit a deterministic choice
    rather than re-running ``auto``.
    """
    global _BACKEND
    backend = _resolve(name)
    previous = _BACKEND.NAME if _BACKEND is not None else _requested()
    _BACKEND = backend
    os.environ["REPRO_KERNEL"] = backend.NAME
    return previous


def available_backends() -> list[str]:
    """Backends importable in this environment, reference first."""
    try:
        from . import native_backend  # noqa: F401
    except ImportError:
        return ["python"]
    return ["python", "native"]
