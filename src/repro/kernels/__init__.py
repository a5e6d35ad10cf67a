"""Runtime-selectable kernel backends for the canonical path engine.

Every hot loop of the reproduction — canonical Dijkstra/BFS row
building (:mod:`repro.graph.csr`), the bidirectional-BFS hop count of
Table 3's unweighted bypasses (``bypass_hops``, which cuts the link
itself; called by :func:`repro.experiments.table3.link_bypass_hops`),
decremental SPT re-settling (:mod:`repro.graph.incremental`), the flat
decomposition DP (:mod:`repro.core.decomposition`), per-link ILM
accounting of one (scenario, source) pair over its repaired tree
(``ilm_account``, behind :mod:`repro.experiments.ilm_accounting`), the
preorder of a shortest-path tree (``preorder``: the accountant's
primary trees and the repair cost model's subtree sizes), and
shortest-path counting over a canonical row's tight-edge DAG
(``count_paths``, behind :mod:`repro.graph.spt` and Table 2's
multiplicity column) — dispatches through the backend selected here.
Two backends ship:

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
:class:`~repro.graph.all_pairs.LazyDistanceOracle`) hold and index
them as they are.  A restoration case stays inside the kernels end to
end: ``repair_resettle`` finds the cut subtree, applies the fallback
threshold and re-settles in one call;
``decompose_flat`` sums the backup chain's hop weights, reads the
oracle's rows by node index from its :class:`OracleRows` and, when
some are missing or not final at the chain's later nodes, has the
oracle warm just those and runs again, one call per decomposition;
and ``ilm_account`` decomposes every affected demand of a source in
one DP over the repaired tree, reading the full rows of the same
:class:`OracleRows` after the oracle has built or promoted the ones
it lacks.

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
from array import array

from .buffers import row_address

#: Recognized values for REPRO_KERNEL / --kernel.
KERNEL_CHOICES = ("auto", "python", "native")

#: ``repair_resettle`` outcomes (the same codes ``_native.c`` returns):
#: the row was repaired; no deletion cut the tree, so the cached row
#: stands; more nodes were cut off than the fallback threshold allows;
#: the source itself failed.
REPAIRED, UNTOUCHED, OVER_THRESHOLD, SOURCE_CUT = range(4)


class OracleRows:
    """A distance oracle's rows by node index: the row source of every
    backend's ``decompose_flat`` and ``ilm_account``.

    ``rows[a]`` is node ``a``'s distance row (``array('d')`` of ``n``
    entries) or ``None``, and ``preds[a]`` its predecessor row;
    ``addrs[a]`` is the distance row's base address, 0 without a row,
    which the native backend reads; ``full[a]`` is 1 when the row is
    full (its whole component settled, so ``INF`` proves
    unreachability) and 0 when it is truncated (settled up to some
    targets: ``INF`` may be unsettled) or missing.  The owner stores
    every row through :meth:`store`, which checks its shape and
    typecode once.  A truncated row may be replaced by a full one (a
    promotion), and its address with it; a full row is never replaced.

    The backends ask the owner for rows through two callbacks.
    ``decompose_flat`` reads a row wherever it is final at the chain's
    later nodes, truncated or not, and passes the chain and the
    positions whose row is missing or not final there, ascending, to
    *warm*.  ``ilm_account`` reads an unsettled entry as "not a base
    path", so it reads full rows only, and passes the nodes whose row
    is not full, in one list, to *fill*, which must make them full.
    """

    __slots__ = ("rows", "preds", "addrs", "full", "warm", "fill")

    def __init__(self, n: int, warm=None, fill=None) -> None:
        self.rows: list = [None] * n
        self.preds: list = [None] * n
        self.addrs = array("Q", bytes(8 * n))
        self.full = array("B", bytes(n))
        self.warm = warm
        self.fill = fill

    def store(self, a: int, row, pred=None, full: bool = False) -> None:
        """Install *row* (and *pred*) as node *a*'s rows, full or
        truncated (``ValueError`` on a shape or typecode mismatch)."""
        self.addrs[a] = row_address(row, "d", len(self.rows), "rows")
        self.rows[a] = row
        self.preds[a] = pred
        self.full[a] = full


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
