"""Runtime-selectable kernel backends for the canonical path engine.

Every hot loop of the reproduction — canonical Dijkstra/BFS row
building (:mod:`repro.graph.csr`), decremental SPT re-settling
(:mod:`repro.graph.incremental`), the flat decomposition DP
(:mod:`repro.core.decomposition`,
:mod:`repro.experiments.ilm_accounting`), and shortest-path counting
over a canonical row's tight-edge DAG (``count_paths``, behind
:mod:`repro.graph.spt` and Table 2's multiplicity column) — dispatches
through the backend selected here.  Three backends ship:

``python``
    The reference implementation: the original pure-Python loops over
    flat buffers, unchanged in behaviour and counter accounting.  Zero
    dependencies — a fresh clone runs on it out of the box.

``numpy``
    Vectorized kernels over ndarray casts of the same CSR buffers
    (zero-copy via the buffer protocol, including shared-memory
    segments attached by :mod:`repro.graph.shm`).  Distances are
    computed by batched Bellman–Ford relaxation to fixpoint and
    predecessors by a vectorized canonical tight-parent extraction —
    legal because the library-wide ``(dist, index)`` tie contract makes
    both a pure function of the final labels (see
    ``docs/performance.md``).  Outputs and perf counters are
    bit-for-bit identical to the reference backend; the equivalence is
    pinned by ``tests/test_kernels.py``.

``native``
    The reference loops compiled: C kernels built at first use with the
    system ``cc`` (cached shared object, zero Python dependencies)
    and driven through ``ctypes`` over the same CSR buffers and masks.
    Runs the *same algorithm* as the reference backend instruction for
    instruction, so outputs and counters stay bit-identical at every
    input size — including the targeted searches, single-source rows,
    and small repairs the numpy backend gates back to Python.

Rows cross every layer as flat buffers: each backend returns ``dist``
as ``array('d')`` and ``pred`` as ``array('q')``, and the caches
(:class:`~repro.graph.incremental.SptCache`,
:class:`~repro.graph.all_pairs.LazyDistanceOracle`, shared-memory
publication) hold and index them as they are.  A restoration case
stays inside the kernels end to end: ``repair_resettle`` finds the cut
subtree, applies the fallback threshold and re-settles in one call, and
``decompose_flat`` reads the warmed oracle rows in place.

Selection: the ``REPRO_KERNEL`` environment variable (``python``,
``numpy``, ``native``, or ``auto`` — the default), or ``--kernel`` on
every experiment CLI (:func:`add_kernel_argument` / :func:`apply_kernel`).
``auto`` prefers native when a C toolchain is present, then numpy when
it imports, and silently falls back to the reference backend otherwise
— both accelerated backends stay optional, never dependencies.  The
active backend name is stamped into every ``BENCH_*.json`` header as
``kernel_backend`` and treated as an obs-diff comparability key.
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: Recognized values for REPRO_KERNEL / --kernel.
KERNEL_CHOICES = ("auto", "python", "numpy", "native")

#: ``repair_resettle`` outcomes (the same codes ``_native.c`` returns):
#: the row was repaired; no deletion cut the tree, so the cached row
#: stands; more nodes were cut off than the fallback threshold allows;
#: the source itself failed.
REPAIRED, UNTOUCHED, OVER_THRESHOLD, SOURCE_CUT = range(4)

_BACKEND = None  # resolved backend module, cached per process


def _resolve(name: str):
    """Import and return the backend module for *name*.

    Explicit names fail loudly (``native`` without a toolchain, or
    ``numpy`` without numpy, raise ``ImportError``); ``auto`` walks
    native → numpy → python, taking the first backend that imports.
    """
    if name == "python":
        from . import python_backend

        return python_backend
    if name == "numpy":
        from . import numpy_backend

        return numpy_backend
    if name == "native":
        from . import native_backend

        return native_backend
    if name == "auto":
        try:
            from . import native_backend

            return native_backend
        except ImportError:
            pass
        try:
            from . import numpy_backend

            return numpy_backend
        except ImportError:
            from . import python_backend

            return python_backend
    raise ValueError(
        f"unknown kernel backend {name!r}; choose from {KERNEL_CHOICES}"
    )


def kernel_backend():
    """The active backend module (resolved once per process).

    First call reads ``REPRO_KERNEL`` (default ``auto``); later calls
    return the cached resolution.  ``REPRO_KERNEL=numpy`` without numpy
    installed raises ``ImportError`` — an explicit request must not
    silently degrade; only ``auto`` falls back.
    """
    global _BACKEND
    if _BACKEND is None:
        name = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
        _BACKEND = _resolve(name)
    return _BACKEND


def backend_name() -> str:
    """Name of the active backend (``python``/``numpy``/``native``)."""
    return kernel_backend().NAME


def set_backend(name: str) -> str:
    """Select a backend process-wide; returns the previously active name.

    Accepts any of :data:`KERNEL_CHOICES`.  Also exports the *resolved*
    name into ``REPRO_KERNEL`` so worker processes — forked or spawned —
    inherit a deterministic choice rather than re-running ``auto``.
    """
    global _BACKEND
    old = backend_name()
    _BACKEND = _resolve(name)
    os.environ["REPRO_KERNEL"] = _BACKEND.NAME
    return old


def available_backends() -> list[str]:
    """Backends importable in this environment, reference first."""
    names = ["python"]
    try:
        from . import numpy_backend  # noqa: F401

        names.append("numpy")
    except ImportError:
        pass
    try:
        from . import native_backend  # noqa: F401

        names.append("native")
    except ImportError:
        pass
    return names


def add_kernel_argument(parser: Any) -> None:
    """Attach the documented ``--kernel`` knob to a CLI parser."""
    parser.add_argument(
        "--kernel", choices=list(KERNEL_CHOICES), default=None,
        help="kernel backend for the canonical path engine (default: env "
             "REPRO_KERNEL or 'auto' — native when a C toolchain is "
             "present, else numpy when importable, else the pure-python "
             "reference; outputs are bit-identical in every case)",
    )


def apply_kernel(args: Any) -> None:
    """Install ``--kernel`` process-wide (call before forking workers)."""
    value = getattr(args, "kernel", None)
    if value is not None:
        set_backend(value)
