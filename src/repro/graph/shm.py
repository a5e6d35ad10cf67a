"""Zero-copy shared-memory publication of CSR graph snapshots.

``--jobs`` fan-out used to ship *work references* (scale/seed/index) and
let every worker rebuild its own :class:`~repro.graph.csr.CsrGraph`
after fork — N copies of the 40k-node Internet map at paper scale.
This module publishes one snapshot's ``indptr`` / ``indices`` /
``weights`` buffers (plus the pickled node-interning table) into a
single :mod:`multiprocessing.shared_memory` segment; workers attach
**read-only memoryview casts** over the same pages, so the per-worker
cost drops to an ``mmap`` + header parse and the graph payload exists
once system-wide.  The casts honor the buffer protocol, so the native
kernel backend (:mod:`repro.kernels.native_backend`) reads attached
segments through raw pointers zero-copy too — a worker running under
``REPRO_KERNEL=native`` settles directly over the shared pages.

Segment layout (little-endian)::

    [0:12)   preamble: magic b"RCSR", format version u32, header len u32
    [12:..)  JSON header: tie_order, dtypes/byte-lengths per section,
             n, nnz, directed, source_version
    ...      pickled nodes list, then indptr/indices/weights raw bytes,
             each section 8-byte aligned in that fixed order

A second segment type (magic ``b"RROW"``, its own
``SHM_ROW_FORMAT_VERSION``) publishes the parent's *warm rows* — the
pre-failure ``dist``/``pred`` buffers a ``SptCache`` or
``LazyDistanceOracle`` settled before the fan-out — as one contiguous
float64 block plus one int64 block behind a self-describing JSON header
(tie order, dtypes, row length ``n``, ascending source-index table,
graph ``source_version``, and a ``kind`` tag separating SPT rows from
oracle rows).  Workers attach :class:`RowTable` views and adopt
individual rows zero-copy and **read-only**; the kernels read them in
place and write repairs into fresh rows, so repairs stay worker-local
(copy-on-repair).

Both sides derive section offsets from the header lengths with the same
alignment rule, so the header stays self-describing and the layout has
no pointer fields to corrupt.  Attach *validates* before it trusts:
magic/format-version mismatches and tie-order disagreements raise
:class:`ShmFormatError` (the canonical ``(dist, index)`` contract is
what makes cross-process rows byte-identical, so a segment published
under a different contract must be refused, not reinterpreted).

Lifecycle is explicit and leak-checked:

* :func:`publish_csr` (creator side) returns a :class:`SharedCsrSegment`
  handle — context-manager, ``close()`` + ``unlink()``, registered with
  an ``atexit`` safety net keyed by owner pid so forked children never
  unlink a parent's segment.
* :func:`attach_csr` (worker side) returns the attached
  :class:`~repro.graph.csr.CsrGraph` plus its segment handle; the graph
  keeps the handle alive, and ``close()`` releases every exported
  memoryview first (closing an shm with live exports is a
  ``BufferError``).  Python 3.11's attach path registers the segment
  with the ``resource_tracker``, which would *unlink the creator's
  segment* when an attacher exits — registration is suppressed for the
  attach (see :func:`_attach_untracked`).
* :func:`residual_segments` is the leak-check used by the tests: every
  name this process ever created, filtered to those whose backing
  ``/dev/shm`` entry still exists.

Publication degrades gracefully to ``None`` (callers keep the
per-worker rebuild path) when shared memory is unavailable, disabled
via ``REPRO_SHM=0``, or the payload exceeds ``REPRO_SHM_MAX_BYTES``;
every such decision bumps ``COUNTERS.shm_fallbacks`` so the obs-gate
can assert the attach path stays hot.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import struct
from array import array
from typing import Optional

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

try:  # pragma: no cover
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover
    _resource_tracker = None  # type: ignore[assignment]

from ..perf import COUNTERS
from .csr import CsrGraph

#: Bump on any layout change; attach refuses other versions outright.
SHM_FORMAT_VERSION = 1

#: The path-tie contract the published rows were computed under.  Must
#: match :func:`repro.graph.csr.dijkstra_csr_canonical`'s documented
#: order; recorded in the header and validated on attach.
SHM_TIE_ORDER = "canonical"

_MAGIC = b"RCSR"

#: Magic + format version for warm-row table segments (the second
#: segment type: pre-failure ``dist``/``pred`` rows published alongside
#: the CSR so workers attach instead of re-running warm-up searches).
#: Versioned independently of the CSR layout — the two formats evolve
#: at different speeds.
_ROW_MAGIC = b"RROW"
SHM_ROW_FORMAT_VERSION = 1

_PREAMBLE = struct.Struct("<4sII")
_ALIGN = 8

#: Default size knob: segments above this publish as fallback (the
#: paper-scale Internet map is ~5 MB; 1 GiB leaves huge headroom while
#: still refusing pathological payloads).
_DEFAULT_MAX_BYTES = 1 << 30


class ShmFormatError(RuntimeError):
    """Attached segment is not a compatible CSR publication."""


def shm_enabled() -> bool:
    """Shared-memory publication available and not disabled via env."""
    return _shared_memory is not None and os.environ.get("REPRO_SHM", "1") != "0"


def shm_max_bytes() -> int:
    """The segment size knob (``REPRO_SHM_MAX_BYTES``, bytes)."""
    raw = os.environ.get("REPRO_SHM_MAX_BYTES")
    if not raw:
        return _DEFAULT_MAX_BYTES
    try:
        return int(raw)
    except ValueError:
        return _DEFAULT_MAX_BYTES


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _attach_untracked(name: str):
    """``SharedMemory(name=...)`` without resource-tracker registration.

    On Python <= 3.12 every POSIX attach registers the name with the
    resource tracker, which *unlinks* it at process exit — a worker
    exiting would destroy the creator's segment under the other
    workers.  Unregistering after the fact is no better: the tracker
    keeps one cache entry per name shared by creator and attachers, so
    an attacher's unregister erases the creator's registration too.
    Instead the registration is suppressed for the duration of the
    attach (single-threaded by construction: workers attach during
    chunk setup, the creator never attaches concurrently).  Only the
    creator may unlink, and only the creator stays tracked.
    """
    if _resource_tracker is None:
        return _shared_memory.SharedMemory(name=name)
    original = _resource_tracker.register
    _resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        _resource_tracker.register = original


# -- lifecycle registry -------------------------------------------------------

#: name -> live SharedCsrSegment in this process (closed handles leave).
_LIVE: dict[str, "SharedCsrSegment"] = {}

#: Every segment name this process created, kept after close/unlink so
#: the leak-check can audit the full history.
_CREATED: set[str] = set()

_atexit_installed = False


def _install_atexit() -> None:
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(_cleanup_live)
        _atexit_installed = True


def _cleanup_live() -> None:
    """atexit net: close (and, for creators, unlink) leftover handles.

    Entries inherited across ``fork`` belong to the parent pid and are
    skipped — a child must never unlink a segment it did not create and
    other processes may still be attached to.
    """
    pid = os.getpid()
    for seg in list(_LIVE.values()):
        if seg.owner_pid != pid:
            _LIVE.pop(seg.name, None)
            continue
        seg.close()
        if seg.creator:
            seg.unlink()


class SharedCsrSegment:
    """Lifecycle handle for one published or attached segment.

    ``close()`` releases every memoryview exported from the segment
    (they would otherwise raise ``BufferError``) and detaches the
    mapping; ``unlink()`` destroys the backing object and is restricted
    to the creator.  Both are idempotent.  The context manager closes,
    and additionally unlinks when this handle is the creator.
    """

    __slots__ = ("name", "creator", "owner_pid", "_shm", "_views", "_closed")

    def __init__(self, shm, creator: bool) -> None:
        self.name = shm.name
        self.creator = creator
        self.owner_pid = os.getpid()
        self._shm = shm
        self._views: list[memoryview] = []
        self._closed = False
        _LIVE[self.name] = self
        _install_atexit()

    def _export(self, view: memoryview) -> memoryview:
        """Track an exported view so ``close()`` can release it first."""
        self._views.append(view)
        return view

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for view in self._views:
            try:
                view.release()
            except Exception:
                pass
        self._views.clear()
        try:
            self._shm.close()
        except Exception:
            pass
        _LIVE.pop(self.name, None)

    def unlink(self) -> None:
        """Destroy the backing segment (creator only; close()s first)."""
        if not self.creator:
            return
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass

    def __enter__(self) -> "SharedCsrSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.creator:
            self.unlink()


# -- publish / attach ---------------------------------------------------------


def publish_csr(csr: CsrGraph) -> Optional[SharedCsrSegment]:
    """Publish *csr*'s buffers into a fresh shared-memory segment.

    Returns the creator-side :class:`SharedCsrSegment`, or ``None``
    (bumping ``COUNTERS.shm_fallbacks``) when publication is disabled,
    unsupported, or the payload exceeds :func:`shm_max_bytes` — callers
    then keep the per-worker rebuild path.
    """
    if not shm_enabled():
        COUNTERS.shm_fallbacks += 1
        return None
    nodes_blob = pickle.dumps(csr.nodes, protocol=pickle.HIGHEST_PROTOCOL)
    sections = (
        ("nodes", nodes_blob, None),
        ("indptr", csr.indptr, csr.indptr.typecode),
        ("indices", csr.indices, csr.indices.typecode),
        ("weights", csr.weights, csr.weights.typecode),
    )
    meta: dict[str, dict] = {}
    payloads: list[tuple[str, bytes | memoryview]] = []
    for name, payload, typecode in sections:
        if typecode is None:
            raw: bytes | memoryview = payload  # already bytes
            entry = {"bytes": len(payload)}
        else:
            raw = memoryview(payload).cast("B")
            entry = {
                "bytes": raw.nbytes,
                "typecode": typecode,
                "itemsize": payload.itemsize,
            }
        meta[name] = entry
        payloads.append((name, raw))
    header = json.dumps(
        {
            "tie_order": SHM_TIE_ORDER,
            "sections": meta,
            "n": csr.n,
            "nnz": len(csr.indices),
            "directed": csr.directed,
            "source_version": csr.source_version,
        },
        sort_keys=True,
    ).encode("utf-8")
    offset = _aligned(_PREAMBLE.size + len(header))
    offsets: dict[str, int] = {}
    for name, raw in payloads:
        offsets[name] = offset
        offset = _aligned(offset + len(raw))
    total = max(offset, 1)
    if total > shm_max_bytes():
        COUNTERS.shm_fallbacks += 1
        return None
    try:
        shm = _shared_memory.SharedMemory(create=True, size=total)
    except Exception:
        COUNTERS.shm_fallbacks += 1
        return None
    buf = shm.buf
    buf[: _PREAMBLE.size] = _PREAMBLE.pack(_MAGIC, SHM_FORMAT_VERSION, len(header))
    buf[_PREAMBLE.size : _PREAMBLE.size + len(header)] = header
    for name, raw in payloads:
        if len(raw):
            buf[offsets[name] : offsets[name] + len(raw)] = raw
    _CREATED.add(shm.name)
    COUNTERS.shm_segments += 1
    return SharedCsrSegment(shm, creator=True)


def _parse_preamble(
    buf: memoryview, magic: bytes, version: int, what: str
) -> tuple[dict, int]:
    """Validate a segment preamble and return ``(header, data offset)``."""
    if len(buf) < _PREAMBLE.size:
        raise ShmFormatError(f"segment too small for a {what} preamble")
    got_magic, got_version, header_len = _PREAMBLE.unpack_from(buf, 0)
    if got_magic != magic:
        raise ShmFormatError(
            f"bad magic {got_magic!r}; not a {what} publication"
        )
    if got_version != version:
        raise ShmFormatError(
            f"unsupported {what} segment format v{got_version} "
            f"(this build speaks v{version})"
        )
    end = _PREAMBLE.size + header_len
    if end > len(buf):
        raise ShmFormatError(f"truncated {what} segment header")
    try:
        header = json.loads(bytes(buf[_PREAMBLE.size : end]).decode("utf-8"))
    except Exception as exc:
        raise ShmFormatError(
            f"unreadable {what} segment header: {exc}"
        ) from exc
    if header.get("tie_order") != SHM_TIE_ORDER:
        raise ShmFormatError(
            f"segment published under tie order "
            f"{header.get('tie_order')!r}, expected {SHM_TIE_ORDER!r}"
        )
    return header, _aligned(end)


def _parse_header(buf: memoryview) -> tuple[dict, int]:
    """Validate the CSR preamble and return ``(header, data offset)``."""
    return _parse_preamble(buf, _MAGIC, SHM_FORMAT_VERSION, "CSR")


def attach_csr(name: str) -> tuple[CsrGraph, SharedCsrSegment]:
    """Attach segment *name* and rebuild a zero-copy :class:`CsrGraph`.

    The returned graph's ``indptr``/``indices``/``weights`` are
    memoryview casts over the shared pages — no buffer payload is
    copied (only the pickled node table is materialized, it must be
    real objects).  The graph holds its :class:`SharedCsrSegment` via
    ``keepalive`` so the mapping outlives local references; close the
    segment explicitly (or let the atexit net) at worker teardown.

    Raises :class:`ShmFormatError` on magic/version/tie-order/layout
    mismatch (the segment is detached first) and whatever the platform
    raises when *name* does not exist.
    """
    shm = _attach_untracked(name)
    seg = SharedCsrSegment(shm, creator=False)
    try:
        base = seg._export(memoryview(shm.buf))
        header, offset = _parse_header(base)
        sections = header["sections"]
        raws: dict[str, memoryview] = {}
        for sec_name in ("nodes", "indptr", "indices", "weights"):
            entry = sections[sec_name]
            end = offset + entry["bytes"]
            if end > len(base):
                raise ShmFormatError(f"truncated section {sec_name!r}")
            raws[sec_name] = base[offset:end]
            offset = _aligned(end)
        nodes = pickle.loads(bytes(raws["nodes"]))
        arrays = {}
        for sec_name in ("indptr", "indices", "weights"):
            entry = sections[sec_name]
            typecode = entry["typecode"]
            if array(typecode).itemsize != entry["itemsize"]:
                raise ShmFormatError(
                    f"section {sec_name!r} published with itemsize "
                    f"{entry['itemsize']}, local {typecode!r} has "
                    f"{array(typecode).itemsize}"
                )
            arrays[sec_name] = seg._export(raws[sec_name].cast(typecode))
    except Exception:
        seg.close()
        raise
    csr = CsrGraph.from_buffers(
        nodes=nodes,
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        weights=arrays["weights"],
        directed=bool(header["directed"]),
        source_version=header.get("source_version"),
        keepalive=seg,
    )
    COUNTERS.shm_attach += 1
    return csr, seg


# -- worker-side attach memo --------------------------------------------------

#: name -> (CsrGraph, segment): one attach per worker process per
#: segment, shared across that worker's chunks.
_ATTACHED: dict[str, tuple[CsrGraph, SharedCsrSegment]] = {}


def attach_csr_cached(name: str) -> CsrGraph:
    """Per-process memoized :func:`attach_csr` (worker fan-out path)."""
    cached = _ATTACHED.get(name)
    if cached is not None and not cached[1].closed:
        return cached[0]
    csr, seg = attach_csr(name)
    _ATTACHED[name] = (csr, seg)
    return csr


def detach_all() -> None:
    """Close every memoized worker-side attachment (teardown/tests)."""
    for _csr, seg in list(_ATTACHED.values()):
        seg.close()
    _ATTACHED.clear()
    for _table, seg in list(_ATTACHED_ROWS.values()):
        seg.close()
    _ATTACHED_ROWS.clear()


# -- warm-row table segments --------------------------------------------------

#: dist rows are always packed as float64, pred rows as signed 64-bit —
#: the exact layouts the canonical kernels produce, re-validated by
#: itemsize on attach like the CSR sections.
_ROW_DIST_TYPECODE = "d"
_ROW_PRED_TYPECODE = "q"


class RowTable:
    """Read-only view over an attached warm-row publication.

    One contiguous ``dist`` block (S x n float64) and one ``pred``
    block (S x n int64) over the shared pages; :meth:`row` hands out
    zero-copy **read-only** memoryview slices, so an adopter can never
    scribble on another worker's warm state — the repair kernels read
    them in place and write into fresh rows (copy-on-repair), which
    these views enforce at the buffer level.
    """

    __slots__ = (
        "kind", "n", "weighted", "source_version", "sources",
        "_index", "_dist", "_pred", "segment",
    )

    def __init__(
        self,
        kind: str,
        n: int,
        weighted: bool,
        source_version,
        sources: tuple[int, ...],
        dist: memoryview,
        pred: memoryview,
        segment: "SharedCsrSegment",
    ) -> None:
        self.kind = kind
        self.n = n
        self.weighted = weighted
        self.source_version = source_version
        self.sources = sources
        self._index = {s: i for i, s in enumerate(sources)}
        self._dist = dist
        self._pred = pred
        self.segment = segment

    def __len__(self) -> int:
        return len(self.sources)

    def __contains__(self, source_idx: int) -> bool:
        return source_idx in self._index

    def row(self, source_idx: int) -> tuple[memoryview, memoryview]:
        """The ``(dist, pred)`` read-only views for *source_idx*."""
        slot = self._index[source_idx]
        lo, hi = slot * self.n, (slot + 1) * self.n
        seg = self.segment
        return (
            seg._export(self._dist[lo:hi]),
            seg._export(self._pred[lo:hi]),
        )


def publish_rows(
    kind: str,
    n: int,
    weighted: bool,
    source_version,
    rows: dict,
) -> Optional[SharedCsrSegment]:
    """Publish warm ``dist``/``pred`` rows into a fresh ``RROW`` segment.

    *rows* maps CSR source index -> ``(dist, pred)`` sequences of
    length *n* (lists, arrays, or memoryviews — packed into float64 /
    int64 blocks in ascending source order).  *kind* tags the consumer
    ("spt" for :class:`~repro.graph.incremental.SptCache` rows,
    "oracle" for distance-oracle rows) so an adopter can refuse rows
    computed under different query semantics.  Returns ``None`` on the
    same fallback conditions as :func:`publish_csr` (and for an empty
    *rows* — a header-only segment helps nobody).
    """
    if not rows:
        return None
    if not shm_enabled():
        COUNTERS.shm_fallbacks += 1
        return None
    sources = sorted(rows)
    dist_block = array(_ROW_DIST_TYPECODE)
    pred_block = array(_ROW_PRED_TYPECODE)
    for s in sources:
        dist, pred = rows[s]
        if len(dist) != n or len(pred) != n:
            COUNTERS.shm_fallbacks += 1
            return None
        dist_block.extend(dist)
        pred_block.extend(pred)
    header = json.dumps(
        {
            "tie_order": SHM_TIE_ORDER,
            "kind": kind,
            "n": n,
            "weighted": bool(weighted),
            "sources": sources,
            "source_version": source_version,
            "dist": {
                "typecode": _ROW_DIST_TYPECODE,
                "itemsize": dist_block.itemsize,
                "bytes": dist_block.itemsize * len(dist_block),
            },
            "pred": {
                "typecode": _ROW_PRED_TYPECODE,
                "itemsize": pred_block.itemsize,
                "bytes": pred_block.itemsize * len(pred_block),
            },
        },
        sort_keys=True,
    ).encode("utf-8")
    dist_off = _aligned(_PREAMBLE.size + len(header))
    dist_raw = memoryview(dist_block).cast("B")
    pred_off = _aligned(dist_off + len(dist_raw))
    pred_raw = memoryview(pred_block).cast("B")
    total = max(_aligned(pred_off + len(pred_raw)), 1)
    if total > shm_max_bytes():
        COUNTERS.shm_fallbacks += 1
        return None
    try:
        shm = _shared_memory.SharedMemory(create=True, size=total)
    except Exception:
        COUNTERS.shm_fallbacks += 1
        return None
    buf = shm.buf
    buf[: _PREAMBLE.size] = _PREAMBLE.pack(
        _ROW_MAGIC, SHM_ROW_FORMAT_VERSION, len(header)
    )
    buf[_PREAMBLE.size : _PREAMBLE.size + len(header)] = header
    buf[dist_off : dist_off + len(dist_raw)] = dist_raw
    buf[pred_off : pred_off + len(pred_raw)] = pred_raw
    _CREATED.add(shm.name)
    COUNTERS.shm_row_segments += 1
    COUNTERS.warm_rows_published += len(sources)
    return SharedCsrSegment(shm, creator=True)


def attach_rows(name: str) -> tuple[RowTable, SharedCsrSegment]:
    """Attach an ``RROW`` segment and wrap it in a :class:`RowTable`.

    Zero-copy: the table's blocks are read-only memoryview casts over
    the shared pages.  Raises :class:`ShmFormatError` on magic /
    format-version / tie-order / dtype / layout mismatch (detaching
    first), and whatever the platform raises when *name* is gone.
    """
    shm = _attach_untracked(name)
    seg = SharedCsrSegment(shm, creator=False)
    try:
        base = seg._export(memoryview(shm.buf))
        header, offset = _parse_preamble(
            base, _ROW_MAGIC, SHM_ROW_FORMAT_VERSION, "warm-row"
        )
        n = int(header["n"])
        sources = tuple(int(s) for s in header["sources"])
        blocks: dict[str, memoryview] = {}
        for sec_name in ("dist", "pred"):
            entry = header[sec_name]
            typecode = entry["typecode"]
            if array(typecode).itemsize != entry["itemsize"]:
                raise ShmFormatError(
                    f"section {sec_name!r} published with itemsize "
                    f"{entry['itemsize']}, local {typecode!r} has "
                    f"{array(typecode).itemsize}"
                )
            end = offset + entry["bytes"]
            if end > len(base):
                raise ShmFormatError(f"truncated section {sec_name!r}")
            view = base[offset:end].cast(typecode)
            if len(view) != len(sources) * n:
                raise ShmFormatError(
                    f"section {sec_name!r} holds {len(view)} items, "
                    f"expected {len(sources)} rows of {n}"
                )
            blocks[sec_name] = seg._export(view.toreadonly())
            offset = _aligned(end)
    except Exception:
        seg.close()
        raise
    table = RowTable(
        kind=header["kind"],
        n=n,
        weighted=bool(header["weighted"]),
        source_version=header.get("source_version"),
        sources=sources,
        dist=blocks["dist"],
        pred=blocks["pred"],
        segment=seg,
    )
    COUNTERS.shm_row_attach += 1
    return table, seg


#: name -> (RowTable, segment): one attach per worker process per row
#: segment.  Kept separate from the CSR memo — the two formats have
#: different value types and the leak checks audit them independently.
_ATTACHED_ROWS: dict[str, tuple[RowTable, SharedCsrSegment]] = {}


def attach_rows_cached(name: str) -> RowTable:
    """Per-process memoized :func:`attach_rows` (worker fan-out path)."""
    cached = _ATTACHED_ROWS.get(name)
    if cached is not None and not cached[1].closed:
        return cached[0]
    table, seg = attach_rows(name)
    _ATTACHED_ROWS[name] = (table, seg)
    return table


# -- leak checking ------------------------------------------------------------


def segment_exists(name: str) -> bool:
    """Does a backing shared-memory object for *name* still exist?"""
    if _shared_memory is None:
        return False
    try:
        probe = _attach_untracked(name)
    except FileNotFoundError:
        return False
    except Exception:
        return False
    probe.close()
    return True


def created_segment_names() -> frozenset[str]:
    """Every segment name this process has created (closed or not)."""
    return frozenset(_CREATED)


def residual_segments() -> list[str]:
    """Leak check: created-here names whose backing object still exists.

    An empty list after pool shutdown means every published segment was
    unlinked; the tests assert exactly this on normal *and* exception
    teardown paths.
    """
    return [name for name in sorted(_CREATED) if segment_exists(name)]
