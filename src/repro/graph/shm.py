"""Zero-copy shared-memory publication of warm shortest-path rows.

``--jobs`` workers are forked from the parent, so everything the parent
built before the pool started — CSR snapshots, base sets, warm rows —
is theirs by inheritance (see
:func:`repro.experiments.parallel.publish_suite`).  What inheritance
cannot carry is state the parent builds *after* the fork: the per-link
ILM stage's planning pass warms the demand universe's rows once the
workers already run.  This module ships those rows: one segment holds
the pre-failure ``dist``/``pred`` buffers a ``SptCache`` or
``LazyDistanceOracle`` settled, and workers adopt zero-copy
**read-only** views of them instead of re-running the warm-up searches.
The kernels read adopted rows in place and write repairs into fresh
rows, so repairs stay worker-local (copy-on-repair).  The views honor
the buffer protocol, so the native kernel backend
(:mod:`repro.kernels.native_backend`) reads them through raw pointers
too.

Segment layout (little-endian)::

    [0:12)   preamble: magic b"RROW", format version u32, header len u32
    [12:..)  JSON header: tie order, kind tag ("spt" or "oracle"), row
             length n, ascending source-index table, weighted flag,
             graph source_version, dtype/byte length per block
    ...      the float64 dist block, then the int64 pred block, each
             8-byte aligned

Both sides derive block offsets from the header lengths with the same
alignment rule, so the header stays self-describing and the layout has
no pointer fields to corrupt.  Attach *validates* before it trusts:
magic/format-version mismatches and tie-order disagreements raise
:class:`ShmFormatError` (the canonical ``(dist, index)`` contract is
what makes cross-process rows byte-identical, so a segment published
under a different contract must be refused, not reinterpreted).

Lifecycle is explicit and leak-checked:

* :func:`publish_rows` (creator side) returns a :class:`SharedSegment`
  handle — context-manager, ``close()`` + ``unlink()``, registered with
  an ``atexit`` safety net keyed by owner pid so forked children never
  unlink a parent's segment.
* :func:`attach_rows` (worker side) returns a :class:`RowTable` plus
  its segment handle; ``close()`` releases every exported memoryview
  first (closing an shm with live exports is a ``BufferError``).
  Python 3.11's attach path registers the segment with the
  ``resource_tracker``, which would *unlink the creator's segment*
  when an attacher exits — registration is suppressed for the attach
  (see :func:`_attach_untracked`).
* :func:`residual_segments` is the leak-check used by the tests: every
  name this process ever created, filtered to those whose backing
  ``/dev/shm`` entry still exists.

Publication degrades gracefully to ``None`` (workers keep their own
warm-up) when shared memory is unavailable, disabled via
``REPRO_SHM=0``, or the payload exceeds :data:`MAX_SEGMENT_BYTES`;
every such decision bumps ``COUNTERS.shm_fallbacks`` so the obs-gate
can assert the attach path stays hot.
"""

from __future__ import annotations

import atexit
import json
import os
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

#: The path-tie contract the published rows were computed under.  Must
#: match :func:`repro.graph.csr.dijkstra_csr_canonical`'s documented
#: order; recorded in the header and validated on attach.
SHM_TIE_ORDER = "canonical"

#: Magic + format version of a row segment; attach refuses other
#: versions outright.  Bump on any layout change.
_ROW_MAGIC = b"RROW"
SHM_ROW_FORMAT_VERSION = 1

_PREAMBLE = struct.Struct("<4sII")
_ALIGN = 8

#: Segments above this size publish as fallback: 1 GiB leaves
#: headroom for the row tables the experiments publish while still
#: refusing pathological payloads.
MAX_SEGMENT_BYTES = 1 << 30


class ShmFormatError(RuntimeError):
    """Attached segment is not a compatible row publication."""


def shm_enabled() -> bool:
    """Shared-memory publication available and not disabled via env."""
    return _shared_memory is not None and os.environ.get("REPRO_SHM", "1") != "0"


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

#: name -> live SharedSegment in this process (closed handles leave).
_LIVE: dict[str, "SharedSegment"] = {}

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


class SharedSegment:
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

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.creator:
            self.unlink()


def _parse_preamble(buf: memoryview) -> tuple[dict, int]:
    """Validate a row segment's preamble; ``(header, data offset)``."""
    if len(buf) < _PREAMBLE.size:
        raise ShmFormatError("segment too small for a warm-row preamble")
    got_magic, got_version, header_len = _PREAMBLE.unpack_from(buf, 0)
    if got_magic != _ROW_MAGIC:
        raise ShmFormatError(
            f"bad magic {got_magic!r}; not a warm-row publication"
        )
    if got_version != SHM_ROW_FORMAT_VERSION:
        raise ShmFormatError(
            f"unsupported warm-row segment format v{got_version} "
            f"(this build speaks v{SHM_ROW_FORMAT_VERSION})"
        )
    end = _PREAMBLE.size + header_len
    if end > len(buf):
        raise ShmFormatError("truncated warm-row segment header")
    try:
        header = json.loads(bytes(buf[_PREAMBLE.size : end]).decode("utf-8"))
    except Exception as exc:
        raise ShmFormatError(
            f"unreadable warm-row segment header: {exc}"
        ) from exc
    if header.get("tie_order") != SHM_TIE_ORDER:
        raise ShmFormatError(
            f"segment published under tie order "
            f"{header.get('tie_order')!r}, expected {SHM_TIE_ORDER!r}"
        )
    return header, _aligned(end)


# -- warm-row table segments --------------------------------------------------

#: dist rows are always packed as float64, pred rows as signed 64-bit —
#: the exact layouts the canonical kernels produce, re-validated by
#: itemsize on attach.
_ROW_DIST_TYPECODE = "d"
_ROW_PRED_TYPECODE = "q"

#: kind -> (the consumer, what holds its n, what holds its snapshot),
#: as :meth:`RowTable.check_adoptable` names them when it refuses.
_CONSUMERS = {
    "spt": ("an SptCache", "cache", "cache snapshot"),
    "oracle": ("a distance oracle", "oracle graph", "oracle snapshot"),
}


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
        segment: SharedSegment,
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

    def check_adoptable(self, kind: str, csr, weighted=None) -> None:
        """Refuse (``ValueError``) rows a *kind* consumer must not adopt.

        The table must carry *kind* rows over *csr*'s node count and,
        when both record one, its graph version; *weighted*, when
        given, must match the table's query semantics.  Adopting wrong
        rows would silently corrupt every downstream repair.
        """
        into, holder, snapshot = _CONSUMERS[kind]
        if self.kind != kind:
            raise ValueError(f"cannot adopt {self.kind!r} rows into {into}")
        if self.n != csr.n:
            raise ValueError(
                f"row table has n={self.n}, {holder} has n={csr.n}"
            )
        if weighted is not None and self.weighted != weighted:
            raise ValueError(
                f"row table weighted={self.weighted}, "
                f"{holder} weighted={weighted}"
            )
        if (
            self.source_version is not None
            and csr.source_version is not None
            and self.source_version != csr.source_version
        ):
            raise ValueError(
                f"row table published for graph version "
                f"{self.source_version}, {snapshot} is version "
                f"{csr.source_version}"
            )


def publish_rows(
    kind: str,
    n: int,
    weighted: bool,
    source_version,
    rows: dict,
) -> Optional[SharedSegment]:
    """Publish warm ``dist``/``pred`` rows into a fresh ``RROW`` segment.

    *rows* maps CSR source index -> ``(dist, pred)`` sequences of
    length *n* (lists, arrays, or memoryviews — packed into float64 /
    int64 blocks in ascending source order).  *kind* tags the consumer
    ("spt" for :class:`~repro.graph.incremental.SptCache` rows,
    "oracle" for distance-oracle rows) so an adopter can refuse rows
    computed under different query semantics.  Returns the
    creator-side :class:`SharedSegment`, or ``None`` for an empty
    *rows* (a header-only segment helps nobody) and — bumping
    ``COUNTERS.shm_fallbacks`` — when publication is disabled,
    unsupported, or over :data:`MAX_SEGMENT_BYTES`.
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
    if total > MAX_SEGMENT_BYTES:
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
    COUNTERS.shm_segments += 1
    COUNTERS.warm_rows_published += len(sources)
    return SharedSegment(shm, creator=True)


def attach_rows(name: str) -> tuple[RowTable, SharedSegment]:
    """Attach an ``RROW`` segment and wrap it in a :class:`RowTable`.

    Zero-copy: the table's blocks are read-only memoryview casts over
    the shared pages.  Raises :class:`ShmFormatError` on magic /
    format-version / tie-order / dtype / layout mismatch (detaching
    first), and whatever the platform raises when *name* is gone.
    """
    shm = _attach_untracked(name)
    seg = SharedSegment(shm, creator=False)
    try:
        base = seg._export(memoryview(shm.buf))
        header, offset = _parse_preamble(base)
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
    COUNTERS.shm_attach += 1
    return table, seg


# -- worker-side attach memo --------------------------------------------------

#: name -> (RowTable, segment): one attach per worker process per
#: segment, shared across that worker's chunks.
_ATTACHED_ROWS: dict[str, tuple[RowTable, SharedSegment]] = {}


def attach_rows_cached(name: str) -> RowTable:
    """Per-process memoized :func:`attach_rows` (worker fan-out path)."""
    cached = _ATTACHED_ROWS.get(name)
    if cached is not None and not cached[1].closed:
        return cached[0]
    table, seg = attach_rows(name)
    _ATTACHED_ROWS[name] = (table, seg)
    return table


def detach_all() -> None:
    """Close every memoized worker-side attachment (teardown/tests)."""
    for _table, seg in list(_ATTACHED_ROWS.values()):
        seg.close()
    _ATTACHED_ROWS.clear()


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


def residual_segments() -> list[str]:
    """Leak check: created-here names whose backing object still exists.

    An empty list after pool shutdown means every published segment was
    unlinked; the tests assert exactly this on normal *and* exception
    teardown paths.
    """
    return [name for name in sorted(_CREATED) if segment_exists(name)]
