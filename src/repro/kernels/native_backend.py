"""Native C kernels for the canonical path engine (``REPRO_KERNEL=native``).

**Why this is legal.**  This backend runs *the same algorithm* as the
pure-Python reference (:mod:`repro.kernels.python_backend`), compiled:
the same lazy binary heap keyed by ``(distance, node index)``, the same
canonical tie rules, the same relaxation order, and counter
accumulation at the same program points, over IEEE-754 doubles with FP
contraction disabled.  Outputs and perf counters are therefore bitwise
identical to the reference backend at **every** input size, so there
are no eligibility gates: single-source rows, targeted early-exit
searches, small Ramalingam–Reps repairs and short decomposition chains
all run native.

**No new dependencies.**  The kernels live in ``_native.c`` next to
this file and are compiled at first use with the system C compiler
(``$CC``, else the first of ``cc``/``gcc``/``clang`` on PATH) into a
shared object cached under ``~/.cache/repro/`` (override with
``REPRO_NATIVE_CACHE``), keyed by the SHA-256 of the source text plus
the compiler's version banner — editing the source or switching
toolchains recompiles, everything else reuses the cached build.
Importing this module raises :class:`ImportError` when no toolchain is
available, so ``REPRO_KERNEL=auto`` silently degrades to the reference
backend while an explicit ``REPRO_KERNEL=native`` fails loudly.

**Zero-copy.**  The C entry points take raw pointers into the existing
CSR buffers — ``array.array`` snapshots or shared-memory memoryview
casts from :mod:`repro.graph.shm` — and the per-view dead masks;
addresses are resolved once and cached on the snapshot
(``CsrGraph.native_state``) and view (``CsrView.native_state``).  Calls
release the GIL (plain ``ctypes`` foreign calls), so ``--jobs`` workers
and threads overlap native settles.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from array import array
from pathlib import Path
from typing import Iterable, Optional, Sequence

from ..graph.shortest_paths import EPSILON
from ..perf import COUNTERS
from . import REPAIRED
from . import python_backend as _py

NAME = "native"
INF = float("inf")

_SOURCE_PATH = Path(__file__).with_name("_native.c")

#: Sources per batched C call: bounds the transient ``dist``/``pred``
#: block at a few MB while amortizing call overhead across the batch.
ROWS_CHUNK = 256


class NativeUnavailable(ImportError):
    """The native backend cannot be built/loaded in this environment.

    Subclasses :class:`ImportError` so ``REPRO_KERNEL=auto`` falls back
    through its normal import-failure path.
    """


# -- compile-at-first-use build cache -----------------------------------------


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or ``None``.

    ``$CC`` wins when it resolves; otherwise the first of ``cc``,
    ``gcc``, ``clang`` found on PATH.
    """
    override = os.environ.get("CC", "").strip()
    candidates = (override,) if override else ()
    for name in (*candidates, "cc", "gcc", "clang"):
        if not name:
            continue
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """Directory holding compiled kernel objects."""
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _compiler_tag(cc: str) -> str:
    """Version banner used in the cache key (toolchain switch ⇒ rebuild)."""
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=60
        )
        banner = (proc.stdout or proc.stderr).splitlines()
        return banner[0] if banner else ""
    except (OSError, subprocess.SubprocessError):
        return ""


#: ``-ffp-contract=off`` forbids fused multiply-add contraction so every
#: float64 addition rounds exactly like CPython's — bit-identity with the
#: reference backend depends on it.
_CFLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


def build_library(
    source: Path = _SOURCE_PATH, cache: Optional[Path] = None
) -> Path:
    """Compile (or reuse) the kernel shared object; returns its path.

    The output name is keyed by the SHA-256 of the source bytes, the
    compiler version banner, and the compile flags, so a stale cache
    entry can never be served for edited source (or changed codegen)
    and concurrent builders race benignly (build to a pid-suffixed temp
    file, publish with an atomic ``os.replace``).
    """
    cc = find_compiler()
    if cc is None:
        raise NativeUnavailable(
            "native kernel backend needs a C compiler: none of $CC, cc, "
            "gcc, clang resolved on PATH (REPRO_KERNEL=auto falls back "
            "automatically; explicit REPRO_KERNEL=native does not)"
        )
    text = source.read_bytes()
    key = hashlib.sha256(
        text
        + b"\x00" + _compiler_tag(cc).encode("utf-8", "replace")
        + b"\x00" + " ".join(_CFLAGS).encode("ascii")
    ).hexdigest()[:20]
    out_dir = cache if cache is not None else cache_dir()
    so_path = out_dir / f"repro_native-{key}.so"
    if so_path.exists():
        return so_path
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f"repro_native-{key}.{os.getpid()}.tmp.so"
    cmd = [cc, *_CFLAGS, "-o", str(tmp), str(source), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise NativeUnavailable(f"failed to invoke {cc}: {exc}") from exc
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise NativeUnavailable(
            "native kernel compilation failed:\n"
            + (proc.stderr or proc.stdout).strip()[:2000]
        )
    os.replace(tmp, so_path)
    return so_path


def _load() -> ctypes.CDLL:
    if array("l").itemsize != 8:
        raise NativeUnavailable(
            "native kernel backend assumes 64-bit C long CSR buffers"
        )
    so_path = build_library()
    try:
        return ctypes.CDLL(str(so_path))
    except OSError:
        # A truncated/foreign cache entry: rebuild once, then give up.
        so_path.unlink(missing_ok=True)
        try:
            return ctypes.CDLL(str(build_library()))
        except OSError as exc:  # pragma: no cover - corrupt toolchain
            raise NativeUnavailable(f"cannot load native kernels: {exc}")


_i64 = ctypes.c_int64
_i64p = ctypes.POINTER(ctypes.c_int64)
_ptr = ctypes.c_void_p

_LIB = _load()

_LIB.repro_dijkstra.restype = ctypes.c_int
_LIB.repro_dijkstra.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr,
    _i64p, _i64p, _i64p,
]
_LIB.repro_bfs.restype = ctypes.c_int
_LIB.repro_bfs.argtypes = [
    _ptr, _ptr, _i64, _ptr, _ptr, _i64, _i64, _ptr, _ptr, _i64p, _i64p,
]
_LIB.repro_rows_many.restype = ctypes.c_int
_LIB.repro_rows_many.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _i64, _i64, _ptr, _ptr,
    _i64p, _i64p,
]
_LIB.repro_children.restype = _i64
_LIB.repro_children.argtypes = [_i64, _ptr, _ptr, _ptr]
_LIB.repro_preorder.restype = _i64
_LIB.repro_preorder.argtypes = [_i64, _ptr, _i64, _ptr, _ptr, _ptr]
_LIB.repro_repair.restype = ctypes.c_int
_LIB.repro_repair.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr,
    _ptr, _i64, _ptr, _i64, ctypes.c_double, _i64, _ptr, _ptr,
    _i64p, _i64p,
]
_LIB.repro_decompose.restype = ctypes.c_int
_LIB.repro_decompose.argtypes = [
    _i64, _ptr, _ptr, _ptr, ctypes.c_double, _ptr, _ptr, _ptr,
]
_LIB.repro_count_paths.restype = ctypes.c_int
_LIB.repro_count_paths.argtypes = [
    _ptr, _ptr, _ptr, _i64, _i64, _ptr, ctypes.c_double, _ptr, _i64p, _i64p,
]
_LIB.repro_ilm_account.restype = ctypes.c_int
_LIB.repro_ilm_account.argtypes = [
    _ptr, _ptr, _ptr, _i64, _i64, _ptr, _i64, _ptr, _ptr, _ptr,
    ctypes.c_double, _ptr, _ptr, _ptr, _ptr, _ptr, _i64, _ptr,
]

#: ``repro_count_paths`` statuses besides 0 (counted).
_COUNT_OVERFLOW, _COUNT_BAD_ORDER = 1, 2
#: ``repro_ilm_account`` statuses besides 0 (accounted).
_ILM_NEED_ROWS, _ILM_NEED_SPACE = 1, 2
_ILM_ERRORS = {
    3: "target {} outside [0, {})",
    4: "pred of node {} is outside the row or not a probe-graph edge",
    5: "pred has a cycle through node {}",
}
#: Scratch arrays per row table (see ``repro_ilm_account``).
_ILM_WORK_ARRAYS = 11


def library_path() -> Path:
    """Path of the shared object backing the loaded kernels."""
    return Path(_LIB._name)


def _check(status: int) -> None:
    if status == -1:
        raise MemoryError("native kernel allocation failed")
    if status < 0:
        raise RuntimeError(f"native kernel failed with status {status}")


# -- zero-copy pointer plumbing ------------------------------------------------


class _PyBuffer(ctypes.Structure):
    """CPython's ``Py_buffer`` (only ``buf`` is read)."""

    _fields_ = [
        ("buf", ctypes.c_void_p),
        ("obj", ctypes.c_void_p),
        ("len", ctypes.c_ssize_t),
        ("itemsize", ctypes.c_ssize_t),
        ("readonly", ctypes.c_int),
        ("ndim", ctypes.c_int),
        ("format", ctypes.c_char_p),
        ("shape", ctypes.c_void_p),
        ("strides", ctypes.c_void_p),
        ("suboffsets", ctypes.c_void_p),
        ("internal", ctypes.c_void_p),
    ]


_get_buffer = ctypes.pythonapi.PyObject_GetBuffer
_get_buffer.argtypes = [ctypes.py_object, ctypes.POINTER(_PyBuffer), ctypes.c_int]
_get_buffer.restype = ctypes.c_int
_release_buffer = ctypes.pythonapi.PyBuffer_Release
_release_buffer.argtypes = [ctypes.POINTER(_PyBuffer)]
_release_buffer.restype = None
#: PyBUF_C_CONTIGUOUS | PyBUF_FORMAT: a read-only request, so the
#: read-only rows adopted from shared memory qualify.
_PYBUF_C_CONTIGUOUS_FORMAT = 0x3C

def _buffer_address(view: memoryview) -> int:
    """Base address of a 1-D contiguous memoryview, read-only included."""
    if view.ndim != 1 or not view.c_contiguous:
        raise ValueError("buffer must be 1-D and contiguous")
    if not view.nbytes:
        return 0
    info = _PyBuffer()
    if _get_buffer(view, ctypes.byref(info), _PYBUF_C_CONTIGUOUS_FORMAT):
        raise ValueError("buffer is not C-contiguous")  # pragma: no cover
    addr = info.buf or 0
    _release_buffer(ctypes.byref(info))
    return addr


#: id(view) -> (view, address, format) for memoryview rows (the
#: read-only rows adopted from shared memory, reused across calls).
#: The entry holds the view, so the id cannot be recycled while it is
#: cached; a view released since (its segment closed) fails the length
#: check in :func:`_row_addr` before its stale address is used.
_VIEW_ADDRS: dict[int, tuple[memoryview, int, str]] = {}
_VIEW_ADDRS_MAX = 1 << 16


def _view_entry(view: memoryview) -> tuple[memoryview, int, str]:
    """``(view, base address, format)`` of a row view, memoized."""
    hit = _VIEW_ADDRS.get(id(view))
    if hit is not None and hit[0] is view:
        return hit
    address = _buffer_address(view)
    if len(_VIEW_ADDRS) >= _VIEW_ADDRS_MAX:
        _VIEW_ADDRS.clear()
    hit = _VIEW_ADDRS[id(view)] = (view, address, view.format)
    return hit


def _addr_of(buf) -> tuple[int, object]:
    """``(base address, keepalive)`` of a contiguous buffer, zero-copy.

    ``array.array`` exposes its address directly; anything else goes
    through the buffer protocol (shared-memory memoryview casts —
    read-only ones included — and bytearray masks).  Empty buffers
    yield a null pointer — the kernels never dereference them (no
    slots / no nodes to scan).
    """
    if isinstance(buf, array):
        return (buf.buffer_info()[0] if len(buf) else 0), buf
    view = buf if isinstance(buf, memoryview) else memoryview(buf)
    if view.readonly or not view.nbytes:
        return _buffer_address(view), view
    pin = ctypes.c_char.from_buffer(view)
    return ctypes.addressof(pin), (view, pin)


def _row_addr(buf, typecode: str, n: int, what: str) -> int:
    """Address of a flat row buffer after checking its shape.

    Accepts ``array(typecode)`` and 1-D contiguous memoryviews of that
    format (the read-only shared-memory rows); anything else — a list,
    another typecode, a length other than *n*, a released view — raises
    ``ValueError`` before C could read out of bounds.  The kernels only
    ever read through these addresses.
    """
    if type(buf) is array:
        if buf.typecode != typecode or len(buf) != n:
            raise ValueError(
                f"{what}: expected array({typecode!r}) of {n} entries, got "
                f"array({buf.typecode!r}) of {len(buf)}"
            )
        return buf.buffer_info()[0]
    if isinstance(buf, memoryview):
        try:
            _view, addr, fmt = _view_entry(buf)
            length = len(buf)
        except ValueError as exc:  # released or non-contiguous view
            raise ValueError(f"{what}: {exc}") from None
        if fmt != typecode or length != n:
            raise ValueError(
                f"{what}: expected a {typecode!r} view of {n} entries, "
                f"got format {fmt!r} of {length}"
            )
        return addr
    raise ValueError(
        f"{what}: expected array({typecode!r}) or memoryview, got "
        f"{type(buf).__name__}"
    )


def _graph_ptrs(csr) -> tuple[int, int, int, object]:
    """``(indptr, indices, weights)`` addresses, cached per snapshot."""
    ptrs = csr.native_state
    if ptrs is None:
        indptr, k1 = _addr_of(csr.indptr)
        indices, k2 = _addr_of(csr.indices)
        weights, k3 = _addr_of(csr.weights)
        ptrs = csr.native_state = (indptr, indices, weights, (k1, k2, k3))
    return ptrs


def _view_ptrs(view) -> tuple[int, int, array, array, object]:
    """Per-view native state, cached: ``(edge_dead, node_dead)`` mask
    addresses plus the dead slots and dead nodes as ``array('q')``.

    One failure scenario serves every source it touches, so the fused
    repair reads its roots from here; a dead index outside the
    snapshot raises ``ValueError``.
    """
    state = view.native_state
    if state is None:
        csr = view.csr
        slots = array("q", sorted(view.dead_edges))
        nodes = array("q", sorted(view.dead_nodes))
        if slots and (slots[0] < 0 or slots[-1] >= len(csr.indices)):
            raise ValueError(
                f"dead edge slot outside [0, {len(csr.indices)}) in view"
            )
        if nodes and (nodes[0] < 0 or nodes[-1] >= csr.n):
            raise ValueError(f"dead node index outside [0, {csr.n}) in view")
        edge_mask, node_mask = view.masks()
        edge_dead, k1 = _addr_of(edge_mask)
        node_dead, k2 = _addr_of(node_mask)
        state = view.native_state = (
            edge_dead, node_dead, slots, nodes, (k1, k2)
        )
    return state


_D0 = array("d", [0.0])
_Q0 = array("q", [0])


# -- backend interface ---------------------------------------------------------


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None
) -> tuple[array, array, bool]:
    """Canonical Dijkstra rows — native at every size, targeted or not."""
    csr = view.csr
    n = csr.n
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, *_vkeep = _view_ptrs(view)
    dist = _D0 * n
    pred = _Q0 * n
    if targets is None:
        t_addr, t_len = 0, -1
        t_arr = None
    else:
        t_arr = array("q", targets)
        if t_arr and (min(t_arr) < 0 or max(t_arr) >= n):
            raise ValueError(f"target index outside [0, {n})")
        t_addr = t_arr.buffer_info()[0] if len(t_arr) else 0
        t_len = len(t_arr)
    exhausted = _i64()
    relaxations = _i64()
    settled = _i64()
    _check(_LIB.repro_dijkstra(
        indptr, indices, weights, n, edge_dead, node_dead, source,
        t_addr, t_len, dist.buffer_info()[0], pred.buffer_info()[0],
        ctypes.byref(exhausted), ctypes.byref(relaxations),
        ctypes.byref(settled),
    ))
    del t_arr
    COUNTERS.csr_relaxations += relaxations.value
    COUNTERS.csr_settled += settled.value
    return dist, pred, bool(exhausted.value)


def bfs(view, source: int, target: int = -1) -> tuple[array, array]:
    """Canonical index-ordered BFS with early target exit — native."""
    csr = view.csr
    n = csr.n
    indptr, indices, _weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, *_vkeep = _view_ptrs(view)
    dist = _D0 * n
    pred = _Q0 * n
    relaxations = _i64()
    settled = _i64()
    _check(_LIB.repro_bfs(
        indptr, indices, n, edge_dead, node_dead, source, target,
        dist.buffer_info()[0], pred.buffer_info()[0],
        ctypes.byref(relaxations), ctypes.byref(settled),
    ))
    COUNTERS.csr_relaxations += relaxations.value
    COUNTERS.csr_settled += settled.value
    return dist, pred


_ROWS_SCRATCH: dict[int, tuple[array, array]] = {}


def _rows_scratch(entries: int) -> tuple[array, array]:
    """Reusable per-chunk output blocks (the kernel overwrites every
    entry of each requested row, so stale contents are never read).
    Keyed by size, capped at one cached pair — chunk sizes repeat."""
    cached = _ROWS_SCRATCH.get(entries)
    if cached is None:
        cached = (_D0 * entries, _Q0 * entries)
        _ROWS_SCRATCH.clear()
        _ROWS_SCRATCH[entries] = cached
    return cached


def rows_many(
    view, sources: list[int], unit: bool
) -> dict[int, tuple[array, array]]:
    """Batched exhaustive rows, one C call per source chunk.

    Equivalent to the caller's per-source reference loop (same per-row
    algorithm, counters summed instead of flushed per source), directed
    snapshots included.
    """
    out: dict[int, tuple[array, array]] = {}
    if not sources:
        return out
    csr = view.csr
    n = csr.n
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, *_vkeep = _view_ptrs(view)
    srcs = list(sources)
    block = min(len(srcs), ROWS_CHUNK)
    dist_block, pred_block = _rows_scratch(n * block)
    relaxations = _i64()
    settled = _i64()
    total_relax = 0
    total_settled = 0
    for lo in range(0, len(srcs), block):
        chunk = srcs[lo:lo + block]
        chunk_arr = array("q", chunk)
        _check(_LIB.repro_rows_many(
            indptr, indices, weights, n, edge_dead, node_dead,
            chunk_arr.buffer_info()[0], len(chunk), 1 if unit else 0,
            dist_block.buffer_info()[0], pred_block.buffer_info()[0],
            ctypes.byref(relaxations), ctypes.byref(settled),
        ))
        total_relax += relaxations.value
        total_settled += settled.value
        for k, src in enumerate(chunk):
            out[src] = (
                dist_block[k * n:(k + 1) * n],
                pred_block[k * n:(k + 1) * n],
            )
    COUNTERS.csr_relaxations += total_relax
    COUNTERS.csr_settled += total_settled
    return out


def children_index(pred) -> tuple[array, array]:
    """``(offsets, kids)`` children index of a pre-failure SPT, in C."""
    n = len(pred)
    pred_addr = _row_addr(pred, "q", n, "pred")
    offsets = _Q0 * (n + 1)
    kids = _Q0 * n
    filled = _LIB.repro_children(
        n, pred_addr, offsets.buffer_info()[0], kids.buffer_info()[0]
    )
    if filled < 0:
        raise ValueError("pred names a node outside the row")
    del kids[filled:]
    return offsets, kids


def preorder(pred, root: int) -> tuple[array, array, array]:
    """``(order, pos, end)`` preorder of a predecessor row's tree, in C.

    *pred* and *root* are checked in Python first (``ValueError``), so
    C only ever walks a well-formed tree.
    """
    n = _py.check_tree(pred, root)
    pred_addr = _row_addr(pred, "q", n, "pred")
    order = _Q0 * n
    pos = _Q0 * n
    end = _Q0 * n
    reached = _LIB.repro_preorder(
        n, pred_addr, root, order.buffer_info()[0], pos.buffer_info()[0],
        end.buffer_info()[0],
    )
    _check(reached)
    del order[reached:]
    return order, pos, end


def repair_resettle(
    view,
    source: int,
    dist,
    pred,
    children: tuple[array, array],
    threshold: float,
    unit: bool,
) -> tuple[int, Optional[array], Optional[array]]:
    """Fused subtree discovery + threshold + re-settle, one C call.

    Reads the cached pre-failure row in place (read-only shared-memory
    rows included) and writes a repaired copy only when the outcome is
    ``REPAIRED``.  Buffer shapes, the children index and the view's
    dead indices are validated first (``ValueError`` on a mismatch).
    """
    csr = view.csr
    n = csr.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    dist_addr = _row_addr(dist, "d", n, "dist")
    pred_addr = _row_addr(pred, "q", n, "pred")
    offsets, kids = children
    off_addr = _row_addr(offsets, "q", n + 1, "children offsets")
    kids_addr = _row_addr(kids, "q", len(kids), "children")
    if offsets[n] != len(kids):
        raise ValueError(
            f"children index ends at {offsets[n]}, holds {len(kids)} kids"
        )
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    edge_dead, node_dead, slots, nodes, _vkeep = _view_ptrs(view)
    new_dist = _D0 * n
    new_pred = _Q0 * n
    relaxations = _i64()
    settled = _i64()
    outcome = _LIB.repro_repair(
        indptr, indices, weights, n, edge_dead, node_dead, source,
        dist_addr, pred_addr, off_addr, kids_addr,
        slots.buffer_info()[0], len(slots), nodes.buffer_info()[0],
        len(nodes), threshold, 1 if unit else 0,
        new_dist.buffer_info()[0], new_pred.buffer_info()[0],
        ctypes.byref(relaxations), ctypes.byref(settled),
    )
    _check(outcome)
    if outcome != REPAIRED:
        return outcome, None, None
    COUNTERS.spt_nodes_resettled += settled.value
    COUNTERS.csr_relaxations += relaxations.value
    return outcome, new_dist, new_pred


def decompose_flat(
    chain: Sequence[int],
    cum: Sequence[float],
    rows: Sequence,
) -> tuple[list[int], list[int], int]:
    """Min-pieces decomposition DP over already-warmed oracle rows.

    ``rows[j]`` is the distance row of ``chain[j]`` for j = 0 .. L−3;
    C reads them in place through one pointer table (no callback, no
    conversion).  Every row must be a ``'d'`` buffer of the same length
    n and every chain index must lie in [0, n), else ``ValueError``.
    ``best``, ``choice`` and the probe count come back in one buffer.
    """
    length = len(chain)
    if length == 0:
        return [], [], 0
    if len(cum) != length:
        raise ValueError(f"cum has {len(cum)} entries, chain {length}")
    needed = length - 2
    if needed > 0:
        if len(rows) < needed:
            raise ValueError(f"{len(rows)} rows for a {length}-node chain")
        n = len(rows[0])
        if min(chain) < 0 or max(chain) >= n:
            raise ValueError(f"chain index outside [0, {n})")
        table = array(
            "Q", [_row_addr(row, "d", n, "rows") for row in rows[:needed]]
        )
        table_addr = table.buffer_info()[0]
    else:
        table_addr = 0
    chain_arr = array("q", chain)
    cum_arr = array("d", cum)
    out = _Q0 * (2 * length + 1)
    out_addr = out.buffer_info()[0]
    _check(_LIB.repro_decompose(
        length, chain_arr.buffer_info()[0], cum_arr.buffer_info()[0],
        table_addr, EPSILON,
        out_addr, out_addr + 8 * length, out_addr + 16 * length,
    ))
    values = out.tolist()
    return values[:length], values[length:-1], values[-1]


class _IlmScratch:
    """What one row table keeps between ``ilm_account`` calls: the
    cached row addresses and the kernel's index-sized work arrays."""

    __slots__ = ("n", "addrs", "work", "cum", "piece_off", "flat", "out",
                 "ptrs")

    def __init__(self, n: int) -> None:
        self.n = n
        self.addrs = array("Q", bytes(8 * n))
        self.work = array("q", [-1]) * n + _Q0 * ((_ILM_WORK_ARRAYS - 1) * n)
        self.cum = _D0 * n
        self.piece_off = _Q0 * (n + 1)
        self.flat = _Q0 * (4 * n)
        self.out = _Q0 * 6
        self.ptrs = tuple(
            buf.buffer_info()[0]
            for buf in (self.addrs, self.work, self.cum, self.piece_off,
                        self.out)
        )


def _install_rows(table, scratch: _IlmScratch, needed: list[int]) -> None:
    """Cache the addresses of *needed* rows, asking the table to fill
    the ones it lacks first; a row it cannot supply is a ValueError."""
    rows = table.rows
    lacking = [a for a in needed if rows[a] is None]
    if lacking and table.fill is not None:
        table.fill(lacking)
    addrs, n = scratch.addrs, scratch.n
    for a in needed:
        row = rows[a]
        if row is None:
            raise ValueError(f"rows: no oracle row for node {a}")
        addrs[a] = _row_addr(row, "d", n, "rows")


def ilm_account(probe, source: int, targets, dist, pred, table, naive):
    """One (scenario, source) pair's ILM accounting in C.

    The reference's walk, tree DP and piece extraction in one call
    (``repro_ilm_account``), reading the repaired row and the oracle
    rows in place.  The row addresses and work arrays live in
    ``table.state`` between calls; a call that needs rows the table has
    no address for reports them, the rows are installed (``table.fill``
    first builds missing ones), and the call runs again — as it does
    when the pieces outgrow the flat buffer.  Shapes, indices and
    ``pred`` are checked before any row is read: ``ValueError``.
    """
    if dist is None:
        return [], 0, len(targets), 0
    n = probe.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    dist_addr = _row_addr(dist, "d", n, "dist")
    pred_addr = _row_addr(pred, "q", n, "pred")
    naive_addr = _row_addr(naive, "l", n, "naive")
    indptr, indices, weights, _keep = _graph_ptrs(probe)
    scratch = table.state.get(NAME)
    if scratch is None or scratch.n != n:
        scratch = table.state[NAME] = _IlmScratch(n)
    addrs, work, cum, piece_off, out = scratch.ptrs
    t_arr = array("q", targets)
    t_addr = t_arr.buffer_info()[0] if t_arr else 0
    result = scratch.out
    while True:
        flat = scratch.flat
        status = _LIB.repro_ilm_account(
            indptr, indices, weights, n, source, t_addr, len(t_arr),
            dist_addr, pred_addr, addrs, EPSILON, naive_addr, work, cum,
            piece_off, flat.buffer_info()[0], len(flat), out,
        )
        if status == 0:
            break
        if status == _ILM_NEED_ROWS:
            listed = (_ILM_WORK_ARRAYS - 1) * n  # the last work array
            _install_rows(
                table, scratch, scratch.work[listed:listed + result[4]].tolist()
            )
        elif status == _ILM_NEED_SPACE:
            scratch.flat = _Q0 * max(result[4], 2 * len(flat))
        elif status in _ILM_ERRORS:
            raise ValueError(_ILM_ERRORS[status].format(result[5], n))
        else:
            raise RuntimeError(f"native kernel failed with status {status}")
    restored, unrestorable, probes, n_pieces, length = result[:5]
    cuts = scratch.piece_off[:n_pieces + 1].tolist()
    nodes = scratch.flat[:length].tolist()
    pieces = [tuple(nodes[a:b]) for a, b in zip(cuts, cuts[1:])]
    return pieces, restored, unrestorable, probes


def count_paths(csr, source: int, dist, eps: float) -> list[int]:
    """Shortest-path counts over the tight-edge DAG of a canonical row.

    The reference loop in C with u64 counts, reading *dist* in place
    (validated first).  A count past 2**64 - 1 makes the call rerun
    the exact reference for this source, so results are always exact.
    """
    n = csr.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    dist_addr = _row_addr(dist, "d", n, "dist")
    indptr, indices, weights, _keep = _graph_ptrs(csr)
    counts = array("Q", bytes(8 * n))
    bad_u = _i64()
    bad_v = _i64()
    status = _LIB.repro_count_paths(
        indptr, indices, weights, n, source, dist_addr, eps,
        counts.buffer_info()[0], ctypes.byref(bad_u), ctypes.byref(bad_v),
    )
    _check(status)
    if status == _COUNT_OVERFLOW:
        return _py.count_paths(csr, source, dist, eps)
    if status == _COUNT_BAD_ORDER:
        raise _py.tight_edge_error(csr, bad_u.value, bad_v.value)
    return counts.tolist()
