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
buffers — the snapshot's ``array.array`` CSR arrays, ``array`` rows and
the dead-edge / dead-node masks the snapshot owns; snapshot addresses
are resolved once and cached on the snapshot
(``CsrGraph.native_state``).  A failure view costs O(k): its checked
dead slots and nodes are cached on the view
(``CsrView.native_state``), and each call marks them in the snapshot's
masks in C and clears them before it returns.  A snapshot therefore
runs one kernel call at a time; ``--jobs`` workers are processes, each
with its own masks.
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
from .buffers import row_address

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

#: A failure view's arguments: the snapshot's two masks, then the dead
#: slots and dead nodes as (address, count) pairs (see ``_dead``).
_VIEW = [_ptr, _ptr, _ptr, _i64, _ptr, _i64]
_LIB.repro_dijkstra.restype = ctypes.c_int
_LIB.repro_dijkstra.argtypes = [
    _ptr, _ptr, _ptr, _i64, *_VIEW, _i64, _ptr, _i64, _ptr, _ptr,
    _i64p, _i64p, _i64p,
]
_LIB.repro_bfs.restype = ctypes.c_int
_LIB.repro_bfs.argtypes = [
    _ptr, _ptr, _i64, *_VIEW, _i64, _i64, _ptr, _ptr, _i64p, _i64p,
]
_LIB.repro_hop_distance.restype = ctypes.c_int
_LIB.repro_hop_distance.argtypes = [
    _ptr, _ptr, *_VIEW, _i64, _i64, _ptr, _ptr, _ptr, _ptr,
]
_LIB.repro_rows_many.restype = ctypes.c_int
_LIB.repro_rows_many.argtypes = [
    _ptr, _ptr, _ptr, _i64, *_VIEW, _ptr, _i64, _i64, _ptr, _ptr,
    _i64p, _i64p,
]
_LIB.repro_children.restype = _i64
_LIB.repro_children.argtypes = [_i64, _ptr, _ptr, _ptr]
_LIB.repro_preorder.restype = _i64
_LIB.repro_preorder.argtypes = [_i64, _ptr, _i64, _ptr, _ptr, _ptr]
_LIB.repro_repair.restype = ctypes.c_int
_LIB.repro_repair.argtypes = [
    _ptr, _ptr, _ptr, _i64, *_VIEW, _i64, _ptr, _ptr, _ptr, _ptr,
    ctypes.c_double, _i64, _ptr, _ptr, _i64p, _i64p,
]
_LIB.repro_decompose.restype = ctypes.c_int
_LIB.repro_decompose.argtypes = [
    _ptr, _ptr, _ptr, _i64, _ptr, _ptr, ctypes.c_int, ctypes.c_double,
    _ptr, _ptr, _ptr, _ptr, _ptr,
]
_LIB.repro_count_paths.restype = ctypes.c_int
_LIB.repro_count_paths.argtypes = [
    _ptr, _ptr, _ptr, _i64, _i64, _ptr, ctypes.c_double, _ptr, _i64p, _i64p,
]
_LIB.repro_ilm_account.restype = ctypes.c_int
_LIB.repro_ilm_account.argtypes = [
    _ptr, _ptr, _ptr, _i64, _i64, _ptr, _i64, _ptr, _ptr, _ptr, _ptr,
    ctypes.c_double, _ptr, _ptr, _ptr, _ptr, _ptr, _i64, _ptr,
]

#: ``repro_decompose`` statuses besides 0 (decomposed).
_DECOMPOSE_NOT_AN_EDGE, _DECOMPOSE_NEED_ROWS = 1, 2
#: ``repro_count_paths`` statuses besides 0 (counted).
_COUNT_OVERFLOW, _COUNT_BAD_ORDER = 1, 2
#: ``repro_ilm_account`` statuses besides 0 (accounted).
_ILM_NEED_ROWS, _ILM_NEED_SPACE = 1, 2
_ILM_ERRORS = {
    3: "target {} outside [0, {})",
    4: "pred of node {} is outside the row or not a probe-graph edge",
    5: "pred has a cycle through node {}",
}
#: Index-sized scratch arrays of ``repro_ilm_account``.
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


def _addr_of(buf) -> tuple[int, object]:
    """``(base address, keepalive)`` of an ``array`` or ``bytearray``,
    zero-copy.

    ``array.array`` exposes its address directly; a bytearray mask is
    pinned through ``ctypes``.  Empty buffers yield a null pointer —
    the kernels never dereference them (no slots / no nodes to scan).
    """
    if not len(buf):
        return 0, buf
    if isinstance(buf, array):
        return buf.buffer_info()[0], buf
    pin = ctypes.c_char.from_buffer(buf)
    return ctypes.addressof(pin), (buf, pin)


class _GraphState:
    """A snapshot's native state: its buffer addresses, the dead masks
    every call over one of its views borrows, and the work arrays of
    ``hop_distance`` and ``ilm_account`` (each built on first use).

    The masks stay all zero between calls: each view-taking kernel
    marks its view's dead slots and nodes (:func:`_dead`) on entry and
    clears them before it returns, so a failure view costs O(k), not
    two mask allocations of the snapshot's size.  One kernel call at a
    time per snapshot.
    """

    __slots__ = ("indptr", "indices", "weights", "edge_mask", "node_mask",
                 "masks", "keepalive", "hops", "ilm")

    def __init__(self, csr) -> None:
        self.indptr, k1 = _addr_of(csr.indptr)
        self.indices, k2 = _addr_of(csr.indices)
        self.weights, k3 = _addr_of(csr.weights)
        self.edge_mask = bytearray(len(csr.indices))
        self.node_mask = bytearray(csr.n)
        edge_dead, k4 = _addr_of(self.edge_mask)
        node_dead, k5 = _addr_of(self.node_mask)
        self.masks = (edge_dead, node_dead)
        self.keepalive = (k1, k2, k3, k4, k5)
        self.hops: Optional[_HopScratch] = None
        self.ilm: Optional[_IlmScratch] = None


def _graph_state(csr) -> _GraphState:
    """The snapshot's :class:`_GraphState`, built once."""
    state = csr.native_state
    if state is None:
        state = csr.native_state = _GraphState(csr)
    return state


def _dead(view) -> tuple[int, int, int, int]:
    """A view's kernel arguments after the snapshot's masks: address and
    count of its dead slots, then of its dead nodes.

    Both lists are sorted ``array('q')`` buffers, checked against the
    snapshot once (an index outside it raises ``ValueError``) and
    cached on the view with the arguments; one failure scenario serves
    every source it touches, and the fused repair reads its roots from
    the same lists.
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
        args = (
            slots.buffer_info()[0], len(slots),
            nodes.buffer_info()[0], len(nodes),
        )
        state = view.native_state = (args, slots, nodes)
    return state[0]


_D0 = array("d", [0.0])
_Q0 = array("q", [0])


# -- backend interface ---------------------------------------------------------


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None
) -> tuple[array, array, bool]:
    """Canonical Dijkstra rows — native at every size, targeted or not."""
    csr = view.csr
    n = csr.n
    g = _graph_state(csr)
    dead = _dead(view)
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
        g.indptr, g.indices, g.weights, n, *g.masks, *dead, source, t_addr,
        t_len, dist.buffer_info()[0], pred.buffer_info()[0],
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
    g = _graph_state(csr)
    dead = _dead(view)
    dist = _D0 * n
    pred = _Q0 * n
    relaxations = _i64()
    settled = _i64()
    _check(_LIB.repro_bfs(
        g.indptr, g.indices, n, *g.masks, *dead, source, target,
        dist.buffer_info()[0], pred.buffer_info()[0],
        ctypes.byref(relaxations), ctypes.byref(settled),
    ))
    COUNTERS.csr_relaxations += relaxations.value
    COUNTERS.csr_settled += settled.value
    return dist, pred


class _HopScratch:
    """``hop_distance``'s work arrays over one snapshot, kept between
    calls: a side byte per node (all zero between calls: the kernel
    clears what it labelled from its visit queues), the two visit
    queues, and the ``(hops, relaxations, settled)`` out-slots."""

    __slots__ = ("side", "queues", "out", "ptrs")

    def __init__(self, n: int) -> None:
        self.side = array("B", bytes(n))
        self.queues = _Q0 * (2 * n)
        self.out = _Q0 * 3
        queues = self.queues.buffer_info()[0]
        self.ptrs = (
            self.side.buffer_info()[0], queues, queues + 8 * n,
            self.out.buffer_info()[0],
        )


def hop_distance(view, source: int, target: int) -> int:
    """Bidirectional-BFS hop distance (``-1``: disconnected), in C.

    The reference's query checks (``python_backend.hop_query``) run
    first, so C only sees live, distinct, in-range endpoints of an
    undirected snapshot; its work arrays live on the snapshot.
    """
    early = _py.hop_query(view, source, target)
    if early is not None:
        return early
    csr = view.csr
    g = _graph_state(csr)
    dead = _dead(view)
    scratch = g.hops
    if scratch is None:
        scratch = g.hops = _HopScratch(csr.n)
    _check(_LIB.repro_hop_distance(
        g.indptr, g.indices, *g.masks, *dead, source, target, *scratch.ptrs,
    ))
    hops, relaxations, settled = scratch.out
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    return hops


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
    g = _graph_state(csr)
    dead = _dead(view)
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
            g.indptr, g.indices, g.weights, n, *g.masks, *dead,
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
    pred_addr = row_address(pred, "q", n, "pred")
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
    pred_addr = row_address(pred, "q", n, "pred")
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

    Reads the cached pre-failure row in place, never writing it, and
    writes a repaired copy only when the outcome is ``REPAIRED``.
    Buffer shapes, the children index and the view's dead indices are
    validated first (``ValueError`` on a mismatch).
    """
    csr = view.csr
    n = csr.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    dist_addr = row_address(dist, "d", n, "dist")
    pred_addr = row_address(pred, "q", n, "pred")
    offsets, kids = children
    off_addr = row_address(offsets, "q", n + 1, "children offsets")
    kids_addr = row_address(kids, "q", len(kids), "children")
    if offsets[n] != len(kids):
        raise ValueError(
            f"children index ends at {offsets[n]}, holds {len(kids)} kids"
        )
    g = _graph_state(csr)
    dead = _dead(view)
    new_dist = _D0 * n
    new_pred = _Q0 * n
    relaxations = _i64()
    settled = _i64()
    outcome = _LIB.repro_repair(
        g.indptr, g.indices, g.weights, n, *g.masks, *dead, source,
        dist_addr, pred_addr, off_addr, kids_addr, threshold,
        1 if unit else 0, new_dist.buffer_info()[0],
        new_pred.buffer_info()[0], ctypes.byref(relaxations),
        ctypes.byref(settled),
    )
    _check(outcome)
    if outcome != REPAIRED:
        return outcome, None, None
    COUNTERS.spt_nodes_resettled += settled.value
    COUNTERS.csr_relaxations += relaxations.value
    return outcome, new_dist, new_pred


def decompose_flat(
    probe, chain: Sequence[int], table
) -> Optional[tuple[list[int], list[int], int]]:
    """Min-pieces decomposition DP over an index chain of *probe*, in C.

    The reference's contract (``python_backend.decompose_flat``) in
    one call: C sums the hop weights, checks the rows of positions
    ``0 .. L-3`` in ``table.addrs`` (an
    :class:`~repro.kernels.OracleRows`, whose rows were checked when
    stored) and reports the positions whose row is missing or not
    final at a later chain node; ``table.warm`` warms those, in
    ascending order, and the DP runs again.  Chain indices are checked
    first (``ValueError``); ``None`` when a hop is not a probe-graph
    edge.
    """
    length = len(chain)
    if length == 0:
        return [], [], 0
    n = probe.n
    chain_arr = array("q", chain)
    if min(chain_arr) < 0 or max(chain_arr) >= n:
        raise ValueError(f"chain index outside [0, {n})")
    addrs = table.addrs
    if len(addrs) != n:
        raise ValueError(f"rows: table holds {len(addrs)} rows, probe n={n}")
    g = _graph_state(probe)
    cum = _D0 * length
    out = _Q0 * (3 * length + 1)
    out_addr = out.buffer_info()[0]
    args = (
        g.indptr, g.indices, g.weights, length, chain_arr.buffer_info()[0],
        addrs.buffer_info()[0],
    )
    tail = (
        EPSILON, cum.buffer_info()[0], out_addr, out_addr + 8 * length,
        out_addr + 16 * length, out_addr + 24 * length,
    )
    status = _LIB.repro_decompose(*args, 1, *tail)
    if status == _DECOMPOSE_NEED_ROWS:
        table.warm(chain, out[2 * length:2 * length + out[-1]].tolist())
        status = _LIB.repro_decompose(*args, 0, *tail)
        if status == _DECOMPOSE_NEED_ROWS:
            raise ValueError(
                f"rows: no oracle row for node {chain[out[2 * length]]}"
            )
    if status == _DECOMPOSE_NOT_AN_EDGE:
        return None
    _check(status)
    values = out[:2 * length].tolist()
    return values[:length], values[length:], out[-1]


class _IlmScratch:
    """``ilm_account``'s index-sized work arrays over one snapshot,
    kept between calls (the kernel restores what it marks)."""

    __slots__ = ("work", "cum", "piece_off", "flat", "out", "ptrs")

    def __init__(self, n: int) -> None:
        self.work = array("q", [-1]) * n + _Q0 * ((_ILM_WORK_ARRAYS - 1) * n)
        self.cum = _D0 * n
        self.piece_off = _Q0 * (n + 1)
        self.flat = _Q0 * (4 * n)
        self.out = _Q0 * 6
        self.ptrs = tuple(
            buf.buffer_info()[0]
            for buf in (self.work, self.cum, self.piece_off, self.out)
        )


def ilm_account(probe, source: int, targets, dist, pred, table, naive):
    """One (scenario, source) pair's ILM accounting in C.

    The reference's walk, tree DP and piece extraction in one call
    (``repro_ilm_account``), reading the repaired row and the full
    rows of *table* (an :class:`~repro.kernels.OracleRows`) in place.
    A call that needs rows whose ``full`` flag is clear reports them,
    ``table.fill`` makes them full, and the call runs again — as it
    does when the pieces outgrow the flat buffer.  The work arrays live
    on the probe snapshot between calls.  Shapes, indices and ``pred``
    are checked before any row is read: ``ValueError``.
    """
    if dist is None:
        return [], 0, len(targets), 0
    n = probe.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    dist_addr = row_address(dist, "d", n, "dist")
    pred_addr = row_address(pred, "q", n, "pred")
    naive_addr = row_address(naive, "l", n, "naive")
    addrs, full = table.addrs, table.full
    if len(addrs) != n or len(full) != n:
        raise ValueError(f"rows: table holds {len(addrs)} rows, probe n={n}")
    g = _graph_state(probe)
    scratch = g.ilm
    if scratch is None:
        scratch = g.ilm = _IlmScratch(n)
    work, cum, piece_off, out = scratch.ptrs
    rows_addr, full_addr = addrs.buffer_info()[0], full.buffer_info()[0]
    t_arr = array("q", targets)
    t_addr = t_arr.buffer_info()[0] if t_arr else 0
    result = scratch.out
    while True:
        flat = scratch.flat
        status = _LIB.repro_ilm_account(
            g.indptr, g.indices, g.weights, n, source, t_addr, len(t_arr),
            dist_addr, pred_addr, rows_addr, full_addr, EPSILON, naive_addr,
            work, cum, piece_off, flat.buffer_info()[0], len(flat), out,
        )
        if status == 0:
            break
        if status == _ILM_NEED_ROWS:
            listed = (_ILM_WORK_ARRAYS - 1) * n  # the last work array
            lacking = scratch.work[listed:listed + result[4]].tolist()
            table.fill(lacking)
            for a in lacking:
                if not full[a]:
                    raise ValueError(f"rows: no full oracle row for node {a}")
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
    dist_addr = row_address(dist, "d", n, "dist")
    g = _graph_state(csr)
    counts = array("Q", bytes(8 * n))
    bad_u = _i64()
    bad_v = _i64()
    status = _LIB.repro_count_paths(
        g.indptr, g.indices, g.weights, n, source, dist_addr, eps,
        counts.buffer_info()[0], ctypes.byref(bad_u), ctypes.byref(bad_v),
    )
    _check(status)
    if status == _COUNT_OVERFLOW:
        return _py.count_paths(csr, source, dist, eps)
    if status == _COUNT_BAD_ORDER:
        raise _py.tight_edge_error(csr, bad_u.value, bad_v.value)
    return counts.tolist()
