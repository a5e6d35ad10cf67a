"""Base addresses of flat row buffers, checked before C may read them.

The native kernels read rows in place through raw pointers, so every
row handed to them is checked for its typecode and length first, and
its address is taken zero-copy: ``array.array`` exposes it directly,
and read-only memoryviews (rows adopted from shared memory) go through
the buffer protocol.  Pure ``ctypes`` over the CPython API, so the
index tables that store row addresses
(:class:`~repro.kernels.OracleRows`) work without a C toolchain.
"""

from __future__ import annotations

import ctypes
from array import array


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


def buffer_address(view: memoryview) -> int:
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
#: check in :func:`row_address` before its stale address is used.
_VIEW_ADDRS: dict[int, tuple[memoryview, int, str]] = {}
_VIEW_ADDRS_MAX = 1 << 16


def _view_entry(view: memoryview) -> tuple[memoryview, int, str]:
    """``(view, base address, format)`` of a row view, memoized."""
    hit = _VIEW_ADDRS.get(id(view))
    if hit is not None and hit[0] is view:
        return hit
    address = buffer_address(view)
    if len(_VIEW_ADDRS) >= _VIEW_ADDRS_MAX:
        _VIEW_ADDRS.clear()
    hit = _VIEW_ADDRS[id(view)] = (view, address, view.format)
    return hit


def row_address(buf, typecode: str, n: int, what: str) -> int:
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
