"""Base addresses of flat row buffers, checked before C may read them.

The native kernels read rows in place through raw pointers, so every
row handed to them is checked for its typecode and length first, and
its address is taken zero-copy from the ``array.array`` itself.  Pure
Python, so the index tables that store row addresses
(:class:`~repro.kernels.OracleRows`) work without a C toolchain.
"""

from __future__ import annotations

from array import array


def row_address(buf, typecode: str, n: int, what: str) -> int:
    """Address of a flat row buffer after checking its shape.

    Accepts ``array(typecode)`` of *n* entries only; anything else — a
    list, a memoryview, another typecode, another length — raises
    ``ValueError`` before C could read out of bounds.  The kernels only
    ever read through these addresses.
    """
    if type(buf) is not array:
        raise ValueError(
            f"{what}: expected array({typecode!r}), got {type(buf).__name__}"
        )
    if buf.typecode != typecode or len(buf) != n:
        raise ValueError(
            f"{what}: expected array({typecode!r}) of {n} entries, got "
            f"array({buf.typecode!r}) of {len(buf)}"
        )
    return buf.buffer_info()[0]
