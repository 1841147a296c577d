"""Typed byte streams (little-endian, fixed-width).

The wire format is deliberately dumb: fixed-width scalars, length-prefixed
blobs.  :class:`Unpacker` validates every read against the remaining
buffer so truncation surfaces as :class:`~repro.errors.MarshalError`, not
a silent wrong answer.

Zero-copy discipline: a :class:`Packer` can be constructed over a leased
``bytearray`` from a :class:`~repro.marshal.pool.BufferPool` and exported
as a ``memoryview`` (:meth:`Packer.getview`) instead of a ``bytes`` copy;
an :class:`Unpacker` reads any buffer-protocol object in place (it no
longer snapshots its input) and can :meth:`~Unpacker.detach` its internal
view so the backing buffer becomes recyclable.

Arrays: :meth:`Packer.put_ndarray` writes dtype string, ndim, dims and the
C-order raw bytes; :meth:`Packer.put_array` writes a 1-D
:class:`array.array` in that same layout, so both decode with either
:meth:`Unpacker.get_ndarray` or (for one dimension)
:meth:`Unpacker.get_array`.  Only the ``ndarray`` pair imports NumPy.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import TYPE_CHECKING

from repro.errors import MarshalError
from repro.util.words import DTYPE_STRS

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Packer", "Unpacker"]

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_pack_u8 = _U8.pack
_pack_u32 = _U32.pack
_pack_i64 = _I64.pack
_pack_f64 = _F64.pack

#: ``dtype.str`` -> the typecode that holds it, for :meth:`Unpacker.get_array`
_TYPECODE_OF_STR = {s: code for code, s in DTYPE_STRS.items()}


class Packer:
    """Append-only byte stream builder, optionally over a pooled buffer."""

    __slots__ = ("_buf",)

    def __init__(self, buf: bytearray | None = None) -> None:
        self._buf = bytearray() if buf is None else buf

    # ------------------------------------------------------------- scalars

    def put_u8(self, v: int) -> "Packer":
        if not 0 <= v <= 0xFF:
            raise MarshalError(f"u8 out of range: {v}")
        self._buf += _pack_u8(v)
        return self

    def put_u32(self, v: int) -> "Packer":
        if not 0 <= v <= 0xFFFFFFFF:
            raise MarshalError(f"u32 out of range: {v}")
        self._buf += _pack_u32(v)
        return self

    def put_i64(self, v: int) -> "Packer":
        if not -(2**63) <= v < 2**63:
            raise MarshalError(f"i64 out of range: {v}")
        self._buf += _pack_i64(v)
        return self

    def put_f64(self, v: float) -> "Packer":
        self._buf += _pack_f64(v)
        return self

    # --------------------------------------------------------------- blobs

    def put_bytes(self, b: bytes | bytearray | memoryview) -> "Packer":
        """Length-prefixed raw bytes."""
        n = b.nbytes if type(b) is memoryview else len(b)
        self.put_u32(n)
        self._buf += b
        return self

    def put_str(self, s: str) -> "Packer":
        return self.put_bytes(s.encode("utf-8"))

    def put_ndarray(self, a: np.ndarray) -> "Packer":
        """dtype + shape + C-order raw data (copied once, into the stream)."""
        import numpy as np

        self.put_str(a.dtype.str)
        self.put_u8(a.ndim)
        for dim in a.shape:
            self.put_u32(dim)
        arr = np.ascontiguousarray(a)
        if arr.ndim == 0 or arr.size == 0:
            # 0-d and zero-size views cannot be cast to "B"
            self.put_bytes(arr.tobytes())
        else:
            self.put_bytes(memoryview(arr).cast("B"))
        return self

    def put_array(self, a: array) -> "Packer":
        """A 1-D ``array`` in :meth:`put_ndarray`'s layout: the same bytes
        as the ``ndarray`` of its dtype and values, without NumPy."""
        try:
            self.put_str(DTYPE_STRS[a.typecode])
        except KeyError:
            raise MarshalError(f"no dtype for array typecode {a.typecode!r}") from None
        self.put_u8(1)
        self.put_u32(len(a))
        return self.put_bytes(memoryview(a))

    # ---------------------------------------------------------------- final

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def getview(self) -> memoryview:
        """Zero-copy export of the packed bytes.  The buffer must not be
        resized (packed into) while the view is alive."""
        return memoryview(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class Unpacker:
    """Sequential reader over bytes produced by :class:`Packer`.

    Reads happen in place over the given buffer — callers that need the
    values to outlive the buffer get copies anyway (``get_bytes`` returns
    ``bytes``, ``get_ndarray`` / ``get_array`` copy out of the wire view).
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self, data: bytes | bytearray | memoryview):
        # Always a fresh view — even over a memoryview input — so that
        # detach() releases only *our* export, never the caller's payload
        # view (which a BufferPool still needs to resolve via ``.obj``).
        self._buf = memoryview(data)
        self._pos = 0

    def _take(self, n: int) -> memoryview:
        if self._pos + n > len(self._buf):
            raise MarshalError(
                f"buffer underrun: need {n} bytes at offset {self._pos}, "
                f"have {len(self._buf) - self._pos}"
            )
        chunk = self._buf[self._pos : self._pos + n]
        self._pos += n
        return chunk

    # ------------------------------------------------------------- scalars

    def get_u8(self) -> int:
        pos = self._pos
        if pos >= len(self._buf):
            raise MarshalError(f"buffer underrun: need 1 byte at offset {pos}, have 0")
        self._pos = pos + 1
        return self._buf[pos]

    def get_u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def get_i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def get_f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    # --------------------------------------------------------------- blobs

    def get_bytes(self) -> bytes:
        n = self.get_u32()
        return bytes(self._take(n))

    def get_str(self) -> str:
        n = self.get_u32()
        return str(self._take(n), "utf-8")

    def get_ndarray(self) -> np.ndarray:
        import numpy as np

        dstr = self.get_str()
        try:
            dtype = np.dtype(dstr)
        except TypeError:
            raise MarshalError(f"ndarray payload names unknown dtype {dstr!r}") from None
        if dtype.hasobject or not dtype.itemsize:
            raise MarshalError(f"ndarray payload dtype {dstr!r} has no raw-byte form")
        ndim = self.get_u8()
        shape = tuple(self.get_u32() for _ in range(ndim))
        n = self.get_u32()
        raw = self._take(n)
        # a 0-d array holds one element: math.prod(()) == 1
        expect = math.prod(shape) * dtype.itemsize
        if n != expect:
            raise MarshalError(
                f"ndarray payload is {n} bytes, expected {expect} "
                f"for shape {shape} dtype {dtype}"
            )
        # one copy, straight out of the wire view into the result array
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def get_array(self) -> array:
        """Inverse of :meth:`Packer.put_array`: a 1-D payload whose dtype
        an ``array`` typecode holds, decoded without NumPy."""
        dstr = self.get_str()
        code = _TYPECODE_OF_STR.get(dstr)
        if code is None:
            raise MarshalError(f"no array typecode holds dtype {dstr!r}")
        ndim = self.get_u8()
        if ndim != 1:
            raise MarshalError(f"array payload has {ndim} dimensions, expected 1")
        count = self.get_u32()
        n = self.get_u32()
        out = array(code)
        if n != count * out.itemsize:
            raise MarshalError(
                f"array payload is {n} bytes, expected {count * out.itemsize} "
                f"for {count} elements of {dstr}"
            )
        out.frombytes(self._take(n))
        return out

    # ---------------------------------------------------------------- state

    @property
    def remaining(self) -> int:
        return len(self._buf) - self._pos

    def done(self) -> bool:
        return self._pos == len(self._buf)

    def detach(self) -> None:
        """Release the internal view so a pooled backing buffer can be
        recycled.  The unpacker is unusable afterwards."""
        self._buf.release()
