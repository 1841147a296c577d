"""Typed words without NumPy.

The language runtimes store a region as an :class:`array.array` and move
bulk blocks as its raw bytes.  The wire and the frame arguments still
name element types the way NumPy does, so that an ``ndarray`` and a word
array of the same values travel as the same bytes.  This module holds
that correspondence: a NumPy dtype name (``"float64"``), the ``array``
typecode that stores it (``"d"``) and its ``dtype.str`` (``"<f8"``).
"""

from __future__ import annotations

import sys
from array import array
from typing import Any

__all__ = ["TYPECODES", "DTYPE_NAMES", "DTYPE_STRS", "typecode", "from_bytes"]

#: NumPy dtype name -> the ``array`` typecode of the same kind and width
TYPECODES = {
    "float64": "d",
    "float32": "f",
    "int64": "q",
    "uint64": "Q",
    "int32": "i",
    "uint32": "I",
    "int16": "h",
    "uint16": "H",
    "int8": "b",
    "uint8": "B",
}

#: typecode -> NumPy dtype name (what bulk frames carry as their dtype)
DTYPE_NAMES = {code: name for name, code in TYPECODES.items()}

_ORDER = "<" if sys.byteorder == "little" else ">"

#: typecode -> NumPy ``dtype.str`` of the native-order dtype (the marshal
#: wire's dtype field)
DTYPE_STRS = {
    "d": _ORDER + "f8",
    "f": _ORDER + "f4",
    "q": _ORDER + "i8",
    "Q": _ORDER + "u8",
    "i": _ORDER + "i4",
    "I": _ORDER + "u4",
    "h": _ORDER + "i2",
    "H": _ORDER + "u2",
    "b": "|i1",
    "B": "|u1",
}


def typecode(dtype: Any) -> str:
    """The ``array`` typecode for ``dtype``: a dtype name resolves from
    :data:`TYPECODES`; any other spelling (``"f8"``, ``np.float64``, a
    ``np.dtype``) goes through NumPy to find its name."""
    code = TYPECODES.get(dtype) if type(dtype) is str else None
    if code is None:
        import numpy as np

        name = np.dtype(dtype).name
        code = TYPECODES.get(name)
        if code is None:
            raise TypeError(f"no array typecode holds dtype {name}")
    return code


def from_bytes(data: Any, dtype: str) -> array:
    """A copy of the words a bulk payload carries, as an ``array`` of
    ``dtype``'s typecode."""
    words = array(typecode(dtype))
    words.frombytes(data)
    return words
